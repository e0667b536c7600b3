"""Deterministic streaming top-k selection for catalog screening.

The screening engine ranks candidates by ``(score descending, index
ascending)`` — exactly the order ``np.argsort(-scores, kind="stable")``
produces, but without ever sorting (or even holding) the full catalog's
scores.  The engine (:func:`repro.serving.shards.screen_shard`) runs
:func:`batch_top_k_sets` per block and :func:`merge_top_k` across shards;
:func:`top_k_desc` and :class:`TopKAccumulator` are the one-query
references the tests hold it to.  The scalar pieces:

- :func:`top_k_desc`: ``np.argpartition``-based top-k over one array,
  O(n + k log k) instead of the O(n log n) full stable argsort, with
  tie-handling bitwise-identical to the stable sort (ties at the selection
  boundary are resolved by ascending index, the same entries the stable
  argsort's first ``k`` slots would contain).
- :class:`TopKAccumulator`: streaming selection over score blocks.  Peak
  state is O(k); each ``update`` costs O(block + k log k).  Because
  ``(score, index)`` is a *total* order (indices are unique), streaming
  selection is exact — the result is independent of how the catalog was
  split into blocks.
- :func:`merge_top_k`: deterministic merge of per-shard top-k results under
  the same total order, so a sharded catalog returns bitwise-identical
  rankings for every shard layout.

Scores may contain ``-inf`` as an exclusion sentinel (excluded candidates
can then only surface when fewer than ``k`` valid candidates exist; callers
filter them).  NaN scores are not supported.
"""

from __future__ import annotations

import numpy as np


def as_float_scores(scores) -> np.ndarray:
    """Coerce to a floating array without widening: float32 stays float32.

    Non-floating inputs (integer score blocks from tests or quantized
    paths) are promoted to float64; floating inputs keep their dtype so
    the low-precision serving tier never silently pays float64 bandwidth.
    """
    scores = np.asarray(scores)
    if not np.issubdtype(scores.dtype, np.floating):
        scores = scores.astype(np.float64)
    return scores


def top_k_set(scores: np.ndarray, k: int) -> np.ndarray:
    """The (unordered) index set of the ``k`` largest scores, exact on ties.

    Membership under the (score desc, index asc) total order is unique, so
    the *set* can be found in O(n) without ordering it; :func:`top_k_desc`
    adds the O(k log k) ordering pass.  Returned indices are in no
    particular order.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if k <= 0 or n == 0:
        return np.zeros(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    # k largest values (tie membership at the boundary is arbitrary here);
    # partitioning ascending on the original array avoids negating it.
    part = np.argpartition(scores, n - k)[n - k:]
    pivot = scores[part].min()
    # Entries strictly above the pivot always make the cut; the remaining
    # slots go to pivot-valued entries in ascending-index order — exactly
    # the ones a stable argsort would have placed in its first k slots.
    sure = np.flatnonzero(scores > pivot)
    tied = np.flatnonzero(scores == pivot)[:k - sure.size]
    return np.concatenate([sure, tied]).astype(np.int64, copy=False)


def batch_top_k_sets(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row top-``k`` column sets of a ``(Q, n)`` score matrix.

    The batched form of :func:`top_k_set`: one ``argpartition`` call for
    the whole query batch instead of ``Q`` python-level calls.  Boundary
    ties are broken by ascending *column*, so membership matches
    ``top_k_set`` row-by-row exactly when columns are ordered by ascending
    global index.  Returns a ``(Q, min(k, n))`` array of column indices in
    ascending order per row.
    """
    scores = np.asarray(scores)
    num_queries, n = scores.shape
    if k <= 0 or n == 0:
        return np.zeros((num_queries, 0), dtype=np.int64)
    if k >= n:
        return np.broadcast_to(np.arange(n, dtype=np.int64),
                               (num_queries, n))
    part = np.argpartition(scores, n - k, axis=1)[:, n - k:]
    pivots = np.take_along_axis(scores, part, axis=1).min(axis=1)
    above = scores > pivots[:, None]
    at_pivot = scores == pivots[:, None]
    # Entries strictly above the per-row pivot always make the cut; the
    # remaining slots go to pivot-valued entries left-to-right (ascending
    # column), exactly top_k_set's tie rule.  Each row keeps exactly k
    # columns, so the flat nonzero unravels to a dense (Q, k) grid.
    need = k - above.sum(axis=1)
    keep = above | (at_pivot & (np.cumsum(at_pivot, axis=1)
                                <= need[:, None]))
    return np.nonzero(keep)[1].reshape(num_queries, k).astype(
        np.int64, copy=False)


def top_k_desc(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ordered like a stable argsort.

    Equivalent to ``np.argsort(-scores, kind="stable")[:k]`` — descending
    score, ties broken by ascending index — but selection-based: O(n) to
    find the boundary, O(k log k) to order the winners.
    """
    scores = np.asarray(scores)
    cand = top_k_set(scores, k)
    order = cand[np.lexsort((cand, -scores[cand]))]
    return order.astype(np.int64, copy=False)


class TopKAccumulator:
    """Running top-k of ``(score, index)`` pairs fed in arbitrary blocks.

    The selection order is total (score descending, unique index ascending),
    so the final result is independent of blocking — feeding the catalog in
    one block or one element at a time yields identical output.  The running
    candidate set is kept *unordered* (membership under a total order is
    unique, so ordering can wait): each update is O(block + k) selection,
    and the single O(k log k) sort happens in :meth:`result`.
    """

    def __init__(self, k: int):
        self.k = k
        self.indices = np.zeros(0, dtype=np.int64)
        self.scores = np.zeros(0, dtype=np.float64)

    def update(self, scores: np.ndarray, indices: np.ndarray) -> None:
        """Fold one block of ``(scores, global indices)`` into the running top-k."""
        if self.k <= 0 or len(scores) == 0:
            return
        scores = as_float_scores(scores)
        indices = np.asarray(indices, dtype=np.int64)
        if self.scores.size == 0 and self.scores.dtype != scores.dtype:
            # Adopt the stream's dtype so float32 blocks stay float32
            # end-to-end (concatenating with an empty float64 array would
            # otherwise promote every block).
            self.scores = self.scores.astype(scores.dtype)
        # top_k_set breaks boundary ties by *position*; when the block's
        # global indices are not ascending (permuted shard layouts), order
        # the block by index first so positional ties coincide with the
        # (score desc, index asc) total order.  Contiguous layouts feed
        # ascending indices and skip the sort.
        if indices.size > 1 and not np.all(indices[1:] > indices[:-1]):
            by_index = np.argsort(indices)
            local = by_index[top_k_set(scores[by_index], self.k)]
        else:
            local = top_k_set(scores, self.k)
        merged_idx = np.concatenate([self.indices, indices[local]])
        merged_sc = np.concatenate([self.scores, scores[local]])
        if len(merged_idx) > self.k:
            # top_k_set breaks boundary ties by *position*; arranging the
            # pool index-ascending first makes positional ties coincide
            # with the global (score, index) total order.
            pool = merged_idx.argsort()
            keep = pool[top_k_set(merged_sc[pool], self.k)]
            merged_idx = merged_idx[keep]
            merged_sc = merged_sc[keep]
        self.indices = merged_idx
        self.scores = merged_sc

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, scores)`` sorted by (score desc, index asc)."""
        order = np.lexsort((self.indices, -self.scores))
        return self.indices[order], self.scores[order]


def merge_top_k(results: list[tuple[np.ndarray, np.ndarray]],
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically merge per-shard ``(indices, scores)`` top-k lists.

    Under the (score desc, index asc) total order the merge of per-shard
    winners equals the global top-k, for every partition of the catalog
    into shards.
    """
    if not results:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    indices = np.concatenate([np.asarray(i, dtype=np.int64)
                              for i, _ in results])
    # Preserve the per-shard score dtype (mixed dtypes promote to the
    # widest, which is the only defensible merge semantics anyway).
    scores = np.concatenate([as_float_scores(s) for _, s in results])
    keep = np.lexsort((indices, -scores))[:max(k, 0)]
    return indices[keep], scores[keep]
