"""Sharded, blockwise catalog layout for million-drug screening.

:class:`ShardedEmbeddingCatalog` partitions a catalog's embedding matrix —
and the precomputed candidate-side decoder projections that ride with it —
into ``S`` shards, each scored in fixed-size blocks.  A screening query runs
per-shard streaming top-k (:func:`screen_shard`, one vectorised
:func:`~repro.serving.topk.batch_top_k_sets` selection per block for the
whole query batch) and a deterministic cross-shard merge
(:func:`~repro.serving.topk.merge_top_k`), so results are bitwise-identical
for every ``(num_shards, block_size, layout)`` choice: peak scoring memory
is O(block + k) per shard, never O(catalog).

The default layout splits rows into contiguous ranges, which keeps every
shard a zero-copy view of the parent arrays.  An explicit ``layout`` (any
partition of the row indices, e.g. hash-assignment) is supported for
distribution experiments; those shards gather their rows once at build
time — the same copy a per-worker deployment would hold locally — sorted
by global index, so every layout runs the same engine.

Every placement runs one pipeline: the envelope (:func:`padded_screen`)
pads each query's budget for its exclusions, runs :func:`screen_shard` on
every shard, and merges the per-shard winners.  The in-memory catalog,
the process pool (:mod:`repro.serving.executor`) and remote workers
(:mod:`repro.serving.remote`) differ only in where ``screen_shard`` runs —
over in-memory views or memory-mapped shard files
(:mod:`repro.serving.store`) — which makes their results bitwise-identical
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .topk import as_float_scores, batch_top_k_sets, merge_top_k

# score_block(embeddings_block, projections_block) -> (num_queries, block) scores
ScoreBlockFn = Callable[[np.ndarray, dict[str, np.ndarray]], np.ndarray]
# run_shards(padded budgets) -> per shard, one (indices, scores) per query
RunShardsFn = Callable[[list[int]],
                       list[list[tuple[np.ndarray, np.ndarray]]]]


def normalize_top_k(top_k, num_queries: int) -> list[int]:
    """Per-query top-k budgets from a scalar or per-query sequence.

    Booleans are rejected explicitly: ``True`` would silently mean
    ``top_k=1`` under the ``int`` check.
    """
    def as_k(value):
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"top_k must be an integer, got {value!r}")
        if not isinstance(value, (int, np.integer)):
            raise TypeError(f"top_k must be an integer, got {value!r}")
        return int(value)

    if isinstance(top_k, (int, np.integer, bool, np.bool_)):
        return [as_k(top_k)] * num_queries
    top_ks = [as_k(k) for k in top_k]
    if len(top_ks) != num_queries:
        raise ValueError(f"per-query top_k has {len(top_ks)} entries for "
                         f"{num_queries} queries")
    return top_ks


def normalize_exclude(exclude, num_queries: int) -> list[np.ndarray]:
    """Per-query exclusion arrays from the polymorphic ``exclude`` argument."""
    empty = np.zeros(0, dtype=np.int64)
    if exclude is None:
        return [empty] * num_queries
    # A flat collection of integers is one shared exclusion set; only a
    # collection of *array-likes* is per-query.  Deciding by element
    # type (not length) keeps `exclude=[3, 5]` meaning "rows 3 and 5,
    # every query" even when the list length equals num_queries.
    if isinstance(exclude, (list, tuple)) and any(
            not isinstance(e, (int, np.integer)) for e in exclude):
        if len(exclude) != num_queries:
            raise ValueError(
                f"per-query exclude has {len(exclude)} entries for "
                f"{num_queries} queries")
        return [np.asarray(e, dtype=np.int64).reshape(-1)
                for e in exclude]
    shared = np.asarray(exclude, dtype=np.int64).reshape(-1)
    return [shared] * num_queries


def screen_shard(shard: "CatalogShard", block_size: int,
                 score_block: ScoreBlockFn, num_queries: int,
                 padded: Sequence[int]
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blockwise streaming top-``padded[qi]`` over one shard, per query.

    This is the unit of work a pool worker executes against a memory-mapped
    shard; the in-memory catalog runs the identical function over its array
    views, so both paths produce bitwise-equal per-shard results.

    Streams a single ``(num_queries, running)`` candidate pool: each block
    contributes its per-row top-``kmax`` columns (one ``argpartition`` for
    the whole batch), the pool is re-sorted by global index so boundary
    ties keep the (score desc, index asc) total order, and re-selected.
    Selecting ``kmax = max(padded)`` rows for every query and truncating
    per query at the end is exact — the top ``padded[qi]`` of the total
    order is a prefix of the top ``kmax``.  Block columns tie-break by
    position, so the shard's global indices must ascend; every shard the
    catalog and the store build does (see :class:`ShardedEmbeddingCatalog`).
    """
    kmax = max(padded, default=0)
    run_idx = run_sc = None
    for start in range(0, shard.num_drugs, block_size):
        stop = start + block_size
        indices = shard.indices[start:stop]
        scores = np.atleast_2d(as_float_scores(score_block(
            shard.embeddings[start:stop],
            {k: v[start:stop] for k, v in shard.projections.items()})))
        if scores.shape != (num_queries, len(indices)):
            raise ValueError(
                f"score_block returned shape {scores.shape}; "
                f"expected ({num_queries}, {len(indices)})")
        if kmax <= 0:
            continue
        cols = batch_top_k_sets(scores, kmax)
        blk_idx = indices[cols]
        blk_sc = np.take_along_axis(scores, cols, axis=1)
        if run_idx is None:
            run_idx, run_sc = blk_idx, blk_sc
            continue
        pool_idx = np.concatenate([run_idx, blk_idx], axis=1)
        pool_sc = np.concatenate([run_sc, blk_sc], axis=1)
        if pool_idx.shape[1] > kmax:
            # Arrange the pool index-ascending per row so positional ties
            # in the re-selection coincide with the total order.
            order = np.argsort(pool_idx, axis=1)
            pool_idx = np.take_along_axis(pool_idx, order, axis=1)
            pool_sc = np.take_along_axis(pool_sc, order, axis=1)
            cols = batch_top_k_sets(pool_sc, kmax)
            run_idx = np.take_along_axis(pool_idx, cols, axis=1)
            run_sc = np.take_along_axis(pool_sc, cols, axis=1)
        else:
            run_idx, run_sc = pool_idx, pool_sc
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
    if run_idx is None:
        return [empty] * num_queries
    # Final ordering: index-ascending rows + a stable sort on descending
    # score == the (score desc, index asc) total order.
    order = np.argsort(run_idx, axis=1)
    run_idx = np.take_along_axis(run_idx, order, axis=1)
    run_sc = np.take_along_axis(run_sc, order, axis=1)
    order = np.argsort(-run_sc, axis=1, kind="stable")
    run_idx = np.take_along_axis(run_idx, order, axis=1)
    run_sc = np.take_along_axis(run_sc, order, axis=1)
    return [(run_idx[qi, :k], run_sc[qi, :k]) if k > 0 else empty
            for qi, k in enumerate(padded)]


def validate_shard_results(results: list[tuple[np.ndarray, np.ndarray]],
                           num_queries: int, padded: Sequence[int],
                           num_drugs: int | None = None
                           ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sanity-check one shard's per-query top-k before it enters the merge.

    Remote workers return results over a network transport; a frame that
    passes the checksum can still be structurally wrong (a buggy or
    mismatched worker).  The merge in :func:`padded_screen` assumes
    well-formed inputs, so the client validates here — shape, dtype
    family, paired lengths, budget ceiling, and (when ``num_drugs`` is
    known) index range — and raises ``ValueError`` on any violation,
    which the caller treats like any other failed request (retry /
    failover).
    """
    if len(results) != num_queries:
        raise ValueError(f"shard returned {len(results)} per-query results "
                         f"for {num_queries} queries")
    checked = []
    for qi, (indices, scores) in enumerate(results):
        indices = np.asarray(indices)
        scores = np.asarray(scores)
        if indices.ndim != 1 or scores.ndim != 1 \
                or len(indices) != len(scores):
            raise ValueError(f"query {qi}: indices/scores are not paired "
                             f"1-D arrays")
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"query {qi}: indices dtype {indices.dtype} "
                             f"is not integral")
        if not np.issubdtype(scores.dtype, np.floating):
            raise ValueError(f"query {qi}: scores dtype {scores.dtype} "
                             f"is not floating")
        if len(indices) > max(padded[qi], 0):
            raise ValueError(f"query {qi}: {len(indices)} rows exceed the "
                             f"padded budget {padded[qi]}")
        if len(indices) and (indices.min() < 0 or (
                num_drugs is not None and indices.max() >= num_drugs)):
            raise ValueError(f"query {qi}: candidate index out of catalog "
                             f"range")
        checked.append((indices.astype(np.int64, copy=False), scores))
    return checked


def padded_screen(num_queries: int, top_k: int | Sequence[int],
                  exclude: Sequence[np.ndarray] | np.ndarray | None,
                  run_shards: RunShardsFn
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The shard-screen envelope every placement shares.

    A placement supplies only ``run_shards(padded)``: run the per-shard
    stage on every shard with these per-query budgets, returning one
    per-query result list per shard, in shard order.  The envelope then
    merges under the (score desc, index asc) total order, filters
    exclusions and truncates, each query independently — a heterogeneous
    batch is bitwise what each query alone returns.

    Exclusions are applied *after* selection: each query's budget is
    padded to ``top_k + len(exclude)`` (0 when ``top_k <= 0``), so the
    excluded rows can never displace an eligible one.  That keeps the
    per-block work free of membership tests, and is exactly equivalent
    to masking candidates up front.
    """
    top_ks = normalize_top_k(top_k, num_queries)
    excludes = normalize_exclude(exclude, num_queries)
    padded = [k + e.size if k > 0 else 0 for k, e in zip(top_ks, excludes)]
    per_shard = run_shards(padded)
    results = []
    for qi, (k, excluded) in enumerate(zip(top_ks, excludes)):
        if len(per_shard) == 1:
            indices, scores = per_shard[0][qi]
        else:
            indices, scores = merge_top_k([res[qi] for res in per_shard],
                                          padded[qi])
        if excluded.size:
            # Tiny membership test ((padded, E) broadcast) — np.isin's
            # dispatch overhead dwarfs the actual work at these sizes.
            keep = ~(indices[:, None] == excluded[None, :]).any(axis=1)
            indices, scores = indices[keep], scores[keep]
        results.append((indices[:max(k, 0)], scores[:max(k, 0)]))
    return results


@dataclass(frozen=True)
class CatalogShard:
    """One shard: global row ids + its slice of embeddings and projections."""

    indices: np.ndarray                  # (m,) global catalog row ids
    embeddings: np.ndarray               # (m, d) embedding rows
    projections: dict[str, np.ndarray]   # per-key (m, ...) projection rows

    @property
    def num_drugs(self) -> int:
        return len(self.indices)


def _as_partition(layout: Sequence[np.ndarray], num_rows: int) -> list[np.ndarray]:
    """The layout's parts, each sorted by global index, validated.

    A shard is a *set* of rows: the (score desc, index asc) total order
    makes its row order invisible in results, so sorting costs nothing
    and gives every shard the ascending indices :func:`screen_shard`
    tie-breaks on.
    """
    parts = [np.sort(np.asarray(part, dtype=np.int64).reshape(-1))
             for part in layout]
    if not parts:
        raise ValueError("layout must contain at least one shard")
    flat = (np.concatenate(parts) if parts else
            np.zeros(0, dtype=np.int64))
    if len(flat) != num_rows or not np.array_equal(np.sort(flat),
                                                   np.arange(num_rows)):
        raise ValueError(
            f"layout must partition the {num_rows} catalog rows exactly once")
    return parts


class ShardedEmbeddingCatalog:
    """Embeddings + candidate projections partitioned for blockwise top-k."""

    def __init__(self, embeddings: np.ndarray,
                 projections: dict[str, np.ndarray] | None = None,
                 num_shards: int = 1, block_size: int = 1024,
                 layout: Sequence[np.ndarray] | None = None):
        embeddings = np.asarray(embeddings)
        if embeddings.ndim != 2:
            raise ValueError("embeddings must be a (num_drugs, dim) matrix")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        projections = dict(projections or {})
        for name, matrix in projections.items():
            if len(matrix) != len(embeddings):
                raise ValueError(
                    f"projection {name!r} has {len(matrix)} rows for "
                    f"{len(embeddings)} catalog drugs")
        num_rows = len(embeddings)
        if layout is None:
            if num_shards < 1:
                raise ValueError("num_shards must be >= 1")
            parts = np.array_split(np.arange(num_rows, dtype=np.int64),
                                   num_shards)
        else:
            parts = _as_partition(layout, num_rows)
        shards = []
        for part in parts:
            if not len(part):
                continue
            lo, hi = int(part[0]), int(part[-1]) + 1
            # A contiguous range (every default shard) is a zero-copy
            # view; any other part gathers its rows once.
            rows = slice(lo, hi) if hi - lo == len(part) else part
            shards.append(CatalogShard(
                indices=part, embeddings=embeddings[rows],
                projections={k: v[rows] for k, v in projections.items()}))
        self._embeddings = embeddings
        self._projections = projections
        self._shards = shards
        self.block_size = block_size

    # ------------------------------------------------------------------
    @property
    def num_drugs(self) -> int:
        return len(self._embeddings)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[CatalogShard]:
        return list(self._shards)

    @property
    def projections(self) -> dict[str, np.ndarray]:
        return dict(self._projections)

    def rows(self, indices: np.ndarray) -> tuple[np.ndarray,
                                                 dict[str, np.ndarray]]:
        """Gather ``(embeddings, projections)`` rows by global catalog index."""
        indices = np.asarray(indices, dtype=np.int64)
        return (self._embeddings[indices],
                {k: v[indices] for k, v in self._projections.items()})

    # ------------------------------------------------------------------
    def screen(self, score_block: ScoreBlockFn, num_queries: int,
               top_k: int | Sequence[int],
               exclude: Sequence[np.ndarray] | np.ndarray | None = None,
               ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Blockwise per-shard top-k + deterministic merge, per query.

        ``score_block`` maps one ``(embeddings, projections)`` block to a
        ``(num_queries, block)`` score matrix; it is invoked once per block
        for the whole query batch.  ``exclude`` is either one global-index
        array applied to every query or a per-query sequence of arrays;
        ``top_k`` is one shared budget or a per-query sequence (queries
        are selected and reduced independently, so a heterogeneous batch
        returns bitwise what each query alone would).  Returns one
        ``(indices, scores)`` pair per query, sorted by (score desc,
        index asc), excluded rows removed (see :func:`padded_screen`);
        fewer than ``top_k`` entries come back when the catalog has fewer
        eligible candidates.
        """
        return padded_screen(
            num_queries, top_k, exclude,
            lambda padded: [screen_shard(shard, self.block_size, score_block,
                                         num_queries, padded)
                            for shard in self._shards])
