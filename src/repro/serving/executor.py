"""Multi-process shard executor for the screening engine.

:class:`ParallelShardExecutor` fans the per-shard streaming top-k of a
persisted catalog (:class:`~repro.serving.store.ShardStore`) out to a
process pool and reduces the per-shard winners with the engine's
deterministic cross-shard merge.  The design keeps the parallel plan
bitwise-identical to the serial in-memory engine:

- Workers never receive catalog arrays.  The pool initializer hands each
  worker the *manifest path*; a worker assigned shard *i* memory-maps
  shard *i*'s files itself (``np.load(..., mmap_mode="r")``).  The only
  per-task payload is the picklable weight-free screening kernel
  (:func:`repro.core.decoder.make_screen_kernel`), the query-side
  projections (a few rows), and the per-query padded-k budget — a few
  kilobytes per screen.
- Every worker runs :func:`repro.serving.shards.screen_shard` — the same
  function the serial engine runs over its in-memory views — so per-shard
  results are bitwise-equal by construction, and the parent wraps them in
  the engine's :func:`~repro.serving.shards.padded_screen` envelope
  (padded budgets, then merge under the total (score desc, index asc)
  order, exclusion filter, truncate) — the same code in every plan.
  ``Pool.map`` preserves shard order, so the merge sees shards in exactly
  the serial order.

The pool prefers the ``fork`` start method when the platform offers it
(workers inherit the imported interpreter; startup is milliseconds) and
falls back to the default (``spawn``) elsewhere — everything shipped to
workers is module-level and picklable either way.

Worker death is survived, not propagated: the pool is a
``concurrent.futures.ProcessPoolExecutor``, which raises
:class:`~concurrent.futures.process.BrokenProcessPool` when a worker is
killed mid-task (OOM killer, SIGKILL, segfault) instead of hanging.  On
breakage the executor discards the pool, rebuilds it once, and re-runs
the whole screen; if the rebuilt pool breaks too it degrades to serial
execution over the parent's memory-mapped store — same
:func:`~repro.serving.shards.screen_shard`, same bytes, so the degraded
answer is still bitwise-identical, just slower.  :attr:`stats` counts
rebuilds and serial fallbacks so operators can see the degradation.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..nn.functional import stable_sigmoid
from .shards import padded_screen, screen_shard
from .store import ShardStore


def exact_score_fn(kernel, query_proj: dict,
                   two_sided: bool = False) -> Callable:
    """The exact-mode probability kernel, shared by every execution plan.

    Serial in-memory screening, serial screening over a memory-mapped
    catalog, and pool workers all build their ``score_block`` callback
    here, from the same kernel object type — which is what makes their
    scores bitwise-comparable.
    """
    def exact_probs(_emb_block, proj_block):
        probs = stable_sigmoid(kernel.score_block(query_proj, proj_block))
        if two_sided:
            probs = 0.5 * (probs + stable_sigmoid(
                kernel.score_block(query_proj, proj_block, reverse=True)))
        return probs
    return exact_probs


def screen_store_shard(store: ShardStore, shard_id: int, block_size: int,
                       kernel, query_proj: dict, two_sided: bool,
                       num_queries: int, padded: Sequence[int]
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The exact per-shard stage over one stored shard.

    Pool workers, the pool's serial fallback, remote workers and the
    remote client's local fallback all run this, so whichever placement
    answered is invisible in the results.
    """
    return screen_shard(store.open_shard(shard_id), block_size,
                        exact_score_fn(kernel, query_proj, two_sided),
                        num_queries, padded)


# ---------------------------------------------------------------------------
# Worker-side machinery (module-level for picklability under spawn).
# ---------------------------------------------------------------------------
_WORKER_STORE: ShardStore | None = None
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else None


def _init_worker(manifest_path: str) -> None:
    """Pool initializer: open the shard store once per worker process.

    Opened as a *reader* (``recover=False``, the default): only the
    owning service process recovers torn state, a pool worker must never
    mutate the directory it shares with its siblings.  The worker pins
    the catalog version committed at pool creation — the service closes
    the pool on every store mutation, so a fresh pool reopens here at
    the new version.
    """
    global _WORKER_STORE
    _WORKER_STORE = ShardStore(manifest_path)


def _screen_shard_task(task: tuple) -> list[tuple[np.ndarray, np.ndarray]]:
    """One unit of pool work: stream one memory-mapped shard's top-k."""
    return screen_store_shard(_WORKER_STORE, *task)


class ParallelShardExecutor:
    """Process-pool fan-out over the shards of one :class:`ShardStore`.

    The pool is created lazily on the first :meth:`screen` and reused —
    worker startup and the per-worker store open are paid once, not per
    query.  Call :meth:`close` (or use the executor as a context manager)
    to release the workers; the executor can be reused afterwards (a new
    pool spins up on demand).
    """

    def __init__(self, store: ShardStore | str | Path,
                 num_workers: int | None = None):
        if not isinstance(store, ShardStore):
            store = ShardStore(store)
        if num_workers is None:
            num_workers = min(os.cpu_count() or 1, store.num_shards)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._store = store
        self.num_workers = num_workers
        self._pool: ProcessPoolExecutor | None = None
        self.stats = {"pool_rebuilds": 0, "serial_fallbacks": 0}

    @property
    def store(self) -> ShardStore:
        return self._store

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.num_workers, self._store.num_shards),
                mp_context=mp.get_context(_START_METHOD),
                initializer=_init_worker,
                initargs=(str(self._store.path),))
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its corpses."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def screen(self, kernel, query_proj: dict, num_queries: int,
               top_k: int | Sequence[int],
               block_size: int | None = None,
               exclude: Sequence[np.ndarray] | np.ndarray | None = None,
               two_sided: bool = False
               ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Parallel exact-mode screen; bitwise-equal to the serial engine.

        Same contract as :meth:`ShardedEmbeddingCatalog.screen`: one
        ``(indices, probabilities)`` pair per query, sorted by
        (probability desc, index asc), exclusions removed; ``top_k`` may
        be one shared budget or a per-query sequence.
        """
        block_size = block_size or self._store.block_size
        return padded_screen(
            num_queries, top_k, exclude,
            lambda padded: self._run_tasks([
                (shard_id, block_size, kernel, query_proj, two_sided,
                 num_queries, padded)
                for shard_id in range(self._store.num_shards)]))

    def _run_tasks(self, tasks: list[tuple]
                   ) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """Pool map with survival: rebuild once on a broken pool, then
        degrade to serial execution over the parent's mapped store.

        ``ProcessPoolExecutor.map`` preserves task order, and every
        recovery path screens the same shard bytes with the same
        ``screen_shard`` — results are bitwise-identical whichever plan
        answered.
        """
        for round_index in range(2):
            try:
                return list(self._ensure_pool().map(
                    _screen_shard_task, tasks))
            except BrokenProcessPool:
                self._discard_pool()
                if round_index == 0:
                    self.stats["pool_rebuilds"] += 1
        self.stats["serial_fallbacks"] += 1
        return [screen_store_shard(self._store, *task) for task in tasks]

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelShardExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __del__(self):
        # Best-effort cleanup if close() was never called; don't wait
        # because __del__ may run at interpreter shutdown.
        if getattr(self, "_pool", None) is not None:
            self._discard_pool()
