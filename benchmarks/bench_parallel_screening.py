"""Out-of-core + multi-process screening benchmark (and regression gate).

Exercises the two execution tiers PR 4 adds on top of the blockwise/sharded
screening engine:

- **Memory-mapped shard store** (``repro.serving.store``): the catalog's
  embedding rows and precomputed candidate projections persisted as raw
  per-shard ``.npy`` files plus a JSON manifest, reopened with
  ``np.load(..., mmap_mode="r")`` so screening streams candidate blocks
  from disk.  Peak *heap* allocations during a screen must stay
  O(block + k) — a small fraction of the store's bytes — which is what
  lets a catalog (projections included) larger than RAM flow through the
  engine.  (The mapped file pages themselves live in the OS page cache
  and are reclaimable; the gate measures traced allocations, like the
  engine's existing memory gate.)
- **Parallel shard executor** (``repro.serving.executor``): per-shard
  streaming top-k fanned out to a process pool whose workers open shards
  by manifest path (no catalog array is ever pickled), reduced with the
  engine's deterministic cross-shard merge.

Gates (exit non-zero on violation, so CI can run ``--quick`` as a guard):

1. **Bitwise parity**: for every tested (num_shards, block_size,
   num_workers) plan — serial in-memory, serial memory-mapped, and
   multi-process — ``screen`` / ``screen_batch`` return identical
   ``(indices, probabilities)``.  Always on, including ``--quick``.
2. **Out-of-core memory**: peak traced allocation while screening the
   memory-mapped catalog < 1/10 of the store's bytes on disk (i.e.
   O(block + k), not O(catalog)).
3. **Multi-worker speedup**: the process pool beats the serial engine on
   the same store by the floor.  Skipped (reported only) when
   ``os.cpu_count() < 2`` — a single-core box cannot demonstrate it.

    PYTHONPATH=src python benchmarks/bench_parallel_screening.py
    PYTHONPATH=src python benchmarks/bench_parallel_screening.py --quick
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.core.decoder import MLPDecoder, make_screen_kernel
from repro.serving import (DDIScreeningService, ParallelShardExecutor,
                           ShardStore, exact_score_fn)
from _common import peak_memory, ranks, time_of


def _rss_kb() -> int | None:
    """Current VmRSS in KiB (linux), for the informational report."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def check_service_parity(num_drugs: int, hidden_dim: int, top_k: int,
                         max_workers: int, seed: int,
                         failures: list[str]) -> None:
    """Gate 1: every execution plan returns bitwise-identical hits."""
    rng = np.random.default_rng(seed)
    corpus = [r.smiles for r in
              MoleculeGenerator(seed=seed).generate_corpus(num_drugs)]
    config = HyGNNConfig(parameter=4, embed_dim=hidden_dim,
                         hidden_dim=hidden_dim, seed=seed)
    model, _, builder = HyGNN.for_corpus(corpus, config)
    model.eval()
    service = DDIScreeningService(model, builder, corpus, block_size=64)
    queries = [int(q) for q in
               rng.choice(num_drugs, size=min(8, num_drugs), replace=False)]
    exclude = (int(rng.integers(num_drugs)), int(rng.integers(num_drugs)))
    reference = ranks(service.screen_batch(queries, top_k=top_k,
                                           exclude=exclude))
    ref_single = ranks([service.screen(queries[0], top_k=top_k,
                                       symmetric=True)])[0]

    plans = [(1, 64, 2), (3, 37, 2), (5, 17, max_workers),
             (4, num_drugs + 10, max_workers)]
    for num_shards, block_size, workers in plans:
        with tempfile.TemporaryDirectory() as tmp:
            service.save_shards(tmp, num_shards=num_shards)
            if not service.open_shards(tmp, num_workers=workers):
                failures.append(f"open_shards refused its own store "
                                f"(shards={num_shards})")
                continue
            service.block_size = block_size
            label = (f"shards={num_shards}, block={block_size}, "
                     f"workers={workers}")
            mapped = ranks(service.screen_batch(queries, top_k=top_k,
                                                exclude=exclude,
                                                parallel=False))
            if mapped != reference:
                failures.append(f"mmap serial diverges ({label})")
            if workers > 1:
                parallel = ranks(service.screen_batch(queries, top_k=top_k,
                                                      exclude=exclude,
                                                      parallel=True))
                if parallel != reference:
                    failures.append(f"process pool diverges ({label})")
                single = ranks([service.screen(queries[0], top_k=top_k,
                                               symmetric=True,
                                               parallel=True)])[0]
                if single != ref_single:
                    failures.append(f"symmetric parallel screen diverges "
                                    f"({label})")
            service.close()
    plan_count = len(plans)
    print(f"parity: {plan_count} (shards, block, workers) plans x "
          f"{len(queries)} queries vs serial in-memory engine — "
          f"{'OK' if not failures else 'FAILED'}")


def build_synthetic_store(root: Path, num_rows: int, dim: int,
                          num_shards: int, block_size: int, seed: int):
    """A large random catalog + MLP projections persisted as a shard store.

    Synthetic embeddings keep the out-of-core and speedup phases
    independent of corpus generation/encoding cost — the screening engine
    only ever sees (embeddings, projections) arrays.
    """
    rng = np.random.default_rng(seed)
    decoder = MLPDecoder(dim, dim, np.random.default_rng(seed))
    embeddings = rng.standard_normal((num_rows, dim))
    projections = decoder.candidate_projections(embeddings)
    manifest = ShardStore.save(root, embeddings, projections,
                               num_shards=num_shards, block_size=block_size)
    queries = embeddings[rng.choice(num_rows, size=16, replace=False)]
    query_proj = decoder.project_queries(queries, sides=("as_left",))
    kernel = make_screen_kernel(decoder)
    return manifest, kernel, query_proj, len(queries)


def run(num_drugs: int, hidden_dim: int, top_k: int, store_rows: int,
        store_dim: int, num_shards: int, block_size: int, num_workers: int,
        repeats: int, min_speedup: float, seed: int = 0) -> int:
    failures: list[str] = []
    cpus = os.cpu_count() or 1
    # More workers than shards is pure overhead; otherwise honor the flag
    # (the pool paths run — and are parity-checked — even on 1 cpu).
    num_workers = min(num_workers, num_shards)

    # ------------------------------------------------------------------
    # 1: bitwise parity of every execution plan (always gated)
    # ------------------------------------------------------------------
    print(f"building {num_drugs}-drug catalog (hidden_dim={hidden_dim}) "
          f"for the parity gate ...", flush=True)
    check_service_parity(num_drugs, hidden_dim, top_k, num_workers, seed,
                         failures)

    # ------------------------------------------------------------------
    # 2 + 3: out-of-core memory and multi-worker speedup on a synthetic
    # store big enough to measure ({store_rows} x {store_dim}).
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        print(f"writing synthetic shard store ({store_rows} x {store_dim}, "
              f"{num_shards} shards) ...", flush=True)
        manifest, kernel, query_proj, num_queries = build_synthetic_store(
            Path(tmp), store_rows, store_dim, num_shards, block_size, seed)
        store = ShardStore(manifest)
        store_mb = store.nbytes() / 1e6
        catalog = store.catalog(block_size)
        score = exact_score_fn(kernel, query_proj)

        def serial_screen():
            return catalog.screen(score, num_queries, top_k)

        mmap_peak = peak_memory(serial_screen)
        if mmap_peak >= store.nbytes() / 10:
            failures.append(
                f"mmap screen peak {mmap_peak / 1e6:.2f} MB not < 1/10 of "
                f"the {store_mb:.1f} MB store — not O(block + k)")

        executor = ParallelShardExecutor(store, num_workers=num_workers)

        def parallel_screen():
            return executor.screen(kernel, query_proj, num_queries, top_k,
                                   block_size=block_size)

        if _hits_raw(parallel_screen()) != _hits_raw(serial_screen()):
            failures.append("executor results diverge from the serial "
                            "mmap engine on the synthetic store")
        serial_s = time_of(serial_screen, repeats)
        parallel_s = time_of(parallel_screen, repeats)
        executor.close()
        speedup = serial_s / parallel_s

    width = 56
    rss = _rss_kb()
    print()
    print(f"{'benchmark':{width}s} {'value':>14s}")
    print("-" * (width + 15))
    rows = [
        (f"synthetic store on disk ({store_rows} x {store_dim}, "
         f"{num_shards} shards)", f"{store_mb:9.1f} MB"),
        (f"mmap serial screen ({num_queries} queries, block={block_size})",
         f"{serial_s * 1e3:9.1f} ms"),
        (f"process pool screen ({num_workers} workers)",
         f"{parallel_s * 1e3:9.1f} ms"),
        ("mmap screen peak traced allocation",
         f"{mmap_peak / 1e6:9.2f} MB"),
    ]
    if rss is not None:
        rows.append(("process RSS after all phases (informational)",
                     f"{rss / 1024:9.1f} MB"))
    for label, value in rows:
        print(f"{label:{width}s} {value}")
    print("-" * (width + 15))
    gated = cpus >= 2 and num_workers >= 2
    gate = "gated" if gated else (f"skipped: {cpus} cpu" if cpus < 2
                                  else f"skipped: {num_workers} worker")
    print(f"{'multi-worker speedup':{width}s} {speedup:9.2f} x   "
          f"(floor {min_speedup:.2f}x, {gate})")
    if gated and speedup < min_speedup:
        failures.append(f"speedup {speedup:.2f}x below {min_speedup:.2f}x "
                        f"with {num_workers} workers on {cpus} cpus")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


def _hits_raw(results) -> list[tuple[list[int], list[float]]]:
    return [(indices.tolist(), scores.tolist())
            for indices, scores in results]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized run (smaller store, lower floor)")
    parser.add_argument("--drugs", type=int, default=None,
                        help="parity-gate catalog size "
                             "(default: 800, quick: 260)")
    parser.add_argument("--hidden-dim", type=int, default=None,
                        help="parity-gate embedding width "
                             "(default: 64, quick: 16)")
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--store-rows", type=int, default=None,
                        help="synthetic store rows "
                             "(default: 120000, quick: 24000)")
    parser.add_argument("--store-dim", type=int, default=None,
                        help="synthetic store width (default: 64, quick: 32)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--block-size", type=int, default=2048)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions (default: 10, quick: 4)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="failure floor (default: 1.4, quick: 1.1)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.top_k < 1:
        parser.error("--top-k must be >= 1")
    if args.shards < 1 or args.block_size < 1 or args.workers < 1:
        parser.error("--shards, --block-size, --workers must be >= 1")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.drugs is not None and args.drugs < 10:
        parser.error("--drugs must be >= 10")
    if args.store_rows is not None and args.store_rows < 100:
        parser.error("--store-rows must be >= 100")
    def default(value, quick, full):
        return (quick if args.quick else full) if value is None else value

    num_drugs = default(args.drugs, 260, 800)
    hidden_dim = default(args.hidden_dim, 16, 64)
    store_rows = default(args.store_rows, 24000, 120000)
    store_dim = default(args.store_dim, 32, 64)
    repeats = default(args.repeats, 4, 10)
    # `--min-speedup 0` is the explicit way to disable the speedup gate.
    min_speedup = default(args.min_speedup, 1.1, 1.4)
    return run(num_drugs, hidden_dim, args.top_k, store_rows, store_dim,
               args.shards, args.block_size, args.workers, repeats,
               min_speedup, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
