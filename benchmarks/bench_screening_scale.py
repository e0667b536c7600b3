"""Screening-engine benchmark: blockwise/sharded top-k vs the legacy path.

Compares two implementations of "screen one drug against the catalog":

- **legacy** (the pre-engine hot path): materialize a full ``(N, 2)`` pair
  array, push all N candidates through the decoder at once
  (``score_pairs`` -> gather + concat + full GEMM), then rank with a full
  O(N log N) stable argsort.  Per-query compute *and* memory are linear in
  the catalog with large constants.
- **engine** (``DDIScreeningService.screen``): candidate-side decoder
  projections precomputed once per (weights, catalog) version, candidates
  streamed in fixed-size blocks through blocking-invariant kernels with
  ``np.argpartition``-based top-k selection — peak scoring memory is
  O(block + k), and per-query FLOPs drop by ~the embedding dimension.

Gates (exit non-zero on violation, so CI can run it as a regression guard):

1. engine screen speedup >= the floor (5x at the default 2000-drug scale
   with ``hidden_dim=128``, a value from the paper's own search grid —
   the fast path's headline property is that per-query cost no longer
   scales with the embedding width, so the wider the model, the bigger
   the win; the ``hidden_dim=64`` ratio is also reported);
2. engine ranking identical to legacy, probabilities within 1e-9 for the
   MLP decoder and **bitwise** for the dot decoder (the MLP folded kernel
   is the same real-valued function as the legacy concat GEMM, but no
   precomputation can reproduce that GEMM's interleaved accumulation
   order bitwise — the dot kernel reuses the legacy ops exactly);
3. exact-mode scores bitwise-identical across block sizes, shard counts,
   and query batching (the engine's determinism contract);
4. peak scoring memory: engine < legacy/3 and strictly below the bytes of
   the ``(N, 2d)`` concat the legacy path materializes — i.e. O(block + k),
   no full pair materialization.

Measured numbers are written to a machine-readable ``BENCH_screening.json``
(``BENCH_screening_quick.json`` under ``--quick``) so the perf trajectory
is tracked across PRs.

    PYTHONPATH=src python benchmarks/bench_screening_scale.py          # 2000 drugs
    PYTHONPATH=src python benchmarks/bench_screening_scale.py --quick  # CI-sized
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.serving import DDIScreeningService
from _common import peak_memory, time_of


def legacy_screen(service: DDIScreeningService, query: int,
                  top_k: int) -> list[tuple[int, float]]:
    """The pre-engine screen: full (N, 2) pairs + full stable argsort."""
    candidates = np.arange(service.num_drugs, dtype=np.int64)
    pairs = np.stack([np.full_like(candidates, query), candidates], axis=1)
    probs = service.score_pairs(pairs)
    hits = []
    for j in np.argsort(-probs, kind="stable"):
        if int(j) == query:
            continue
        hits.append((int(j), float(probs[j])))
        if len(hits) == top_k:
            break
    return hits


def _hit_list(hits) -> list[tuple[int, float]]:
    return [(h.index, h.probability) for h in hits]


def run(num_drugs: int, top_k: int, block_size: int, hidden_dim: int,
        repeats: int, min_speedup: float, output: str,
        seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    print(f"generating {num_drugs}-drug catalog "
          f"(hidden_dim={hidden_dim}) ...", flush=True)
    corpus = [r.smiles for r in
              MoleculeGenerator(seed=seed).generate_corpus(num_drugs)]
    config = HyGNNConfig(parameter=4, embed_dim=hidden_dim,
                         hidden_dim=hidden_dim, seed=seed)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    model.eval()
    service = DDIScreeningService(model, builder, corpus,
                                  block_size=block_size)
    query = int(rng.integers(num_drugs))
    batch = rng.choice(num_drugs, size=min(32, num_drugs), replace=False)
    failures: list[str] = []

    print(f"hypergraph: {hypergraph}")
    service.screen(query, top_k=top_k)  # pay the one-off encode + precompute

    # ------------------------------------------------------------------
    # 1+2: speed and parity, MLP decoder (the paper's best variant)
    # ------------------------------------------------------------------
    legacy_s = time_of(lambda: legacy_screen(service, query, top_k), repeats)
    engine_s = time_of(lambda: service.screen(query, top_k=top_k), repeats)
    speedup = legacy_s / engine_s

    legacy_hits = legacy_screen(service, query, top_k)
    engine_hits = _hit_list(service.screen(query, top_k=top_k))
    if [j for j, _ in engine_hits] != [j for j, _ in legacy_hits]:
        failures.append("engine ranking diverges from the legacy path")
    prob_gap = max((abs(a - b) for (_, a), (_, b)
                    in zip(engine_hits, legacy_hits)), default=0.0)
    if prob_gap > 1e-9:
        failures.append(f"MLP probability gap {prob_gap:.2e} exceeds 1e-9")

    # ------------------------------------------------------------------
    # 3: exact-mode determinism across execution plans
    # ------------------------------------------------------------------
    reference = engine_hits
    for blocks, shards in [(max(1, block_size // 4), 1), (block_size, 7),
                           (num_drugs + 100, 3)]:
        service.block_size, service.num_shards = blocks, shards
        if _hit_list(service.screen(query, top_k=top_k)) != reference:
            failures.append(f"scores not bitwise-stable at block={blocks}, "
                            f"shards={shards}")
    service.block_size, service.num_shards = block_size, 1
    batched = service.screen_batch(list(batch), top_k=top_k)
    singles = [service.screen(int(q), top_k=top_k) for q in batch]
    if [_hit_list(h) for h in batched] != [_hit_list(h) for h in singles]:
        failures.append("screen_batch diverges from per-query screens")
    batch_each_s = time_of(lambda: service.screen_batch(list(batch),
                                                        top_k=top_k),
                           max(3, repeats // 4)) / len(batch)

    # ------------------------------------------------------------------
    # 4: peak scoring memory
    # ------------------------------------------------------------------
    legacy_peak = peak_memory(lambda: legacy_screen(service, query, top_k))
    engine_peak = peak_memory(lambda: service.screen(query, top_k=top_k))
    concat_bytes = num_drugs * 2 * hidden_dim * 8
    if engine_peak >= legacy_peak / 3:
        failures.append(f"engine peak {engine_peak / 1e6:.2f} MB not < 1/3 "
                        f"of legacy {legacy_peak / 1e6:.2f} MB")
    if engine_peak >= concat_bytes:
        failures.append(f"engine peak {engine_peak / 1e6:.2f} MB >= the "
                        f"(N, 2d) concat ({concat_bytes / 1e6:.2f} MB) — "
                        f"not O(block + k)")

    # ------------------------------------------------------------------
    # Dot decoder: bitwise-legacy parity + approximate mode
    # ------------------------------------------------------------------
    dot_model = HyGNN(model.encoder.num_substructures,
                      config.with_updates(decoder="dot"))
    dot_model.eval()
    dot_service = DDIScreeningService(dot_model, builder, corpus,
                                      block_size=block_size)
    dot_engine = _hit_list(dot_service.screen(query, top_k=top_k))
    dot_legacy = legacy_screen(dot_service, query, top_k)
    if dot_engine != dot_legacy:
        failures.append("dot-decoder engine is not bitwise-identical to "
                        "the legacy path")
    dot_exact_s = time_of(lambda: dot_service.screen(query, top_k=top_k),
                          repeats)
    dot_approx_s = time_of(lambda: dot_service.screen(query, top_k=top_k,
                                                      approx=True), repeats)
    approx_hits = _hit_list(dot_service.screen(query, top_k=top_k,
                                               approx=True))
    recall = len({j for j, _ in approx_hits} & {j for j, _ in dot_engine}) \
        / max(len(dot_engine), 1)

    # ------------------------------------------------------------------
    # Context row: the same catalog at hidden_dim=64 (ungated — the
    # engine's win grows with embedding width, this shows the narrow end).
    # ------------------------------------------------------------------
    narrow_speedup = None
    if hidden_dim != 64:
        narrow_model, _, narrow_builder = HyGNN.for_corpus(
            corpus, config.with_updates(embed_dim=64, hidden_dim=64))
        narrow_model.eval()
        narrow = DDIScreeningService(narrow_model, narrow_builder, corpus,
                                     block_size=block_size)
        narrow.screen(query, top_k=top_k)
        narrow_speedup = (
            time_of(lambda: legacy_screen(narrow, query, top_k), repeats)
            / time_of(lambda: narrow.screen(query, top_k=top_k), repeats))

    width = 52
    print()
    print(f"{'benchmark (' + str(num_drugs) + ' drugs, top-' + str(top_k) + ')':{width}s} "
          f"{'median':>12s}")
    print("-" * (width + 13))
    rows = [
        ("legacy screen (full pairs + stable argsort)", legacy_s),
        (f"engine screen (block={block_size}, exact)", engine_s),
        (f"engine screen_batch ({len(batch)} queries, per query)",
         batch_each_s),
        ("dot decoder: engine screen (exact)", dot_exact_s),
        ("dot decoder: engine screen (approx prefilter)", dot_approx_s),
    ]
    for label, seconds in rows:
        print(f"{label:{width}s} {seconds * 1e3:9.3f} ms")
    print("-" * (width + 13))
    print(f"{'single-query screen speedup':{width}s} {speedup:9.1f} x   "
          f"(floor {min_speedup:.0f}x)")
    if narrow_speedup is not None:
        print(f"{'  ... same catalog at hidden_dim=64 (ungated)':{width}s} "
              f"{narrow_speedup:9.1f} x")
    print(f"{'MLP engine-vs-legacy probability gap':{width}s} "
          f"{prob_gap:12.2e}   (floor 1e-09; ranking identical)")
    print(f"{'peak scoring memory: legacy':{width}s} "
          f"{legacy_peak / 1e6:9.2f} MB")
    print(f"{'peak scoring memory: engine':{width}s} "
          f"{engine_peak / 1e6:9.2f} MB  (< (N,2d) concat = "
          f"{concat_bytes / 1e6:.2f} MB)")
    print(f"{'approx top-' + str(top_k) + ' recall vs exact (dot)':{width}s} "
          f"{recall:9.2%}")
    print(f"stats: {service.stats.as_dict()}")

    if speedup < min_speedup:
        failures.append(f"speedup {speedup:.1f}x below {min_speedup:.0f}x")

    results = {
        "config": {
            "num_drugs": num_drugs,
            "top_k": top_k,
            "block_size": block_size,
            "hidden_dim": hidden_dim,
            "repeats": repeats,
            "seed": seed,
        },
        "screen_ms": {
            "legacy": legacy_s * 1000,
            "engine": engine_s * 1000,
            "engine_batched_per_query": batch_each_s * 1000,
            "dot_exact": dot_exact_s * 1000,
            "dot_approx": dot_approx_s * 1000,
        },
        "screen_speedup": speedup,
        "narrow_speedup": narrow_speedup,
        "mlp_probability_gap": prob_gap,
        "peak_scoring_bytes": {"legacy": legacy_peak, "engine": engine_peak,
                               "pair_concat": concat_bytes},
        "dot_approx_recall": recall,
        "gates": {"min_speedup": min_speedup},
        "failures": failures,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized run (fewer drugs, lower floor)")
    parser.add_argument("--drugs", type=int, default=None,
                        help="catalog size (default: 2000, quick: 400)")
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--block-size", type=int, default=None,
                        help="engine block size (default: 1024, quick: 128)")
    parser.add_argument("--hidden-dim", type=int, default=128,
                        help="embedding width (default: 128, from the "
                             "paper's search grid)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions (default: 20, quick: 5)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="failure floor (default: 5, quick: 2)")
    parser.add_argument("--seed", type=int, default=0)
    # --quick writes to a separate file by default so a smoke run never
    # clobbers the committed full-gate record.
    parser.add_argument("--output", default=None,
                        help="JSON results path (default: "
                             "BENCH_screening.json, quick: "
                             "BENCH_screening_quick.json)")
    args = parser.parse_args()
    if args.top_k < 1:
        parser.error("--top-k must be >= 1")
    if args.drugs is not None and args.drugs < 2:
        parser.error("--drugs must be >= 2")
    if args.block_size is not None and args.block_size < 1:
        parser.error("--block-size must be >= 1")
    if args.hidden_dim is not None and args.hidden_dim < 1:
        parser.error("--hidden-dim must be >= 1")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    num_drugs = args.drugs or (400 if args.quick else 2000)
    block_size = args.block_size or (128 if args.quick else 1024)
    repeats = args.repeats or (5 if args.quick else 20)
    min_speedup = args.min_speedup or (2.0 if args.quick else 5.0)
    output = args.output or ("BENCH_screening_quick.json" if args.quick
                             else "BENCH_screening.json")
    return run(num_drugs, args.top_k, block_size, args.hidden_dim, repeats,
               min_speedup, output, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
