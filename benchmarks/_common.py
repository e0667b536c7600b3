"""Helpers shared by the standalone benchmark scripts.

The scripts run as ``python benchmarks/bench_<name>.py``, which puts this
directory on ``sys.path``, so they import these with ``from _common
import ...``.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc


def time_of(fn, repeats: int) -> float:
    """Median seconds per call over ``repeats`` timed runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_memory(fn) -> int:
    """Peak traced allocation, in bytes, while running ``fn`` once."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def ranks(results) -> list[list[tuple[int, float]]]:
    """``(index, probability)`` of every hit, per query, for comparisons."""
    return [[(h.index, h.probability) for h in hits] for hits in results]
