"""Percentiles and sample summaries shared by every workload."""

from __future__ import annotations

import math
from typing import Sequence

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    The same rule as numpy's default ``method="linear"``: position
    ``(n - 1) * q / 100`` in the sorted sample, interpolated between its
    neighbours.
    """
    if not len(values):
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_tail(count: int, min_beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least ``min_beyond`` samples
    above it, or ``None`` when even the median is unsupported."""
    for q in TAIL_CANDIDATES:
        # Compared in percent units, with slack for 100 - 99.9 != 0.1.
        if count * (100.0 - q) >= min_beyond * 100.0 - 1e-6:
            return q
    return None


def summarize_ms(seconds: Sequence[float]) -> dict:
    """Latency summary in milliseconds, with the sample count and the
    highest tail percentile the count supports."""
    if not len(seconds):
        return {"n": 0, "supported_tail": None}
    ms = [s * 1e3 for s in seconds]
    return {
        "n": len(ms),
        "p50_ms": percentile(ms, 50),
        "p90_ms": percentile(ms, 90),
        "p99_ms": percentile(ms, 99),
        "max_ms": max(ms),
        "mean_ms": sum(ms) / len(ms),
        "supported_tail": supported_tail(len(ms)),
    }


def recall_at_k(found: Sequence[int], truth: Sequence[int]) -> float:
    """Share of the ``truth`` top-k that ``found`` recovered."""
    if not len(truth):
        return 1.0
    return len(set(found) & set(truth)) / len(truth)
