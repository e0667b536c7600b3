"""Pieces every workload shares: operation accounting, closed-loop
clients, pooled corpora, and reconciliation against the program's
counters."""

from __future__ import annotations

import asyncio
import gc
import itertools
import resource
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from stats import summarize_ms
from tracing import REQUEST


@dataclass
class Phase:
    """Operation accounting for one measured phase."""

    name: str
    start: float = 0.0
    end: float = 0.0
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    latencies: list[float] = field(default_factory=list)   # seconds

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def per_s(self) -> float:
        return self.succeeded / self.wall if self.wall > 0 else 0.0

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if not self.errors:
            traceback.print_exception(exc)
        self.errors[type(exc).__name__] += 1

    def report(self) -> dict:
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed, "errors": dict(self.errors),
                "wall_s": self.wall, "per_s": self.per_s,
                "latency": summarize_ms(self.latencies)}


@dataclass
class Checks:
    """Correctness failures; each mismatched answer or counter is one
    failed operation."""

    failures: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failures += count
        self.messages.append(message)


async def closed_loop(phase: Phase, clients: int, seconds: float,
                      pick: Callable[[int], Any],
                      call: Callable[[Any], Awaitable[Any]],
                      on_result: Callable[..., None]) -> None:
    """``clients`` callers, each sending its next request only after the
    previous one answered, until ``seconds`` have passed.

    Every request started is answered before the phase ends; a request
    that raises counts as failed.  ``on_result(item, started, result)``
    receives each success.
    """
    deadline = time.perf_counter() + seconds

    async def client(index: int) -> None:
        n = 0
        while time.perf_counter() < deadline:
            item = pick(index)
            REQUEST.set(f"{phase.name}-{index}-{n}")
            n += 1
            phase.sent += 1
            started = time.perf_counter()
            try:
                result = await call(item)
            except Exception as exc:  # noqa: BLE001 — counted, run fails
                phase.fail(exc)
                continue
            phase.latencies.append(time.perf_counter() - started)
            phase.succeeded += 1
            on_result(item, started, result)

    phase.start = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(clients)))
    phase.end = time.perf_counter()


def mixed_corpus(seed: int, count: int, parts: int = 16,
                 exclude: set[str] = frozenset()) -> list[str]:
    """``count`` distinct SMILES drawn round-robin from ``parts`` generators.

    Each ``MoleculeGenerator`` seed permutes which fragments are popular,
    so one generator's molecule sizes (and with them every encode cost)
    swing by a third between seeds; pooling many generators keeps the
    corpus statistics close from one workload seed to the next.  The
    round-robin order keeps every prefix of the list pooled too.
    """
    from repro.chem import MoleculeGenerator

    per_part = -(-count // parts)
    draws = [[r.smiles for r in MoleculeGenerator(seed=[seed, part])
              .generate_corpus(per_part + per_part // 10 + 8)]
             for part in range(parts)]
    seen, out = set(exclude), []
    for smiles in itertools.chain.from_iterable(zip(*draws)):
        if smiles not in seen:
            seen.add(smiles)
            out.append(smiles)
    if len(out) < count:
        raise RuntimeError(f"generated {len(out)} distinct molecules, "
                           f"{count} needed")
    return out[:count]


def counters(service) -> dict[str, int]:
    """The integer ``ServiceStats`` counters of ``service``."""
    return {k: v for k, v in service.stats.as_dict().items()
            if isinstance(v, int)}


def reconcile(name: str, before: dict, after: dict,
              expected: dict[str, int], checks: Checks) -> None:
    """Check that each program counter moved by exactly ``expected``."""
    for key, want in expected.items():
        moved = after[key] - before[key]
        if moved != want:
            checks.fail(f"{name}: ServiceStats.{key} moved by {moved}, "
                        f"the benchmark counted {want}")


def timed_setups(build: Callable[[], Any], reps: int,
                 release: Callable[[Any], None]) -> tuple[Any, list[float]]:
    """Run ``build`` ``reps`` times; keep the last result.

    Earlier results are released before the next build, so set-up memory
    is not double-counted in the peak.
    """
    times, built = [], None
    for _ in range(reps):
        if built is not None:
            release(built)
            built = None
            gc.collect()
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    return built, times


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_values(untraced_per_s: float, traced_per_s: float,
                 uncovered: float) -> dict[str, float]:
    """Tracing overhead (throughput lost to the probes) and uncovered
    share, both in percent."""
    overhead = (untraced_per_s / traced_per_s - 1.0) * 100.0 \
        if traced_per_s > 0 else float("nan")
    return {"overhead_pct": overhead, "uncovered_pct": uncovered * 100.0}
