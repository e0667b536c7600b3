"""In-memory span tracing around the program's public layer boundaries.

Spans are recorded from the benchmark's own files: a :class:`Probe` names
the attribute a caller actually resolves (``module:Qualified.name``) and
:meth:`Tracer.install` replaces it with a timing wrapper for the traced
run only; :meth:`Tracer.remove` puts the original objects back.  Nothing
in the program is edited.

Each span records its name, start, end, parent span and request id (plus
the benchmark phase it ran in).  A span's self time is its duration minus
the part of its interval that its child spans cover.  Spans stay in
memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

# The request a piece of work belongs to: set by the benchmark's clients
# and by the flush probe, inherited by every span opened underneath.
REQUEST: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_request", default=None)

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the parent span, None = top level
    request: str | None
    phase: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One wrap point.

    ``target`` is ``"module:Owner.attr"`` or ``"module:function"`` — the
    attribute the calling code looks up at call time.  By default the
    replacement times each call as a span named ``span``; ``count`` (if
    given) is called as ``count(tracer, args, kwargs, result)`` to record
    work counters at the same boundary.  ``make`` overrides the whole
    replacement: ``make(tracer, original) -> replacement``.
    """

    target: str
    span: str = ""
    count: Callable | None = None
    make: Callable | None = None


def resolve_owner(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Cls.attr"`` -> (``pkg.mod.Cls``, ``"attr"``)."""
    module_name, _, qualname = target.partition(":")
    if not qualname:
        raise ValueError(f"probe target {target!r} lacks ':attribute'")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    inspect.getattr_static(owner, attr)  # raises AttributeError if absent
    return owner, attr


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per-span duration minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index])
        out.append(span.duration - covered)
    return out


def uncovered_share(spans: Sequence[Span],
                    windows: Sequence[tuple[float, float]]) -> float:
    """Share of the wall time in ``windows`` that no top-level span covers."""
    wall = sum(end - start for start, end in windows)
    if wall <= 0:
        return math.nan
    covered = 0.0
    for w_start, w_end in windows:
        covered += union_length(
            (max(s.start, w_start), min(s.end, w_end))
            for s in spans if s.parent is None)
    return 1.0 - covered / wall


class Tracer:
    """Span recorder plus the install/remove lifecycle of its probes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # Counters and samples are keyed by (phase, name).
        self.counts: Counter = Counter()
        self.samples: dict[tuple, list[float]] = defaultdict(list)
        self.phase: str | None = None
        # Free-form state probes share (e.g. which tape is the train tape).
        self.context: dict[str, Any] = {}
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar(f"perfbench_span_{id(self)}",
                                   default=None)
        self._installed: list[tuple[Any, str, Any, Any]] = []

    # -- recording -------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def sample(self, name: str, value: float) -> None:
        self.samples[(self.phase, name)].append(value)

    @contextmanager
    def span(self, name: str, **attrs):
        span = Span(name, self.clock(), math.nan, self._current.get(),
                    REQUEST.get(), self.phase, attrs)
        self.spans.append(span)
        token = self._current.set(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._current.reset(token)

    def timed(self, fn: Callable, name: str,
              count: Callable | None = None) -> Callable:
        """``fn`` wrapped to record one span (and counters) per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        wrapper.__perfbench_probe__ = True
        return wrapper

    # -- probe lifecycle -------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def install(self, probes: Iterable[Probe]) -> None:
        if self._installed:
            raise RuntimeError("probes are already installed")
        try:
            for probe in probes:
                self._install_one(probe)
        except BaseException:
            self.remove()
            raise

    def _install_one(self, probe: Probe) -> None:
        owner, attr = resolve_owner(probe.target)
        own = vars(owner).get(attr, _MISSING)
        current = inspect.getattr_static(owner, attr)
        if probe.make is not None:
            replacement = probe.make(self, current)
        elif isinstance(current, (classmethod, staticmethod)):
            replacement = type(current)(
                self.timed(current.__func__, probe.span, probe.count))
        else:
            replacement = self.timed(current, probe.span, probe.count)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, own, replacement))

    def remove(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._installed:
            owner, attr, own, _ = self._installed.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- reporting -------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as JSON (one object per span)."""
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "request": s.request,
                 "phase": s.phase, **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows,
                       "counts": [[phase, name, value] for (phase, name), value
                                  in sorted(self.counts.items(), key=str)]},
                      handle)


def is_probe_wrapper(obj: Any) -> bool:
    """True when ``obj`` (or the function inside a class/static method)
    is a wrapper this module installed."""
    func = getattr(obj, "__func__", obj)
    return bool(getattr(func, "__perfbench_probe__", False))
