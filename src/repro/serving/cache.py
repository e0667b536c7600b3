"""Versioned drug-embedding cache for the DDI screening service.

The cache binds three things together: the catalog's embedding matrix, the
frozen :class:`~repro.core.encoder.EncoderContext` new drugs are encoded
against, and a *fingerprint* of the model weights that produced both.  Any
weight update (an optimizer step, ``load_state_dict``, a manual edit) changes
the fingerprint, which the service detects on the next query and rebuilds the
cache — stale embeddings are never served.

Two fingerprint modes are available:

- ``"fast"`` (default): per-parameter shape + sum + strided sample sums.
  O(params) numpy reductions, ~100x cheaper than hashing the raw bytes, and
  any realistic training update (dense optimizers touch every entry) flips
  it.  It is a checksum, not a cryptographic digest.
- ``"full"``: BLAKE2b over every parameter's bytes — exact, for deployments
  that would rather pay milliseconds per query than trust a checksum.

``DDIScreeningService.invalidate()`` remains the explicit, guaranteed path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.encoder import EncoderContext
from ..nn import Module, Tensor

FINGERPRINT_MODES = ("fast", "full")


def _fingerprint_to_json(fingerprint: tuple) -> str:
    """Serialise a fingerprint tuple losslessly (floats survive via repr)."""
    def convert(value):
        if isinstance(value, tuple):
            return {"t": [convert(v) for v in value]}
        return value

    return json.dumps(convert(fingerprint))


def _fingerprint_from_json(payload: str) -> tuple:
    def restore(value):
        if isinstance(value, dict):
            return tuple(restore(v) for v in value["t"])
        return value

    return restore(json.loads(payload))


def _npz_path(path: str | Path) -> Path:
    """The file ``np.savez`` writes for ``path``: ``.npz`` appended when
    missing, so a saver can return the path that actually exists."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _context_arrays(context: EncoderContext) -> dict[str, np.ndarray]:
    """The frozen encoder context as ``.npz`` arrays (one layer each)."""
    arrays = {"num_context_layers": np.asarray(context.num_layers)}
    for index, layer in enumerate(context.layer_node_feats):
        arrays[f"context_layer_{index}"] = layer.data
    return arrays


def _context_from_arrays(archive) -> EncoderContext:
    """Inverse of :func:`_context_arrays` over an open ``np.load`` archive
    (the context comes back detached)."""
    return EncoderContext(layer_node_feats=tuple(
        Tensor(archive[f"context_layer_{index}"])
        for index in range(int(archive["num_context_layers"]))))


def weights_fingerprint(model: Module, mode: str = "fast",
                        params: list[tuple[str, "Tensor"]] | None = None
                        ) -> tuple:
    """A hashable token identifying the model's current weights.

    ``params`` lets hot-path callers pass a cached ``sorted(
    model.named_parameters())`` list — the parameter *set* of a model is
    fixed after construction, only ``.data`` values change, and walking
    the module tree every query costs more than the checksums themselves.
    """
    if mode not in FINGERPRINT_MODES:
        raise ValueError(f"fingerprint mode must be one of "
                         f"{FINGERPRINT_MODES}, got {mode!r}")
    if params is None:
        params = sorted(model.named_parameters())
    if mode == "full":
        digest = hashlib.blake2b(digest_size=16)
        for name, param in params:
            digest.update(name.encode("utf-8"))
            digest.update(str(param.data.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(param.data).tobytes())
        return ("full", digest.hexdigest())
    parts: list[tuple] = []
    for name, param in params:
        data = param.data
        flat = data.reshape(-1)
        # Whole-array sum: any dense update (optimizer steps touch every
        # entry) flips it.  Large arrays add two contiguous window sums to
        # also catch partial edits that happen to preserve the total; for
        # small arrays the windows would cost more in reduction-dispatch
        # overhead than they add in power.
        if flat.size >= 4096:
            third = flat.size // 3
            parts.append((name, data.shape, float(np.add.reduce(flat)),
                          float(np.add.reduce(flat[:third])),
                          float(np.add.reduce(flat[-third:]))))
        else:
            parts.append((name, data.shape, float(np.add.reduce(flat))))
    return ("fast", tuple(parts))


class LatencyWindow:
    """Sliding window of per-request latencies for percentile/QPS readouts.

    Keeps the most recent ``capacity`` completions as
    ``(latency_seconds, completed_at)`` pairs (monotonic-clock timestamps).
    Percentiles interpolate linearly over the window; throughput is
    completions over the window's completion-time span — both are *recent*
    figures by construction, so a long-lived gateway reports current load,
    not its lifetime average.  ``count`` is the lifetime total.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._latencies: deque[float] = deque(maxlen=capacity)
        self._completed: deque[float] = deque(maxlen=capacity)
        self.count = 0

    def record(self, latency: float, completed_at: float) -> None:
        """Fold one completed request into the window."""
        self._latencies.append(float(latency))
        self._completed.append(float(completed_at))
        self.count += 1

    def __len__(self) -> int:
        return len(self._latencies)

    def percentile(self, q: float) -> float:
        """Latency percentile (seconds) over the window; NaN when empty."""
        if not self._latencies:
            return float("nan")
        return float(np.percentile(
            np.fromiter(self._latencies, dtype=np.float64), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def qps(self) -> float:
        """Completions per second across the window's time span."""
        if len(self._completed) < 2:
            return 0.0
        span = self._completed[-1] - self._completed[0]
        return (len(self._completed) - 1) / span if span > 0 else 0.0

    def summary(self) -> dict:
        """Plain-dict readout (milliseconds for the percentiles)."""
        return {"count": self.count,
                "window": len(self._latencies),
                "p50_ms": self.p50 * 1e3,
                "p99_ms": self.p99 * 1e3,
                "qps": self.qps}


@dataclass
class ServiceStats:
    """Observability counters for one :class:`DDIScreeningService`.

    ``pairs_scored`` counts *useful* exact decoder evaluations only: pairs
    whose scores a caller could observe.  Screening charges
    ``num_drugs - len(excluded)`` per query (excluded candidates — always
    at least the query itself — are filtered and never reported);
    approximate screening charges its shortlist scan to
    ``prefilter_pairs`` (one cheap inner-product comparison per candidate)
    and only the exact rescores of the surviving shortlist to
    ``pairs_scored``.

    The ``gateway_*`` fields are maintained by
    :class:`~repro.serving.gateway.ScreeningGateway`: admission /
    deadline / flush counters, a batch-size histogram (batch size →
    number of flushes at that size), and a :class:`LatencyWindow` of
    end-to-end request latencies (enqueue → response) exposing
    p50/p99/QPS.

    The living-catalog fields track streaming mutations:
    ``registrations`` counts drugs registered onto the live service (with
    end-to-end timings in ``registration_latency``),
    ``appends_committed`` / ``compactions`` / ``rollbacks`` count catalog
    versions committed to the attached shard store, and
    ``gateway_epoch_swaps`` counts flushes that observed a different
    catalog epoch than the previous flush — how often in-flight traffic
    crossed a catalog version boundary.
    """

    corpus_encodes: int = 0        # full catalog-context rebuilds
    incremental_encodes: int = 0   # drugs embedded without a rebuild
    cache_hits: int = 0            # queries answered from cached embeddings
    invalidations: int = 0         # caches dropped (stale weights / explicit)
    cache_loads: int = 0           # warm restarts from a persisted cache
    pairs_scored: int = 0          # exact decoder pair evaluations (eligible)
    prefilter_pairs: int = 0       # approximate-mode prefilter comparisons
    screens: int = 0
    parallel_screens: int = 0      # queries answered by the process pool
    remote_screens: int = 0        # queries answered by remote shard workers
    registrations: int = 0         # drugs registered onto the live catalog
    appends_committed: int = 0     # store versions committed by appends
    compactions: int = 0           # store versions committed by compaction
    rollbacks: int = 0             # store versions committed by rollback
    gateway_requests: int = 0      # requests admitted to the gateway queue
    gateway_rejections: int = 0    # admission-control fast-fails (queue full)
    gateway_expirations: int = 0   # deadlines missed before/during scoring
    gateway_failures: int = 0      # admitted requests failed by an exception
    gateway_batches: int = 0       # coalesced service calls (flushes)
    gateway_epoch_swaps: int = 0   # flushes that crossed a catalog epoch
    gateway_batch_sizes: dict = field(default_factory=dict)
    gateway_latency: LatencyWindow = field(default_factory=LatencyWindow)
    registration_latency: LatencyWindow = field(
        default_factory=LatencyWindow)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["gateway_batch_sizes"] = dict(self.gateway_batch_sizes)
        out["gateway_latency"] = self.gateway_latency.summary()
        out["registration_latency"] = self.registration_latency.summary()
        return out


# Cache versions are allocated from one process-wide monotonic counter, so a
# version number is never reused — not across mutations of one cache, and not
# across cache *instances* (a snapshot loaded over a warm service must never
# collide with a version the previous cache object already handed out, or
# derived structures keyed on the version would serve stale data).
_VERSION_COUNTER = itertools.count(1)


@dataclass
class EmbeddingCache:
    """Embedding matrix + encoder context, valid for one weights fingerprint.

    Alongside the raw embeddings the cache can hold the *candidate-side
    decoder projections* (``decoder.candidate_projections``), the per-
    (weights, catalog) precompute that makes screening queries one
    broadcast-add instead of a catalog-sized GEMM.  ``version`` is a
    globally unique token reassigned on every content change (from
    ``_VERSION_COUNTER``) so derived structures (the service's sharded
    catalog, an open shard store) know when to rebuild — and can never
    confuse two caches' states, even across :meth:`load` round-trips.
    """

    fingerprint: tuple | None = None
    context: EncoderContext | None = None
    embeddings: np.ndarray | None = None  # (num_catalog_drugs, hidden_dim)
    projections: dict[str, np.ndarray] | None = None  # candidate precompute
    # Low-rank prefilter factors ({"mean", "components"}) behind the
    # projections' "sketch" rows; per (weights, catalog) version like them.
    sketch_factors: dict[str, np.ndarray] | None = None
    catalog_digest: str | None = None     # set by save()/load() snapshots
    shard_manifest: str | None = None     # shard-store manifest path, if any
    version: int = 0                      # globally unique content token
    stats: ServiceStats = field(default_factory=ServiceStats)

    @property
    def valid(self) -> bool:
        return self.fingerprint is not None

    def matches(self, fingerprint: tuple) -> bool:
        return self.valid and self.fingerprint == fingerprint

    def drop(self) -> None:
        if self.valid:
            self.stats.invalidations += 1
        self.fingerprint = None
        self.context = None
        self.embeddings = None
        self.projections = None
        self.sketch_factors = None
        self.version = next(_VERSION_COUNTER)

    def install(self, fingerprint: tuple, context: EncoderContext,
                embeddings: np.ndarray,
                projections: dict[str, np.ndarray] | None = None) -> None:
        """Replace the content wholesale.

        Counts nothing: the caller that ran a corpus encode counts it, and
        the cold-boot path (``DDIScreeningService.from_store``) installs
        rows gathered from persisted shards without any encode.
        """
        self.fingerprint = fingerprint
        self.context = context
        self.embeddings = embeddings
        self.projections = projections
        self.sketch_factors = None
        self.version = next(_VERSION_COUNTER)

    def append_rows(self, rows: np.ndarray,
                    projections: dict[str, np.ndarray] | None = None) -> None:
        if not self.valid:
            raise RuntimeError("cannot append to an invalid cache")
        previous = self.embeddings
        self.embeddings = np.concatenate([self.embeddings, rows], axis=0)
        if self.projections is not None:
            if projections is None or set(projections) != set(self.projections):
                # No matching precompute for the new rows: fall back to a
                # lazy full recompute on the next ensure_projections call.
                self.projections = None
            else:
                # A projection that *is* the embedding matrix (the dot
                # decoder's identity precompute) stays an alias instead of
                # forking into a second full copy.
                self.projections = {
                    name: (self.embeddings if matrix is previous
                           else np.concatenate([matrix, projections[name]],
                                               axis=0))
                    for name, matrix in self.projections.items()}
        self.version = next(_VERSION_COUNTER)
        self.stats.incremental_encodes += len(rows)

    def truncate_rows(self, num_rows: int) -> None:
        """Drop every row past ``num_rows`` (the rollback counterpart of
        :meth:`append_rows`).

        Rows are append-only, so the surviving prefix is bitwise-identical
        to the cache content as of when row ``num_rows`` was the end of
        the catalog — which is what lets a service rollback restore exact
        screening for a retained store version.
        """
        if not self.valid:
            raise RuntimeError("cannot truncate an invalid cache")
        current = len(self.embeddings)
        if not 0 < num_rows <= current:
            raise ValueError(f"cannot truncate {current} cached rows "
                             f"to {num_rows}")
        previous = self.embeddings
        self.embeddings = np.ascontiguousarray(self.embeddings[:num_rows])
        if self.projections is not None:
            self.projections = {
                name: (self.embeddings if matrix is previous
                       else np.ascontiguousarray(matrix[:num_rows]))
                for name, matrix in self.projections.items()}
        self.version = next(_VERSION_COUNTER)

    def ensure_projections(self, decoder) -> dict[str, np.ndarray]:
        """Candidate projections for the cached embeddings, computing once.

        ``decoder`` is any module exposing ``candidate_projections`` (see
        :mod:`repro.core.decoder`).  Snapshots written before projections
        existed load with ``projections=None`` and recompute here.
        """
        if not self.valid:
            raise RuntimeError("cannot project an invalid cache")
        if self.projections is None:
            self.projections = decoder.candidate_projections(self.embeddings)
            self.sketch_factors = None  # factors described dropped rows
            self.version = next(_VERSION_COUNTER)
        return self.projections

    def ensure_sketch(self, decoder,
                      rank: int | None = None) -> dict[str, np.ndarray]:
        """Low-rank prefilter factors + ``"sketch"`` projection rows, once.

        ``decoder`` must expose ``sketch_factors`` / ``sketch_candidates``
        (the MLP decoder's PCA surrogate).  The sketch rows live *inside*
        the projections dict, so they ride shard blocking, persistence,
        and the shard store exactly like the exact-kernel projections;
        the factors ride alongside for query-side sketching.
        """
        projections = self.ensure_projections(decoder)
        if "sketch" in projections and self.sketch_factors is not None:
            return self.sketch_factors
        self.sketch_factors = decoder.sketch_factors(projections, rank=rank)
        projections["sketch"] = decoder.sketch_candidates(
            projections, self.sketch_factors)
        self.version = next(_VERSION_COUNTER)
        return self.sketch_factors

    # ------------------------------------------------------------------
    # Persistence: ``.npz`` with the weight fingerprint baked in, so a warm
    # restart of the screening service can skip the initial corpus encode —
    # and can *prove* the snapshot still matches the model it is serving.
    # ------------------------------------------------------------------
    def save(self, path: str | Path,
             catalog_digest: str | None = None) -> Path:
        """Write embeddings + encoder context + fingerprint as one ``.npz``.

        ``catalog_digest`` identifies the drug catalog the embedding rows
        belong to (the weights fingerprint alone cannot: one model serves
        many catalogs); loaders compare it before trusting the rows.
        """
        if not self.valid:
            raise RuntimeError("cannot save an invalid cache")
        path = _npz_path(path)
        arrays = {
            "fingerprint_json": np.asarray(
                _fingerprint_to_json(self.fingerprint)),
            "catalog_digest": np.asarray(
                catalog_digest if catalog_digest is not None
                else (self.catalog_digest or "")),
            "embeddings": self.embeddings,
            **_context_arrays(self.context),
            # Shard-store manifest path (out-of-core tier), if one was
            # written for this cache's contents — lets a warm restart
            # reattach the memory-mapped shards automatically.
            "shard_manifest": np.asarray(self.shard_manifest or ""),
        }
        if self.projections is not None:
            arrays["projection_names"] = np.asarray(
                sorted(self.projections), dtype=str)
            # Identity projections (the dot decoder) alias the embedding
            # matrix — record the alias instead of writing the array twice.
            aliases = [name for name, matrix in self.projections.items()
                       if matrix is self.embeddings]
            arrays["projection_aliases"] = np.asarray(sorted(aliases),
                                                      dtype=str)
            for name in self.projections:
                if name not in aliases:
                    arrays[f"projection_{name}"] = self.projections[name]
        if self.sketch_factors is not None:
            arrays["sketch_mean"] = self.sketch_factors["mean"]
            arrays["sketch_components"] = self.sketch_factors["components"]
            if self.sketch_factors.get("std") is not None:
                arrays["sketch_std"] = self.sketch_factors["std"]
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingCache":
        """Read a :meth:`save` snapshot back (fresh stats, detached context)."""
        with np.load(Path(path), allow_pickle=False) as archive:
            fingerprint = _fingerprint_from_json(
                str(archive["fingerprint_json"]))
            digest = str(archive["catalog_digest"])
            context = _context_from_arrays(archive)
            embeddings = archive["embeddings"]
            manifest = (str(archive["shard_manifest"])
                        if "shard_manifest" in archive.files else "")
            projections = None
            if "projection_names" in archive.files:
                aliases = (set(str(a) for a in archive["projection_aliases"])
                           if "projection_aliases" in archive.files else set())
                projections = {str(name): (embeddings if str(name) in aliases
                                           else archive[f"projection_{name}"])
                               for name in archive["projection_names"]}
            sketch_factors = None
            if "sketch_mean" in archive.files:
                sketch_factors = {
                    "mean": archive["sketch_mean"],
                    "components": archive["sketch_components"]}
                if "sketch_std" in archive.files:
                    sketch_factors["std"] = archive["sketch_std"]
        cache = cls()
        cache.fingerprint = fingerprint
        cache.context = context
        cache.embeddings = embeddings
        cache.projections = projections
        cache.sketch_factors = sketch_factors
        cache.catalog_digest = digest or None
        cache.shard_manifest = manifest or None
        # A loaded snapshot is new content as far as derived structures are
        # concerned: give it a fresh globally unique version so it can never
        # collide with a version an earlier cache object handed out.
        cache.version = next(_VERSION_COUNTER)
        return cache
