"""Where the traced run wraps the program, and the per-layer metrics.

Every probe names the attribute its caller resolves at call time, so the
wrapper sees exactly the calls the workload makes: the shard engine calls
``batch_top_k_sets`` / ``merge_top_k`` through ``repro.serving.shards``,
the screening engine calls ``score_block`` on an ``MLPScreenKernel``
instance, the service calls ``weights_fingerprint`` and ``exact_score_fn``
through ``repro.serving.service``, and so on.

``LAYER_METRICS`` maps each per-layer metric to the spans, counters or
samples it is computed from.  Times are mean self milliseconds per call;
counts are totals over the traced run's measured phases.  A layer a
workload never calls reports 0.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import math
import weakref
from dataclasses import dataclass

from stats import percentile
from tracing import REQUEST, Probe, Tracer, self_times


# ---------------------------------------------------------------------------
# Counters recorded at the probe boundary
# ---------------------------------------------------------------------------
def _count_rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("decoder.rows_scored", result.shape[-1])


def _count_blocks(tracer: Tracer, args, kwargs, result) -> None:
    catalog = args[0]
    tracer.add("shards.blocks", sum(
        math.ceil(shard.num_drugs / catalog.block_size)
        for shard in catalog.shards))


def _count_encoded(tracer: Tracer, args, kwargs, result) -> None:
    num_edges = args[4] if len(args) > 4 else kwargs["num_edges"]
    tracer.add("encoder.drugs_encoded", int(num_edges))


def _count_commit(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("store.versions_committed")


# ---------------------------------------------------------------------------
# Replacements that need more than a timing wrapper
# ---------------------------------------------------------------------------
def _flush(tracer: Tracer, original):
    """``ScreeningGateway._flush``: queue wait (submit -> flush start),
    batch size, and a request id for everything the flush runs."""
    flush_ids = itertools.count()

    @functools.wraps(original)
    def flush(gateway, batch):
        now = asyncio.get_running_loop().time()
        for request in batch:
            tracer.sample("gateway.queue_wait", now - request.enqueued_at)
        tracer.sample("gateway.batch_size", len(batch))
        token = REQUEST.set(f"flush-{next(flush_ids)}")
        try:
            with tracer.span("gateway.flush", requests=[
                    getattr(r, "request_id", None) for r in batch]):
                return original(gateway, batch)
        finally:
            REQUEST.reset(token)

    flush.__perfbench_probe__ = True
    return flush


def _request(tracer: Tracer, original):
    """``gateway._Request``: remember the submitting client's request id,
    so a flush span lists the requests it answered."""

    class TracedRequest(original):
        __perfbench_probe__ = True

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.request_id = REQUEST.get()

    return TracedRequest


def _score_fn(tracer: Tracer, original):
    """``exact_score_fn`` returns the per-block scoring closure; time the
    closure (its self time is the sigmoid around ``score_block``)."""

    @functools.wraps(original)
    def make(*args, **kwargs):
        return tracer.timed(original(*args, **kwargs), "executor.score_fn")

    make.__perfbench_probe__ = True
    return make


def _compile_training(tracer: Tracer, original):
    """``HyGNN.compile_training``: mark the tape it records as a training
    tape, so its replays are told apart from the validation tape's."""
    train_tapes = tracer.context.setdefault("train_tapes", weakref.WeakSet())

    @functools.wraps(original)
    def compile_training(*args, **kwargs):
        with tracer.span("model.compile_training"):
            tape, embeddings = original(*args, **kwargs)
        train_tapes.add(tape)
        return tape, embeddings

    compile_training.__perfbench_probe__ = True
    return compile_training


def _tape_forward(tracer: Tracer, original):
    train_tapes = tracer.context.setdefault("train_tapes", weakref.WeakSet())

    @functools.wraps(original)
    def forward(tape, *args, **kwargs):
        name = ("tape.forward" if tape in train_tapes
                else "trainer.val_forward")
        with tracer.span(name):
            return original(tape, *args, **kwargs)

    forward.__perfbench_probe__ = True
    return forward


PROBES: tuple[Probe, ...] = (
    # serving.gateway
    Probe("repro.serving.gateway:ScreeningGateway._flush", make=_flush),
    Probe("repro.serving.gateway:_Request", make=_request),
    # serving.service
    Probe("repro.serving.service:DDIScreeningService.screen_batch",
          "service.screen_batch"),
    Probe("repro.serving.service:DDIScreeningService.screen_smiles_batch",
          "service.screen_smiles_batch"),
    Probe("repro.serving.service:DDIScreeningService.register_drugs",
          "service.register_drugs"),
    Probe("repro.serving.service:exact_score_fn", make=_score_fn),
    # core.decoder (the screening kernel the engine calls)
    Probe("repro.core.decoder:MLPScreenKernel.score_block",
          "decoder.score_block", _count_rows),
    Probe("repro.core.decoder:MLPScreenKernel.prefilter_block",
          "decoder.prefilter_block"),
    Probe("repro.core.decoder:MLPScreenKernel.score_rows",
          "decoder.score_rows"),
    Probe("repro.core.decoder:MLPScreenKernel.sketch_queries",
          "decoder.sketch_queries"),
    Probe("repro.core.decoder:MLPDecoder.project_queries",
          "decoder.project_queries"),
    # serving.topk, as the shard engine resolves it
    Probe("repro.serving.shards:batch_top_k_sets", "topk.batch_top_k_sets"),
    Probe("repro.serving.shards:merge_top_k", "topk.merge_top_k"),
    # serving.shards (MappedShardCatalog inherits this screen)
    Probe("repro.serving.shards:ShardedEmbeddingCatalog.screen",
          "shards.screen", _count_blocks),
    # core.encoder
    Probe("repro.core.encoder:HyGNNEncoder.encode_edges_subset",
          "encoder.encode_edges_subset", _count_encoded),
    Probe("repro.core.encoder:HyGNNEncoder.encode_with_context",
          "encoder.encode_with_context"),
    # hypergraph
    Probe("repro.hypergraph.construction:DrugHypergraphBuilder"
          ".drug_token_sets", "hypergraph.drug_token_sets"),
    Probe("repro.hypergraph.construction:DrugHypergraphBuilder.fit",
          "hypergraph.fit"),
    # core.model
    Probe("repro.core.model:HyGNN.candidate_projections",
          "model.candidate_projections"),
    Probe("repro.core.model:HyGNN.compile_training", make=_compile_training),
    # serving.cache
    Probe("repro.serving.cache:EmbeddingCache.append_rows",
          "cache.append_rows"),
    Probe("repro.serving.service:weights_fingerprint",
          "cache.weights_fingerprint"),
    # serving.store
    Probe("repro.serving.store:ShardStore.append", "store.append",
          _count_commit),
    Probe("repro.serving.store:ShardStore.catalog", "store.catalog"),
    # nn.tape / nn.optim
    Probe("repro.nn.tape:Tape.forward", make=_tape_forward),
    Probe("repro.nn.tape:Tape.backward", "tape.backward"),
    Probe("repro.nn.tape:Tape.record", "tape.record"),
    Probe("repro.nn.optim:Adam.step", "optim.step"),
)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    kind: str            # "self_ms" | "calls" | "count" | "sample_pct"
                         # | "sample_mean" | "trace"
    source: str = ""     # span / counter / sample name
    q: float = 50.0      # percentile, for "sample_pct"
    setup: bool = False  # computed over the set-up phase, not measured ones


def _self_ms(span, setup=False):
    return LayerMetric(f"{span}_ms", "ms", "self_ms", span, setup=setup)


LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("gateway.queue_wait_p50_ms", "ms", "sample_pct",
                "gateway.queue_wait", 50),
    LayerMetric("gateway.queue_wait_p99_ms", "ms", "sample_pct",
                "gateway.queue_wait", 99),
    LayerMetric("gateway.batch_size_mean", "count", "sample_mean",
                "gateway.batch_size"),
    LayerMetric("gateway.flushes", "count", "calls", "gateway.flush"),
    LayerMetric("service.screen_batch.self_ms", "ms", "self_ms",
                "service.screen_batch"),
    LayerMetric("service.screen_smiles_batch.self_ms", "ms", "self_ms",
                "service.screen_smiles_batch"),
    LayerMetric("service.register_drugs.self_ms", "ms", "self_ms",
                "service.register_drugs"),
    _self_ms("decoder.score_block"),
    LayerMetric("decoder.score_block.calls", "count", "calls",
                "decoder.score_block"),
    LayerMetric("decoder.rows_scored", "count", "count",
                "decoder.rows_scored"),
    _self_ms("decoder.prefilter_block"),
    _self_ms("decoder.score_rows"),
    _self_ms("decoder.sketch_queries"),
    _self_ms("decoder.project_queries"),
    _self_ms("topk.batch_top_k_sets"),
    LayerMetric("topk.batch_top_k_sets.calls", "count", "calls",
                "topk.batch_top_k_sets"),
    _self_ms("topk.merge_top_k"),
    LayerMetric("shards.screen.self_ms", "ms", "self_ms", "shards.screen"),
    LayerMetric("shards.blocks", "count", "count", "shards.blocks"),
    _self_ms("encoder.encode_edges_subset"),
    LayerMetric("encoder.drugs_encoded", "count", "count",
                "encoder.drugs_encoded"),
    _self_ms("encoder.encode_with_context", setup=True),
    _self_ms("hypergraph.drug_token_sets"),
    _self_ms("hypergraph.fit", setup=True),
    _self_ms("model.candidate_projections"),
    _self_ms("cache.append_rows"),
    _self_ms("cache.weights_fingerprint"),
    _self_ms("store.append"),
    LayerMetric("store.versions_committed", "count", "count",
                "store.versions_committed"),
    _self_ms("store.catalog"),
    _self_ms("tape.forward"),
    _self_ms("tape.backward"),
    _self_ms("optim.step"),
    _self_ms("trainer.val_forward"),
    _self_ms("tape.record", setup=True),
    LayerMetric("trace.overhead_pct", "%", "trace", "overhead_pct"),
    LayerMetric("trace.uncovered_pct", "%", "trace", "uncovered_pct"),
)

SETUP_PHASE = "setup"


def span_table(tracer: Tracer) -> dict[tuple[str, str], dict]:
    """``(phase, span name) -> {"calls", "self_s", "total_s"}``."""
    table: dict[tuple[str, str], dict] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = table.setdefault((span.phase, span.name),
                               {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span.duration
    return table


def layer_metrics(tracer: Tracer, measured: set[str],
                  trace_values: dict[str, float]) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value from one traced run.

    ``measured`` names the phases whose spans count (the set-up metrics
    read the set-up phase instead); ``trace_values`` supplies the
    tracing overhead and uncovered share the workload measured.
    """
    table = span_table(tracer)
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        phases = {SETUP_PHASE} if metric.setup else measured
        if metric.kind == "trace":
            out[metric.name] = trace_values[metric.source]
            continue
        if metric.kind in ("self_ms", "calls"):
            rows = [row for (phase, name), row in table.items()
                    if phase in phases and name == metric.source]
            calls = sum(r["calls"] for r in rows)
            if metric.kind == "calls":
                out[metric.name] = calls
            else:
                total = sum(r["self_s"] for r in rows)
                out[metric.name] = total / calls * 1e3 if calls else 0.0
        elif metric.kind == "count":
            out[metric.name] = sum(
                value for (phase, name), value in tracer.counts.items()
                if phase in phases and name == metric.source)
        else:
            values = [v for (phase, name), vals in tracer.samples.items()
                      if phase in phases and name == metric.source
                      for v in vals]
            if not values:
                out[metric.name] = 0.0
            elif metric.kind == "sample_mean":
                out[metric.name] = sum(values) / len(values)
            else:
                out[metric.name] = percentile(values, metric.q) * 1e3
    return out
