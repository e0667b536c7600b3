"""screen-20k: read-only gateway screening over a 20,000-drug catalog.

Sixteen closed-loop clients call ``ScreeningGateway.screen`` on catalog
ids with ``top_k=10``: first the exact phase, then the approximate
(sketch prefilter + exact rerank) phase.  Nothing is encoded and nothing
is written while measuring, so the exact phase spends its time in
``decoder.score_block`` and the approximate phase in the top-k shortlist.
"""

from __future__ import annotations

import asyncio

import numpy as np

from common import (Checks, Phase, closed_loop, counters, mixed_corpus,
                    reconcile)
from stats import recall_at_k

NUM_DRUGS = 20_000
NUM_SHARDS = 4
CLIENTS = 16
TOP_K = 10
MODEL_SEED = 0            # the served model is fixed; the seed draws data
QUERY_POOL = 256          # catalog ids the clients draw from
EXACT_SHARE = 0.6         # of the run's seconds; the rest is approximate
# Shortlist = top_k * OVERSAMPLE before the exact rerank.  At the
# service default (4) recall@10 ranged from ~0.45 to 1.0 across catalog
# seeds; at 16 most catalogs reach 0.92-1.0 (a few stay poor at any
# shortlist size).  The report also gives the recall at the default.
OVERSAMPLE = 16
DEFAULT_OVERSAMPLE = 4


def _hits(hits) -> list[tuple[int, str, float]]:
    return [(h.index, h.drug_id, h.probability) for h in hits]


class ScreenWorkload:
    name = "screen-20k"
    setup_reps = 3

    def __init__(self, seed: int, seconds: float, workdir):
        from repro.core import HyGNNConfig

        self.seed = seed
        self.corpus = mixed_corpus(seed, NUM_DRUGS)
        rng = np.random.default_rng(seed)
        self.pool = [int(q) for q in rng.choice(NUM_DRUGS, QUERY_POOL,
                                                replace=False)]
        self.config = HyGNNConfig(parameter=4, embed_dim=128,
                                  hidden_dim=128, decoder="mlp",
                                  seed=MODEL_SEED)

    def setup(self):
        """Model + builder, service, cache refresh, sketch warm-up."""
        from repro.core import HyGNN
        from repro.serving import DDIScreeningService

        model, _, builder = HyGNN.for_corpus(self.corpus, self.config)
        model.eval()
        service = DDIScreeningService(model, builder, self.corpus,
                                      num_shards=NUM_SHARDS)
        service.refresh()
        service.screen_batch(self.pool[:1], top_k=TOP_K, approx=True,
                             approx_oversample=OVERSAMPLE)
        return service

    def release(self, service) -> None:
        service.close()

    def measure(self, service, seconds: float, tracer=None) -> dict:
        return asyncio.run(self._measure(service, seconds, tracer))

    async def _measure(self, service, seconds, tracer) -> dict:
        from repro.serving import ScreeningGateway

        gateway = ScreeningGateway(service, max_batch=CLIENTS,
                                   max_wait_ms=2.0)
        warm = self.pool[:CLIENTS]
        for approx in (False, True):
            await asyncio.gather(*(gateway.screen(
                q, top_k=TOP_K, approx=approx, approx_oversample=OVERSAMPLE)
                for q in warm))
        rngs = [np.random.default_rng([self.seed, i]) for i in range(CLIENTS)]
        phases, responses, checks = {}, {}, Checks()
        for name, approx, share in (("exact", False, EXACT_SHARE),
                                    ("approx", True, 1.0 - EXACT_SHARE)):
            if tracer is not None:
                tracer.phase = name
            phase = Phase(name)
            answered: list[tuple[int, list]] = []
            before = counters(service)
            await closed_loop(
                phase, CLIENTS, seconds * share,
                pick=lambda i: self.pool[int(rngs[i].integers(QUERY_POOL))],
                call=lambda q, approx=approx: gateway.screen(
                    q, top_k=TOP_K, approx=approx,
                    approx_oversample=OVERSAMPLE),
                on_result=lambda q, _t, hits, out=answered:
                    out.append((q, _hits(hits))))
            after = counters(service)
            rejected = phase.errors.get("GatewayOverloaded", 0)
            reconcile(name, before, after, {
                "gateway_requests": phase.sent - rejected,
                "gateway_rejections": rejected,
                "gateway_expirations": phase.errors.get("DeadlineExceeded",
                                                        0),
                "screens": phase.succeeded}, checks)
            phases[name], responses[name] = phase, answered
        await gateway.close()
        if tracer is not None:
            tracer.phase = None
        return {"phases": phases,
                "windows": {n: (p.start, p.end) for n, p in phases.items()},
                "responses": responses, "checks": checks}

    def verify(self, service, run: dict) -> dict:
        """Every response against the serial one-query ``screen_batch``."""
        checks = run["checks"]
        queries = sorted({q for resp in run["responses"].values()
                          for q, _ in resp})
        exact = {q: _hits(service.screen_batch([q], top_k=TOP_K)[0])
                 for q in queries}
        approx = {q: _hits(service.screen_batch(
                      [q], top_k=TOP_K, approx=True,
                      approx_oversample=OVERSAMPLE)[0])
                  for q in queries}
        for name, reference in (("exact", exact), ("approx", approx)):
            bad = [q for q, hits in run["responses"][name]
                   if hits != reference[q]]
            if bad:
                checks.fail(f"{name}: {len(bad)} responses differ from the "
                            f"serial answer (first: query {bad[0]})",
                            len(bad))
        recalls = [recall_at_k([h[0] for h in hits],
                               [h[0] for h in exact[q]])
                   for q, hits in run["responses"]["approx"]]
        recall = sum(recalls) / len(recalls) if recalls else 0.0
        default = service.screen_batch(
            self.pool, top_k=TOP_K, approx=True,
            approx_oversample=DEFAULT_OVERSAMPLE)
        at_default = [recall_at_k([h.index for h in hits],
                                  [h[0] for h in exact[q]])
                      for q, hits in zip(self.pool, default) if q in exact]
        return {"approx_recall_at_10": recall,
                "approx_recall_at_10_default_oversample":
                    sum(at_default) / len(at_default) if at_default
                    else 0.0}

    def end_to_end(self, run: dict, checked: dict) -> tuple[dict, dict]:
        exact, approx = run["phases"]["exact"], run["phases"]["approx"]
        el, al = exact.report()["latency"], approx.report()["latency"]
        named = {"exact_qps": exact.per_s,
                 "exact_p50_ms": el.get("p50_ms", 0.0),
                 "exact_p99_ms": el.get("p99_ms", 0.0),
                 "approx_qps": approx.per_s,
                 "approx_p50_ms": al.get("p50_ms", 0.0),
                 "approx_p99_ms": al.get("p99_ms", 0.0),
                 "approx_recall_at_10": checked["approx_recall_at_10"]}
        generic = {"main_per_s": named["exact_qps"],
                   "main_p50_ms": named["exact_p50_ms"],
                   "main_p90_ms": el.get("p90_ms", 0.0),
                   "side_per_s": named["approx_qps"],
                   "side_p50_ms": named["approx_p50_ms"],
                   "side_p90_ms": al.get("p90_ms", 0.0),
                   "quality": named["approx_recall_at_10"]}
        return generic, named
