"""Self-tests for the benchmark's own code.

    python3 perfbench/selftest.py

Covers self time on a synthetic span tree, span parenting across asyncio
tasks, probe removal after a traced run (on a tiny catalog), percentile
and sample-count reporting, and agreement between ``BENCHMARK.json`` and
the metrics the runner emits.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import run  # noqa: E402
from probes import LAYER_METRICS, PROBES, layer_metrics  # noqa: E402
from stats import percentile, summarize_ms, supported_tail  # noqa: E402
from tracing import (  # noqa: E402
    REQUEST, Probe, Span, Tracer, is_probe_wrapper, resolve_owner,
    self_times, uncovered_share, union_length)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, None, "p")


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertEqual(union_length([(1, 3), (2, 5), (7, 8), (4, 4)]), 5)
        self.assertEqual(union_length([]), 0)

    def test_synthetic_tree(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 3.0, parent=0),
            _span("a.child", 1.5, 2.0, parent=1),
            _span("b", 2.0, 5.0, parent=0),     # overlaps a
            _span("c", 7.0, 8.0, parent=0),
            _span("late", 9.5, 12.0, parent=0),  # clipped at root's end
        ]
        own = self_times(spans)
        # root: 10 - |[1,5] + [7,8] + [9.5,10]| = 10 - 5.5
        self.assertAlmostEqual(own[0], 4.5)
        self.assertAlmostEqual(own[1], 1.5)
        self.assertAlmostEqual(own[2], 0.5)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)
        self.assertAlmostEqual(own[5], 2.5)

    def test_uncovered_share(self):
        spans = [_span("x", 1.0, 3.0), _span("y", 2.0, 4.0),
                 _span("child", 5.0, 6.0, parent=0)]
        # window [0, 10]: top-level cover [1, 4] -> 70% uncovered
        self.assertAlmostEqual(uncovered_share(spans, [(0.0, 10.0)]), 0.7)
        self.assertTrue(math.isnan(uncovered_share(spans, [])))


class TracerTest(unittest.TestCase):
    def test_parents_and_requests_follow_tasks(self):
        ticks = iter(range(1000))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        async def worker(name):
            REQUEST.set(name)
            with tracer.span(f"{name}.outer"):
                await asyncio.sleep(0)
                with tracer.span(f"{name}.inner"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(worker("r1"), worker("r2"))

        asyncio.run(main())
        by_name = {s.name: (i, s) for i, s in enumerate(tracer.spans)}
        for name in ("r1", "r2"):
            outer_index, outer = by_name[f"{name}.outer"]
            _, inner = by_name[f"{name}.inner"]
            self.assertIsNone(outer.parent)
            self.assertEqual(inner.parent, outer_index)
            self.assertEqual(inner.request, name)
            self.assertLess(outer.start, inner.start)
            self.assertLess(inner.end, outer.end)

    def test_failed_install_rolls_back(self):
        owner, attr = resolve_owner("stats:percentile")
        original = inspect.getattr_static(owner, attr)
        tracer = Tracer()
        with self.assertRaises(AttributeError):
            tracer.install([Probe("stats:percentile", "p"),
                            Probe("stats:no_such_function", "q")])
        self.assertIs(inspect.getattr_static(owner, attr), original)
        self.assertFalse(tracer.installed)


class ProbeRemovalTest(unittest.TestCase):
    """A traced run on a tiny catalog, then every attribute is the
    original object again."""

    def test_probes_removed_after_traced_run(self):
        from repro.chem import MoleculeGenerator
        from repro.core import HyGNN, HyGNNConfig
        from repro.serving import DDIScreeningService, ScreeningGateway

        before = {}
        for probe in PROBES:
            owner, attr = resolve_owner(probe.target)
            before[probe.target] = (owner, attr,
                                    inspect.getattr_static(owner, attr),
                                    attr in vars(owner))
        corpus = [r.smiles for r in
                  MoleculeGenerator(seed=3).generate_corpus(80)]
        extra = [r.smiles for r in
                 MoleculeGenerator(seed=4).generate_corpus(6)]
        config = HyGNNConfig(parameter=4, embed_dim=16, hidden_dim=16,
                             seed=3)
        (run.OUT / "work").mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT / "work"))
        tracer = Tracer()
        tracer.phase = "setup"
        tracer.install(PROBES)
        try:
            for probe in PROBES:
                owner, attr, original, _ = before[probe.target]
                self.assertTrue(is_probe_wrapper(
                    inspect.getattr_static(owner, attr)), probe.target)
            model, _, builder = HyGNN.for_corpus(corpus, config)
            model.eval()
            service = DDIScreeningService(model, builder, corpus,
                                          block_size=16)
            service.refresh()
            service.open_shards(service.save_shards(tmp / "store",
                                                    num_shards=2),
                                strict=True)
            tracer.phase = "measured"

            async def traffic():
                gateway = ScreeningGateway(service, max_batch=4)
                await asyncio.gather(
                    *(gateway.screen(i, top_k=3) for i in range(4)),
                    *(gateway.screen(i, top_k=3, approx=True)
                      for i in range(4)),
                    *(gateway.screen_smiles(s, top_k=3, allow_unknown=True)
                      for s in extra[:3]))
                service.register_drugs(extra[3:4], allow_unknown=True)
                await gateway.screen_smiles(extra[4], top_k=3,
                                            allow_unknown=True)
                await gateway.close()

            asyncio.run(traffic())
            service.close()
        finally:
            tracer.remove()
            shutil.rmtree(tmp, ignore_errors=True)
        for target, (owner, attr, original, own) in before.items():
            self.assertIs(inspect.getattr_static(owner, attr), original,
                          target)
            self.assertEqual(attr in vars(owner), own, target)
            self.assertFalse(is_probe_wrapper(
                inspect.getattr_static(owner, attr)), target)
        names = {s.name for s in tracer.spans}
        for expected in ("gateway.flush", "service.screen_batch",
                         "service.screen_smiles_batch",
                         "service.register_drugs", "decoder.score_block",
                         "decoder.prefilter_block", "topk.batch_top_k_sets",
                         "topk.merge_top_k", "shards.screen",
                         "store.append", "store.catalog",
                         "encoder.encode_edges_subset", "hypergraph.fit"):
            self.assertIn(expected, names)
        flush = next(s for s in tracer.spans if s.name == "gateway.flush")
        self.assertTrue(flush.request.startswith("flush-"))
        metrics = layer_metrics(tracer, {"measured"},
                                {"overhead_pct": 0.0, "uncovered_pct": 0.0})
        self.assertEqual(set(metrics), {m.name for m in LAYER_METRICS})
        self.assertGreater(metrics["decoder.score_block.calls"], 0)
        self.assertGreater(metrics["store.versions_committed"], 0)
        self.assertGreater(metrics["encoder.drugs_encoded"], 0)


class StatsTest(unittest.TestCase):
    def test_percentile_matches_linear_interpolation(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(percentile(values, 0), 1.0)
        self.assertEqual(percentile(values, 50), 3.0)
        self.assertEqual(percentile(values, 100), 5.0)
        self.assertAlmostEqual(percentile(values, 90), 4.6)
        self.assertAlmostEqual(percentile(list(range(101)), 99), 99.0)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_supported_tail_needs_ten_beyond(self):
        self.assertEqual(supported_tail(10_000), 99.9)
        self.assertEqual(supported_tail(1_000), 99.0)
        self.assertEqual(supported_tail(999), 90.0)
        self.assertEqual(supported_tail(100), 90.0)
        self.assertEqual(supported_tail(20), 50.0)
        self.assertIsNone(supported_tail(19))

    def test_summary_reports_count(self):
        summary = summarize_ms([0.001] * 30)
        self.assertEqual(summary["n"], 30)
        self.assertAlmostEqual(summary["p50_ms"], 1.0)
        self.assertEqual(summary["supported_tail"], 50.0)
        self.assertEqual(summarize_ms([]), {"n": 0, "supported_tail": None})


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {m.name: m.unit for m in LAYER_METRICS})
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.workloads()))


if __name__ == "__main__":
    unittest.main()
