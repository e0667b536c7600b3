"""live-2k: cold-start screening beside live registrations.

A 2,000-drug catalog is attached to a 4-shard memory-mapped
``ShardStore``.  Eight closed-loop clients call
``ScreeningGateway.screen_smiles`` with molecules the catalog has never
seen (the paper's cold-start case), while an open-loop registrar calls
``register_drugs`` for one new drug every ``1 / REGISTER_RATE`` seconds;
each registration commits a new store version as a one-row append
segment, and every ``COMPACT_EVERY`` registrations the registrar folds
the segments back into ``NUM_SHARDS`` shards (``compact_shards`` + store
``gc``), as an operator would.  The time goes to the tokenizer, the
encoder subset, store commits, cache appends and the catalog reopen
after each commit; scoring 2,000 rows is a minor share.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import shutil
import time

import numpy as np

from common import (Checks, Phase, closed_loop, counters, mixed_corpus,
                    reconcile)
from stats import recall_at_k, summarize_ms
from tracing import REQUEST

NUM_DRUGS = 2_000
NUM_SHARDS = 4
CLIENTS = 8
TOP_K = 10
MODEL_SEED = 0            # the served model is fixed; the seed draws data
QUERY_POOL = 128
REGISTER_RATE = 7.0       # registrations per second: >= 100 in a 16 s run
COMPACT_EVERY = 16        # registrations between two compactions
MAX_WAIT_MS = 50.0        # gateway flush window
SPOT_VERSIONS = 4         # versions re-derived literally on a replay
SPOT_QUERIES = 4          # queries checked at each of them


def _hits(hits) -> list[tuple[int, str, float]]:
    return [(h.index, h.drug_id, h.probability) for h in hits]


class LiveWorkload:
    name = "live-2k"
    setup_reps = 5            # a set-up is ~0.3 s; the first two run cold

    def __init__(self, seed: int, seconds: float, workdir):
        from repro.core import HyGNN, HyGNNConfig

        self.seed = seed
        self.workdir = workdir
        self._stores = itertools.count()
        self.corpus = mixed_corpus(seed, NUM_DRUGS)
        self.config = HyGNNConfig(parameter=4, embed_dim=128,
                                  hidden_dim=128, decoder="mlp",
                                  seed=MODEL_SEED)
        # Unseen molecules that share at least one substructure with the
        # fitted vocabulary (the rest cannot be screened or registered).
        wanted = QUERY_POOL + math.ceil(REGISTER_RATE * seconds) + 1
        _, _, builder = HyGNN.for_corpus(self.corpus, self.config)
        unseen = mixed_corpus(seed + 1_000_003, wanted + wanted // 2,
                              exclude=set(self.corpus))
        usable = [s for s, tokens in zip(unseen,
                                         builder.drug_token_sets(unseen))
                  if tokens]
        if len(usable) < wanted:
            raise RuntimeError(f"only {len(usable)} usable unseen "
                               f"molecules; {wanted} needed")
        self.queries = usable[:QUERY_POOL]
        self.registrations = usable[QUERY_POOL:wanted]

    def setup(self):
        """Model + builder, service, refresh, store save and open."""
        from repro.core import HyGNN
        from repro.serving import DDIScreeningService

        model, _, builder = HyGNN.for_corpus(self.corpus, self.config)
        model.eval()
        service = DDIScreeningService(model, builder, self.corpus)
        service.refresh()
        manifest = service.save_shards(
            self.workdir / f"store-{next(self._stores)}",
            num_shards=NUM_SHARDS)
        service.open_shards(manifest, strict=True)
        return service

    def release(self, service) -> None:
        store = service.shard_store
        service.close()
        if store is not None:
            shutil.rmtree(store.root, ignore_errors=True)

    def measure(self, service, seconds: float, tracer=None) -> dict:
        return asyncio.run(self._measure(service, seconds, tracer))

    async def _measure(self, service, seconds, tracer) -> dict:
        from repro.serving import ScreeningGateway

        # The wait window outlasts a client's turnaround, so a flush holds
        # every client's request: with a shorter window the clients split
        # into groups whose sizes wander from run to run.
        gateway = ScreeningGateway(service, max_batch=CLIENTS,
                                   max_wait_ms=MAX_WAIT_MS)
        await asyncio.gather(*(gateway.screen_smiles(q, top_k=TOP_K)
                               for q in self.queries[:CLIENTS]))
        checks = Checks()
        rngs = [np.random.default_rng([self.seed, i]) for i in range(CLIENTS)]
        smiles, register = Phase("smiles"), Phase("register")
        answered: list[tuple[int, int, int, list]] = []
        # ("register", smiles, drug_id) or ("compact",), in commit order
        commits: list[tuple] = []
        lateness: list[float] = []
        compactions: list[float] = []
        base_version, base_drugs = service.catalog_version, service.num_drugs
        before = counters(service)

        async def screen(qi: int):
            version = service.catalog_version
            hits = await gateway.screen_smiles(self.queries[qi], top_k=TOP_K)
            return version, service.catalog_version, hits

        def commit(op: tuple, action) -> None:
            version = service.catalog_version
            action()
            commits.append(op)
            if service.catalog_version != version + 1:
                checks.fail(f"{op[0]} moved catalog_version {version} -> "
                            f"{service.catalog_version}")

        async def registrar() -> None:
            register.start = time.perf_counter()
            deadline = register.start + seconds
            for i, new in enumerate(self.registrations):
                due = register.start + i / REGISTER_RATE
                if due >= deadline:
                    break
                await asyncio.sleep(max(due - time.perf_counter(), 0.0))
                lateness.append(time.perf_counter() - due)
                REQUEST.set(f"register-{i}")
                register.sent += 1
                drug_id = f"reg_{i}"
                try:
                    commit(("register", new, drug_id),
                           lambda: service.register_drugs(
                               [new], drug_ids=[drug_id]))
                except Exception as exc:  # noqa: BLE001 — counted
                    register.fail(exc)
                    continue
                register.latencies.append(time.perf_counter() - due)
                register.succeeded += 1
                if register.succeeded % COMPACT_EVERY == 0:
                    # Operator maintenance: fold the one-row append
                    # segments back into NUM_SHARDS shards.
                    REQUEST.set(f"compact-{i}")
                    started = time.perf_counter()
                    try:
                        commit(("compact",), compact)
                    except Exception as exc:  # noqa: BLE001 — counted
                        checks.fail(f"compaction after registration {i} "
                                    f"failed: {exc!r}")
                        continue
                    compactions.append(time.perf_counter() - started)
            register.end = time.perf_counter()

        def compact() -> None:
            service.compact_shards(NUM_SHARDS)
            service.shard_store.gc(keep=2)

        if tracer is not None:
            tracer.phase = "live"
        await asyncio.gather(
            closed_loop(smiles, CLIENTS, seconds,
                        pick=lambda i: int(rngs[i].integers(QUERY_POOL)),
                        call=screen,
                        on_result=lambda qi, _t, r: answered.append(
                            (qi, r[0], r[1], _hits(r[2])))),
            registrar())
        if tracer is not None:
            tracer.phase = None
        await gateway.close()
        after = counters(service)
        rejected = smiles.errors.get("GatewayOverloaded", 0)
        reconcile("live", before, after, {
            "gateway_requests": smiles.sent - rejected,
            "gateway_rejections": rejected,
            "gateway_expirations": smiles.errors.get("DeadlineExceeded", 0),
            "screens": smiles.succeeded,
            "registrations": register.succeeded,
            "appends_committed": register.succeeded,
            "compactions": len(compactions)}, checks)
        window = (min(smiles.start, register.start),
                  max(smiles.end, register.end))
        return {"phases": {"smiles": smiles, "register": register},
                "windows": {"live": window}, "responses": answered,
                "commits": commits, "lateness": lateness,
                "compactions": compactions,
                "base_version": base_version, "base_drugs": base_drugs,
                "checks": checks}

    def verify(self, service, run: dict) -> dict:
        """Every response equals a serial answer at some catalog version
        committed while it was in flight.

        The service has two serial forms for a transient molecule:
        ``screen_smiles`` (one query) and ``screen_smiles_batch`` (several).
        They encode through different BLAS shapes (gemv vs gemm), so their
        probabilities can differ in the last bit; a gateway flush of one
        request answers like the first, a larger flush like the second.
        A response must equal one of the two, bit for bit.
        """
        checks = run["checks"]
        base_version, commits = run["base_version"], run["commits"]
        final_version = service.catalog_version
        if final_version - base_version != len(commits):
            checks.fail(f"{len(commits)} commits but catalog_version moved "
                        f"{base_version} -> {final_version}")
        # Catalog size at each committed version: a registration appends
        # one row, a compaction rewrites the layout and keeps the rows.
        sizes = {base_version: run["base_drugs"]}
        for step, op in enumerate(commits, start=1):
            sizes[base_version + step] = (sizes[base_version + step - 1]
                                          + (op[0] == "register"))
        # Full serial rankings at the final version.  Rows are only ever
        # appended, so the serial answer at version v is the ranking
        # restricted to the first sizes[v] rows; _spot_check confirms that
        # on a replayed catalog.
        used = sorted({qi for qi, *_ in run["responses"]})
        everything = service.num_drugs
        single = {qi: _hits(service.screen_smiles(self.queries[qi],
                                                  top_k=everything))
                  for qi in used}
        batched = dict(zip(used, map(_hits, service.screen_smiles_batch(
            [self.queries[qi] for qi in used], top_k=everything))))

        def answer(full: dict, qi: int, version: int) -> list:
            limit = sizes[version]
            return list(itertools.islice(
                (h for h in full[qi] if h[0] < limit), TOP_K))

        bad, batch_form, recalls = 0, 0, []
        for qi, first, last, hits in run["responses"]:
            versions = range(first, last + 1)
            if any(hits == answer(single, qi, v) for v in versions):
                pass
            elif any(hits == answer(batched, qi, v) for v in versions):
                batch_form += 1
            else:
                bad += 1
            recalls.append(recall_at_k(
                [h[0] for h in hits],
                [h[0] for h in answer(single, qi, last)]))
        if bad:
            checks.fail(f"smiles: {bad} responses match no serial answer at "
                        f"a version committed while they were in flight",
                        bad)
        forms_differ = sum(single[qi] != batched[qi] for qi in used)
        self._spot_check(run, answer, single, batched, used, final_version,
                         checks)
        lateness = summarize_ms(run["lateness"])
        compaction = summarize_ms(run["compactions"])
        return {"recall_at_10": sum(recalls) / len(recalls) if recalls
                else 0.0,
                "compactions": compaction["n"],
                "compaction_p50_ms": compaction.get("p50_ms", 0.0),
                "responses_in_batch_form": batch_form,
                "queries_whose_serial_forms_differ": forms_differ,
                "registrar_lateness_p50_ms": lateness.get("p50_ms", 0.0),
                "registrar_lateness_p99_ms": lateness.get("p99_ms", 0.0),
                "registrar_lateness_max_ms": lateness.get("max_ms", 0.0)}

    def _spot_check(self, run, answer, single, batched, used, final_version,
                    checks) -> None:
        """Replay the registrations on a fresh set-up and compare literal
        serial answers, in both forms, at sampled versions."""
        if len(used) < 2:
            return
        rng = np.random.default_rng([self.seed, 7])
        base_version = run["base_version"]
        count = final_version - base_version
        steps = {0, count} | {int(s) for s in rng.integers(
            0, count + 1, SPOT_VERSIONS - 2)}
        replay = self.setup()
        try:
            replay_base = replay.catalog_version
            for step in range(count + 1):
                if step:
                    op = run["commits"][step - 1]
                    if op[0] == "register":
                        replay.register_drugs([op[1]], drug_ids=[op[2]])
                    else:
                        replay.compact_shards(NUM_SHARDS)
                if step not in steps:
                    continue
                if replay.catalog_version - replay_base != step:
                    checks.fail(f"replay: {step} commits moved "
                                f"catalog_version by "
                                f"{replay.catalog_version - replay_base}")
                picked = [int(q) for q in rng.choice(
                    used, min(SPOT_QUERIES, len(used)), replace=False)]
                version = base_version + step
                literal_batch = replay.screen_smiles_batch(
                    [self.queries[qi] for qi in picked], top_k=TOP_K)
                for qi, hits in zip(picked, literal_batch):
                    literal = _hits(replay.screen_smiles(self.queries[qi],
                                                         top_k=TOP_K))
                    if (literal != answer(single, qi, version)
                            or _hits(hits) != answer(batched, qi, version)):
                        checks.fail(f"replay: serial answer for query {qi} "
                                    f"after {step} commits differs "
                                    f"from the derived one")
        finally:
            self.release(replay)

    def end_to_end(self, run: dict, checked: dict) -> tuple[dict, dict]:
        smiles, register = run["phases"]["smiles"], run["phases"]["register"]
        sl, rl = smiles.report()["latency"], register.report()["latency"]
        named = {"smiles_qps": smiles.per_s,
                 "smiles_p50_ms": sl.get("p50_ms", 0.0),
                 "smiles_p99_ms": sl.get("p99_ms", 0.0),
                 "register_per_s": register.per_s,
                 "register_p50_ms": rl.get("p50_ms", 0.0),
                 "register_p90_ms": rl.get("p90_ms", 0.0),
                 **checked}
        generic = {"main_per_s": named["smiles_qps"],
                   "main_p50_ms": named["smiles_p50_ms"],
                   "main_p90_ms": sl.get("p90_ms", 0.0),
                   "side_per_s": named["register_per_s"],
                   "side_p50_ms": named["register_p50_ms"],
                   "side_p90_ms": named["register_p90_ms"],
                   "quality": checked["recall_at_10"]}
        return generic, named
