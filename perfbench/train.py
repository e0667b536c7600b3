"""train-twosides: compiled full-batch training on the TWOSIDES-like corpus.

``Trainer.fit`` with the paper-default configuration, a fixed number of
epochs and early stopping off, on ``load_dataset("twosides", scale=1.0)``
(645 drugs, ~127k balanced pairs; the seed picks the negatives, the
split and the initial weights).  Each epoch replays the recorded tape
(``nn.tape``), back-propagates through the encoder and steps Adam
(``nn.optim``); no serving layer is involved.  After training, the test
split is scored repeatedly with ``Trainer.evaluate`` (about a quarter of
the run's seconds more).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from common import Checks, Phase
from stats import percentile

EVAL_SHARE = 0.25          # test-split scoring time, per second of run
REFERENCE_EPOCHS = 2       # eager epochs the compiled run is checked against


def _stamped_adam():
    from repro.nn import Adam

    class StampedAdam(Adam):
        """Adam that notes when each step finished: the epoch boundaries
        of a full-batch run, with no probe installed."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.stamps: list[float] = []

        def step(self) -> None:
            super().step()
            self.stamps.append(time.perf_counter())

    return StampedAdam


@dataclass
class _State:
    model: object
    hypergraph: object
    pairs: object
    labels: object
    split: object
    trainer: object


class TrainWorkload:
    name = "train-twosides"
    setup_reps = 3

    def __init__(self, seed: int, seconds: float, workdir):
        from repro.core import HyGNNConfig
        from repro.data import load_dataset

        self.seed = seed
        # The paper-scale corpus itself is fixed; the workload seed drives
        # the negative sample, the split and the model initialisation.
        self.dataset = load_dataset("twosides", scale=1.0)
        # One epoch per second of run time (an epoch is ~0.9 s on 2 CPUs);
        # fixed per run, so quality is comparable between runs.
        self.epochs = max(3, round(seconds))
        # Test-split scorings (~0.09 s each) after training.
        self.evals = max(10, round(seconds * EVAL_SHARE / 0.09))
        self.config = HyGNNConfig(epochs=self.epochs,
                                  patience=self.epochs + 1, seed=seed)

    def setup(self, config=None) -> _State:
        """Pairs and split, hypergraph and model, trainer, tape record."""
        from repro.core import HyGNN, Trainer
        from repro.data import balanced_pairs_and_labels, random_split

        config = config or self.config
        pairs, labels = balanced_pairs_and_labels(self.dataset,
                                                  seed=self.seed)
        split = random_split(len(pairs), seed=self.seed)
        model, hypergraph, _ = HyGNN.for_corpus(self.dataset.smiles, config)
        trainer = Trainer(model, config)
        trainer.optimizer = _stamped_adam()(
            model.parameters(), lr=config.learning_rate,
            weight_decay=config.weight_decay)
        model.compile_training(hypergraph, pairs[split.train],
                               labels[split.train])
        return _State(model, hypergraph, pairs, labels, split, trainer)

    def release(self, state: _State) -> None:
        pass

    def measure(self, state: _State, seconds: float, tracer=None) -> dict:
        checks = Checks()
        train, evaluate = Phase("train"), Phase("eval")
        if tracer is not None:
            tracer.phase = "train"
        train.start = time.perf_counter()
        train.sent = self.epochs
        history = state.trainer.fit(state.hypergraph, state.pairs,
                                    state.labels, state.split)
        train.end = time.perf_counter()
        stamps = state.trainer.optimizer.stamps
        train.succeeded = history.epochs_run
        # The first epoch also re-records the tape; epochs are measured
        # between consecutive optimizer steps from the second on.
        train.latencies = [b - a for a, b in zip(stamps, stamps[1:])]
        if len(stamps) != history.epochs_run or \
                history.epochs_run != self.epochs:
            checks.fail(f"train: {self.epochs} epochs requested, "
                        f"{history.epochs_run} run, {len(stamps)} "
                        f"optimizer steps")
        if not all(math.isfinite(x) for x in history.train_loss):
            checks.fail("train: non-finite training loss")

        if tracer is not None:
            tracer.phase = "eval"
        test = state.split.test
        summaries = []
        evaluate.start = time.perf_counter()
        for _ in range(self.evals):
            evaluate.sent += 1
            started = time.perf_counter()
            summaries.append(state.trainer.evaluate(
                state.hypergraph, state.pairs[test], state.labels[test]))
            evaluate.latencies.append(time.perf_counter() - started)
            evaluate.succeeded += 1
        evaluate.end = time.perf_counter()
        if tracer is not None:
            tracer.phase = None
        if any(s != summaries[0] for s in summaries):
            checks.fail("eval: repeated test-split scoring disagrees")
        return {"phases": {"train": train, "eval": evaluate},
                "windows": {"train": (train.start, train.end),
                            "eval": (evaluate.start, evaluate.end)},
                "history": history, "summary": summaries[0],
                "epoch_span_s": stamps[-1] - stamps[0] if stamps else 0.0,
                "checks": checks}

    def verify(self, state: _State, run: dict) -> dict:
        """The compiled trajectory against the eager reference trainer."""
        from repro.core import Trainer

        checks = run["checks"]
        config = self.config.with_updates(epochs=REFERENCE_EPOCHS)
        fresh = self.setup(config)
        reference = Trainer(fresh.model, config, compiled=False).fit(
            fresh.hypergraph, fresh.pairs, fresh.labels, fresh.split)
        compiled = run["history"].train_loss[:REFERENCE_EPOCHS]
        if reference.train_loss != compiled:
            checks.fail(f"train: compiled losses {compiled} differ from "
                        f"the eager reference {reference.train_loss}")
        summary = run["summary"]
        if not summary.roc_auc > 50.0:
            checks.fail(f"eval: test ROC-AUC {summary.roc_auc:.2f}% is no "
                        f"better than chance")
        return {"train_roc_auc": summary.roc_auc / 100.0,
                "train_pr_auc": summary.pr_auc / 100.0}

    def end_to_end(self, run: dict, checked: dict) -> tuple[dict, dict]:
        train, evaluate = run["phases"]["train"], run["phases"]["eval"]
        epochs_ms = [s * 1e3 for s in train.latencies]
        evals_ms = [s * 1e3 for s in evaluate.latencies]
        per_s = (len(train.latencies) / run["epoch_span_s"]
                 if run["epoch_span_s"] > 0 else 0.0)
        named = {"train_epoch_s": percentile(epochs_ms, 50) / 1e3,
                 "eval_p50_ms": percentile(evals_ms, 50), **checked}
        generic = {"main_per_s": per_s,
                   "main_p50_ms": percentile(epochs_ms, 50),
                   "main_p90_ms": percentile(epochs_ms, 90),
                   "side_per_s": evaluate.per_s,
                   "side_p50_ms": named["eval_p50_ms"],
                   "side_p90_ms": percentile(evals_ms, 90),
                   "quality": checked["train_roc_auc"]}
        return generic, named
