"""Tests for the compiled training pipeline: Tape record/replay parity,
replay gradients vs finite differences (hypothesis), and the Trainer's
compiled / mini-batch modes against the eager closure path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig, Trainer
from repro.data import random_split
from repro.nn import Adam, Tape, Tensor, bce_with_logits
from repro.nn import functional as F
from repro.nn.gradcheck import numerical_gradient


# ---------------------------------------------------------------------------
# Tape mechanics on small synthetic graphs
# ---------------------------------------------------------------------------

def _make_graph(seed=0):
    """A little pipeline exercising gather/segment/matmul/activation ops."""
    rng = np.random.default_rng(seed)
    weight = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    project = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    indices = rng.integers(0, 6, size=12)
    segments = np.sort(rng.integers(0, 5, size=12))
    targets = rng.integers(0, 2, size=5).astype(float)

    def build():
        gathered = F.gather_rows(weight, indices)
        pooled = F.segment_mean(gathered, segments, 5)
        hidden = F.leaky_relu(pooled @ project, 0.2)
        logits = hidden.sum(axis=1)
        return bce_with_logits(logits, targets)

    return build, [weight, project]


class TestTapeMechanics:
    def test_record_returns_tape_with_root_and_leaves(self):
        build, params = _make_graph()
        tape = Tape.record(build)
        assert tape.root.op == "bce_with_logits"
        assert tape.num_ops > 0
        for param in params:
            assert any(leaf is param for leaf in tape.leaves)

    def test_record_requires_tensor_root(self):
        with pytest.raises(TypeError):
            Tape.record(lambda: 3.0)

    def test_record_requires_grad_root(self):
        with pytest.raises(ValueError):
            Tape.record(lambda: Tensor([1.0]) * Tensor([2.0]))

    def test_record_does_not_nest(self):
        build, _ = _make_graph()

        def nested():
            Tape.record(build)
            return build()

        with pytest.raises(RuntimeError):
            Tape.record(nested)

    def test_forward_tracks_inplace_leaf_updates(self):
        build, (weight, project) = _make_graph()
        tape = Tape.record(build)
        weight.data = weight.data * 0.5
        replayed = tape.forward().item()
        assert replayed == build().item()

    def test_replay_with_new_leaf_values(self):
        build, (weight, project) = _make_graph()
        tape = Tape.record(build)
        rng = np.random.default_rng(9)
        new_weight = rng.standard_normal(weight.shape)
        replayed = tape.replay({weight: new_weight}).item()
        assert np.array_equal(weight.data, new_weight)
        # fresh eager evaluation from the same values agrees bitwise
        assert replayed == build().item()

    def test_replay_rejects_shape_changes(self):
        build, (weight, _) = _make_graph()
        tape = Tape.record(build)
        with pytest.raises(ValueError):
            tape.forward({weight: np.zeros((3, 3))})

    def test_replay_rejects_unknown_leaves(self):
        build, _ = _make_graph()
        tape = Tape.record(build)
        with pytest.raises(KeyError):
            tape.forward({Tensor(np.zeros(2), requires_grad=True): np.zeros(2)})

    def test_backward_requires_scalar_root_without_seed(self):
        tape = Tape.record(
            lambda: Tensor(np.ones(3), requires_grad=True) * 2.0)
        with pytest.raises(RuntimeError):
            tape.backward()

    def test_backward_matches_eager_bitwise(self):
        build, params = _make_graph()
        tape = Tape.record(build)
        tape.backward()
        tape_grads = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        build().backward()
        for tape_grad, param in zip(tape_grads, params):
            assert np.array_equal(tape_grad, param.grad)

    def test_backward_resets_gradients_per_call(self):
        # Unlike eager backward, a tape backward zero-fills every gradient
        # buffer (parameters included) first: a second call reproduces
        # the first instead of accumulating.  The trainer's encoder sync
        # relies on this reset.
        build, params = _make_graph()
        tape = Tape.record(build)
        tape.backward()
        first = [p.grad.copy() for p in params]
        tape.backward()
        for grad, param in zip(first, params):
            assert np.array_equal(grad, param.grad)

    def test_rejects_hand_rolled_closure_ops(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def build():
            out = Tensor._result(x.data ** 2, (x,), "handmade")
            out._backward = lambda: None
            return out.sum()

        with pytest.raises(RuntimeError, match="not routed through apply_op"):
            Tape.record(build)


class TestTapeReplayTraining:
    def test_replay_training_matches_eager_loop_bitwise(self):
        """10 Adam steps by tape replay == 10 eager re-traced steps."""
        build_a, params_a = _make_graph(seed=3)
        build_b, params_b = _make_graph(seed=3)
        tape = Tape.record(build_a)
        opt_a = Adam(params_a, lr=0.05)
        opt_b = Adam(params_b, lr=0.05)
        losses_a, losses_b = [], []
        for step in range(10):
            if step > 0:
                tape.forward()
            opt_a.zero_grad()
            tape.backward()
            opt_a.step()
            losses_a.append(tape.root.item())

            opt_b.zero_grad()
            loss = build_b()
            loss.backward()
            opt_b.step()
            losses_b.append(loss.item())
        assert losses_a == losses_b
        for pa, pb in zip(params_a, params_b):
            assert np.array_equal(pa.data, pb.data)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_replay_gradients_match_finite_differences(self, seed):
        """Hypothesis invariant: replayed grads pass gradcheck at any leaf
        values, not just the ones the tape was recorded with."""
        build, (weight, project) = _make_graph(seed=1)
        tape = Tape.record(build)
        rng = np.random.default_rng(seed)
        tape.replay({weight: rng.standard_normal(weight.shape),
                     project: rng.standard_normal(project.shape)})
        for param in (weight, project):
            numeric = numerical_gradient(build, param, eps=1e-6)
            assert np.allclose(param.grad, numeric, atol=1e-5, rtol=1e-4)

    def test_dropout_resamples_on_replay(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((50, 4)), requires_grad=True)
        tape = Tape.record(lambda: F.dropout(x, 0.5, True, rng).sum())
        first = tape.root.item()
        second = tape.forward().item()
        assert first != second  # a fresh mask was drawn from the stream


class TestFusedEncoderTape:
    """The fused segment-attention kernels under record/replay."""

    @pytest.fixture()
    def encoder_and_graph(self):
        from repro.core import HyGNNEncoder
        from repro.hypergraph import Hypergraph

        rng = np.random.default_rng(7)
        num_nodes, num_edges, nnz = 30, 18, 140
        hypergraph = Hypergraph(
            num_nodes, num_edges,
            np.concatenate([rng.integers(0, num_nodes, nnz),
                            rng.integers(0, num_nodes, num_edges)]),
            np.concatenate([rng.integers(0, num_edges, nnz),
                            np.arange(num_edges)]))
        encoder = HyGNNEncoder(num_substructures=num_nodes, embed_dim=8,
                               hidden_dim=6, rng=np.random.default_rng(8),
                               num_layers=2, dropout=0.0)
        encoder.eval()
        return encoder, hypergraph

    def test_replay_is_bitwise_invariant(self, encoder_and_graph):
        encoder, hypergraph = encoder_and_graph
        tape = encoder.compile_encode(hypergraph)
        recorded = tape.root.data.copy()
        for _ in range(3):
            tape.forward()
            assert np.array_equal(tape.root.data, recorded)
        # and identical to a fresh eager fused encode
        assert np.array_equal(encoder.encode_hypergraph(hypergraph).data,
                              recorded)

    def test_replay_tracks_weight_updates_bitwise(self, encoder_and_graph):
        encoder, hypergraph = encoder_and_graph
        tape = encoder.compile_encode(hypergraph)
        for param in encoder.parameters():
            param.data = param.data * 0.9
        tape.forward()
        assert np.array_equal(tape.root.data,
                              encoder.encode_hypergraph(hypergraph).data)

    def test_replay_gradients_match_eager_bitwise(self, encoder_and_graph):
        encoder, hypergraph = encoder_and_graph
        tape = encoder.compile_encode(hypergraph)
        seed = np.ones_like(tape.root.data)
        tape.backward(seed)
        tape_grads = {name: param.grad.copy()
                      for name, param in encoder.named_parameters()}
        encoder.zero_grad()
        encoder.encode_hypergraph(hypergraph).backward(seed)
        for name, param in encoder.named_parameters():
            assert np.array_equal(tape_grads[name], param.grad), name

    def test_fused_and_unfused_tapes_agree_bitwise(self, encoder_and_graph):
        from repro.core import fused_kernels

        encoder, hypergraph = encoder_and_graph
        with fused_kernels(False):
            unfused = encoder.compile_encode(hypergraph)
        fused = encoder.compile_encode(hypergraph)
        for _ in range(2):
            assert np.array_equal(fused.root.data, unfused.root.data)
            fused.forward()
            unfused.forward()


# ---------------------------------------------------------------------------
# Trainer pipelines on a small synthetic corpus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def training_problem():
    corpus = [r.smiles for r in MoleculeGenerator(seed=4).generate_corpus(36)]
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, len(corpus), size=(240, 2))
    labels = rng.integers(0, 2, size=240).astype(float)
    split = random_split(len(pairs), seed=4)
    return corpus, pairs, labels, split


def _train(problem, **config_overrides):
    corpus, pairs, labels, split = problem
    settings = dict(parameter=4, embed_dim=16, hidden_dim=16,
                    epochs=10, patience=100, seed=5)
    settings.update(config_overrides)
    config = HyGNNConfig(**settings)
    model, hypergraph, _ = HyGNN.for_corpus(corpus, config)
    trainer = Trainer(model, config)
    history = trainer.fit(hypergraph, pairs, labels, split)
    return history, model.state_dict()


class TestCompiledTrainerParity:
    def test_bitwise_identical_to_eager_without_dropout(self, training_problem):
        eager_hist, eager_state = _train(training_problem, dropout=0.0,
                                         compiled=False)
        compiled_hist, compiled_state = _train(training_problem, dropout=0.0,
                                               compiled=True)
        assert eager_hist.train_loss == compiled_hist.train_loss
        assert eager_hist.val_loss == compiled_hist.val_loss
        assert eager_hist.best_epoch == compiled_hist.best_epoch
        for key in eager_state:
            assert np.array_equal(eager_state[key], compiled_state[key])

    def test_train_trajectory_bitwise_with_dropout(self, training_problem):
        # Dropout masks are drawn from the same generator stream in the same
        # order, so even the stochastic train losses match bitwise; only the
        # validation estimate differs (cached training-mode embeddings vs
        # the eager loop's eval-mode re-encode).
        eager_hist, _ = _train(training_problem, dropout=0.2, compiled=False)
        compiled_hist, _ = _train(training_problem, dropout=0.2,
                                  compiled=True)
        assert eager_hist.train_loss == compiled_hist.train_loss

    def test_minibatch_matches_full_batch_to_float_order(self,
                                                         training_problem):
        full_hist, full_state = _train(training_problem, dropout=0.0)
        batch_hist, batch_state = _train(training_problem, dropout=0.0,
                                         batch_size=64)
        drift = max(abs(a - b) for a, b in zip(full_hist.train_loss,
                                               batch_hist.train_loss))
        assert drift < 1e-10  # gradient accumulation: same mean gradient
        for key in full_state:
            assert np.allclose(full_state[key], batch_state[key],
                               atol=1e-9, rtol=1e-9)

    def test_minibatch_with_batch_larger_than_train_set(self,
                                                        training_problem):
        full_hist, _ = _train(training_problem, dropout=0.0)
        one_chunk_hist, _ = _train(training_problem, dropout=0.0,
                                   batch_size=10_000)
        # a single shuffled chunk is the full batch in a different order
        drift = max(abs(a - b) for a, b in zip(full_hist.train_loss,
                                               one_chunk_hist.train_loss))
        assert drift < 1e-10

    def test_compiled_trainer_early_stops(self, training_problem):
        history, _ = _train(training_problem, dropout=0.0, epochs=60,
                            patience=3)
        assert history.epochs_run <= 60
        if history.stopped_early:
            assert history.best_epoch < history.epochs_run - 1

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            HyGNNConfig(batch_size=0)
        assert HyGNNConfig(batch_size=128).batch_size == 128

    def test_eager_rejects_batch_size(self, training_problem):
        corpus, pairs, labels, split = training_problem
        config = HyGNNConfig(parameter=4, embed_dim=16, hidden_dim=16,
                             epochs=2, batch_size=64, compiled=False)
        model, hypergraph, _ = HyGNN.for_corpus(corpus, config)
        with pytest.raises(ValueError, match="compiled pipeline"):
            Trainer(model, config).fit(hypergraph, pairs, labels, split)
