"""Unit and property tests for the autograd Tensor core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn.gradcheck import gradcheck
from repro.nn.tensor import unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_array_casts_dtype(self):
        t = Tensor(np.array([1, 2], dtype=np.int32))
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_on_single_element_array(self):
        assert Tensor(np.array([[2.0]])).item() == pytest.approx(2.0)

    def test_item_on_multi_element_raises_value_error(self):
        with pytest.raises(ValueError, match="single-element"):
            Tensor([1.0, 2.0]).item()

    def test_item_on_empty_raises_value_error(self):
        with pytest.raises(ValueError, match="single-element"):
            Tensor(np.zeros((0,))).item()

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_detach_drops_grad_flag(self):
        t = Tensor([1.0], requires_grad=True)
        assert not t.detach().requires_grad


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert unbroadcast(g, (3, 4)).shape == (3, 4)

    def test_sum_prepended_axis(self):
        g = np.ones((5, 3))
        out = unbroadcast(g, (3,))
        assert out.shape == (3,)
        assert np.all(out == 5)

    def test_sum_stretched_axis(self):
        g = np.ones((3, 4))
        out = unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        assert np.all(out == 4)

    def test_combined(self):
        g = np.ones((2, 3, 4))
        out = unbroadcast(g, (1, 4))
        assert out.shape == (1, 4)
        assert np.all(out == 6)


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0]) + 2.0
        np.testing.assert_allclose(out.data, [3.0])

    def test_radd(self):
        out = 2.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [3.0])

    def test_sub(self):
        out = Tensor([5.0]) - Tensor([2.0])
        np.testing.assert_allclose(out.data, [3.0])

    def test_rsub(self):
        out = 5.0 - Tensor([2.0])
        np.testing.assert_allclose(out.data, [3.0])

    def test_mul_broadcast(self):
        out = Tensor(np.ones((2, 3))) * Tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_div(self):
        out = Tensor([6.0]) / Tensor([2.0])
        np.testing.assert_allclose(out.data, [3.0])

    def test_rtruediv(self):
        out = 6.0 / Tensor([2.0])
        np.testing.assert_allclose(out.data, [3.0])

    def test_pow(self):
        out = Tensor([2.0]) ** 3
        np.testing.assert_allclose(out.data, [8.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_matmul_matrix_vector(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        v = Tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose((a @ v).data, a.data @ v.data)


class TestBackwardBasics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar_without_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_shape_check(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_grad_accumulates(self):
        t = Tensor([1.0], requires_grad=True)
        out = (t * 2).sum()
        out.backward()
        out2 = (t * 3).sum()
        out2.backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_repeated_backward_accumulates_leaves_exactly(self):
        # A non-leaf grad left from an earlier call must not be propagated
        # again: three calls give 3, 6, 9 (not 3, 15, 45).
        w = Tensor([1.0], requires_grad=True)
        loss = ((w * 3.0) * 1.0).sum()
        seen = []
        for _ in range(3):
            loss.backward()
            seen.append(float(w.grad[0]))
        assert seen == [3.0, 6.0, 9.0]

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph(self):
        # y = x*x + x*x must give dy/dx = 4x (shared subexpression reuse).
        x = Tensor([3.0], requires_grad=True)
        xx = x * x
        y = (xx + xx).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_tracked_for_constant(self):
        a = Tensor([1.0])
        b = Tensor([2.0], requires_grad=True)
        out = (a * b).sum()
        out.backward()
        assert a.grad is None
        np.testing.assert_allclose(b.grad, [1.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestGradients:
    def test_add_broadcast_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(3,)), requires_grad=True)
        gradcheck(lambda: (a + b).sum(), [a, b])

    def test_mul_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(2, 3)), requires_grad=True)
        gradcheck(lambda: (a * b).sum(), [a, b])

    def test_div_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3,)) + 3.0, requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(3,)) + 3.0, requires_grad=True)
        gradcheck(lambda: (a / b).sum(), [a, b])

    def test_matmul_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
        gradcheck(lambda: (a @ b).sum(), [a, b])

    def test_matmul_vector_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        v = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        gradcheck(lambda: (a @ v).sum(), [a, v])

    def test_vector_matmul_grad(self):
        v = Tensor(np.random.default_rng(0).normal(size=(3,)), requires_grad=True)
        a = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda: (v @ a).sum(), [v, a])

    def test_dot_grad(self):
        u = Tensor(np.random.default_rng(0).normal(size=(5,)), requires_grad=True)
        v = Tensor(np.random.default_rng(1).normal(size=(5,)), requires_grad=True)
        gradcheck(lambda: u @ v, [u, v])

    def test_pow_grad(self):
        a = Tensor(np.abs(np.random.default_rng(0).normal(size=(4,))) + 0.5,
                   requires_grad=True)
        gradcheck(lambda: (a ** 3).sum(), [a])

    def test_exp_log_grad(self):
        a = Tensor(np.abs(np.random.default_rng(0).normal(size=(4,))) + 0.5,
                   requires_grad=True)
        gradcheck(lambda: a.exp().log().sum(), [a])

    def test_reshape_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 6)), requires_grad=True)
        gradcheck(lambda: (a.reshape(3, 4) * 2.0).sum(), [a])

    def test_transpose_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
        gradcheck(lambda: (a.T * w).sum(), [a])

    def test_getitem_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        gradcheck(lambda: (a[idx] ** 2).sum(), [a])

    def test_sum_axis_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).normal(size=(4,)))
        gradcheck(lambda: (a.sum(axis=0) * w).sum(), [a])

    def test_mean_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda: a.mean(), [a])

    def test_mean_axis_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).normal(size=(3,)))
        gradcheck(lambda: (a.mean(axis=1) * w).sum(), [a])

    def test_max_grad_unique(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]), requires_grad=True)
        out = a.max(axis=1).sum()
        out.backward()
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(a.grad, expected)

    def test_max_grad_ties_split(self):
        a = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_property_add_commutes(n, m):
    rng = np.random.default_rng(n * 31 + m)
    a, b = rng.normal(size=(n, m)), rng.normal(size=(n, m))
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    np.testing.assert_allclose(left, right)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
def test_property_matmul_matches_numpy(n, m, p):
    rng = np.random.default_rng(n * 100 + m * 10 + p)
    a, b = rng.normal(size=(n, m)), rng.normal(size=(m, p))
    np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=1, max_size=8))
def test_property_sum_linearity_gradient(values):
    x = Tensor(np.array(values), requires_grad=True)
    (x.sum() * 3.0).backward()
    np.testing.assert_allclose(x.grad, np.full(len(values), 3.0))
