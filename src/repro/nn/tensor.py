"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` substrate.  The paper's
models (HyGNN, GCN/GAT/GraphSAGE baselines, CASTER, Decagon) were originally
built on PyTorch; the build environment here is numpy-only, so we provide a
small but complete autograd engine.  Every differentiable operation used by
the models lives either here (operator overloads) or in
:mod:`repro.nn.functional`, and each is validated against finite differences
in the test suite.

Ops are *registry-style*: each operation is a pair of module-level
``forward(ctx, *parent_arrays, out=None)`` / ``backward(ctx, out, *parents)``
functions glued together by :func:`apply_op`.  The eager path wraps the
backward function in a per-tensor ``_backward`` closure (the classic
micrograd contract, preserved for external callers that attach closures by
hand), but because the functions read the *current* tensor data and a
mutable ``ctx`` at call time — never values frozen at trace time — the same
node can be re-executed later with new leaf values.  That is what
:class:`repro.nn.tape.Tape` exploits: it records one forward pass and then
replays forward+backward every epoch without re-tracing, re-allocating, or
re-sorting the graph.

``ctx`` doubles as a scratch-buffer cache: ops that need large temporaries
(scatter targets, broadcast products) allocate them once via
:func:`ctx_buffer` and reuse them on every replay.  In eager mode each call
gets a fresh ``ctx``, so eager numerics and allocation behaviour are exactly
the classic ones; under a tape the buffers persist and the hot loop stops
paying allocation and page-zeroing costs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

# Stack of actively recording tapes (see repro.nn.tape).  apply_op notifies
# the innermost tape of every differentiable node it creates.
_TAPE_STACK: list = []


class _NullTape:
    """A tape that discards every note it receives.

    Pushed onto ``_TAPE_STACK`` by :func:`tape_shield` so that ops executed
    inside a shielded region (the checkpoint op's recompute subgraphs) are
    never recorded onto an enclosing :class:`repro.nn.tape.Tape` — the
    enclosing tape sees the checkpoint op as a single opaque node.
    """

    def _note(self, out, parents, forward_fn, ctx) -> None:
        pass


_NULL_TAPE = _NullTape()


@contextmanager
def tape_shield():
    """Hide ops executed in this block from any actively recording tape."""
    _TAPE_STACK.append(_NULL_TAPE)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


@contextmanager
def grads_suspended(tensors: Sequence["Tensor"]):
    """Temporarily clear ``requires_grad`` on ``tensors``.

    Used by the checkpoint op's forward so the wrapped subgraph runs as a
    pure value computation: no closure graph is built through the suspended
    parameters and nothing is noted onto a recording tape (``apply_op``
    skips both when no parent requires grad).
    """
    flags = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, flags):
            t.requires_grad = flag


def _as_array(value, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Coerce ``value`` to a numpy array of the engine's dtype."""
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting may both prepend dimensions and stretch size-1 axes; the
    gradient of a broadcast is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def ctx_buffer(ctx: dict, key: str, shape: tuple, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """A persistent scratch array stored in ``ctx`` (uninitialised contents)."""
    buf = ctx.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype=dtype)
        ctx[key] = buf
    return buf


def ctx_zeros(ctx: dict, key: str, shape: tuple, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Like :func:`ctx_buffer` but zero-filled on every call."""
    buf = ctx_buffer(ctx, key, shape, dtype)
    buf.fill(0)
    return buf


class Tensor:
    """A numpy-backed tensor that participates in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: Sequence["Tensor"] = (), op: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._parents = tuple(_parents)
        self.op = op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, op={self.op or 'leaf'})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a single-element tensor, got shape "
                f"{self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from the graph."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        May be called more than once on one graph: leaf gradients
        accumulate across calls (two calls give twice the gradient of
        one), while every non-leaf gradient is reset at the start of each
        call.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.data.shape}")

        order = topological_order(self)
        # A non-leaf gradient belongs to one backward call; left over from
        # an earlier call it would be propagated again, so only leaves
        # accumulate across calls.
        for node in order:
            if node._parents:
                node.grad = None
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward()

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Construction helpers used by operations
    # ------------------------------------------------------------------
    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"], op: str) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=parents if requires else (), op=op)

    # ------------------------------------------------------------------
    # Arithmetic operators
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply_op("add", (self, other), _add_forward, _add_backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply_op("neg", (self,), _neg_forward, _neg_backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return (-self) + other

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply_op("mul", (self, other), _mul_forward, _mul_backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply_op("div", (self, other), _div_forward, _div_backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return apply_op("pow", (self,), _pow_forward, _pow_backward,
                        ctx={"exponent": float(exponent)})

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply_op("matmul", (self, other), _matmul_forward,
                        _matmul_backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op("reshape", (self,), _reshape_forward,
                        _reshape_backward, ctx={"shape": shape})

    def transpose(self, axes: tuple | None = None) -> "Tensor":
        inverse = None if axes is None else tuple(np.argsort(axes))
        return apply_op("transpose", (self,), _transpose_forward,
                        _transpose_backward,
                        ctx={"axes": axes, "inverse": inverse})

    def __getitem__(self, index) -> "Tensor":
        return apply_op("getitem", (self,), _getitem_forward,
                        _getitem_backward, ctx={"index": index})

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("sum", (self,), _sum_forward, _sum_backward,
                        ctx={"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("max", (self,), _max_forward, _max_backward,
                        ctx={"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Elementwise nonlinearities (also exposed in functional)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply_op("exp", (self,), _exp_forward, _exp_backward)

    def log(self) -> "Tensor":
        return apply_op("log", (self,), _log_forward, _log_backward)


def topological_order(root: Tensor) -> list[Tensor]:
    """Ancestors of ``root`` in topological order (root last).

    Iterative DFS so deep graphs never hit the recursion limit.  Both
    :meth:`Tensor.backward` and tape replay use this one function, so the
    two paths execute backward closures — and therefore accumulate floating
    point gradients — in exactly the same order.
    """
    order: list[Tensor] = []
    visited: set[int] = {id(root)}
    stack: list[tuple[Tensor, Iterable[Tensor]]] = [(root, iter(root._parents))]
    while stack:
        current, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(current)
            stack.pop()
    return order


def apply_op(op: str, parents: Sequence[Tensor],
             forward_fn: Callable, backward_fn: Callable,
             ctx: dict | None = None) -> Tensor:
    """Create the output tensor of one differentiable operation.

    ``forward_fn(ctx, *parent_arrays, out=None)`` computes the result (using
    ``out`` as a destination buffer when it can); ``backward_fn(ctx, out,
    *parents)`` returns one gradient array (or ``None``) per parent, reading
    the *current* ``out.data`` / ``out.grad`` / ``parent.data`` so the node
    stays valid when a tape re-executes it with new leaf values.
    """
    ctx = {} if ctx is None else ctx
    out_data = forward_fn(ctx, *[p.data for p in parents])
    requires = any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=requires,
                 _parents=parents if requires else (), op=op)
    if requires:
        parents = tuple(parents)

        def backward() -> None:
            grads = backward_fn(ctx, out, *parents)
            for parent, grad in zip(parents, grads):
                if grad is not None:
                    parent._accumulate(grad)

        out._backward = backward
        if _TAPE_STACK:
            _TAPE_STACK[-1]._note(out, parents, forward_fn, ctx)
    return out


# ---------------------------------------------------------------------------
# Op implementations (forward/backward pairs keyed by op via apply_op)
# ---------------------------------------------------------------------------

def _add_forward(ctx, a, b, out=None):
    return np.add(a, b, out=out)


def _add_backward(ctx, out, a, b):
    grad = out.grad
    ga = unbroadcast(grad, a.data.shape) if a.requires_grad else None
    gb = unbroadcast(grad, b.data.shape) if b.requires_grad else None
    return ga, gb


def _neg_forward(ctx, a, out=None):
    return np.negative(a, out=out)


def _neg_backward(ctx, out, a):
    return (np.negative(out.grad, out=ctx_buffer(ctx, "ga", out.grad.shape)),)


def _mul_forward(ctx, a, b, out=None):
    return np.multiply(a, b, out=out)


def _mul_backward(ctx, out, a, b):
    grad = out.grad
    ga = gb = None
    if a.requires_grad:
        prod = np.multiply(grad, b.data, out=ctx_buffer(ctx, "ga", grad.shape))
        ga = unbroadcast(prod, a.data.shape)
    if b.requires_grad:
        prod = np.multiply(grad, a.data, out=ctx_buffer(ctx, "gb", grad.shape))
        gb = unbroadcast(prod, b.data.shape)
    return ga, gb


def _div_forward(ctx, a, b, out=None):
    return np.divide(a, b, out=out)


def _div_backward(ctx, out, a, b):
    grad = out.grad
    ga = gb = None
    if a.requires_grad:
        ga = unbroadcast(grad / b.data, a.data.shape)
    if b.requires_grad:
        gb = unbroadcast(-grad * a.data / (b.data ** 2), b.data.shape)
    return ga, gb


def _pow_forward(ctx, a, out=None):
    return np.power(a, ctx["exponent"], out=out)


def _pow_backward(ctx, out, a):
    exponent = ctx["exponent"]
    return (out.grad * exponent * a.data ** (exponent - 1),)


def _matmul_forward(ctx, a, b, out=None):
    if out is not None and out.ndim == 0:
        out = None  # np.matmul cannot write scalar results in place
    return np.matmul(a, b, out=out)


def _matmul_backward(ctx, out, a, b):
    grad = out.grad
    a_data, b_data = a.data, b.data
    a_ndim, b_ndim = a_data.ndim, b_data.ndim
    ga = gb = None
    if a.requires_grad:
        if b_ndim == 1 and a_ndim == 1:            # (m,) @ (m,) -> scalar
            grad_a = grad * b_data
        elif b_ndim == 1:                          # (n,m) @ (m,) -> (n,)
            grad_a = np.outer(grad, b_data)
        elif a_ndim == 1:                          # (m,) @ (m,p) -> (p,)
            grad_a = b_data @ grad
        else:                                      # (..,n,m) @ (..,m,p)
            grad_a = np.matmul(grad, b_data.swapaxes(-1, -2),
                               out=ctx_buffer(ctx, "ga", a_data.shape)
                               if grad.ndim == 2 and b_ndim == 2 else None)
        ga = unbroadcast(grad_a, a_data.shape)
    if b.requires_grad:
        if a_ndim == 1 and b_ndim == 1:
            grad_b = grad * a_data
        elif a_ndim == 1:                          # (m,) @ (m,p) -> (p,)
            grad_b = np.outer(a_data, grad)
        elif b_ndim == 1:                          # (n,m) @ (m,) -> (n,)
            grad_b = a_data.T @ grad
        else:
            grad_b = np.matmul(a_data.swapaxes(-1, -2), grad,
                               out=ctx_buffer(ctx, "gb", b_data.shape)
                               if grad.ndim == 2 and a_ndim == 2 else None)
        gb = unbroadcast(grad_b, b_data.shape)
    return ga, gb


def _reshape_forward(ctx, a, out=None):
    return a.reshape(ctx["shape"])


def _reshape_backward(ctx, out, a):
    return (out.grad.reshape(a.data.shape),)


def _transpose_forward(ctx, a, out=None):
    return a.transpose(ctx["axes"])


def _transpose_backward(ctx, out, a):
    return (out.grad.transpose(ctx["inverse"]),)


def _getitem_forward(ctx, a, out=None):
    return a[ctx["index"]]


def _getitem_backward(ctx, out, a):
    grad = ctx_zeros(ctx, "ga", a.data.shape, a.data.dtype)
    np.add.at(grad, ctx["index"], out.grad)
    return (grad,)


def _sum_forward(ctx, a, out=None):
    return np.sum(a, axis=ctx["axis"], keepdims=ctx["keepdims"], out=out)


def _sum_backward(ctx, out, a):
    grad = out.grad
    axis, keepdims = ctx["axis"], ctx["keepdims"]
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis)
    expanded = np.broadcast_to(grad, a.data.shape)
    buf = ctx_buffer(ctx, "ga", a.data.shape, a.data.dtype)
    np.copyto(buf, expanded)
    return (buf,)


def _max_forward(ctx, a, out=None):
    return np.amax(a, axis=ctx["axis"], keepdims=ctx["keepdims"], out=out)


def _max_backward(ctx, out, a):
    grad, out_data = out.grad, out.data
    axis = ctx["axis"]
    if axis is not None and not ctx["keepdims"]:
        grad = np.expand_dims(grad, axis)
        out_data = np.expand_dims(out_data, axis)
    mask = (a.data == out_data)
    counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    return (mask * grad / counts,)


def _exp_forward(ctx, a, out=None):
    return np.exp(a, out=out)


def _exp_backward(ctx, out, a):
    return (np.multiply(out.grad, out.data,
                        out=ctx_buffer(ctx, "ga", out.data.shape)),)


def _log_forward(ctx, a, out=None):
    return np.log(a, out=out)


def _log_backward(ctx, out, a):
    return (out.grad / a.data,)


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def stack_parameters(params: Iterable[Tensor]) -> int:
    """Total number of scalar parameters, used for model summaries."""
    return int(sum(p.data.size for p in params))
