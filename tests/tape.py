"""The autodiff reference: dense float64 tensors with recorded reverse-mode
differentiation.

Every operation appends to an implicit tape: a tensor keeps references to
its parents together with the local vector-Jacobian rules.  The rules are
themselves written with tensor operations, so the result of ``backward`` is
an ordinary differentiable node.  Differentiating a gradient a second time
is what ``vjp_of_gradient`` does to form u^T (dg/dtheta) products without
ever materializing the Jacobian.

Graphs are rebuilt at every evaluation point (define-by-run), and running
the same expressions on the same inputs is bit-reproducible.  Arrays are
dense, row-major float64.  Broadcasting is supported for elementwise ops in
the numpy sense and is undone in the backward pass by summing over the
broadcast axes.  Any operation that produces NaN or infinity raises
immediately, naming the offending op.

The package computes every gradient and product in closed form; the tests
differentiate the same losses here and compare.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np
from scipy.special import expit

from gantrace.models import NonFiniteError


class Tensor:
    """A node of the expression graph.

    ``parents`` holds ``(tensor, rule)`` pairs where ``rule`` maps the
    output adjoint to the adjoint contribution of that parent.  Leaves have
    no parents.  ``data`` is never mutated after construction.
    """

    __slots__ = ("data", "op", "parents")

    def __init__(self, data, op: str = "leaf", parents: tuple = ()):
        if type(data) is np.ndarray and data.dtype == np.float64:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float64)
        # Any NaN or infinity contaminates the sum, so one reduction checks
        # the whole array.
        if not math.isfinite(arr.sum()):
            raise NonFiniteError(f"non-finite values produced by op '{op}'")
        self.data = arr
        self.op = op
        self.parents = parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        a, b = self, other
        return Tensor(a.data + b.data, "add", (
            (a, lambda g: sum_to(g, a.shape)),
            (b, lambda g: sum_to(g, b.shape)),
        ))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return self.scale(float(other))
        other = as_tensor(other)
        a, b = self, other
        return Tensor(a.data * b.data, "mul", (
            (a, lambda g: sum_to(g * b, a.shape)),
            (b, lambda g: sum_to(g * a, b.shape)),
        ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return self.scale(1.0 / float(other))
        return self * as_tensor(other).reciprocal()

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        return Tensor(a.data @ b.data, "matmul", (
            (a, lambda g: g @ b.T),
            (b, lambda g: a.T @ g),
        ))

    def scale(self, c: float):
        c = float(c)
        return Tensor(self.data * c, "scale", ((self, lambda g: g.scale(c)),))

    # -- shape manipulation -------------------------------------------

    def reshape(self, shape):
        shape = tuple(shape)
        src = self.shape
        return Tensor(self.data.reshape(shape), "reshape",
                      ((self, lambda g: g.reshape(src)),))

    @property
    def T(self):
        if self.ndim != 2:
            raise ValueError(f"transpose expects a 2-d tensor, got {self.shape}")
        return Tensor(self.data.T, "transpose", ((self, lambda g: g.T),))

    def __getitem__(self, key):
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise ValueError("only contiguous 1-d slices are supported")
        if self.ndim != 1:
            raise ValueError("slicing is supported on 1-d tensors only")
        start, stop, _ = key.indices(self.shape[0])
        total = self.shape[0]
        return Tensor(self.data[start:stop], "slice",
                      ((self, lambda g: _scatter_vec(g, start, total)),))

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.shape
        if axis is None:
            axes = tuple(range(len(src_shape)))
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(ax % len(src_shape) for ax in axes)
        kd_shape = tuple(1 if i in axes else s for i, s in enumerate(src_shape))

        def rule(g):
            gg = g
            if not keepdims and g.shape != kd_shape:
                gg = g.reshape(kd_shape)
            return broadcast_to(gg, src_shape)

        return Tensor(data, "sum", ((self, rule),))

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def dot(self, other):
        other = as_tensor(other)
        if self.shape != other.shape or self.ndim != 1:
            raise ValueError(f"dot expects equal-length vectors, got {self.shape} and {other.shape}")
        return (self * other).sum()

    # -- elementwise ----------------------------------------------------

    def exp(self):
        with np.errstate(over="ignore"):
            out = Tensor(np.exp(self.data), "exp")
        out.parents = ((self, lambda g: g * out),)
        return out

    def log(self):
        x = self
        with np.errstate(invalid="ignore", divide="ignore"):
            return Tensor(np.log(self.data), "log", ((x, lambda g: g * x.reciprocal()),))

    def reciprocal(self):
        with np.errstate(divide="ignore"):
            out = Tensor(1.0 / self.data, "reciprocal")
        out.parents = ((self, lambda g: -(g * out.square())),)
        return out

    def square(self):
        x = self
        return Tensor(self.data * self.data, "square", ((x, lambda g: g * x.scale(2.0)),))

    def sigmoid(self):
        out = Tensor(expit(self.data), "sigmoid")
        out.parents = ((self, lambda g: g * out * (1.0 - out)),)
        return out

    def softplus(self):
        # log(1 + e^x) through logaddexp, which cannot overflow; its
        # derivative is the logistic.
        x = self
        return Tensor(np.logaddexp(0.0, self.data), "softplus",
                      ((x, lambda g: g * x.sigmoid()),))

    def tanh(self):
        out = Tensor(np.tanh(self.data), "tanh")
        out.parents = ((self, lambda g: g * (1.0 - out.square())),)
        return out

    def relu(self):
        # Subgradient convention: derivative 0 at the kink, second
        # derivative 0 everywhere.
        mask = Tensor((self.data > 0).astype(np.float64))
        return Tensor(np.maximum(self.data, 0.0), "relu",
                      ((self, lambda g: g * mask),))

    def clamp(self, lo: float, hi: float):
        # Same piecewise-linear convention as relu: zero derivative at and
        # beyond the bounds.
        mask = Tensor(((self.data > lo) & (self.data < hi)).astype(np.float64))
        return Tensor(np.clip(self.data, lo, hi), "clamp",
                      ((self, lambda g: g * mask),))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def constant(value) -> Tensor:
    """A leaf tensor; the name documents that no gradient flows into it."""
    return Tensor(value)


def broadcast_to(t: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    src = t.shape
    return Tensor(np.broadcast_to(t.data, shape).copy(), "broadcast",
                  ((t, lambda g: sum_to(g, src)),))


def sum_to(t: Tensor, shape) -> Tensor:
    """Reduce ``t`` back to ``shape`` by summing broadcast axes."""
    shape = tuple(shape)
    if t.shape == shape:
        return t
    data = t.data
    extra = data.ndim - len(shape)
    if extra:
        data = data.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if data.shape[i] != s)
    if axes:
        data = data.sum(axis=axes, keepdims=True)
    if data.shape != shape:
        raise ValueError(f"cannot reduce shape {t.shape} to {shape}")
    src = t.shape
    return Tensor(data, "sum_to", ((t, lambda g: broadcast_to(g, src)),))


def _scatter_vec(t: Tensor, start: int, total: int) -> Tensor:
    data = np.zeros(total)
    data[start:start + t.shape[0]] = t.data
    stop = start + t.shape[0]
    return Tensor(data, "scatter", ((t, lambda g: g[start:stop]),))


def concat_vec(parts: Sequence[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if any(p.ndim != 1 for p in parts):
        raise ValueError("concat_vec expects 1-d tensors")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    rules = []
    for p, start, stop in zip(parts, offsets, offsets[1:]):
        rules.append((p, (lambda s0, s1: lambda g: g[int(s0):int(s1)])(start, stop)))
    return Tensor(np.concatenate([p.data for p in parts]), "concat", tuple(rules))


def logsumexp(t: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """log(sum(exp(t))) along ``axis``, stabilized by a detached max shift.

    The shift is a constant, which leaves the derivative (the softmax of
    ``t``) exact.
    """
    shift = constant(np.max(t.data, axis=axis, keepdims=True))
    out = (t - shift).exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        out = out.reshape(tuple(s for i, s in enumerate(out.shape) if i != axis % t.ndim))
    return out


def backward(output: Tensor, wrt: Sequence[Tensor]) -> list[Tensor]:
    """Reverse-mode gradients of a scalar ``output`` for each leaf in ``wrt``.

    The returned tensors are nodes of an extended graph and can be
    differentiated again.  A leaf the output does not depend on gets an
    exact zero gradient of matching shape.
    """
    if output.data.shape != ():
        raise ValueError(f"backward needs a scalar output, got shape {output.data.shape}")
    for leaf in wrt:
        if leaf.parents:
            raise ValueError(f"gradient target {leaf!r} is not a leaf of the graph")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    adjoints: dict[int, Tensor] = {id(output): Tensor(np.ones(()))}
    for node in reversed(order):
        node_adj = adjoints.get(id(node))
        if node_adj is None:
            continue
        for parent, rule in node.parents:
            contribution = rule(node_adj)
            existing = adjoints.get(id(parent))
            adjoints[id(parent)] = contribution if existing is None else existing + contribution
    return [adjoints.get(id(leaf), constant(np.zeros_like(leaf.data))) for leaf in wrt]


def vjp_of_gradient(vector: np.ndarray, gradient_map, params: np.ndarray) -> np.ndarray:
    """Row product ``vector^T J`` against the Jacobian of a gradient map.

    ``gradient_map`` receives a leaf tensor with the value of ``params``
    and must return the flat gradient as a differentiable tensor, i.e. it
    computes the gradient with ``backward`` internally.  Differentiating
    ``<vector, gradient_map(theta)>`` once more yields the product without
    forming the (d, d) Jacobian.
    """
    params = np.asarray(params, dtype=np.float64)
    vector = np.asarray(vector, dtype=np.float64)
    theta = Tensor(params)
    grad = gradient_map(theta)
    if not isinstance(grad, Tensor):
        raise TypeError("gradient_map must return a Tensor")
    if grad.shape != vector.shape:
        raise ValueError(f"vector length {vector.shape} does not match gradient length {grad.shape}")
    inner = constant(vector).dot(grad)
    (pullback,) = backward(inner, [theta])
    return pullback.data.copy()
