"""Reverse-mode automatic differentiation over float64 scalars and arrays.

A ``Var`` wraps a numpy float64 array (0-d for scalars) and records the
operation that produced it, so a scalar output can backpropagate exact
derivatives into every participating input.  All arithmetic is 64-bit;
there is no global tape, so independent evaluations never share state.

Kink conventions: ``relu`` and ``absolute`` use subgradient 0 at the kink,
and ``reduce_min`` routes the gradient into the first (lowest-index)
minimiser of each reduced slice.

Two invariants keep a training tape cheap:

- Gradients are allocated lazily.  ``backward`` gives a node a gradient
  only when one of its children sends one, and skips the VJP of a node
  that received nothing.  Every reachable node that received nothing
  gets zeros at the end, so ``grad`` is set on the whole graph.
- A VJP closure must never reference its own output ``Var``; it captures
  its inputs and plain value arrays only.  Graph edges then point from
  child to parent alone, so a dropped graph is freed by reference
  counting instead of waiting for the cyclic garbage collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Var:
    """A node in a differentiable computation.

    ``value`` is the forward result; ``grad`` stays ``None`` until a
    backward pass from a scalar output fills it with d(output)/d(value).
    """

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, _parents=(), _vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Var({self.value!r})"

    # arithmetic operators delegate to the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return subtract(self, other)

    def __rsub__(self, other):
        return subtract(other, self)

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __neg__(self):
        return negative(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, index):
        return take(self, index)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)

    def backward(self):
        """Backpropagate from this scalar output.

        Fills ``grad`` on every node reachable from this output; leaves
        participating in the graph but not influencing the output get
        zero gradients.  A forward pass alone never touches ``grad``.
        """
        if self.value.shape != ():
            raise ValueError("backward() requires a scalar output")
        order = _topological_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                # out-of-place: a VJP may hand back a view of node.grad
                parent.grad = g if parent.grad is None else parent.grad + g
        for node in order:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)


def _topological_order(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def as_var(x):
    """Coerce numbers and arrays to constant leaf Vars; pass Vars through."""
    if isinstance(x, Var):
        return x
    return Var(x)


def _sum_to_shape(g, shape):
    """Reduce a broadcast gradient back to the parent's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b):
    a, b = as_var(a), as_var(b)
    out = Var(a.value + b.value, (a, b))
    out._vjp = lambda g: (_sum_to_shape(g, a.shape), _sum_to_shape(g, b.shape))
    return out


def subtract(a, b):
    a, b = as_var(a), as_var(b)
    out = Var(a.value - b.value, (a, b))
    out._vjp = lambda g: (_sum_to_shape(g, a.shape), _sum_to_shape(-g, b.shape))
    return out


def negative(a):
    a = as_var(a)
    out = Var(-a.value, (a,))
    out._vjp = lambda g: (-g,)
    return out


def multiply(a, b):
    a, b = as_var(a), as_var(b)
    out = Var(a.value * b.value, (a, b))
    out._vjp = lambda g: (
        _sum_to_shape(g * b.value, a.shape),
        _sum_to_shape(g * a.value, b.shape),
    )
    return out


def divide(a, b):
    a, b = as_var(a), as_var(b)
    if np.any(b.value == 0.0):
        raise ValueError("divide: zero denominator")
    inv = 1.0 / b.value
    value = a.value * inv
    out = Var(value, (a, b))
    out._vjp = lambda g: (
        _sum_to_shape(g * inv, a.shape),
        _sum_to_shape(-g * value * inv, b.shape),
    )
    return out


def matmul(a, b):
    a, b = as_var(a), as_var(b)
    out = Var(a.value @ b.value, (a, b))

    def vjp(g):
        av, bv = a.value, b.value
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv), av.T @ g
        if av.ndim == 1 and bv.ndim == 2:
            return bv @ g, np.outer(av, g)
        return g * bv, g * av  # vector dot product

    out._vjp = vjp
    return out


def transpose(a):
    a = as_var(a)
    out = Var(a.value.T, (a,))
    out._vjp = lambda g: (g.T,)
    return out


def reshape(a, shape):
    a = as_var(a)
    out = Var(a.value.reshape(shape), (a,))
    out._vjp = lambda g: (g.reshape(a.shape),)
    return out


def take(a, index):
    """Select entries with a constant index expression (slice/int/array)."""
    a = as_var(a)
    out = Var(a.value[index], (a,))

    def vjp(g):
        ga = np.zeros_like(a.value)
        np.add.at(ga, index, g)
        return (ga,)

    out._vjp = vjp
    return out


def stack(vars_, axis=0):
    vars_ = [as_var(v) for v in vars_]
    out = Var(np.stack([v.value for v in vars_], axis=axis), tuple(vars_))
    out._vjp = lambda g: tuple(np.take(g, i, axis=axis) for i in range(len(vars_)))
    return out


def power(a, exponent):
    """Raise to a constant real exponent.

    Non-integer exponents require a non-negative base.  Where the base is
    zero and the derivative coefficient would blow up (exponent < 1) the
    gradient is defined as 0.
    """
    a = as_var(a)
    p = float(exponent)
    if p != int(p) and np.any(a.value < 0.0):
        raise ValueError("power: negative base with non-integer exponent")
    out = Var(a.value ** p, (a,))

    def vjp(g):
        if p == 0.0:
            return (np.zeros_like(a.value),)
        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = p * a.value ** (p - 1.0)
        coeff = np.where(np.isfinite(coeff), coeff, 0.0)
        return (_sum_to_shape(g * coeff, a.shape),)

    out._vjp = vjp
    return out


def square(a):
    a = as_var(a)
    out = Var(a.value * a.value, (a,))
    out._vjp = lambda g: (g * 2.0 * a.value,)
    return out


def log(a):
    a = as_var(a)
    if np.any(a.value <= 0.0):
        raise ValueError("log: non-positive argument")
    out = Var(np.log(a.value), (a,))
    out._vjp = lambda g: (g / a.value,)
    return out


def exp(a):
    a = as_var(a)
    value = np.exp(a.value)
    out = Var(value, (a,))
    out._vjp = lambda g: (g * value,)
    return out


def tanh(a):
    a = as_var(a)
    value = np.tanh(a.value)
    out = Var(value, (a,))
    out._vjp = lambda g: (g * (1.0 - value * value),)
    return out


def sigmoid_values(v):
    """Overflow-free logistic: 1/(1+e^-v) for v >= 0, e^v/(1+e^v) otherwise."""
    pos = v >= 0
    e = np.exp(np.where(pos, -v, v))  # never positive, so never overflows
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a):
    a = as_var(a)
    value = sigmoid_values(a.value)
    out = Var(value, (a,))
    out._vjp = lambda g: (g * value * (1.0 - value),)
    return out


def relu(a):
    a = as_var(a)
    mask = a.value > 0.0  # subgradient 0 at the kink
    out = Var(np.where(mask, a.value, 0.0), (a,))
    out._vjp = lambda g: (g * mask,)
    return out


def absolute(a):
    a = as_var(a)
    sign = np.sign(a.value)  # sign(0) == 0: subgradient 0 at the kink
    out = Var(np.abs(a.value), (a,))
    out._vjp = lambda g: (g * sign,)
    return out


def reduce_sum(a, axis=None, keepdims=False):
    a = as_var(a)
    out = Var(a.value.sum(axis=axis, keepdims=keepdims), (a,))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    out._vjp = vjp
    return out


def reduce_mean(a, axis=None, keepdims=False):
    a = as_var(a)
    count = a.value.size if axis is None else a.shape[axis]
    return reduce_sum(a, axis=axis, keepdims=keepdims) / float(count)


def reduce_min(a, axis=None):
    """Minimum reduction; the gradient flows only into the argmin entry.

    Ties break toward the lowest index, matching ``np.argmin``.
    """
    a = as_var(a)
    if axis is None:
        flat_idx = int(np.argmin(a.value))
        out = Var(a.value.reshape(-1)[flat_idx], (a,))

        def vjp(g):
            ga = np.zeros_like(a.value)
            ga.reshape(-1)[flat_idx] = g
            return (ga,)

    else:
        idx = np.expand_dims(np.argmin(a.value, axis=axis), axis)
        out = Var(np.take_along_axis(a.value, idx, axis=axis).squeeze(axis), (a,))

        def vjp(g):
            ga = np.zeros_like(a.value)
            np.put_along_axis(ga, idx, np.expand_dims(g, axis), axis=axis)
            return (ga,)

    out._vjp = vjp
    return out


def where(condition, a, b):
    """Select elementwise by a constant boolean mask."""
    cond = np.asarray(condition, dtype=bool)
    a, b = as_var(a), as_var(b)
    out = Var(np.where(cond, a.value, b.value), (a, b))
    out._vjp = lambda g: (
        _sum_to_shape(np.where(cond, g, 0.0), a.shape),
        _sum_to_shape(np.where(cond, 0.0, g), b.shape),
    )
    return out


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_relative_error: float
    per_parameter: dict = field(default_factory=dict)
    step: float = 1e-5

    def worst_parameter(self):
        return max(self.per_parameter, key=self.per_parameter.get)


def _relative_error(analytic, numeric):
    denom = max(1.0, abs(analytic), abs(numeric))
    return abs(analytic - numeric) / denom


def central_difference(fn, params, name, index, step):
    """Central-difference derivative of ``fn`` in one parameter entry.

    This is the independent oracle used by ``finite_difference_check``;
    it only ever evaluates ``fn`` forward.
    """
    def evaluate(offset):
        shifted = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
        shifted[name][index] += offset
        out = fn({k: Var(v) for k, v in shifted.items()})
        return float(out.value)

    return (evaluate(step) - evaluate(-step)) / (2.0 * step)


def finite_difference_check(fn, params, step=1e-5):
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` maps a dict of named Vars to a scalar Var; ``params`` holds the
    evaluation point as named arrays.  The caller is responsible for
    staying clear of kinks (relu/abs/min ties, loss branch points) by at
    least a couple of steps; near a kink the comparison is unreliable.
    """
    if step <= 0.0:
        raise ValueError("finite_difference_check: step must be positive")
    named = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    leaves = {k: Var(v) for k, v in named.items()}
    out = fn(leaves)
    out.backward()

    per_parameter = {}
    for name, base in named.items():
        # leaves the output never touches have a zero gradient
        grad = leaves[name].grad
        grad = np.zeros_like(base) if grad is None else grad
        worst = 0.0
        for index in np.ndindex(base.shape if base.shape else (1,)):
            idx = index if base.shape else ()
            analytic = float(grad[idx]) if base.shape else float(grad)
            numeric = central_difference(fn, named, name, idx, step)
            worst = max(worst, _relative_error(analytic, numeric))
        per_parameter[name] = worst
    return GradCheckReport(
        max_relative_error=max(per_parameter.values()),
        per_parameter=per_parameter,
        step=step,
    )
