"""Reverse-mode automatic differentiation over float64 scalars and arrays.

A ``Var`` wraps a numpy float64 array (0-d for scalars) and records the
operation that produced it, so a scalar output can backpropagate exact
derivatives into every participating input.  All arithmetic is 64-bit;
there is no global tape, so independent evaluations never share state.

Kink conventions: ``relu`` and ``absolute`` use subgradient 0 at the kink,
and ``reduce_min`` routes the gradient into the first (lowest-index)
minimiser of each reduced slice.

Leaves are either differentiable (``Var(value)``) or constant
(``as_var(value)`` on anything that is not already a Var: literals,
targets, masks, input features).  Five invariants keep a training tape
cheap:

- Constness is decided once, when a node is built.  Every primitive
  hands its value, parents and VJP to ``_node``, which returns a
  parentless constant without a VJP when no parent is differentiable,
  so a forward-only graph (evaluation, central differences) records no
  tape at all.  A VJP is handed one flag per parent, "not constant",
  and returns ``None`` for every constant parent without computing that
  gradient.  Constants keep ``grad = None``.
- Gradients are allocated lazily.  ``backward`` gives a node a gradient
  only when one of its children sends one, and skips the VJP of a node
  that received nothing.  A node's first contribution is kept as
  handed over (it may be a view another node shares); the second is
  summed into a new buffer, and later ones are added into that buffer
  in place.
- A VJP closure must never reference its own output ``Var``; it captures
  its inputs and plain value arrays only.  Graph edges then point from
  child to parent alone, so a dropped graph is freed by reference
  counting instead of waiting for the cyclic garbage collector.
- Gradient sums are fixed by the graph's shape: contributions reach a
  node in the order ``_topological_order`` lists its children, and that
  order follows each node's parent order.  ``lstm_windows`` sums its
  per-step contributions in the order the per-step composition it
  replaces delivered them: ``w_ih``, ``bias`` and the batch latest step
  first, ``w_hh`` earliest step first.  So every gradient of a fused
  recurrence is the composition's, bit for bit.
- A forward node does only forward work.  Anything that only a VJP
  reads (the relu mask, the sign under ``absolute``, the kind of a
  ``take`` index) is computed inside the VJP, and no forward builds an
  ``np.where`` over a mask it derives from its input values.  Most
  primitive calls come from forward-only graphs (evaluation, central
  differences), whose VJPs are dropped unrun.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_FLOAT64 = np.dtype(np.float64)
# 0-d operands: numpy converts a Python float on every ufunc call
_ZERO = np.array(0.0)
_ONE = np.array(1.0)


class Var:
    """A node in a differentiable computation.

    ``value`` is the forward result; ``grad`` stays ``None`` until a
    backward pass from a scalar output fills it with d(output)/d(value).
    """

    __slots__ = ("value", "grad", "_parents", "_vjp")
    constant = False

    def __init__(self, value, _parents=(), _vjp=None):
        if type(value) is not np.ndarray or value.dtype is not _FLOAT64:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
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

        Fills ``grad`` on every non-constant node of the graph; nodes
        participating in the graph but not influencing the output get
        zero gradients, and constants keep ``grad = None``.  A forward
        pass alone never touches ``grad``.
        """
        if self.value.shape != ():
            raise ValueError("backward() requires a scalar output")
        order = _topological_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        owned = set()  # nodes whose grad buffer backward allocated itself
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            need = tuple([not p.constant for p in node._parents])
            for parent, g in zip(node._parents, node._vjp(node.grad, need)):
                if g is None:
                    continue
                if parent.grad is None:
                    parent.grad = g  # may be a view another node shares
                elif id(parent) in owned:
                    parent.grad += g
                else:
                    parent.grad = parent.grad + g
                    owned.add(id(parent))


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


class _Constant(Var):
    """A parentless node whose gradient nobody reads; ``backward`` skips it."""

    __slots__ = ()
    constant = True


def as_var(x):
    """Coerce numbers and arrays to constant leaf Vars; pass Vars through."""
    if isinstance(x, Var):
        return x
    return _Constant(x)


def _node(value, parents, vjp):
    """The one place constness is decided: a node none of whose parents is
    differentiable is a constant, and its VJP is dropped unrecorded."""
    for parent in parents:
        if not parent.constant:
            return Var(value, parents, vjp)
    return _Constant(value)


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
    return _node(a.value + b.value, (a, b), lambda g, need: (
        _sum_to_shape(g, a.shape) if need[0] else None,
        _sum_to_shape(g, b.shape) if need[1] else None,
    ))


def subtract(a, b):
    a, b = as_var(a), as_var(b)
    return _node(a.value - b.value, (a, b), lambda g, need: (
        _sum_to_shape(g, a.shape) if need[0] else None,
        _sum_to_shape(-g, b.shape) if need[1] else None,
    ))


def negative(a):
    a = as_var(a)
    return _node(-a.value, (a,), lambda g, need: (-g,))


def multiply(a, b):
    a, b = as_var(a), as_var(b)
    return _node(a.value * b.value, (a, b), lambda g, need: (
        _sum_to_shape(g * b.value, a.shape) if need[0] else None,
        _sum_to_shape(g * a.value, b.shape) if need[1] else None,
    ))


def divide(a, b):
    a, b = as_var(a), as_var(b)
    if np.any(b.value == 0.0):
        raise ValueError("divide: zero denominator")
    inv = 1.0 / b.value
    value = a.value * inv
    return _node(value, (a, b), lambda g, need: (
        _sum_to_shape(g * inv, a.shape) if need[0] else None,
        _sum_to_shape(-g * value * inv, b.shape) if need[1] else None,
    ))


def matmul(a, b):
    a, b = as_var(a), as_var(b)

    def vjp(g, need):
        av, bv = a.value, b.value
        if av.ndim == 2 and bv.ndim == 2:
            return (g @ bv.T if need[0] else None, av.T @ g if need[1] else None)
        if av.ndim == 2 and bv.ndim == 1:
            return (np.outer(g, bv) if need[0] else None, av.T @ g if need[1] else None)
        if av.ndim == 1 and bv.ndim == 2:
            return (bv @ g if need[0] else None, np.outer(av, g) if need[1] else None)
        # vector dot product
        return (g * bv if need[0] else None, g * av if need[1] else None)

    return _node(a.value @ b.value, (a, b), vjp)


def transpose(a):
    a = as_var(a)
    return _node(a.value.T, (a,), lambda g, need: (g.T,))


def reshape(a, shape):
    a = as_var(a)
    return _node(a.value.reshape(shape), (a,), lambda g, need: (g.reshape(a.shape),))


def _is_basic_index(index):
    """Ints and slices only: each entry is selected at most once."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(p, (slice, int, np.integer)) and not isinstance(p, bool) for p in parts
    )


def take(a, index):
    """Select entries with a constant index expression (slice/int/array)."""
    a = as_var(a)

    def vjp(g, need):
        ga = np.zeros_like(a.value)
        if _is_basic_index(index):  # no repeated entries: np.add.at's 0 + g, without its overhead
            ga[index] += g
        else:
            np.add.at(ga, index, g)
        return (ga,)

    return _node(a.value[index], (a,), vjp)


def stack(vars_, axis=0):
    vars_ = [as_var(v) for v in vars_]
    value = np.stack([v.value for v in vars_], axis=axis)
    return _node(value, tuple(vars_), lambda g, need: tuple(
        np.take(g, i, axis=axis) if n else None for i, n in enumerate(need)
    ))


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

    def vjp(g, need):
        if p == 0.0:
            return (np.zeros_like(a.value),)
        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = p * a.value ** (p - 1.0)
        coeff = np.where(np.isfinite(coeff), coeff, 0.0)
        return (_sum_to_shape(g * coeff, a.shape),)

    return _node(a.value ** p, (a,), vjp)


def square(a):
    a = as_var(a)
    return _node(a.value * a.value, (a,), lambda g, need: (g * 2.0 * a.value,))


def log(a):
    a = as_var(a)
    if np.any(a.value <= 0.0):
        raise ValueError("log: non-positive argument")
    return _node(np.log(a.value), (a,), lambda g, need: (g / a.value,))


def exp(a):
    a = as_var(a)
    value = np.exp(a.value)
    return _node(value, (a,), lambda g, need: (g * value,))


def sigmoid_values(v):
    """Overflow-free logistic of a float64 array: e^min(v, 0) / (1 + e^-|v|).

    That is 1/(1+e^-v) for v >= 0 and e^v/(1+e^v) otherwise, per element
    the operations of the two-branch formula, without a masked select.
    Neither exponent is positive, so neither overflows.  A NaN keeps its
    sign bit: the numerator carries it, and division passes it on.
    """
    e = np.abs(v, out=np.empty(v.shape))  # buffers: arrays even for 0-d v
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += _ONE
    num = np.minimum(v, _ZERO, out=np.empty(v.shape))
    np.exp(num, out=num)
    num /= e
    return num


def sigmoid(a):
    a = as_var(a)
    value = sigmoid_values(a.value)
    return _node(value, (a,), lambda g, need: (g * value * (1.0 - value),))


def lstm_windows(batch, w_ih, w_hh, bias, frames=1):
    """An LSTM over the last ``frames`` windows of a (K, T, C) batch, as one node.

    Frame t's window is [f0]*(T-1-t) + [f0..ft], read from a zero state.
    Returns the final hidden rows (frames*K, H), frame-major: rows
    j*K .. (j+1)*K end frame T-frames+j's window.  ``w_ih`` (4H, C),
    ``w_hh`` (4H, H) and ``bias`` (4H,) stack the gates (i, f, g, o):
    i, f, o are sigmoids, g is tanh, c = f*c_prev + i*g, h = o*tanh(c).
    Windows that have read only f0 so far share one state, so step s runs
    on the rows of frames lo..s alone, lo = max(s+1-frames, 0), and a
    window that leaves the shared group starts from a repeat of its rows.

    The forward runs the ufuncs of the per-step matmul/add/slice/sigmoid/
    tanh/multiply composition at its row counts, and the VJP evaluates
    that composition's VJP expressions step by step, so values and
    gradients equal it bit for bit (summation order: module docstring).
    With one hidden unit numpy may take another BLAS path for h, here a
    strided column of the [h, c] buffer, and so differ in the last bit.
    Step 0 reads no ``w_hh``: for finite weights the zero state's product
    is +0.0, and ``z += 0.0`` stands in for it.  So with T = 1 a
    non-finite ``w_hh`` leaves the output finite, where 0 * inf gave NaN.
    """
    parents = tuple(as_var(v) for v in (batch, w_ih, w_hh, bias))
    batch, w_ih, w_hh, bias = parents
    k, total, _ = batch.shape
    hidden = w_hh.shape[1]
    record = not all(p.constant for p in parents)  # a constant keeps no steps
    rows = np.arange(k)
    steps = []
    for s in range(total):
        lo = max(s + 1 - frames, 0)
        index = (slice(None), s) if lo == s else (  # frames lo..s, frame-major
            np.tile(rows, s + 1 - lo), np.repeat(np.arange(lo, s + 1), k))
        x = batch.value[index]
        z = x @ w_ih.value.T
        expand = lo == 0 and s > 0  # the window reading f1 leaves the shared group
        if s == 0:
            z += 0.0
            h_prev, c_prev = None, 0.0
        else:
            if expand:
                shared = np.concatenate([rows, np.arange(s * k)])
                h, c = h[shared], c[shared]
            h_prev, c_prev = h, c
            z += h_prev @ w_hh.value.T
        z += bias.value
        i_f = sigmoid_values(z[:, :2 * hidden])  # i and f are adjacent: one call
        i, f = i_f[:, :hidden], i_f[:, hidden:]
        g = np.tanh(z[:, 2 * hidden:3 * hidden])
        o = sigmoid_values(z[:, 3 * hidden:])
        hc = np.empty((z.shape[0], 2 * hidden))  # [h, c], written in place
        h, c = hc[:, :hidden], hc[:, hidden:]
        np.multiply(f, c_prev, out=c)
        c += i * g
        tanh_c = np.tanh(c)
        np.multiply(o, tanh_c, out=h)
        if record:
            steps.append((index, expand, x, h_prev, c_prev, i, f, g, o, tanh_c))
        del z, i_f, i, f, g, o, tanh_c, hc  # a forward-only call holds one step's state

    def vjp(grad, need):
        d_batch = np.zeros_like(batch.value) if need[0] else None
        d_w_ih_t = d_bias = None  # summed latest step first
        d_w_hh_t = []  # per step, latest first
        dh, dc = grad, 0.0
        for index, expand, x, h_prev, c_prev, i, f, g, o, tanh_c in reversed(steps):
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            dz = np.concatenate([
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tanh_c * o * (1.0 - o),
            ], axis=1)
            # the composition sums four zero-padded gate slices into dz, which
            # turns -0.0 into +0.0; adding 0.0 does the same
            dz += 0.0
            if need[0]:
                d_batch[index] += dz @ w_ih.value
            if need[1]:
                d_w_ih_t = x.T @ dz if d_w_ih_t is None else d_w_ih_t + x.T @ dz
            if need[3]:
                d_bias = dz.sum(axis=0) if d_bias is None else d_bias + dz.sum(axis=0)
            if h_prev is None:
                break
            if need[2]:
                d_w_hh_t.append(h_prev.T @ dz)
            dh, dc = dz @ w_hh.value, dc * f
            if expand:  # the shared rows were read twice: sum both reads
                dh[k:2 * k] += dh[:k]
                dc[k:2 * k] += dc[:k]
                dh, dc = dh[k:], dc[k:]
        return (
            d_batch,
            d_w_ih_t.T if need[1] else None,
            # w_hh earliest first, from step 0's product with the zero state: +0.0
            sum(reversed(d_w_hh_t), np.zeros((hidden, 4 * hidden))).T if need[2] else None,
            d_bias,
        )

    return _node(h, parents, vjp)


def relu(a):
    a = as_var(a)
    # fmax drops a NaN for 0.0, and adding 0.0 turns -0.0 into +0.0: the
    # values of where(a > 0, a, 0.0) without a masked select
    value = np.fmax(a.value, _ZERO)
    value += _ZERO
    # subgradient 0 at the kink
    return _node(value, (a,), lambda g, need: (g * (a.value > 0.0),))


def absolute(a):
    a = as_var(a)
    # sign(0) == 0: subgradient 0 at the kink
    return _node(np.abs(a.value), (a,), lambda g, need: (g * np.sign(a.value),))


def reduce_sum(a, axis=None, keepdims=False):
    a = as_var(a)

    def vjp(g, need):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reduce_mean(a, axis=None, keepdims=False):
    a = as_var(a)
    count = a.value.size if axis is None else a.shape[axis]
    return reduce_sum(a, axis=axis, keepdims=keepdims) / float(count)


def reduce_min(a, axis):
    """Minimum along ``axis``; the gradient flows only into the argmin entry.

    Ties break toward the lowest index, matching ``np.argmin``.
    """
    a = as_var(a)
    idx = np.expand_dims(np.argmin(a.value, axis=axis), axis)

    def vjp(g, need):
        ga = np.zeros_like(a.value)
        np.put_along_axis(ga, idx, np.expand_dims(g, axis), axis=axis)
        return (ga,)

    return _node(np.take_along_axis(a.value, idx, axis=axis).squeeze(axis), (a,), vjp)


def where(condition, a, b):
    """Select elementwise by a constant boolean mask."""
    cond = np.asarray(condition, dtype=bool)
    a, b = as_var(a), as_var(b)
    return _node(np.where(cond, a.value, b.value), (a, b), lambda g, need: (
        _sum_to_shape(np.where(cond, g, 0.0), a.shape) if need[0] else None,
        _sum_to_shape(np.where(cond, 0.0, g), b.shape) if need[1] else None,
    ))


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_relative_error: float
    per_parameter: dict = field(default_factory=dict)

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
        # only the perturbed entry's array is copied: no primitive writes
        # into a leaf's value, so the other leaves wrap the caller's arrays
        shifted = np.array(params[name], dtype=np.float64)
        shifted[index] += offset
        out = fn({k: as_var(shifted if k == name else v) for k, v in params.items()})
        return float(out.value)

    return (evaluate(step) - evaluate(-step)) / (2.0 * step)


def finite_difference_check(fn, params, step):
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` maps a dict of named Vars to a scalar Var; ``params`` holds the
    evaluation point as named arrays; ``step`` is the central-difference
    step (``checks.STEP`` in the audit).  The caller is responsible for
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
        for idx in np.ndindex(base.shape):
            analytic = float(grad[idx])
            numeric = central_difference(fn, named, name, idx, step)
            worst = max(worst, _relative_error(analytic, numeric))
        per_parameter[name] = worst
    return GradCheckReport(
        max_relative_error=max(per_parameter.values()),
        per_parameter=per_parameter,
    )
