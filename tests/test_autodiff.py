"""Reverse-mode core: exact gradients, kink conventions, finite differences."""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lane3d import autodiff as ad


def test_product_plus_exp_gradients():
    # f(a, b) = a*b + exp(a) at (2, 3): df/da = b + e^2, df/db = a
    a, b = ad.Var(2.0), ad.Var(3.0)
    f = a * b + ad.exp(a)
    f.backward()
    assert np.isclose(float(f.value), 6.0 + np.exp(2.0), atol=1e-12)
    assert np.isclose(float(a.grad), 3.0 + np.exp(2.0), atol=1e-12)
    assert np.isclose(float(b.grad), 2.0, atol=1e-12)


def test_shared_subexpression_accumulates():
    # f = (a + a) * a = 2 a^2, df/da = 4a
    a = ad.Var(1.5)
    f = (a + a) * a
    f.backward()
    assert np.isclose(float(a.grad), 6.0, atol=1e-12)


def test_forward_does_not_touch_grad():
    a = ad.Var(2.0)
    b = a * a + ad.exp(a)
    assert a.grad is None and b.grad is None


def test_unused_leaf_gets_zero_gradient():
    a, b = ad.Var(2.0), ad.Var(5.0)
    f = a * a + 0.0 * b
    f.backward()
    assert float(b.grad) == 0.0


def test_accumulation_never_writes_into_a_shared_gradient():
    # add hands one array to both parents and transpose a view of it, so
    # a second contribution must not be added in place
    x = ad.Var(np.arange(6.0).reshape(2, 3))
    y = x.T
    doubled = y + y
    f = (doubled * 2.0).sum() + (x * 3.0).sum()
    f.backward()
    assert np.array_equal(doubled.grad, np.full((3, 2), 2.0))
    assert np.array_equal(y.grad, np.full((3, 2), 4.0))
    assert np.array_equal(x.grad, np.full((2, 3), 7.0))


def test_accumulation_past_two_contributions_keeps_shared_buffers_intact():
    # x gets four contributions: the first is y's own buffer (a view), the
    # second starts a new buffer, the third and fourth are added in place
    x = ad.Var(np.arange(3.0))
    y = x + 0.0
    f = (y * 2.0).sum() + (y * 7.0).sum() + (x * 3.0).sum() + (x * 5.0).sum() + x.sum()
    f.backward()
    assert np.array_equal(y.grad, np.full(3, 9.0))
    assert np.array_equal(x.grad, np.full(3, 18.0))


def _record_vjps(root):
    """Wrap every VJP in the graph; returns the list of (node, grads) calls."""
    calls, stack, seen = [], [root], {id(root)}
    while stack:
        node = stack.pop()
        if node._vjp is not None:
            inner = node._vjp
            def wrapped(g, need, node=node, inner=inner):
                out = inner(g, need)
                calls.append((node, out))
                return out
            node._vjp = wrapped
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return calls


def test_backward_computes_no_gradient_for_constants():
    x = ad.Var(np.array([1.0, 2.0, 3.0]))
    k = ad.as_var(np.array([0.5, -1.0, 2.0]))
    scale = ad.exp(k)  # no differentiable leaf reaches it
    f = (x * scale + k).sum()
    calls = _record_vjps(f)
    f.backward()
    assert scale not in [node for node, _ in calls]
    grads = {id(node): out for node, out in calls}
    product = f._parents[0]._parents[0]  # x * scale
    assert grads[id(product)][1] is None
    assert grads[id(f._parents[0])][1] is None  # ... + k
    assert np.array_equal(x.grad, np.exp([0.5, -1.0, 2.0]))
    assert k.grad is None and scale.grad is None


def test_backward_of_a_constant_only_graph_touches_nothing():
    k = ad.as_var(np.array([1.0, 2.0]))
    f = (ad.exp(k) * 2.0).sum()
    calls = _record_vjps(f)
    f.backward()
    assert calls == [] and k.grad is None


_X = np.array([[0.5, 1.5], [2.0, 3.0]])
# each primitive with its first parent ``a`` and constant arrays elsewhere
PRIMITIVES = [
    ("add", lambda a: ad.add(a, _X)),
    ("subtract", lambda a: ad.subtract(_X, a)),
    ("negative", ad.negative),
    ("multiply", lambda a: ad.multiply(_X, a)),
    ("divide", lambda a: ad.divide(_X, a)),
    ("matmul", lambda a: ad.matmul(a, _X)),
    ("transpose", ad.transpose),
    ("reshape", lambda a: ad.reshape(a, (4,))),
    ("take", lambda a: ad.take(a, (slice(None), 1))),
    ("stack", lambda a: ad.stack([_X, a])),
    ("power", lambda a: ad.power(a, 1.5)),
    ("square", ad.square),
    ("log", ad.log),
    ("exp", ad.exp),
    ("sigmoid", ad.sigmoid),
    ("lstm_windows", lambda a: ad.lstm_windows(ad.reshape(a, (2, 1, 2)), np.ones((4, 2)),
                                               np.ones((4, 1)), np.zeros(4))),
    ("relu", ad.relu),
    ("absolute", ad.absolute),
    ("reduce_sum", lambda a: ad.reduce_sum(a, axis=0)),
    ("reduce_mean", ad.reduce_mean),
    ("reduce_min", lambda a: ad.reduce_min(a, axis=1)),
    ("where", lambda a: ad.where(_X > 1.0, _X, a)),
]


@pytest.mark.parametrize("name,op", PRIMITIVES, ids=[name for name, _ in PRIMITIVES])
def test_a_node_of_constant_parents_is_built_as_a_constant(name, op):
    out = op(_X)
    assert out.constant and out._parents == () and out._vjp is None
    out = op(ad.Var(_X))
    assert not out.constant and out._vjp is not None


@pytest.mark.parametrize(
    "index", [(slice(None), slice(1, 3)), 1, (0, slice(None, None, 2)), (slice(None), -1)],
    ids=["slices", "int", "int-and-step", "negative"],
)
def test_take_of_a_basic_index_equals_the_scatter_add(index):
    a = ad.Var(np.arange(12.0).reshape(3, 4))
    out = ad.take(a, index)
    g = np.full(out.shape, -0.0)  # np.add.at turns -0.0 into +0.0
    g.flat[:1] = 2.5
    want = np.zeros((3, 4))
    np.add.at(want, index, g)
    (got,) = out._vjp(g, (True,))
    assert got.tobytes() == want.tobytes()


def _two_steps(v):
    # one anchor's two (1, 2) frames through a one-unit LSTM: hidden 1, four gates
    return ad.lstm_windows(v.reshape((2, 1, 2)), np.ones((4, 2)), np.ones((4, 1)), np.zeros(4))


@pytest.mark.parametrize(
    "op",
    [ad.exp, _two_steps, ad.sigmoid, lambda v: ad.divide(1.0, v)],
    ids=["exp", "lstm_windows", "sigmoid", "divide"],
)
def test_dropped_graph_is_freed_by_reference_counting(op):
    # a VJP that closed over its own output Var would make every graph a
    # reference cycle that only the cyclic collector frees
    gc.collect()
    gc.disable()
    try:
        x = ad.Var(np.linspace(0.5, 2.0, 4))
        op(x).sum().backward()
        del x
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_backward_requires_scalar():
    v = ad.Var(np.ones(3))
    with pytest.raises(ValueError):
        v.backward()


def test_relu_subgradient_zero_at_kink():
    x = ad.Var(np.array([-1.0, 0.0, 2.0]))
    y = ad.relu(x).sum()
    y.backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_absolute_subgradient_zero_at_kink():
    x = ad.Var(np.array([-3.0, 0.0, 4.0]))
    y = ad.absolute(x).sum()
    y.backward()
    assert np.array_equal(x.grad, [-1.0, 0.0, 1.0])


def test_min_tie_routes_to_lowest_index():
    # Chamfer's nearest-point terms rely on this rule, along either axis
    x = ad.Var(np.array([[3.0, 1.0, 1.0], [2.0, 4.0, 2.0]]))
    y = ad.reduce_min(x, axis=1)
    y.sum().backward()
    assert np.array_equal(y.value, [1.0, 2.0])
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    x = ad.Var(np.array([[3.0, 1.0], [3.0, 1.0]]))
    ad.reduce_min(x, axis=0).sum().backward()
    assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_min_axis_gradient():
    x = ad.Var(np.array([[2.0, 5.0], [7.0, 1.0]]))
    y = ad.reduce_min(x, axis=1).sum()
    y.backward()
    assert np.array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])


def test_sigmoid_midpoint():
    x = ad.Var(0.0)
    y = ad.sigmoid(x)
    y.backward()
    assert float(y.value) == 0.5
    assert np.isclose(float(x.grad), 0.25, atol=1e-15)


def test_sigmoid_extreme_inputs_stay_finite():
    x = ad.Var(np.array([-800.0, 800.0]))
    y = ad.sigmoid(x)
    assert np.all(np.isfinite(y.value))
    assert np.isclose(y.value[0], 0.0, atol=1e-300)
    assert y.value[1] == 1.0


def _masked_sigmoid(v):
    """The boolean-scatter formula sigmoid_values replaced, kept as an oracle."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


_SIGMOID_SPECIALS = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan]
)


@pytest.mark.parametrize(
    "v",
    [np.array(x) for x in _SIGMOID_SPECIALS]
    + [_SIGMOID_SPECIALS[:3], _SIGMOID_SPECIALS[-3:], _SIGMOID_SPECIALS,
       np.random.default_rng(0).normal(scale=12.0, size=(40, 128))],
    ids=[f"0d[{x!r}]" for x in _SIGMOID_SPECIALS] + ["(3,)a", "(3,)b", "specials", "(40,128)"],
)
def test_sigmoid_values_bitwise_equal_the_masked_formula(v):
    if v.shape == (40, 128):
        v = v.copy()
        v.flat[::97] = np.resize(_SIGMOID_SPECIALS, v.flat[::97].shape)
    got, want = ad.sigmoid_values(v), _masked_sigmoid(v)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # NaN sign bits included
    x = ad.Var(v)
    y = ad.sigmoid(x)
    y.sum().backward()
    assert y.value.tobytes() == want.tobytes()
    assert x.grad.tobytes() == (1.0 * want * (1.0 - want)).tobytes()


_RELU_SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.5, -1.5,
     np.inf, -np.inf, np.nan, -np.nan]
)


@pytest.mark.parametrize(
    "v", [np.array(x) for x in _RELU_SPECIALS] + [_RELU_SPECIALS],
    ids=[f"0d[{x!r}]" for x in _RELU_SPECIALS] + ["specials"],
)
def test_relu_value_bitwise_equals_the_masked_select(v):
    want = np.where(v > 0, v, 0.0)  # the select relu's forward replaced
    x = ad.Var(v)
    y = ad.relu(x)
    assert y.value.shape == want.shape and y.value.tobytes() == want.tobytes()
    y.sum().backward()
    assert x.grad.tobytes() == (np.ones_like(v) * (v > 0.0)).tobytes()


# floats of every kind numpy meets: normal, subnormal, signed zeros, both
# infinities and NaNs of both signs
_special_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.nan, -np.nan, np.inf, -np.inf]),
)


@settings(max_examples=300, deadline=None)
@given(v=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
                    elements=_special_floats))
def test_forward_values_bitwise_equal_the_where_formulas(v):
    pos = v >= 0
    want = np.where(pos, 1.0, np.exp(np.where(pos, -v, v)))
    want = want / (1.0 + np.exp(np.where(pos, -v, v)))  # the two-branch sigmoid
    got = ad.sigmoid_values(v)
    assert got.shape == v.shape and got.tobytes() == np.asarray(want).tobytes()
    assert ad.relu(v).value.tobytes() == np.asarray(np.where(v > 0, v, 0.0)).tobytes()


def test_take_classifies_its_index_in_the_vjp_only(monkeypatch):
    calls = []
    inner = ad._is_basic_index
    monkeypatch.setattr(ad, "_is_basic_index", lambda index: (calls.append(index), inner(index))[1])
    x = ad.Var(np.arange(12.0).reshape(3, 4))
    y = (x[:, 1:3].sum() + x[np.array([0, 0, 2])].sum()) * x[1].sum()
    assert calls == []  # a forward pass never classifies an index
    y.backward()
    assert len(calls) == 3  # one call per take node
    # d/dx of (A + B) * C with A = 33, B = 50, C = 22 at x = arange(12)
    assert np.array_equal(x.grad, [[44.0, 66.0, 66.0, 44.0], [83.0, 105.0, 105.0, 83.0],
                                   [22.0, 44.0, 44.0, 22.0]])


def test_finite_difference_check_leaves_its_inputs_intact():
    rng = np.random.default_rng(5)
    params = {"a": rng.normal(size=(2, 3)), "s": np.array(0.75), "b": rng.normal(size=4)}
    before = {name: value.tobytes() for name, value in params.items()}
    seen = []

    def fn(p):
        # every evaluation sees at most one entry moved, by exactly the step
        moved = [(name, idx) for name, value in params.items()
                 for idx in np.ndindex(value.shape)
                 if p[name].value[idx] != value[idx]]
        seen.append(moved)
        if moved:
            (name, idx), = moved
            assert abs(abs(p[name].value[idx] - params[name][idx]) - 1e-5) < 1e-12
        return (p["a"] * p["s"]).sum() + ad.exp(p["b"]).sum()

    report = ad.finite_difference_check(fn, params, step=1e-5)
    assert report.max_relative_error < 1e-8
    assert {name: value.tobytes() for name, value in params.items()} == before
    entries = [(name, idx) for name, value in params.items() for idx in np.ndindex(value.shape)]
    assert seen[0] == []  # the analytic pass at the unmoved point
    assert seen[1:] == [[entry] for entry in entries for _ in range(2)]


def test_broadcast_gradient_sums_to_parent_shape():
    a = ad.Var(np.ones((3, 4)))
    b = ad.Var(np.ones(4))
    c = ad.Var(2.0)
    f = ((a + b) * c).sum()
    f.backward()
    assert a.grad.shape == (3, 4) and np.all(a.grad == 2.0)
    assert b.grad.shape == (4,) and np.all(b.grad == 6.0)
    assert np.isclose(float(c.grad), 24.0)


def test_matmul_gradients_match_manual():
    rng = np.random.default_rng(0)
    av, bv = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    a, b = ad.Var(av), ad.Var(bv)
    f = ad.matmul(a, b).sum()
    f.backward()
    ones = np.ones((3, 2))
    assert np.allclose(a.grad, ones @ bv.T, atol=1e-12)
    assert np.allclose(b.grad, av.T @ ones, atol=1e-12)


def test_getitem_scatter_accumulates_duplicates():
    x = ad.Var(np.array([1.0, 2.0, 3.0]))
    idx = np.array([0, 0, 2])
    y = x[idx].sum()
    y.backward()
    assert np.array_equal(x.grad, [2.0, 0.0, 1.0])


def test_divide_rejects_zero_denominator():
    with pytest.raises(ValueError):
        ad.divide(ad.Var(1.0), ad.Var(0.0))


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        ad.log(ad.Var(np.array([1.0, 0.0])))


def test_where_routes_by_mask():
    a = ad.Var(np.array([1.0, 2.0]))
    b = ad.Var(np.array([10.0, 20.0]))
    y = ad.where([True, False], a, b).sum()
    y.backward()
    assert np.array_equal(a.grad, [1.0, 0.0])
    assert np.array_equal(b.grad, [0.0, 1.0])


def test_stack_splits_gradient():
    a, b = ad.Var(np.array([1.0, 2.0])), ad.Var(np.array([3.0, 4.0]))
    y = (ad.stack([a, b]) * np.array([[1.0, 2.0], [3.0, 4.0]])).sum()
    y.backward()
    assert np.array_equal(a.grad, [1.0, 2.0])
    assert np.array_equal(b.grad, [3.0, 4.0])


def _rel_err(a, n):
    return abs(a - n) / max(1.0, abs(a), abs(n))


SMOOTH_UNARY = [
    ("exp", ad.exp, (-2.0, 2.0)),
    ("log", ad.log, (0.5, 4.0)),
    ("sigmoid", ad.sigmoid, (-4.0, 4.0)),
    ("square", ad.square, (-3.0, 3.0)),
]


@pytest.mark.parametrize("name,op,rng_span", SMOOTH_UNARY, ids=[s[0] for s in SMOOTH_UNARY])
def test_unary_ops_match_central_differences(name, op, rng_span):
    lo, hi = rng_span
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(lo, hi, size=5)
        report = ad.finite_difference_check(
            lambda p, op=op: op(p["x"]).sum(), {"x": x0}, step=1e-6
        )
        assert report.max_relative_error < 1e-7, (name, seed)


def test_composite_programs_match_central_differences():
    # random mixes of primitives, away from kinks, checked against FD
    def program(p):
        x, w, b = p["x"], p["w"], p["b"]
        h = 2.0 * ad.sigmoid(2.0 * (ad.matmul(x, w) + b)) - 1.0  # tanh
        s = ad.sigmoid(h).mean()
        return s * s + ad.exp(-s) + ad.log(s + 2.0)

    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = {
            "x": rng.normal(size=(3, 4)),
            "w": rng.normal(size=(4, 2)),
            "b": rng.normal(size=2),
        }
        report = ad.finite_difference_check(program, params, step=1e-6)
        assert report.max_relative_error < 1e-6, seed


def test_min_and_abs_programs_away_from_kinks():
    def program(p):
        d = ad.absolute(p["a"] - p["b"])
        return ad.reduce_min(d, axis=1).sum()

    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3)) + 5.0  # keep |a-b| far from 0 and ties apart
        report = ad.finite_difference_check(program, {"a": a, "b": b}, step=1e-6)
        assert report.max_relative_error < 1e-6, seed


def test_gradcheck_report_worst_parameter():
    report = ad.GradCheckReport(
        max_relative_error=0.5, per_parameter={"w": 0.5, "b": 0.1}
    )
    assert report.worst_parameter() == "w"


def test_gradcheck_rejects_bad_step():
    with pytest.raises(ValueError):
        ad.finite_difference_check(lambda p: p["x"].sum(), {"x": np.ones(2)}, step=0.0)


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = ad.Var(rng.normal(size=(5, 5)))
        w = ad.Var(rng.normal(size=(5, 5)))
        f = ad.sigmoid(ad.matmul(x, w)).sum() * ad.exp(ad.reduce_min(x, axis=1).sum())
        f.backward()
        return float(f.value), x.grad.copy(), w.grad.copy()

    v1, gx1, gw1 = run()
    v2, gx2, gw2 = run()
    assert v1 == v2
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)
