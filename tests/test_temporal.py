"""The LSTM recurrence node, batched per-anchor fusion, backpropagation through time."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d import autodiff as ad
from lane3d.checks import TOLERANCE
from lane3d.synth import SceneConfig
from lane3d.temporal import fuse_all_anchors
from lane3d.training import TrainConfig, init_parameters


EPS = np.finfo(np.float64).eps
LSTM_PARAMS = ("lstm.w_ih", "lstm.w_hh", "lstm.bias", "lstm.proj_w", "lstm.proj_b")


def _lstm(c, h, rng):
    """Uniform(-1/sqrt(H), 1/sqrt(H)) LSTM entries, forget-gate bias +1."""
    rng = np.random.default_rng(rng)
    scale = 1.0 / np.sqrt(h)
    u = lambda *shape: rng.uniform(-scale, scale, size=shape)
    bias = u(4 * h)
    bias[h : 2 * h] += 1.0
    return {
        "lstm.w_ih": u(4 * h, c),
        "lstm.w_hh": u(4 * h, h),
        "lstm.bias": bias,
        "lstm.proj_w": u(c, h),
        "lstm.proj_b": u(c),
    }


def _zero_params(c, h):
    return {
        "lstm.w_ih": np.zeros((4 * h, c)),
        "lstm.w_hh": np.zeros((4 * h, h)),
        "lstm.bias": np.zeros(4 * h),
        "lstm.proj_w": np.zeros((c, h)),
        "lstm.proj_b": np.zeros(c),
    }


def _windows(batch, params, frames=1):
    """The recurrence node alone: the final hidden rows of each window."""
    return ad.lstm_windows(batch, params["lstm.w_ih"], params["lstm.w_hh"], params["lstm.bias"],
                           frames)


def _numpy_fuse(batch, params):
    """Plain-numpy LSTM recurrence over one anchor's (T, C) frames, oldest first."""
    hidden = params["lstm.w_hh"].shape[1]
    h, c = np.zeros(hidden), np.zeros(hidden)
    for x in batch:
        z = params["lstm.w_ih"] @ x + params["lstm.w_hh"] @ h + params["lstm.bias"]
        i, f, o = (1.0 / (1.0 + np.exp(-z[j * hidden : (j + 1) * hidden])) for j in (0, 1, 3))
        g = np.tanh(z[2 * hidden : 3 * hidden])
        c = f * c + i * g
        h = o * np.tanh(c)
    return np.maximum(params["lstm.proj_w"] @ h + params["lstm.proj_b"], 0.0)


def test_sequence_validation():
    params = _lstm(4, 4, rng=0)
    # a bare (T, C) sequence is not a (K, T, C) anchor batch
    with pytest.raises(ValueError):
        fuse_all_anchors(np.zeros((3, 4)), params)
    with pytest.raises(ValueError):
        fuse_all_anchors(np.zeros((1, 2, 3, 4)), params)
    assert fuse_all_anchors(np.zeros((1, 3, 4)), params).shape == (1, 4)
    assert fuse_all_anchors(np.zeros((2, 3, 4)), params, frames=3).shape == (6, 4)


@pytest.mark.parametrize("shape, frames, match", [
    ((2, 0, 4), 1, r"frames = 1 outside 1\.\.T = 0"),
    ((0, 0, 4), 1, r"frames = 1 outside 1\.\.T = 0"),
    ((2, 3, 4), 0, r"frames = 0 outside 1\.\.T = 3"),
    ((2, 3, 4), 4, r"frames = 4 outside 1\.\.T = 3"),
    ((2, 1, 4), -1, r"frames = -1 outside 1\.\.T = 1"),
])
def test_empty_or_out_of_range_windows_rejected(shape, frames, match):
    # a (K, 0, C) batch would otherwise fuse to relu(proj_b) for every row
    with pytest.raises(ValueError, match=match):
        fuse_all_anchors(np.zeros(shape), _lstm(4, 4, rng=0), frames=frames)


def test_initialize_ranges_and_forget_bias():
    scene = SceneConfig(stations=(3.0, 10.0, 20.0), channels=16, num_classes=3)
    params = init_parameters(scene, TrainConfig(seed=0))
    c = scene.channels
    scale = 0.25  # 1/sqrt(C)
    bias = params.pop("lstm.bias")
    assert bias.shape == (4 * c,)
    # forget-gate slice sits in [1 - scale, 1 + scale], the rest in [-scale, scale]
    assert np.all(np.abs(bias[c : 2 * c] - 1.0) <= scale)
    assert np.all(np.abs(np.concatenate([bias[:c], bias[2 * c :]])) <= scale)
    assert np.array_equal(params.pop("uncertainty.s"), np.zeros(4))
    for name, value in params.items():
        assert np.all(np.abs(value) <= scale), name


def test_zero_parameters_give_zero_state():
    params = _zero_params(3, 2)
    # gates i=f=o=0.5, g=0 at zero pre-activations: c stays 0, so h does
    h = _windows(np.ones((1, 2, 3)), params, frames=2)
    assert np.array_equal(h.value, np.zeros((2, 2)))


def test_zero_cell_ignores_forget_gate():
    rng = np.random.default_rng(5)
    params = _lstm(4, 4, rng)
    x = rng.normal(size=(2, 4))
    h1 = _windows(x[:, None, :], params)
    # from the zero state, c = i*g regardless of the forget gate
    z = x @ params["lstm.w_ih"].T + params["lstm.bias"]
    i, o = (1.0 / (1.0 + np.exp(-z[:, j:j + 4])) for j in (0, 12))
    g = np.tanh(z[:, 8:12])
    assert np.allclose(h1.value, o * np.tanh(i * g), atol=1e-12)


def test_state_bounds():
    # every window of a 50-frame batch: |h| = |o tanh(c)| <= 1
    rng = np.random.default_rng(9)
    params = _lstm(5, 3, rng)
    h = _windows(rng.normal(scale=3.0, size=(2, 50, 5)), params, frames=50)
    assert h.shape == (100, 3)
    assert np.all(np.abs(h.value) <= 1.0)


def test_fuse_single_frame_reduction():
    rng = np.random.default_rng(2)
    params = _lstm(4, 4, rng)
    x = rng.normal(size=(1, 1, 4))
    fused = fuse_all_anchors(x, params)
    assert np.allclose(fused.value[0], _numpy_fuse(x[0], params), atol=1e-12)


def test_fuse_zero_parameters_zero_output():
    params = _zero_params(4, 4)
    fused = fuse_all_anchors(np.ones((2, 3, 4)), params)
    assert np.array_equal(fused.value, np.zeros((2, 4)))


def test_relu_clamps_negative_projection():
    params = {**_zero_params(2, 1), "lstm.proj_b": np.array([-1.0, -2.0])}
    fused = fuse_all_anchors(np.ones((1, 2, 2)), params)
    assert np.array_equal(fused.value, [[0.0, 0.0]])


def test_fuse_all_anchors_matches_per_anchor():
    rng = np.random.default_rng(13)
    params = _lstm(6, 5, rng)
    batch = rng.normal(size=(4, 3, 6))
    fused = fuse_all_anchors(batch, params).value
    for k in range(4):
        assert np.allclose(fused[k], _numpy_fuse(batch[k], params), rtol=0.0, atol=1e-12)


def test_identical_sequences_fuse_identically():
    rng = np.random.default_rng(21)
    params = _lstm(4, 4, rng)
    seq = rng.normal(size=(3, 4))
    batch = np.stack([seq, seq], axis=0)
    fused = fuse_all_anchors(batch, params).value
    assert np.array_equal(fused[0], fused[1])


def test_anchor_permutation_equivariance():
    rng = np.random.default_rng(22)
    params = _lstm(4, 4, rng)
    batch = rng.normal(size=(5, 3, 4))
    perm = np.array([3, 0, 4, 1, 2])
    fused = fuse_all_anchors(batch, params).value
    fused_perm = fuse_all_anchors(batch[perm], params).value
    assert np.allclose(fused_perm, fused[perm], atol=1e-15)


def test_anchor_independence():
    rng = np.random.default_rng(23)
    params = _lstm(4, 4, rng)
    batch = rng.normal(size=(3, 2, 4))
    zeroed = batch.copy()
    zeroed[1] = 0.0
    a = fuse_all_anchors(batch, params).value
    b = fuse_all_anchors(zeroed, params).value
    assert np.allclose(a[0], b[0], atol=1e-15)
    assert np.allclose(a[2], b[2], atol=1e-15)
    assert not np.allclose(a[1], b[1])


def _padded_window(batch, t):
    """Frame t's window of a (K, T, C) batch: [f0]*(T-1-t) + [f0..ft]."""
    total = batch.shape[1]
    return batch[:, [0] * (total - 1 - t) + list(range(t + 1)), :]


@settings(max_examples=100, deadline=None)
@given(total=st.integers(1, 4), data=st.data(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_shared_prefix_windows_equal_the_padded_windows(total, data, k, seed):
    """Bit for bit from two rows up: the gate products then give the same
    bits per row at any row count.  A one-row product goes through numpy's
    vector-matrix (gemv) path, which sums in another order, so a single
    anchor's separate windows agree only to rounding."""
    frames = data.draw(st.integers(1, total), label="frames")
    rng = np.random.default_rng(seed)
    params = _lstm(5, 3, rng)
    batch = rng.normal(size=(k, total, 5))
    got = fuse_all_anchors(batch, params, frames=frames).value
    assert got.shape == (frames * k, 5)
    for j, t in enumerate(range(total - frames, total)):
        want = fuse_all_anchors(_padded_window(batch, t), params).value
        if k == 1:
            np.testing.assert_allclose(got[j:j + 1], want, rtol=64 * EPS, atol=64 * EPS)
        else:
            assert got[j * k:(j + 1) * k].tobytes() == want.tobytes(), (j, t)


@pytest.mark.parametrize("frames, rows", [(1, [1, 1, 1]), (2, [1, 2, 2]), (3, [1, 2, 3])])
def test_each_step_runs_the_cell_on_the_distinct_windows_only(frames, rows, monkeypatch):
    # T = 3: the padded windows [f0,f0,f0], [f0,f0,f1], [f0,f1,f2] have 1, 2
    # and 3 distinct states after steps 0, 1 and 2; each step takes two
    # sigmoids, of the (i, f) and the o pre-activations, on its rows
    k, seen = 5, []
    sigmoid_values = ad.sigmoid_values

    def counting(v):
        seen.append(v.shape[0])
        return sigmoid_values(v)

    monkeypatch.setattr(ad, "sigmoid_values", counting)
    fuse_all_anchors(np.ones((k, 3, 4)), _lstm(4, 4, rng=0), frames=frames)
    assert seen == [r * k for r in rows for _ in range(2)]


def test_shared_prefix_gradients_match_fd():
    # gradients reach the batch through every window that reads a frame
    # and the repeated shared state, and every LSTM weight through all windows
    rng = np.random.default_rng(41)
    c, h = 3, 4
    params = _lstm(c, h, rng)
    params["lstm.proj_b"] = params["lstm.proj_b"] + 3.0  # |proj_w h| <= sqrt(H): relu open
    params["x"] = rng.normal(size=(2, 3, c))
    mix = rng.normal(size=(6, c))

    def program(p):
        return (fuse_all_anchors(p["x"], p, frames=3) * mix).sum()

    report = ad.finite_difference_check(program, params)
    assert set(report.per_parameter) == {"x", *LSTM_PARAMS}
    assert report.max_relative_error < TOLERANCE, report.per_parameter


def test_inconsistent_anchor_shapes_rejected():
    params = _lstm(4, 4, rng=0)
    # ragged anchors cannot form one (K, T, C) batch
    with pytest.raises(ValueError):
        fuse_all_anchors([np.zeros((2, 4)), np.zeros((3, 4))], params)


@pytest.mark.parametrize("num_frames", [1, 2, 3])
def test_bptt_gradients_match_fd(num_frames):
    # gradient of a scalar of the fused output w.r.t. every parameter
    def program(p):
        fused = fuse_all_anchors(p["x"], p)
        return (fused * weights).sum()

    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        c, h = 3, 4
        params = _lstm(c, h, rng)
        weights = rng.normal(size=(2, c))
        params["x"] = rng.normal(size=(2, num_frames, c))
        report = ad.finite_difference_check(program, params, step=1e-6)
        assert report.max_relative_error < 1e-5, (num_frames, seed)


def test_step_gradients_match_fd():
    # the recurrence node alone, without the projection's relu, on every
    # window count of a 3-frame batch
    def program(p):
        h = _windows(p["x"], p, frames)
        return h.sum() + ad.square(h).sum()

    for seed, frames in zip(range(6), (1, 2, 3, 1, 2, 3)):
        rng = np.random.default_rng(400 + seed)
        params = _lstm(4, 4, rng)
        del params["lstm.proj_w"], params["lstm.proj_b"]
        params["x"] = rng.normal(size=(2, 3, 4))
        report = ad.finite_difference_check(program, params, step=1e-6)
        assert set(report.per_parameter) == {"x", "lstm.w_ih", "lstm.w_hh", "lstm.bias"}
        assert report.max_relative_error < 1e-5, seed


# ---------------------------------------------------------------------------
# the recurrence node against the per-step composition it replaced


def _tanh(a):
    """The tanh primitive of the composition, kept here for the oracle."""
    value = np.tanh(a.value)
    out = ad.Var(value, (a,))
    out._vjp = lambda g, need: (g * (1.0 - value * value),)
    return out


def _composed_step(x, h_prev, c_prev, params):
    """One step of the composition: the 19-node cell."""
    w_ih, w_hh, bias = (ad.as_var(params[n]) for n in ("lstm.w_ih", "lstm.w_hh", "lstm.bias"))
    x, h_prev, c_prev = ad.as_var(x), ad.as_var(h_prev), ad.as_var(c_prev)
    hidden = w_hh.shape[1]
    z = x @ w_ih.T + h_prev @ w_hh.T + bias
    gate = lambda j: z[:, j * hidden : (j + 1) * hidden]
    i = ad.sigmoid(gate(0))
    f = ad.sigmoid(gate(1))
    g = _tanh(gate(2))
    o = ad.sigmoid(gate(3))
    c = f * c_prev + i * g
    h = o * _tanh(c)
    return h, c


def _composed_windows(batch, params, frames=1):
    """The composition ``autodiff.lstm_windows`` replaced: per step, the
    window rows taken from the batch, the shared rows repeated by a take,
    and one composed cell, from a zero state.

    The oracle holds from two hidden units up.  The node's h is a column
    of its [h, c] buffer (as the fused cell's was), the composition's an
    array of its own, and with one unit numpy sends the strided one-row
    h.T of ``h.T @ dz`` down another BLAS path, which may differ in the
    last bit (at K = 3, for one).
    """
    batch = ad.as_var(batch)
    k, total, _ = batch.shape
    hidden = params["lstm.w_hh"].shape[1]
    h = ad.as_var(np.zeros((k, hidden)))
    c = ad.as_var(np.zeros((k, hidden)))
    rows = np.arange(k)
    for s in range(total):
        lo = max(s + 1 - frames, 0)
        if lo == s:
            x = batch[:, s, :]
        else:  # frames lo..s, frame-major
            x = batch[np.tile(rows, s + 1 - lo), np.repeat(np.arange(lo, s + 1), k)]
        if lo == 0 and s > 0:  # the window reading f1 leaves the shared group
            shared = np.concatenate([rows, np.arange(s * k)])
            h, c = h[shared], c[shared]
        h, c = _composed_step(x, h, c, params)
    return h


def _composed_fuse(batch, params, frames=1):
    """``fuse_all_anchors`` with the composed recurrence."""
    h = _composed_windows(batch, params, frames)
    return ad.relu(h @ ad.as_var(params["lstm.proj_w"]).T + params["lstm.proj_b"])


def _fused_loss(windows, values, frames, leaf_batch, mixes):
    """Fused output, loss over it and the hidden rows, and every leaf's
    gradient, with ``windows`` as the recurrence."""
    leaves = {name: ad.Var(v) for name, v in values.items() if name != "x"}
    if leaf_batch:
        leaves["x"] = ad.Var(values["x"])
    h = windows(leaves.get("x", values["x"]), leaves, frames)
    fused = ad.relu(h @ leaves["lstm.proj_w"].T + leaves["lstm.proj_b"])
    loss = (fused * mixes[0]).sum() + (h * mixes[1]).sum()
    loss.backward()
    return fused.value, loss.value, {name: leaf.grad for name, leaf in leaves.items()}


def _assert_bitwise(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert sorted(got[2]) == sorted(want[2])
    for name in want[2]:
        assert got[2][name].tobytes() == want[2][name].tobytes(), name


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 4), total=st.integers(1, 4), data=st.data(), leaf_batch=st.booleans(),
       zero_weights=st.booleans(), signed_zero_inputs=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_lstm_windows_is_bitwise_the_composition(k, total, data, leaf_batch, zero_weights,
                                                 signed_zero_inputs, seed):
    frames = data.draw(st.integers(1, total), label="frames")
    rng = np.random.default_rng(seed)
    c, h = 3, 2  # two units: see _composed_windows
    values = _zero_params(c, h) if zero_weights else _lstm(c, h, rng)
    x = rng.normal(size=(k, total, c))
    if signed_zero_inputs:  # about half the entries +0.0 or -0.0
        x[rng.random(x.shape) < 0.5] = 0.0
        x *= np.where(rng.random(x.shape) < 0.5, -1.0, 1.0)
    values["x"] = x
    mixes = (rng.normal(size=(frames * k, c)), rng.normal(size=(frames * k, h)))
    want = _fused_loss(_composed_windows, values, frames, leaf_batch, mixes)
    got = _fused_loss(_windows, values, frames, leaf_batch, mixes)
    _assert_bitwise(got, want)


@pytest.mark.parametrize("seed", range(8))
def test_fused_cell_is_bitwise_the_composition(seed):
    # wider than the property test: up to 5 anchors, 8 channels, 6 units
    # (from 2: see _composed_windows)
    rng = np.random.default_rng(900 + seed)
    k, total, c, h = (int(v) for v in rng.integers([1, 1, 2, 2], [6, 5, 9, 7]))
    frames = int(rng.integers(1, total + 1))
    values = _lstm(c, h, rng)
    values["x"] = rng.normal(size=(k, total, c))
    mixes = (rng.normal(size=(frames * k, c)), rng.normal(size=(frames * k, h)))
    want = _fused_loss(_composed_windows, values, frames, True, mixes)
    _assert_bitwise(_fused_loss(_windows, values, frames, True, mixes), want)
    assert fuse_all_anchors(values["x"], values, frames).value.tobytes() == want[0].tobytes()


def test_fused_cell_keeps_the_sign_of_zero_gradients():
    # zero weights give g = tanh(0) = +0, so the input-gate gradient
    # dc*g*... is a signed zero; its sign must come out as in the composition
    k, c, h = 3, 4, 2
    values = {**_zero_params(c, h), "x": np.ones((k, 2, c))}
    mixes = (np.zeros((k, c)), -np.ones((k, h)))
    want = _fused_loss(_composed_windows, values, 1, True, mixes)
    assert np.any(want[2]["lstm.bias"] == 0.0)
    _assert_bitwise(_fused_loss(_windows, values, 1, True, mixes), want)


def test_fused_trainer_gradients_are_bitwise_the_composition(monkeypatch):
    from lane3d import training
    from lane3d.config import RunConfiguration
    from lane3d.synth import generate_dataset

    run = RunConfiguration()
    scenes = generate_dataset(run.train_data_seed, 4, run.scene)
    params = init_parameters(run.scene, run.train)
    args = (training.prepare_batch(scenes, run.scene.anchors()), run.loss, run.train, 0)
    got_value, got, _ = training.batch_gradients(params, *args)
    calls = []

    def composed(*args, **kwargs):
        calls.append(args[0].shape)
        return _composed_fuse(*args, **kwargs)

    monkeypatch.setattr(training, "fuse_all_anchors", composed)
    want_value, want, _ = training.batch_gradients(params, *args)
    assert calls == [(4 * run.scene.num_anchors, run.scene.num_frames, run.scene.channels)]
    assert got_value == want_value
    for name in training.PARAM_ORDER:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_one_frame_never_reads_the_recurrent_weights():
    # step 0 starts from the zero state, whose product with finite w_hh is
    # +0.0 and is not formed; so at T = 1 a non-finite w_hh stays unread
    rng = np.random.default_rng(51)
    values = _lstm(4, 3, rng)
    values["lstm.w_hh"] = np.full_like(values["lstm.w_hh"], np.inf)
    params = {name: ad.Var(v) for name, v in values.items()}
    fused = fuse_all_anchors(rng.normal(size=(2, 1, 4)), params)
    assert np.all(np.isfinite(fused.value))
    (fused * rng.normal(size=(2, 4))).sum().backward()
    assert np.array_equal(params["lstm.w_hh"].grad, np.zeros((12, 3)))
    for name in LSTM_PARAMS:
        assert np.all(np.isfinite(params[name].grad)), name


def test_backward_runs_no_vjp_on_constant_only_nodes():
    rng = np.random.default_rng(31)
    values = _lstm(4, 3, rng)
    values["lstm.proj_b"] = values["lstm.proj_b"] + 1.0  # keep the relu open
    params = {name: ad.Var(v) for name, v in values.items()}
    batch = rng.normal(size=(2, 3, 4))  # a constant: nobody reads its gradient
    loss = (fuse_all_anchors(batch, params) * rng.normal(size=(2, 4))).sum()

    nodes = _nodes(loss)
    (recurrence,) = [n for n in nodes if len(n._parents) == 4]
    assert np.array_equal(recurrence._parents[0].value, batch)
    handed, vjp = [], recurrence._vjp

    def recording(g, need):
        handed.append((need, vjp(g, need)))
        return handed[-1][1]

    recurrence._vjp = recording
    loss.backward()
    # the constant batch's gradient is neither asked for nor formed
    ((need, grads),) = handed
    assert need == (False, True, True, True) and grads[0] is None
    for node in nodes:
        if node.constant:
            assert node._parents == () and node._vjp is None and node.grad is None
    for name, var in params.items():
        assert np.any(var.grad), name


def _nodes(root):
    out, stack, seen = [], [root], {id(root)}
    while stack:
        node = stack.pop()
        out.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return out
