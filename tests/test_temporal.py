"""LSTM cell, batched per-anchor fusion, backpropagation through time."""

from __future__ import annotations

import numpy as np
import pytest

from lane3d import autodiff as ad
from lane3d.synth import SceneConfig
from lane3d.temporal import fuse_all_anchors, lstm_step
from lane3d.training import TrainConfig, init_parameters


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
    h, c = lstm_step(np.ones((1, 3)), np.zeros((1, 2)), np.zeros((1, 2)), params)
    # gates i=f=o=0.5, g=0 at zero pre-activations
    assert np.array_equal(c.value, [[0.0, 0.0]])
    assert np.array_equal(h.value, [[0.0, 0.0]])


def test_zero_cell_ignores_forget_gate():
    rng = np.random.default_rng(5)
    params = _lstm(4, 4, rng)
    x = rng.normal(size=(2, 4))
    h1, c1 = lstm_step(x, np.zeros((2, 4)), np.zeros((2, 4)), params)
    # with c_prev = 0, c = i*g regardless of the forget gate
    z = x @ params["lstm.w_ih"].T + params["lstm.bias"]
    i = 1.0 / (1.0 + np.exp(-z[:, 0:4]))
    g = np.tanh(z[:, 8:12])
    assert np.allclose(c1.value, i * g, atol=1e-12)


def test_state_bounds():
    rng = np.random.default_rng(9)
    params = _lstm(5, 3, rng)
    h = np.zeros((2, 3))
    c = np.zeros((2, 3))
    for _ in range(50):
        x = rng.normal(scale=3.0, size=(2, 5))
        h_v, c_v = lstm_step(x, h, c, params)
        assert np.all(np.abs(h_v.value) <= 1.0)
        assert np.all(np.abs(c_v.value) <= np.abs(c) + 1.0 + 1e-12)
        h, c = h_v.value, c_v.value


def test_fuse_single_frame_reduction():
    rng = np.random.default_rng(2)
    params = _lstm(4, 4, rng)
    x = rng.normal(size=(1, 1, 4))
    fused = fuse_all_anchors(x, params)
    h1, _ = lstm_step(x[:, 0], np.zeros((1, 4)), np.zeros((1, 4)), params)
    manual = np.maximum(h1.value @ params["lstm.proj_w"].T + params["lstm.proj_b"], 0.0)
    assert np.allclose(fused.value, manual, atol=1e-12)


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
    def program(p):
        h, c = lstm_step(p["x"], p["h0"], p["c0"], p)
        return h.sum() + ad.square(c).sum()

    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        params = _lstm(4, 4, rng)
        params["x"] = rng.normal(size=(2, 4))
        params["h0"] = rng.normal(size=(2, 4)) * 0.5
        params["c0"] = rng.normal(size=(2, 4))
        report = ad.finite_difference_check(program, params, step=1e-6)
        assert report.max_relative_error < 1e-5, seed
