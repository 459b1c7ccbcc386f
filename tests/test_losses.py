"""Loss values against hand-derived oracles, plus gradient and identity properties."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from lane3d import autodiff as ad
from lane3d.geometry import Lane3D
from lane3d.losses import (
    LossConfig,
    balanced_l1,
    balanced_l1_vector,
    chamfer,
    combine_uncertainty,
    cross_entropy,
    dice,
    focal,
)
from lane3d.training import TrainConfig, prepare_batch, scene_loss

CFG = LossConfig()

# direct-substitution oracles, computed from the branch formulas by hand
BL1_AT_BETA = 1.078593544736884
BL1_AT_TWO = 2.5785935447368837


def test_config_derives_b_from_continuity():
    assert np.isclose(CFG.b, np.exp(3.0) - 1.0, atol=1e-12)
    assert abs(CFG.alpha * np.log1p(CFG.b) - CFG.gamma) < 1e-9


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LossConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        LossConfig(beta=0.0)
    with pytest.raises(ValueError):
        LossConfig(dice_epsilon=0.0)


@pytest.mark.parametrize("alpha, gamma", [(1e-300, 1.5), (1e-300, 1e300), (1.0, 710.0)])
def test_config_rejects_an_overflowing_b_without_a_numpy_warning(alpha, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would fail here first
        with pytest.raises(ValueError, match=r"^LossConfig: gamma/alpha = .* overflows b"):
            LossConfig(alpha=alpha, gamma=gamma)


def test_config_accepts_the_largest_finite_b():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(LossConfig(alpha=1.0, gamma=709.0).b)


def test_balanced_l1_zero():
    assert float(balanced_l1(0.0, CFG).value) == 0.0


def test_balanced_l1_branches_agree_at_beta():
    a, beta, g, b = CFG.alpha, CFG.beta, CFG.gamma, CFG.b
    left = (a / b) * (b * beta + 1.0) * np.log(b * beta / beta + 1.0) - a * beta
    right = g * beta + g / b - a * beta
    assert abs(left - right) < 1e-9
    assert np.isclose(left, BL1_AT_BETA, atol=1e-12)
    assert np.isclose(float(balanced_l1(beta, CFG).value), BL1_AT_BETA, atol=1e-12)


def test_balanced_l1_right_branch_value():
    assert np.isclose(float(balanced_l1(2.0, CFG).value), BL1_AT_TWO, atol=1e-12)


def test_balanced_l1_one_sided_slopes_agree_at_beta():
    h = 1e-7
    f = lambda d: float(balanced_l1(d, CFG).value)
    left_slope = (f(CFG.beta) - f(CFG.beta - h)) / h
    right_slope = (f(CFG.beta + h) - f(CFG.beta)) / h
    assert abs(left_slope - right_slope) < 1e-6


def test_balanced_l1_rejects_negative():
    with pytest.raises(ValueError):
        balanced_l1(-0.1, CFG)


def test_balanced_l1_nonnegative_and_monotone():
    grid = np.linspace(0.0, 5.0, 501)
    vals = balanced_l1(grid, CFG).value
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) >= 0.0)


def test_balanced_l1_value_continuity_for_other_beta():
    # the b construction glues the branches at any beta
    for beta in (0.5, 2.0, 3.7):
        cfg = LossConfig(beta=beta)
        around = balanced_l1(np.array([beta - 1e-9, beta + 1e-9]), cfg).value
        assert abs(around[1] - around[0]) < 1e-8


def test_balanced_l1_gradient_matches_fd_away_from_beta():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        deltas = np.concatenate([rng.uniform(0.05, 0.9, 4), rng.uniform(1.1, 3.0, 4)])
        report = ad.finite_difference_check(
            lambda p: balanced_l1(p["d"], CFG).sum(), {"d": deltas}, step=1e-6
        )
        assert report.max_relative_error < 1e-6, seed


def test_balanced_l1_vector_exact_match_is_zero():
    out = balanced_l1_vector(np.ones(4), np.ones(4), np.ones(4), CFG)
    assert float(out.value) == 0.0


def test_balanced_l1_vector_single_unmasked_residual():
    out = balanced_l1_vector([1.0, 7.0], [0.0, 3.0], [1.0, 0.0], CFG)
    assert np.isclose(float(out.value), BL1_AT_BETA, atol=1e-12)


def test_balanced_l1_vector_mean_of_two():
    out = balanced_l1_vector([0.0, 1.0], [0.0, 0.0], [1.0, 1.0], CFG)
    assert np.isclose(float(out.value), BL1_AT_BETA / 2.0, atol=1e-12)
    assert np.isclose(float(out.value), 0.53930, atol=5e-6)


def test_balanced_l1_vector_rejects_zero_weights():
    with pytest.raises(ValueError):
        balanced_l1_vector([1.0], [0.0], [0.0], CFG)


def test_chamfer_identical_sets_zero():
    P = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert float(chamfer(P, P).value) == 0.0


def test_chamfer_three_four_five():
    out = chamfer([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]])
    assert np.isclose(float(out.value), 50.0, atol=1e-12)


def test_chamfer_two_versus_one():
    out = chamfer([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
    assert np.isclose(float(out.value), 0.5, atol=1e-12)


def test_chamfer_rejects_empty():
    with pytest.raises(ValueError):
        chamfer(np.zeros((0, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        chamfer(np.ones((2, 3)), np.zeros((0, 3)))


def test_chamfer_symmetry_and_translation_invariance():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(rng.integers(1, 6), 3))
        Q = rng.normal(size=(rng.integers(1, 6), 3))
        t = rng.normal(size=3)
        ab = float(chamfer(P, Q).value)
        ba = float(chamfer(Q, P).value)
        shifted = float(chamfer(P + t, Q + t).value)
        assert abs(ab - ba) < 1e-12
        assert abs(ab - shifted) < 1e-12


def test_chamfer_gradient_matches_fd():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = {"P": rng.normal(size=(4, 3)), "Q": rng.normal(size=(3, 3)) + 2.0}
        report = ad.finite_difference_check(
            lambda p: chamfer(p["P"], p["Q"]), params, step=1e-6
        )
        assert report.max_relative_error < 1e-6, seed


def test_chamfer_row_batch_matches_each_pair_and_skips_padding():
    rng = np.random.default_rng(4)
    P = rng.normal(size=(3, 4, 3))
    sizes = (2, 5, 1)
    Q = rng.normal(size=(3, 5, 3)) * 3.0  # padding far away must not count
    mask = np.arange(5)[None, :] < np.array(sizes)[:, None]
    rows = chamfer(P, Q, mask)
    assert rows.shape == (3,)
    for r, m in enumerate(sizes):
        assert np.isclose(rows.value[r], chamfer(P[r], Q[r, :m]).value, rtol=1e-14, atol=0.0)


def test_chamfer_row_batch_gradient_matches_fd():
    rng = np.random.default_rng(9)
    mask = np.array([[True, True, False], [True, True, True]])
    params = {"P": rng.normal(size=(2, 4, 3)), "Q": rng.normal(size=(2, 3, 3)) + 2.0}
    report = ad.finite_difference_check(
        lambda p: (chamfer(p["P"], p["Q"], mask) * np.array([0.3, 0.7])).sum(), params, step=1e-6
    )
    assert report.max_relative_error < 1e-6
    assert report.per_parameter["Q"] < 1e-6


def test_chamfer_row_batch_rejects_bad_shapes():
    P, Q = np.zeros((2, 3, 3)), np.ones((2, 4, 3))
    with pytest.raises(ValueError, match="validity row"):
        chamfer(P, Q, np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="valid point"):
        chamfer(P, Q, np.array([[True] * 4, [False] * 4]))
    with pytest.raises(ValueError, match="point batches"):
        chamfer(P[0], Q[0], np.ones(4, dtype=bool))


def _lane(x, vis):
    x = np.asarray(x, dtype=np.float64)
    stations = np.arange(5.0, 5.0 + 5.0 * len(x), 5.0)
    return Lane3D(stations=stations, x=x, z=np.zeros_like(x), visibility=vis, category=1)


def _curve_loss(hand_set_model, pred_x, gt):
    """The curve task of training.scene_loss at ramp weight 1: one anchor
    (base x = 0, height 0) predicting ``pred_x`` on gt's stations."""
    n = len(pred_x)
    scene_config, params, scene = hand_set_model(
        gt.stations, (-1.0, 1.0), [pred_x], np.zeros((1, n)), np.zeros((1, n)),
        [[0.0, 1.0]], lanes=[gt],
    )
    pvars = {name: ad.Var(value) for name, value in params.items()}
    config = TrainConfig(use_lstm_fusion=False, curve_ramp_start=0, curve_ramp_end=0)
    batch = prepare_batch([scene], scene_config.anchors())
    _, values = scene_loss(pvars, batch, CFG, config, epoch=0)
    return values["curve"]


def test_chamfer_curve_exact_match(hand_set_model):
    gt = _lane([0.5, 0.7, 0.9], [1.0, 1.0, 1.0])
    assert _curve_loss(hand_set_model, gt.x, gt) == 0.0


def test_chamfer_curve_parallel_shift(hand_set_model):
    n = 5
    gt = _lane(np.zeros(n), np.ones(n))
    out = _curve_loss(hand_set_model, np.full(n, 0.1), gt)
    assert np.isclose(out, 0.02, atol=1e-12)


def test_chamfer_curve_filters_invisible_gt(hand_set_model):
    # the invisible far-off gt station is excluded and the visible span
    # [5, 10] resampled to y = 5, 7.5, 10: pred y=15 pays the 5 m gap to
    # y=10 and gt y=7.5 the 2.5 m gap to y=5 or 10, (25/3) + (6.25/3)
    gt = _lane([0.0, 0.0, 50.0], [1.0, 1.0, 0.0])
    out = _curve_loss(hand_set_model, np.zeros(3), gt)
    assert np.isclose(out, 31.25 / 3.0, atol=1e-12)
    # an invisible station inside the visible span is dropped after the
    # resampling: only pred y=10 pays, 25 m^2 to gt y=5 or 15
    gt = _lane([0.0, 50.0, 0.0], [1.0, 0.0, 1.0])
    out = _curve_loss(hand_set_model, np.zeros(3), gt)
    assert np.isclose(out, 25.0 / 3.0, atol=1e-12)


def test_chamfer_curve_rejects_fully_invisible_gt(hand_set_model):
    gt = _lane([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="no visible station"):
        _curve_loss(hand_set_model, gt.x, gt)


def test_focal_reduces_to_cross_entropy_at_equal_logits():
    cfg = LossConfig(focal_gamma=0.0, focal_alpha=1.0)
    out = focal(np.zeros(2), 0, cfg)
    assert np.isclose(float(out.value), np.log(2.0), atol=1e-12)


def test_focal_perfect_prediction_is_zero():
    out = focal(np.array([1000.0, 0.0, 0.0]), 0, CFG)
    assert float(out.value) == 0.0


def test_focal_at_probability_point_nine():
    logits = np.array([np.log(0.9), np.log(0.1)])
    out = focal(logits, 0, CFG)
    assert np.isclose(float(out.value), 2.6340128914456573e-4, atol=1e-10)


def test_focal_rejects_bad_target():
    with pytest.raises(ValueError):
        focal(np.zeros(3), 5, CFG)
    with pytest.raises(ValueError):
        focal(np.zeros(1), 0, CFG)


def test_focal_equals_cross_entropy_when_unmodulated():
    cfg = LossConfig(focal_gamma=0.0, focal_alpha=1.0)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=rng.integers(2, 7))
        target = int(rng.integers(0, logits.shape[0]))
        f = float(focal(logits, target, cfg).value)
        ce = float(cross_entropy(logits, target).value)
        assert abs(f - ce) < 1e-12


def test_focal_gradient_matches_fd():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=4)
        report = ad.finite_difference_check(
            lambda p: focal(p["l"], 2, CFG), {"l": logits}, step=1e-6
        )
        assert report.max_relative_error < 1e-6, seed


def test_row_wise_focal_equals_per_row_calls_bitwise():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(5, 6)) * 2.0
    targets = rng.integers(0, 6, size=5)
    rows = ad.Var(logits)
    batched = focal(rows, targets, CFG)
    batched.sum().backward()
    assert batched.shape == (5,)
    for i in range(5):
        row = ad.Var(logits[i])
        single = focal(row, int(targets[i]), CFG)
        single.backward()
        assert batched.value[i] == single.value
        assert np.array_equal(rows.grad[i], row.grad)


def test_row_wise_focal_rejects_a_bad_target_in_any_row():
    with pytest.raises(ValueError, match="out of range"):
        focal(np.zeros((3, 4)), np.array([0, 4, 1]), CFG)
    with pytest.raises(ValueError, match="out of range"):
        focal(np.zeros((3, 4)), np.array([0, 1, -1]), CFG)
    with pytest.raises(ValueError, match="one target per row"):
        focal(np.zeros((3, 4)), np.array([0, 1]), CFG)


def test_row_wise_dice_equals_per_row_calls_bitwise():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(4, 8)) * 1.5
    masks = (rng.random((4, 8)) < 0.5).astype(float)
    rows = ad.Var(raw)
    batched = dice(ad.sigmoid(rows), masks, CFG)
    batched.sum().backward()
    assert batched.shape == (4,)
    for i in range(4):
        row = ad.Var(raw[i])
        single = dice(ad.sigmoid(row), masks[i], CFG)
        single.backward()
        assert batched.value[i] == single.value
        assert np.array_equal(rows.grad[i], row.grad)


def test_dice_perfect_overlap():
    assert float(dice([1.0, 0.0], [1.0, 0.0], CFG).value) == 0.0


def test_dice_empty_masks_rescued_by_epsilon():
    assert float(dice([0.0, 0.0], [0.0, 0.0], CFG).value) == 0.0


def test_dice_partial_overlap():
    out = dice([1.0, 1.0], [1.0, 0.0], CFG)
    assert np.isclose(float(out.value), 0.25, atol=1e-12)


def test_dice_range_and_binary_zero():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 9)
        g = (rng.random(n) < 0.5).astype(float)
        p = rng.random(n)
        v = float(dice(p, g, CFG).value)
        assert 0.0 <= v < 1.0
        assert float(dice(g, g, CFG).value) == 0.0


def test_dice_validation():
    with pytest.raises(ValueError):
        dice([0.5], [0.5], CFG)  # non-binary target
    with pytest.raises(ValueError):
        dice([1.5], [1.0], CFG)  # probability out of range
    with pytest.raises(ValueError):
        dice([0.5, 0.5], [1.0], CFG)  # length mismatch


def test_dice_gradient_matches_fd():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = (rng.random(6) < 0.5).astype(float)
        p = rng.uniform(0.1, 0.9, 6)
        report = ad.finite_difference_check(
            lambda prm: dice(prm["p"], g, CFG), {"p": p}, step=1e-6
        )
        assert report.max_relative_error < 1e-6, seed


def test_uncertainty_zero_s_sums_losses():
    out = combine_uncertainty(
        {"regression": 1.0, "curve": 2.0, "classification": 3.0, "visibility": 4.0},
        {"regression": 0.0, "curve": 0.0, "classification": 0.0, "visibility": 0.0},
    )
    assert np.isclose(float(out.value), 10.0, atol=1e-12)


def test_uncertainty_stationary_value():
    out = combine_uncertainty(
        {"a": 2.0, "b": 8.0}, {"a": np.log(2.0), "b": np.log(8.0)}
    )
    assert np.isclose(float(out.value), 2.0 + np.log(16.0), atol=1e-12)
    assert np.isclose(float(out.value), 4.77259, atol=5e-6)


def test_uncertainty_gradient_formula():
    s = ad.Var(0.0)
    out = combine_uncertainty({"t": 2.0}, {"t": s})
    out.backward()
    assert np.isclose(float(s.grad), -1.0, atol=1e-12)  # 1 - e^0 * 2


def test_uncertainty_key_mismatch():
    with pytest.raises(ValueError):
        combine_uncertainty({"a": 1.0}, {"b": 1.0})


def test_uncertainty_rejects_negative_loss():
    with pytest.raises(ValueError):
        combine_uncertainty({"a": -1.0}, {"a": 0.0})


def test_uncertainty_gradient_matches_fd():
    def program(p):
        return combine_uncertainty(
            {"a": ad.square(p["la"]), "b": ad.square(p["lb"])},
            {"a": p["sa"], "b": p["sb"]},
        )

    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = {
            "la": rng.uniform(0.5, 3.0, ()),
            "lb": rng.uniform(0.5, 3.0, ()),
            "sa": rng.normal(size=()),
            "sb": rng.normal(size=()),
        }
        report = ad.finite_difference_check(program, params, step=1e-6)
        assert report.max_relative_error < 1e-6, seed


def test_losses_are_deterministic():
    rng = np.random.default_rng(42)
    P, Q = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    logits = rng.normal(size=5)
    a = (
        float(chamfer(P, Q).value),
        float(focal(logits, 3, CFG).value),
        float(balanced_l1(1.234, CFG).value),
    )
    b = (
        float(chamfer(P, Q).value),
        float(focal(logits, 3, CFG).value),
        float(balanced_l1(1.234, CFG).value),
    )
    assert a == b
