"""Detection heads and lane-to-anchor assignment."""

from __future__ import annotations

import itertools

import numpy as np

from lane3d import autodiff as ad
from lane3d.geometry import Lane3D, build_default_anchors
from lane3d.heads import (
    BACKGROUND,
    IGNORE,
    assign_targets,
    head_forward,
)


def _heads(c, s, num_classes, rng):
    """Uniform(-1/sqrt(C), 1/sqrt(C)) head entries in checkpoint order."""
    rng = np.random.default_rng(rng)
    scale = 1.0 / np.sqrt(c)
    u = lambda *shape: rng.uniform(-scale, scale, size=shape)
    return {
        "head.hidden_w": u(c, c),
        "head.hidden_b": u(c),
        "head.offset_w": u(2 * s, c),
        "head.offset_b": u(2 * s),
        "head.vis_w": u(s, c),
        "head.vis_b": u(s),
        "head.cls_w": u(num_classes, c),
        "head.cls_b": u(num_classes),
    }


def test_zero_everything_gives_zero_outputs():
    params = {name: np.zeros_like(value) for name, value in _heads(4, 3, 5, rng=0).items()}
    dx, dz, vis, cls = head_forward(np.zeros((2, 4)), params)
    for out, shape in ((dx, (2, 3)), (dz, (2, 3)), (vis, (2, 3)), (cls, (2, 5))):
        assert out.shape == shape
        assert np.array_equal(out.value, np.zeros(shape))


def test_duplicate_features_identical_predictions():
    params = _heads(6, 4, 5, rng=1)
    feats = np.tile(np.random.default_rng(2).normal(size=6), (2, 1))
    dx, dz, vis, cls = head_forward(feats, params)
    assert np.array_equal(dx.value[0], dx.value[1])
    assert np.array_equal(cls.value[0], cls.value[1])


def test_affine_heads_are_exactly_linear_with_zero_bias():
    rng = np.random.default_rng(3)
    params = _heads(5, 3, 4, rng)
    # an identity hidden layer passes non-negative features through the relu
    params["head.hidden_w"] = np.eye(5)
    for name in ("head.hidden_b", "head.offset_b", "head.vis_b", "head.cls_b"):
        params[name] = np.zeros_like(params[name])
    u = np.abs(rng.normal(size=(2, 5)))
    v = np.abs(rng.normal(size=(2, 5)))
    a, b = 2.5, 1.25
    outs_combo = head_forward(a * u + b * v, params)
    outs_u = head_forward(u, params)
    outs_v = head_forward(v, params)
    for combo, fu, fv in zip(outs_combo, outs_u, outs_v):
        assert np.allclose(combo.value, a * fu.value + b * fv.value, atol=1e-12)


def test_head_gradients_match_fd():
    def program(p):
        dx, dz, vis, cls = head_forward(p["feats"], p)
        return dx.sum() + ad.square(dz).sum() + ad.sigmoid(vis).sum() + ad.exp(cls).sum()

    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        params = _heads(4, 3, 4, rng)
        params["feats"] = rng.normal(size=(2, 4))
        report = ad.finite_difference_check(program, params, step=1e-6)
        assert report.max_relative_error < 1e-5, seed


def _straight_lane(x, stations, category=1):
    n = len(stations)
    return Lane3D(stations=stations, x=np.full(n, float(x)), z=np.zeros(n),
                  visibility=np.ones(n), category=category)


def test_mean_lateral_distance_on_anchor_stations():
    anchors = build_default_anchors(3, (-1.0, 1.0), stations=np.array([5.0, 10.0]))
    lane = _straight_lane(0.25, anchors.stations)
    d = assign_targets(anchors, [lane]).cost[0]
    assert np.allclose(d, [1.25, 0.25, 0.75], atol=1e-12)


def test_coincident_lane_takes_its_anchor():
    anchors = build_default_anchors(5, (-2.0, 2.0), stations=np.array([5.0, 10.0]))
    lane = _straight_lane(anchors.base_x[3, 0], anchors.stations)
    out = assign_targets(anchors, [lane])
    assert out.lane_for_anchor[3] == 0
    assert np.all(out.lane_for_anchor[out.lane_for_anchor >= 0] == 0)


def test_no_lanes_all_background():
    anchors = build_default_anchors(4, (-1.0, 1.0), stations=np.array([5.0]))
    out = assign_targets(anchors, [])
    assert np.all(out.lane_for_anchor == BACKGROUND)


def test_near_miss_anchor_marked_ignore():
    anchors = build_default_anchors(3, (-1.0, 1.0), stations=np.array([5.0, 10.0]))
    lane = _straight_lane(0.1, anchors.stations)  # near anchor 1 (x=0)
    out = assign_targets(anchors, [lane])
    assert out.lane_for_anchor[1] == 0
    assert out.lane_for_anchor[2] == IGNORE  # 0.9 m away, unchosen
    assert out.lane_for_anchor[0] == BACKGROUND  # 1.1 m away


def test_contested_anchor_resolved_globally():
    anchors = build_default_anchors(3, (-1.0, 1.0), stations=np.array([5.0, 10.0]))
    lane_a = _straight_lane(0.1, anchors.stations)   # both lanes nearest anchor 1
    lane_b = _straight_lane(0.2, anchors.stations)
    out = assign_targets(anchors, [lane_a, lane_b])
    # optimal total: a->anchor1 (0.1) + b->anchor2 (0.8) = 0.9
    assert out.lane_for_anchor[1] == 0
    assert out.lane_for_anchor[2] == 1


def _brute_force_cost(cost):
    """Optimal total, its pairing, and whether the optimum is unique.

    Equal-total ties are common here (anchors on the same side of two
    lanes make the pairings interchangeable), so uniqueness matters.
    """
    num_lanes, num_anchors = cost.shape
    best = np.inf
    best_cols = None
    ties = 0
    for cols in itertools.permutations(range(num_anchors), num_lanes):
        total = cost[np.arange(num_lanes), list(cols)].sum()
        if total < best - 1e-12:
            best, best_cols, ties = total, cols, 0
        elif total <= best + 1e-12:
            ties += 1
    return best, best_cols, ties == 0


def test_assignment_matches_brute_force():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        num_anchors = int(rng.integers(2, 7))
        num_lanes = int(rng.integers(1, min(4, num_anchors) + 1))
        stations = np.array([5.0, 10.0, 15.0])
        anchors = build_default_anchors(num_anchors, (-3.0, 3.0), stations=stations)
        lanes = [
            Lane3D(stations=stations, x=rng.uniform(-3, 3, 3), z=np.zeros(3),
                   visibility=np.ones(3), category=1)
            for _ in range(num_lanes)
        ]
        out = assign_targets(anchors, lanes)
        best_cost, best_cols, unique = _brute_force_cost(out.cost)
        chosen = {(int(out.lane_for_anchor[k]), k) for k in range(num_anchors)
                  if out.lane_for_anchor[k] >= 0}
        total = sum(out.cost[lane, k] for lane, k in chosen)
        assert np.isclose(total, best_cost, atol=1e-12), seed
        if unique:
            assert chosen == {(i, c) for i, c in enumerate(best_cols)}, seed

