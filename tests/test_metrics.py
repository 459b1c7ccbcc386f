"""Lane matching F1/Acc protocol and temporal smoothness."""

from __future__ import annotations

import numpy as np
import pytest

from lane3d.geometry import Lane3D
from lane3d.metrics import (
    MatchReport,
    aggregate_reports,
    match_lanes,
    metrics_row,
    temporal_smoothness,
    write_metrics_csv,
)
from lane3d.synth import transform_points

STATIONS = np.linspace(5.0, 50.0, 10)


def _lane(x, vis=None, category=1, stations=STATIONS, z=None):
    x = np.broadcast_to(np.asarray(x, dtype=np.float64), stations.shape).copy()
    vis = np.ones_like(stations) if vis is None else np.asarray(vis, float)
    z = np.zeros_like(stations) if z is None else z
    return Lane3D(stations=stations, x=x, z=z, visibility=vis, category=category)


def test_identical_lists_are_perfect():
    gts = [_lane(0.0, category=1), _lane(4.0, category=2)]
    report = match_lanes(list(gts), gts)
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)
    assert report.precision == report.recall == report.f1 == 1.0
    assert report.acc == 1.0


def test_one_pred_two_gts():
    gts = [_lane(0.0), _lane(6.0)]
    report = match_lanes([_lane(0.1)], gts)
    assert (report.tp, report.fp, report.fn) == (1, 0, 1)
    assert report.precision == 1.0 and report.recall == 0.5
    assert np.isclose(report.f1, 2.0 / 3.0, atol=1e-12)


def test_empty_sides():
    report = match_lanes([], [_lane(0.0)])
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)
    assert report.f1 == 0.0
    report = match_lanes([_lane(0.0)], [])
    assert (report.tp, report.fp, report.fn) == (0, 1, 0)
    assert report.f1 == 0.0
    report = match_lanes([], [])
    assert report.f1 == 0.0 and report.acc == 0.0


def test_distance_threshold_gates_matching():
    gts = [_lane(0.0)]
    assert match_lanes([_lane(1.4)], gts).tp == 1
    assert match_lanes([_lane(1.6)], gts).tp == 0


def test_coverage_fraction_gates_matching():
    # 7 of 10 visible stations within threshold: below 0.75 coverage
    x = np.zeros(10)
    x[:3] = 5.0
    assert match_lanes([_lane(x)], [_lane(0.0)]).tp == 0
    x[:2] = 0.0  # now 8 of 10
    assert match_lanes([_lane(x)], [_lane(0.0)]).tp == 1


def test_category_accuracy():
    gts = [_lane(0.0, category=1), _lane(6.0, category=2)]
    preds = [_lane(0.05, category=1), _lane(6.05, category=3)]
    report = match_lanes(preds, gts)
    assert report.tp == 2 and report.acc == 0.5


def test_swap_exchanges_fp_fn_and_preserves_f1():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        preds = [
            _lane(rng.uniform(-8, 8) + rng.normal(0, 0.3, STATIONS.shape),
                  vis=(rng.random(10) < 0.85).astype(float))
            for _ in range(rng.integers(0, 5))
        ]
        gts = [
            _lane(rng.uniform(-8, 8) + rng.normal(0, 0.3, STATIONS.shape),
                  vis=(rng.random(10) < 0.85).astype(float))
            for _ in range(rng.integers(0, 5))
        ]
        preds = [p for p in preds if p.visibility.sum() > 0]
        gts = [g for g in gts if g.visibility.sum() > 0]
        fwd = match_lanes(preds, gts)
        back = match_lanes(gts, preds)
        assert fwd.tp == back.tp, seed
        assert fwd.fp == back.fn and fwd.fn == back.fp, seed
        assert np.isclose(fwd.f1, back.f1, atol=1e-12), seed


def test_order_permutation_invariance():
    rng = np.random.default_rng(77)
    gts = [_lane(x) for x in (-6.0, -2.0, 2.0, 6.0)]
    preds = [_lane(x + 0.2) for x in (-6.0, -2.0, 2.0, 6.0)]
    base = match_lanes(preds, gts)
    for _ in range(5):
        perm = rng.permutation(4)
        report = match_lanes([preds[i] for i in perm], gts)
        assert report.tp == base.tp and np.isclose(report.f1, base.f1)


def _bf_admissible(pred, gt, thr, cov):
    d = np.sqrt((pred.x - gt.x) ** 2 + (pred.z - gt.z) ** 2)
    pv, gv = pred.visibility >= 0.5, gt.visibility >= 0.5
    covered = pv & gv & (d <= thr)
    if pv.sum() == 0 or gv.sum() == 0:
        return False, np.inf
    ok = covered.sum() >= cov * gv.sum() and covered.sum() >= cov * pv.sum()
    both = pv & gv
    return ok, (float(d[both].mean()) if both.any() else np.inf)


def _bf_best_matching(preds, gts, thr, cov):
    """Exhaustive max-cardinality, then min-total-distance matching."""
    cost = np.full((len(preds), len(gts)), np.inf)
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            ok, d = _bf_admissible(p, g, thr, cov)
            if ok:
                cost[i, j] = d
    best = [0, np.inf]

    def rec(i, used, count, total):
        if i == len(preds):
            if count > best[0] or (count == best[0] and total < best[1]):
                best[0], best[1] = count, total
            return
        rec(i + 1, used, count, total)
        for j in range(len(gts)):
            if j not in used and np.isfinite(cost[i, j]):
                rec(i + 1, used | {j}, count + 1, total + cost[i, j])

    rec(0, set(), 0, 0.0)
    return best[0], (best[1] if best[0] else 0.0)


def test_matching_agrees_with_brute_force():
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        def mk(n):
            return [
                _lane(
                    rng.uniform(-6, 6) + rng.normal(0, 0.5, STATIONS.shape),
                    vis=(rng.random(10) < 0.8).astype(float),
                    category=int(rng.integers(1, 4)),
                )
                for _ in range(n)
            ]
        preds = [p for p in mk(int(rng.integers(1, 5))) if p.visibility.sum() > 0]
        gts = [g for g in mk(int(rng.integers(1, 5))) if g.visibility.sum() > 0]
        report = match_lanes(preds, gts)
        bf_count, bf_total = _bf_best_matching(preds, gts, 1.5, 0.75)
        assert report.tp == bf_count, seed
        total = sum(d for _, _, d in report.matches)
        assert np.isclose(total, bf_total, atol=1e-9), seed


def test_match_lanes_validation():
    with pytest.raises(ValueError):
        match_lanes([], [], distance_threshold=0.0)
    with pytest.raises(ValueError):
        match_lanes([], [], coverage_fraction=1.5)


def test_smoothness_zero_for_static_perfect_predictions():
    frames = [[_lane(0.0)], [_lane(0.0)], [_lane(0.0)]]
    motion = np.zeros((3, 2))
    assert temporal_smoothness(frames, motion) == 0.0


def test_smoothness_alternating_perturbation():
    frames = [[_lane(0.1)], [_lane(-0.1)], [_lane(0.1)]]
    motion = np.zeros((3, 2))
    assert np.isclose(temporal_smoothness(frames, motion), 0.2, atol=1e-12)


def test_smoothness_zero_for_rigidly_transported_sequence():
    rng = np.random.default_rng(4)
    lane0 = _lane(rng.uniform(-2, 2) + rng.normal(0, 0.2, STATIONS.shape))
    frames = [[lane0]]
    motion = [(0.0, 0.0)]
    lane = lane0
    for _ in range(2):
        fwd, yaw = 1.1, 0.015
        moved = transform_points(lane.points(), fwd, yaw)
        lane = Lane3D(stations=moved[:, 1], x=moved[:, 0], z=moved[:, 2],
                      visibility=lane.visibility, category=lane.category)
        frames.append([lane])
        motion.append((fwd, yaw))
    jitter = temporal_smoothness(frames, np.array(motion))
    assert jitter < 1e-12


def test_smoothness_preconditions():
    with pytest.raises(ValueError):
        temporal_smoothness([[_lane(0.0)]], np.zeros((1, 2)))
    # far-apart lanes never match
    frames = [[_lane(-8.0)], [_lane(8.0)]]
    with pytest.raises(ValueError):
        temporal_smoothness(frames, np.zeros((2, 2)))


def test_metrics_csv_roundtrip(tmp_path):
    report = MatchReport.from_counts(2, 1, 1, 1)
    row = metrics_row("scene_0001", report, 0.125)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [row])
    text = path.read_text().strip().split("\n")
    assert text[0].startswith("scene_id,tp,fp,fn")
    fields = text[1].split(",")
    assert fields[0] == "scene_0001"
    assert fields[1:4] == ["2", "1", "1"]
    assert float(fields[6]) == pytest.approx(report.f1, abs=1e-6)
    assert float(fields[8]) == 0.125


def test_aggregate_reports():
    a = MatchReport.from_counts(2, 0, 0, 2)
    b = MatchReport.from_counts(0, 1, 2, 0)
    agg = aggregate_reports([a, b])
    assert (agg.tp, agg.fp, agg.fn) == (2, 1, 2)
    assert np.isclose(agg.precision, 2 / 3)
    assert np.isclose(agg.recall, 0.5)
    assert agg.acc == 1.0


def test_aggregate_reports_sums_the_integer_correct_count():
    # acc = 1/49 and 1/49 * 49 == 0.9999999999999999 in float64, so the
    # count must be carried, not rebuilt from the rate
    inexact = MatchReport.from_counts(49, 0, 0, 1)
    assert inexact.acc * inexact.tp != 1.0
    agg = aggregate_reports([inexact, inexact, MatchReport.from_counts(3, 1, 0, 2)])
    assert agg.correct == 4
    assert agg.tp == 101
    assert agg.acc == 4 / 101
