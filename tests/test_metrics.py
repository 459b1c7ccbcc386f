"""Lane matching F1/Acc protocol and temporal smoothness."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import lane3d.metrics as metrics_module
from lane3d.geometry import Lane3D, LaneStack, transform_points
from lane3d.metrics import (
    METRIC_COLUMNS,
    MatchReport,
    _interp_rows,
    _mean_distances,
    _stack,
    _transported,
    aggregate_reports,
    match_lanes,
    metrics_row,
    temporal_smoothness,
    write_table,
)

STATIONS = np.linspace(5.0, 50.0, 10)


def _lane(x, vis=None, category=1, stations=STATIONS, z=None):
    x = np.broadcast_to(np.asarray(x, dtype=np.float64), stations.shape).copy()
    vis = np.ones_like(stations) if vis is None else np.asarray(vis, float)
    z = np.zeros_like(stations) if z is None else z
    return Lane3D(stations=stations, x=x, z=z, visibility=vis, category=category)


def _points(lane):
    """All stations of ``lane`` as (n, 3) points in (x, y, z) order."""
    return np.stack([lane.x, lane.stations, lane.z], axis=1)


def _as_stack(lanes, stations):
    """``lanes``, all on ``stations``, as one LaneStack."""
    shape = (len(lanes), stations.size)
    x, z, visibility = (np.array([getattr(lane, name) for lane in lanes]).reshape(shape)
                        for name in ("x", "z", "visibility"))
    return LaneStack(stations, x, z, visibility,
                     np.array([lane.category for lane in lanes], dtype=np.intp))


def _rows(stack):
    return [stack[a] for a in range(len(stack))]


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


# The per-pair formulation match_lanes replaced, kept as its oracle: one
# Python call per pred/gt pair, the pred resampled onto each gt's grid.
def _oracle_pair_geometry(pred, gt):
    if pred.stations.shape == gt.stations.shape and np.allclose(
        pred.stations, gt.stations
    ):
        p, g = pred, gt
    else:
        inside = (gt.stations >= pred.stations[0]) & (gt.stations <= pred.stations[-1])
        if not np.any(inside) or pred.stations.shape[0] < 2:
            return None
        target = gt.stations[inside]
        p = Lane3D(
            stations=target,
            x=np.interp(target, pred.stations, pred.x),
            z=np.interp(target, pred.stations, pred.z),
            visibility=np.interp(target, pred.stations, pred.visibility),
            category=pred.category,
        )
        g = Lane3D(
            stations=gt.stations[inside],
            x=gt.x[inside],
            z=gt.z[inside],
            visibility=gt.visibility[inside],
            category=gt.category,
        )
    dist = np.sqrt((p.x - g.x) ** 2 + (p.z - g.z) ** 2)
    return dist, p.visible_mask(), g.visible_mask()


def _oracle_admissible(pred, gt, threshold, coverage):
    geom = _oracle_pair_geometry(pred, gt)
    if geom is None:
        return False, np.inf
    dist, pred_vis, gt_vis = geom
    both = pred_vis & gt_vis
    covered = both & (dist <= threshold)
    n_pred, n_gt = pred_vis.sum(), gt_vis.sum()
    if n_pred == 0 or n_gt == 0:
        return False, np.inf
    ok = (covered.sum() >= coverage * n_gt) and (covered.sum() >= coverage * n_pred)
    mean_dist = float(dist[both].mean()) if np.any(both) else np.inf
    return bool(ok), mean_dist


def _oracle_report(preds, gts, threshold=1.5, coverage=0.75):
    num_p, num_g = len(preds), len(gts)
    if num_p == 0 or num_g == 0:
        return MatchReport.from_counts(0, num_p, num_g, 0)
    cost = np.full((num_p, num_g), 1e9)
    for i, pred in enumerate(preds):
        for j, gt in enumerate(gts):
            ok, mean_dist = _oracle_admissible(pred, gt, threshold, coverage)
            if ok:
                cost[i, j] = mean_dist
    rows, cols = linear_sum_assignment(cost)
    matches = [(int(i), int(j), float(cost[i, j])) for i, j in zip(rows, cols) if cost[i, j] < 1e9]
    correct = sum(1 for i, j, _ in matches if preds[i].category == gts[j].category)
    tp = len(matches)
    return MatchReport.from_counts(tp, num_p - tp, num_g - tp, correct, matches)


GRIDS = (
    STATIONS,
    STATIONS + 1e-10,  # allclose to STATIONS but not equal
    np.linspace(0.0, 60.0, 13),  # a second gt grid, partial overlap
    np.linspace(30.0, 90.0, 7),  # partial overlap
    np.linspace(60.0, 90.0, 4),  # no overlap with STATIONS
    np.array([20.0]),  # 1-station lanes
)


def _visibility(rng, n):
    kind = rng.integers(4)
    if kind == 0:
        return np.ones(n)
    if kind == 1:
        return np.zeros(n)
    if kind == 2:
        return rng.random(n)
    return (rng.random(n) < 0.8).astype(float)


def _random_lane(rng, stations):
    n = stations.shape[0]
    return Lane3D(
        stations=stations,
        x=rng.uniform(-4, 4) + rng.normal(0, 0.4, n),
        z=rng.normal(0, 0.2, n),
        visibility=_visibility(rng, n),
        category=int(rng.integers(1, 4)),
    )


def _near(rng, gt):
    """A pred close to ``gt``: perturbed, regridded, or transported."""
    kind = rng.integers(3)
    if kind == 0:
        x = gt.x + rng.normal(0, 0.6, gt.x.shape)
        return Lane3D(stations=gt.stations, x=x, z=gt.z, visibility=_visibility(rng, x.shape[0]),
                      category=int(rng.integers(1, 4)))
    if kind == 1 or gt.stations.shape[0] < 2:
        return _random_lane(rng, GRIDS[rng.integers(len(GRIDS))])
    moved = transform_points(_points(gt), rng.uniform(0.0, 3.0), rng.uniform(-0.02, 0.02))
    return Lane3D(stations=moved[:, 1], x=moved[:, 0] + rng.normal(0, 0.3), z=moved[:, 2],
                  visibility=gt.visibility, category=gt.category)


def _random_case(rng):
    gt_grids = GRIDS[:3] if rng.random() < 0.7 else GRIDS
    gts = [_random_lane(rng, gt_grids[rng.integers(len(gt_grids))])
           for _ in range(rng.integers(1, 7))]
    preds = [_near(rng, gts[rng.integers(len(gts))]) if rng.random() < 0.7
             else _random_lane(rng, GRIDS[rng.integers(len(GRIDS))])
             for _ in range(rng.integers(1, 7))]
    return preds, gts


def test_match_lanes_equals_the_per_pair_oracle_exactly():
    matched = regridded = 0
    for seed in range(400):
        rng = np.random.default_rng(5000 + seed)
        preds, gts = _random_case(rng)
        if seed % 20 == 0:
            preds = []
        elif seed % 20 == 10:
            gts = []
        threshold, coverage = (1.5, 0.75) if seed % 2 else (rng.uniform(0.3, 2.0), rng.uniform(0.3, 1.0))
        report = match_lanes(preds, gts, threshold, coverage)
        assert report == _oracle_report(preds, gts, threshold, coverage), seed
        matched += report.tp
        regridded += sum(preds[i].stations.tobytes() != gts[j].stations.tobytes()
                         for i, j, _ in report.matches)
    # the cases exercise real matches, and matches across different grids
    assert matched > 200 and regridded > 100


def test_match_lanes_interpolates_per_pred_not_per_pair(monkeypatch):
    rng = np.random.default_rng(9)
    gts = [_random_lane(rng, STATIONS) for _ in range(40)]
    preds = [_near(rng, gt) for gt in gts]
    shifted = [
        Lane3D(stations=m[:, 1], x=m[:, 0], z=m[:, 2], visibility=g.visibility, category=1)
        for g in gts
        for m in [transform_points(_points(g), 1.3, 0.01)]
    ]
    calls = []
    real = metrics_module._interp_rows

    def counting(x, xp, fp):
        calls.append(xp.shape[0])
        return real(x, xp, fp)

    monkeypatch.setattr(metrics_module, "_interp_rows", counting)
    report = match_lanes(shifted, gts)
    assert calls == [40]  # one call puts the whole stack on the one gt grid
    assert report.tp > 0
    calls.clear()
    match_lanes(list(gts), gts)
    assert not calls  # a pred on the gt grid is used as is
    monkeypatch.undo()
    assert match_lanes(preds, gts) == _oracle_report(preds, gts)


def test_mean_distances_equal_the_per_pair_means_bit_for_bit():
    rng = np.random.default_rng(12)
    for size in (1, 7, 8, 9, 20, 127, 128, 129, 300):
        dist = rng.random((25, size)) * rng.choice([1e-6, 1.0, 1e6])
        both = rng.random((25, size)) < rng.uniform(0.05, 1.0)
        both[:, 0] = True  # an admissible pair has a station visible on both sides
        want = np.array([dist[k][both[k]].mean() for k in range(25)])
        assert _mean_distances(dist, both).tobytes() == want.tobytes(), size


# np.interp one row and one field at a time: the oracle of _interp_rows
def _interp_oracle(x, xp, fp):
    x = np.broadcast_to(x, (xp.shape[0], np.shape(x)[-1]))
    return np.array([[np.interp(x[r], xp[r], field[r]) for r in range(xp.shape[0])]
                     for field in fp]).reshape(fp.shape[:-1] + x.shape[-1:])


def _assert_interp_rows_is_np_interp(x, xp, fp):
    got, want = _interp_rows(x, xp, fp), _interp_oracle(x, xp, fp)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (x, xp, fp, got, want)


def test_interp_rows_is_np_interp_at_the_edges():
    xp = np.array([[0.0, 1.0, 2.5, 4.0], [-3.0, -1.0, 0.5, 10.0]])
    fp = np.array([[[1.0, 1.0, 2.0, -1.0], [0.0, 5.0, 5.0, 5.0]],  # equal neighbouring values
                   [[0.1, 0.2, 0.3, 0.4], [9.0, -9.0, 1e-300, 7.0]]])
    # below the first knot, on knots, between, on the last knot, above it
    shared = np.array([-10.0, -3.0, 0.0, 0.3, 1.0, 2.5, 3.99, 4.0, 5.0, 10.0, 11.0])
    _assert_interp_rows_is_np_interp(shared, xp, fp)
    per_row = np.array([[-1.0, 0.0, 0.5, 2.5, 4.0, 4.5], [-4.0, -3.0, -1.0, 0.25, 10.0, 1e9]])
    _assert_interp_rows_is_np_interp(per_row, xp, fp)
    _assert_interp_rows_is_np_interp(shared, xp[:, [0, -1]], fp[..., [1, 2]])  # 2 stations
    _assert_interp_rows_is_np_interp(shared, xp[:, :1], fp[..., :1])  # 1 station
    _assert_interp_rows_is_np_interp(shared[:0], xp, fp)  # no target
    # x - xp[j] overflows to inf and slope * inf is NaN: numpy falls back to
    # the line from the right knot, and to fp[j] when that is NaN as well
    _assert_interp_rows_is_np_interp(np.array([1e308, -1e308, 0.0]),
                                     np.array([[-1.7e308, 1.7e308]]),
                                     np.array([[[2.0, 2.0]], [[2.0, 3.0]]]))
    # a slope of inf: only the knot rule gives fp[j] at xp[j] (inf * 0 is NaN)
    _assert_interp_rows_is_np_interp(np.array([0.0, 1e-300, 5e-301]), np.array([[0.0, 1e-300]]),
                                     np.array([[[-1e308, 1e308]]]))
    edge = np.finfo(np.float64).max
    _assert_interp_rows_is_np_interp(np.array([0.0, 1.0]), np.array([[-edge, edge]]),
                                     np.array([[[1.0, 1.0]], [[-1.0, 1.0]]]))


@st.composite
def _interp_cases(draw):
    rows, knots, fields = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    row = st.lists(finite, min_size=knots, max_size=knots, unique=True).map(sorted)
    xp = np.array([draw(row) for _ in range(rows)])
    fp = np.array(draw(st.lists(finite, min_size=fields * rows * knots,
                                max_size=fields * rows * knots))).reshape(fields, rows, knots)
    target = st.one_of(st.sampled_from(sorted(set(xp.ravel().tolist()))), finite)
    shape = (rows, draw(st.integers(0, 6))) if draw(st.booleans()) else (draw(st.integers(0, 6)),)
    size = int(np.prod(shape))
    x = np.array(draw(st.lists(target, min_size=size, max_size=size)), dtype=np.float64)
    return x.reshape(shape), xp, fp


@settings(max_examples=300, deadline=None)
@given(case=_interp_cases())
def test_interp_rows_is_np_interp_on_random_increasing_rows(case):
    _assert_interp_rows_is_np_interp(*case)


def test_transport_moves_a_frame_at_once(monkeypatch):
    rng = np.random.default_rng(3)
    lanes = [_random_lane(rng, STATIONS) for _ in range(3)]
    lanes.insert(1, _steep(STATIONS))
    forward, yaw = 1.7, 0.5
    calls = []
    real = metrics_module.transform_points

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(metrics_module, "transform_points", counting)
    rows, stations, (x, z, visibility) = _transported(
        _stack(_as_stack(lanes, STATIONS))[0], forward, yaw)
    assert len(calls) == 1
    assert rows.tolist() == [0, 1, 2]  # the folded lane is gone, the rest renumbered
    for row, lane in enumerate(lanes[:1] + lanes[2:]):
        pts = transform_points(_points(lane), forward, yaw)
        assert stations[row].tobytes() == np.ascontiguousarray(pts[:, 1]).tobytes()
        assert x[row].tobytes() == np.ascontiguousarray(pts[:, 0]).tobytes()
        assert z[row].tobytes() == np.ascontiguousarray(pts[:, 2]).tobytes()
        assert visibility[row].tobytes() == lane.visibility.tobytes()
    steep = _transported(_stack(_as_stack([_steep(STATIONS)], STATIONS))[0], forward, yaw)
    assert steep[0].size == 0 and steep[1].shape == (0, STATIONS.size)
    calls.clear()
    temporal_smoothness([_as_stack(lanes, STATIONS)] * 3,
                        [(0.0, 0.0), (forward, 0.01), (forward, 0.01)])
    assert len(calls) == 2  # one per frame moved into the next


# The per-lane transport and the per-match gap loop that temporal_smoothness
# replaced, kept as its oracle; it matches through the per-pair oracle.
def _oracle_transported_lanes(lanes, forward, yaw_change):
    if not lanes:
        return []
    moved = transform_points(np.concatenate([_points(lane) for lane in lanes]), forward, yaw_change)
    out = []
    stop = 0
    for lane in lanes:
        start, stop = stop, stop + lane.stations.shape[0]
        x, stations, z = moved[start:stop].T
        if np.all(np.diff(stations) > 0):
            out.append(Lane3D(stations=stations, x=x, z=z,
                              visibility=lane.visibility, category=lane.category))
    return out


def _oracle_smoothness(frame_lanes, ego_motion, seen=None):
    """Jitter the per-lane way; ``seen`` counts folded lanes and matches
    between lanes of different station counts."""
    seen = Counter() if seen is None else seen
    gaps = []
    for t in range(len(frame_lanes) - 1):
        forward, yaw_change = ego_motion[t + 1]
        transported = _oracle_transported_lanes(frame_lanes[t], forward, yaw_change)
        seen["folded"] += len(frame_lanes[t]) - len(transported)
        nxt = list(frame_lanes[t + 1])
        if not transported or not nxt:
            continue
        for i, j, _ in _oracle_report(transported, nxt).matches:
            prev, cur = transported[i], nxt[j]
            seen["mixed"] += prev.stations.shape != cur.stations.shape
            inside = (prev.stations >= cur.stations[0]) & (prev.stations <= cur.stations[-1])
            if not np.any(inside):
                continue
            x_cur = np.interp(prev.stations[inside], cur.stations, cur.x)
            v_cur = np.interp(prev.stations[inside], cur.stations, cur.visibility)
            both = (prev.visibility[inside] >= 0.5) & (v_cur >= 0.5)
            if np.any(both):
                gaps.append(np.abs(x_cur[both] - prev.x[inside][both]))
    return float(np.concatenate(gaps).mean()) if gaps else float("nan")


YAWS = (0.0, 0.01, -0.02, 0.5)


def _steep(grid):
    """A lane running out sideways at 3 m per meter: it folds over under a yaw of 0.5."""
    return Lane3D(stations=grid, x=3.0 * grid, z=np.zeros(grid.size),
                  visibility=np.ones(grid.size), category=1)


def _follower(rng, lane, forward, yaw, grid):
    """``lane`` one frame later: moved, shifted and put on ``grid``; None when it folds."""
    moved = transform_points(_points(lane), forward, yaw)
    if not np.all(np.diff(moved[:, 1]) > 0):
        return None
    x, z, visibility = (np.interp(grid, moved[:, 1], values) for values in (
        moved[:, 0] + rng.normal(0, 0.3), moved[:, 2], lane.visibility))
    return Lane3D(stations=grid, x=x, z=z, visibility=visibility, category=lane.category)


def _random_frames(rng, new_lanes, yaws, empty):
    """One stack per frame, on a grid that changes between frames half the
    time (the 1-station grid too); most lanes follow the ego motion onto the
    next frame's grid, fresh lanes appear, a lane that folds under a yaw of
    0.5 may join, and frame ``empty`` has no lanes."""
    frames, motion, lanes = [], [(0.0, 0.0)], []
    grid = GRIDS[rng.integers(len(GRIDS))]
    for t, count in enumerate(new_lanes):
        if rng.random() < 0.5:
            grid = GRIDS[rng.integers(len(GRIDS))]
        if t:
            forward = rng.uniform(0.0, 3.0)
            motion.append((forward, yaws[t - 1]))
            followers = (_follower(rng, lane, forward, yaws[t - 1], grid)
                         for lane in lanes if rng.random() < 0.8)
            lanes = [lane for lane in followers if lane is not None]
        lanes += [_random_lane(rng, grid) for _ in range(count)]
        if rng.random() < 0.3:
            lanes.append(_steep(grid))
        rng.shuffle(lanes)
        lanes = [] if t == empty else lanes
        frames.append(_as_stack(lanes, grid))
    return frames, np.array(motion)


@st.composite
def _scenes(draw):
    frames = draw(st.integers(2, 4))
    new_lanes = draw(st.lists(st.integers(0, 4), min_size=frames, max_size=frames))
    yaws = draw(st.lists(st.sampled_from(YAWS), min_size=frames - 1, max_size=frames - 1))
    empty = draw(st.one_of(st.none(), st.integers(0, frames - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_frames(rng, new_lanes, yaws, empty)


@settings(max_examples=200, deadline=None)
@given(scene=_scenes())
def test_smoothness_equals_the_per_lane_oracle_bit_for_bit(scene):
    frames, motion = scene
    got = temporal_smoothness(frames, motion)
    want = _oracle_smoothness([_rows(frame) for frame in frames], motion)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()  # NaN included


def test_smoothness_oracle_cases_cover_every_kind_of_frame():
    seen = Counter()
    for seed in range(150):
        rng = np.random.default_rng(7000 + seed)
        frames = int(rng.integers(2, 5))
        scene = _random_frames(rng, rng.integers(0, 5, frames), rng.choice(YAWS, frames - 1),
                               int(rng.integers(frames)) if rng.random() < 0.2 else None)
        want = _oracle_smoothness([_rows(frame) for frame in scene[0]], scene[1], seen)
        assert np.float64(temporal_smoothness(*scene)).tobytes() == np.float64(want).tobytes()
        seen["finite" if np.isfinite(want) else "nan"] += 1
        seen["empty"] += any(len(frame) == 0 for frame in scene[0])
        seen["one station"] += any(len(frame) and frame.stations.size == 1 for frame in scene[0])
    kinds = ("finite", "nan", "empty", "one station", "folded", "mixed")
    assert all(seen[kind] >= 10 for kind in kinds), seen


# --- a frame's lanes as one LaneStack score as the list of its rows


def _stack_case(rng, count, frames):
    """(per-frame stacks on one grid, ego motion, the last frame's gts).

    The lanes follow the ego roughly, some drop out and new ones appear;
    the gts lie near the last frame's lanes on the stack's grid, on other
    grids, or moved by the ego motion, plus unrelated lanes.
    """
    grid = GRIDS[rng.choice([0, 2, 5])]
    motion = [(0.0, 0.0)] + [(rng.uniform(0.0, 2.0), rng.choice(YAWS[:3]))
                             for _ in range(frames - 1)]
    lanes, stacks = [_random_lane(rng, grid) for _ in range(count)], []
    for t in range(frames):
        if t:
            lanes = [Lane3D(stations=grid, x=lane.x + rng.normal(0, 0.2, grid.size), z=lane.z,
                            visibility=_visibility(rng, grid.size), category=lane.category)
                     for lane in lanes if rng.random() < 0.9]
            lanes += [_random_lane(rng, grid) for _ in range(rng.integers(0, 2))]
        stacks.append(_as_stack(lanes, grid))
    gts = [_near(rng, lane) for lane in lanes if rng.random() < 0.8]
    gts += [_random_lane(rng, GRIDS[rng.integers(len(GRIDS))]) for _ in range(rng.integers(0, 3))]
    return stacks, np.array(motion), gts


@st.composite
def _stack_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _stack_case(rng, draw(st.integers(0, 6)), draw(st.integers(2, 3)))


@settings(max_examples=200, deadline=None)
@given(case=_stack_cases())
def test_a_stack_scores_as_the_list_of_its_rows_bit_for_bit(case):
    stacks, motion, gts = case
    lists = [_rows(stack) for stack in stacks]
    # repr spells every float exactly, so equal reprs are equal bits
    assert repr(match_lanes(stacks[-1], gts)) == repr(match_lanes(lists[-1], gts))
    assert repr(match_lanes(gts, stacks[-1])) == repr(match_lanes(gts, lists[-1]))
    got, want = temporal_smoothness(stacks, motion), _oracle_smoothness(lists, motion)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()  # NaN included


def test_stack_cases_cover_empty_and_single_stacks_and_both_kinds_of_gt():
    seen = Counter()
    for seed in range(200):
        rng = np.random.default_rng(9000 + seed)
        stacks, motion, gts = _stack_case(rng, int(rng.integers(0, 7)), int(rng.integers(2, 4)))
        seen.update(f"N={len(stack)}" for stack in stacks if len(stack) < 2)
        for _, j, _ in match_lanes(stacks[-1], gts).matches:
            on_grid = gts[j].stations.tobytes() == stacks[-1].stations.tobytes()
            seen["on-grid match" if on_grid else "off-grid match"] += 1
        seen["finite jitter"] += bool(np.isfinite(temporal_smoothness(stacks, motion)))
    kinds = ("N=0", "N=1", "on-grid match", "off-grid match", "finite jitter")
    assert all(seen[kind] >= 20 for kind in kinds), seen


def test_an_empty_stack_is_no_stack():
    stack = _as_stack([], STATIONS)
    assert _stack(stack) == []
    assert match_lanes(stack, [_lane(0.0)]) == MatchReport.from_counts(0, 0, 1, 0)


# --- the ego-motion transport


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(*[st.floats(-1e6, 1e6, allow_subnormal=False)] * 3),
                       max_size=8),
       forward=st.floats(-100.0, 100.0, allow_subnormal=False),
       yaw=st.floats(-np.pi, np.pi, allow_subnormal=False))
def test_transport_round_trip_recovers_the_points(points, forward, yaw):
    # the inverse of p' = R(-yaw) (p - (0, f, 0)) is p = R(yaw) p' + (0, f, 0)
    points = np.array(points, dtype=np.float64).reshape(-1, 3)
    moved = transform_points(points, forward, yaw)
    cos, sin = np.cos(yaw), np.sin(yaw)
    back = np.stack([cos * moved[:, 0] - sin * moved[:, 1],
                     sin * moved[:, 0] + cos * moved[:, 1] + forward, moved[:, 2]], axis=1)
    assert moved.shape == points.shape and np.array_equal(moved[:, 2], points[:, 2])
    scale = np.abs(points).max(axis=1, initial=0.0) + abs(forward)
    assert (np.abs(back - points).max(axis=1, initial=0.0) <= 1e-9 * scale).all()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), forward=st.floats(-10.0, 10.0),
       yaw=st.floats(-np.pi, np.pi))
def test_transport_drops_exactly_the_lanes_whose_stations_stop_increasing(seed, forward, yaw):
    rng = np.random.default_rng(seed)
    grid = GRIDS[rng.integers(len(GRIDS))]
    lanes = [Lane3D(stations=grid, x=rng.uniform(-5, 5) * grid + rng.normal(0, 0.5, grid.size),
                    z=rng.normal(0, 0.2, grid.size), visibility=_visibility(rng, grid.size),
                    category=1) for _ in range(rng.integers(1, 6))]
    rows, stations, (x, z, _) = _transported(_stack(_as_stack(lanes, grid))[0], forward, yaw)
    points = [transform_points(_points(lane), forward, yaw) for lane in lanes]
    kept = [pts for pts in points if (np.diff(pts[:, 1]) > 0).all()]
    assert rows.tolist() == list(range(len(kept)))  # renumbered in frame order
    for row, pts in enumerate(kept):
        assert [a[row].tobytes() for a in (stations, x, z)] == [
            np.ascontiguousarray(pts[:, k]).tobytes() for k in (1, 0, 2)]


def test_match_lanes_validation():
    with pytest.raises(ValueError):
        match_lanes([], [], distance_threshold=0.0)
    with pytest.raises(ValueError):
        match_lanes([], [], coverage_fraction=1.5)


def test_match_lanes_rejects_a_nan_threshold():
    # ``nan <= 0`` is false, so only a negated check rejects it
    with pytest.raises(ValueError, match="^match_lanes: distance threshold must be positive"):
        match_lanes([], [], distance_threshold=float("nan"))


def _one_grid_lists(seed):
    """Two lane lists on STATIONS; most of the second follows the first."""
    rng = np.random.default_rng(seed)
    first = [_random_lane(rng, STATIONS) for _ in range(rng.integers(0, 6))]
    near = [Lane3D(stations=STATIONS, x=lane.x + rng.normal(0, 0.3, STATIONS.size), z=lane.z,
                   visibility=_visibility(rng, STATIONS.size), category=lane.category)
            for lane in first if rng.random() < 0.7]
    return first, near + [_random_lane(rng, STATIONS) for _ in range(rng.integers(0, 3))]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_swapping_preds_and_gts_on_one_grid_swaps_fp_and_fn(seed):
    # lanes on different grids are left out: a pred is interpolated onto
    # the gt's grid, never the other way round
    preds, gts = _one_grid_lists(seed)
    forward, backward = match_lanes(preds, gts), match_lanes(gts, preds)
    assert forward.tp == backward.tp
    assert (forward.fp, forward.fn) == (backward.fn, backward.fp)
    total = sum(d for _, _, d in forward.matches) - sum(d for _, _, d in backward.matches)
    assert abs(total) <= 1e-9


def test_one_grid_lists_match_often():
    matched = sum(match_lanes(*_one_grid_lists(seed)).tp > 0 for seed in range(100))
    assert matched >= 30


def test_smoothness_zero_for_static_perfect_predictions():
    frames = [_as_stack([_lane(0.0)], STATIONS)] * 3
    motion = np.zeros((3, 2))
    assert temporal_smoothness(frames, motion) == 0.0


def test_smoothness_alternating_perturbation():
    frames = [_as_stack([_lane(x)], STATIONS) for x in (0.1, -0.1, 0.1)]
    motion = np.zeros((3, 2))
    assert np.isclose(temporal_smoothness(frames, motion), 0.2, atol=1e-12)


def test_smoothness_zero_for_rigidly_transported_sequence():
    rng = np.random.default_rng(4)
    lane0 = _lane(rng.uniform(-2, 2) + rng.normal(0, 0.2, STATIONS.shape))
    frames = [_as_stack([lane0], STATIONS)]
    motion = [(0.0, 0.0)]
    lane = lane0
    for _ in range(2):
        fwd, yaw = 1.1, 0.015
        moved = transform_points(_points(lane), fwd, yaw)
        lane = Lane3D(stations=moved[:, 1], x=moved[:, 0], z=moved[:, 2],
                      visibility=lane.visibility, category=lane.category)
        frames.append(_as_stack([lane], lane.stations))
        motion.append((fwd, yaw))
    jitter = temporal_smoothness(frames, np.array(motion))
    assert jitter < 1e-12


def test_smoothness_preconditions():
    frame = _as_stack([_lane(0.0)], STATIONS)
    with pytest.raises(ValueError):
        temporal_smoothness([frame], np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"\(T, 2\)"):
        temporal_smoothness([frame, frame], np.zeros((3, 2)))
    # a Lane3D list is a lane file's form, not a decoded frame's
    with pytest.raises(ValueError, match="frame 1 is a list, not a LaneStack"):
        temporal_smoothness([frame, [_lane(0.0)], frame], np.zeros((3, 2)))
    # far-apart lanes never match: a value, not an error
    frames = [_as_stack([_lane(x)], STATIONS) for x in (-8.0, 8.0)]
    assert np.isnan(temporal_smoothness(frames, np.zeros((2, 2))))


def test_metrics_csv_roundtrip(tmp_path):
    report = MatchReport.from_counts(2, 1, 1, 1)
    row = metrics_row("scene_0001", report, 0.125)
    path = tmp_path / "metrics.csv"
    write_table(path, METRIC_COLUMNS, [row])
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
