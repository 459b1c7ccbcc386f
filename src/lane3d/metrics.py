"""Matching-based F1/Acc evaluation and the temporal-smoothness measure.

A predicted lane matches a ground-truth lane when, on their shared
stations, enough of each side's visible extent is covered by stations
that are visible on both sides and within the distance threshold; the
coverage requirement is applied in both directions, which keeps the
protocol symmetric under swapping predictions with ground truth.
Matching among admissible pairs maximizes the number of matches and
breaks ties by minimum total mean distance.

Admissibility is tested for all pairs at once.  The gts are grouped by
their exact station grid, each pred is put on a grid once (as is when
its stations are allclose to the grid, else by linear interpolation
with a mask of the grid stations inside its own range), and the
(P, G, S) distances and visibility masks are broadcast.  This is exact,
not an approximation of a per-pair test: ``np.interp`` computes each
target on its own and the distances are elementwise, so every value
equals the one a pair-by-pair resampling would give; the station counts
are integer sums; and each admissible pair's mean distance is taken
over the same compacted 1-D array of both-visible stations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Lane3D, VISIBILITY_THRESHOLD, transform_points

# Lane matching defaults (meters / fraction of visible stations); the
# run configuration and the trainer take theirs from here.
DISTANCE_THRESHOLD = 1.5
COVERAGE_FRACTION = 0.75

_INADMISSIBLE = 1e9


@dataclass(frozen=True)
class MatchReport:
    """Counts, rates, and the per-lane match list of one evaluation."""

    tp: int
    fp: int
    fn: int
    correct: int  # true positives whose category also matches
    precision: float
    recall: float
    f1: float
    acc: float
    matches: tuple = ()  # (pred index, gt index, mean distance)

    @staticmethod
    def from_counts(tp: int, fp: int, fn: int, correct_categories: int, matches=()):
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if (precision + recall) > 0
            else 0.0
        )
        acc = correct_categories / tp if tp > 0 else 0.0
        return MatchReport(
            tp=tp, fp=fp, fn=fn, correct=correct_categories,
            precision=precision, recall=recall,
            f1=f1, acc=acc, matches=tuple(matches),
        )


def _on_grid(pred: Lane3D, grid: np.ndarray, on: bool):
    """(x, z, visibility, inside) of a pred on a gt station grid.

    A pred sampled on the grid (``on``) is used as is; otherwise each
    field is linearly interpolated onto the grid and ``inside`` marks the
    grid stations within the pred's own range (none for a 1-station pred).
    """
    if on:
        return pred.x, pred.z, pred.visibility, np.ones(grid.shape, dtype=bool)
    if pred.stations.shape[0] < 2:  # no range to interpolate over
        return (np.zeros(grid.shape),) * 3 + (np.zeros(grid.shape, dtype=bool),)
    inside = (grid >= pred.stations[0]) & (grid <= pred.stations[-1])
    fields = (np.interp(grid, pred.stations, f) for f in (pred.x, pred.z, pred.visibility))
    return (*fields, inside)


def _station_groups(lanes):
    """(lane indices, shared stations) for each exact station grid."""
    groups = {}
    for index, lane in enumerate(lanes):
        groups.setdefault(lane.stations.tobytes(), []).append(index)
    return [(idx, lanes[idx[0]].stations) for idx in groups.values()]


def match_lanes(
    preds,
    gts,
    distance_threshold: float = DISTANCE_THRESHOLD,
    coverage_fraction: float = COVERAGE_FRACTION,
) -> MatchReport:
    """One-to-one lane matching with max cardinality, then min distance."""
    if distance_threshold <= 0.0:
        raise ValueError("match_lanes: distance threshold must be positive")
    if not 0.0 < coverage_fraction <= 1.0:
        raise ValueError("match_lanes: coverage fraction must lie in (0, 1]")
    num_p, num_g = len(preds), len(gts)
    if num_p == 0 or num_g == 0:
        return MatchReport.from_counts(0, num_p, num_g, 0)
    cost = np.full((num_p, num_g), _INADMISSIBLE)
    for members, grid in _station_groups(gts):
        gx = np.stack([gts[j].x for j in members])  # (G, S)
        gz = np.stack([gts[j].z for j in members])
        gt_vis = np.stack([gts[j].visible_mask() for j in members])
        # a pred is on the grid when its stations are allclose to it, i.e.
        # all(isclose): one isclose decides it for every same-length pred
        same = [i for i, p in enumerate(preds) if p.stations.shape == grid.shape]
        on = np.zeros(num_p, dtype=bool)
        if same:
            on[same] = np.isclose(np.stack([preds[i].stations for i in same]), grid).all(axis=1)
        px, pz, pv, inside = (np.stack(f) for f in zip(*map(_on_grid, preds, [grid] * num_p, on)))
        pred_vis = (pv >= VISIBILITY_THRESHOLD) & inside  # (P, S)
        dist = np.sqrt((px[:, None] - gx) ** 2 + (pz[:, None] - gz) ** 2)  # (P, G, S)
        both = pred_vis[:, None] & gt_vis
        covered = (both & (dist <= distance_threshold)).sum(axis=2)
        n_pred = pred_vis.sum(axis=1)[:, None]
        n_gt = (gt_vis & inside[:, None]).sum(axis=2)
        enough = (covered >= coverage_fraction * n_gt) & (covered >= coverage_fraction * n_pred)
        ok = (n_pred > 0) & (n_gt > 0) & enough
        for i, j in zip(*np.nonzero(ok)):
            cost[i, members[j]] = float(dist[i, j][both[i, j]].mean())
    rows, cols = linear_sum_assignment(cost)
    matches = [
        (int(i), int(j), float(cost[i, j]))
        for i, j in zip(rows, cols)
        if cost[i, j] < _INADMISSIBLE
    ]
    tp = len(matches)
    correct = sum(1 for i, j, _ in matches if preds[i].category == gts[j].category)
    return MatchReport.from_counts(tp, num_p - tp, num_g - tp, correct, matches)


def _transported_lanes(lanes, forward: float, yaw_change: float) -> list:
    """A frame's lanes moved into the next ego frame by one transform.

    A lane whose moved stations stop increasing (folded by the yaw) is dropped.
    """
    if not lanes:
        return []
    moved = transform_points(np.concatenate([lane.points() for lane in lanes]), forward, yaw_change)
    out = []
    stop = 0
    for lane in lanes:
        start, stop = stop, stop + lane.stations.shape[0]
        x, stations, z = moved[start:stop].T
        if np.all(np.diff(stations) > 0):
            out.append(Lane3D(stations=stations, x=x, z=z,
                              visibility=lane.visibility, category=lane.category))
    return out


def temporal_smoothness(
    frame_lanes,
    ego_motion,
    distance_threshold: float = DISTANCE_THRESHOLD,
    coverage_fraction: float = COVERAGE_FRACTION,
) -> float:
    """Mean |x_next(y) - x_transported(y)| over matched lanes and stations.

    frame_lanes is a per-frame list of decoded lanes; ego_motion[t] is
    the (forward, yaw change) moving into frame t.  Frame t's lanes are
    rigidly transported into frame t+1 and matched against that frame's
    lanes; jitter averages the lateral discrepancy on stations visible on
    both sides.  NaN when no lanes match across any frame pair or the
    matched lanes share no visible station.
    """
    ego_motion = np.asarray(ego_motion, dtype=np.float64)
    num_frames = len(frame_lanes)
    if num_frames < 2:
        raise ValueError("temporal_smoothness: need at least 2 frames")
    if ego_motion.shape != (num_frames, 2):
        raise ValueError("temporal_smoothness: ego_motion must be (T, 2)")
    gaps = []
    for t in range(num_frames - 1):
        forward, yaw_change = ego_motion[t + 1]
        transported = _transported_lanes(frame_lanes[t], forward, yaw_change)
        nxt = list(frame_lanes[t + 1])
        if not transported or not nxt:
            continue
        report = match_lanes(transported, nxt, distance_threshold, coverage_fraction)
        for i, j, _ in report.matches:
            prev, cur = transported[i], nxt[j]
            inside = (prev.stations >= cur.stations[0]) & (prev.stations <= cur.stations[-1])
            if not np.any(inside):
                continue
            x_cur = np.interp(prev.stations[inside], cur.stations, cur.x)
            v_cur = np.interp(prev.stations[inside], cur.stations, cur.visibility)
            both = (prev.visibility[inside] >= VISIBILITY_THRESHOLD) & (
                v_cur >= VISIBILITY_THRESHOLD
            )
            if np.any(both):
                gaps.append(np.abs(x_cur[both] - prev.x[inside][both]))
    return float(np.concatenate(gaps).mean()) if gaps else float("nan")


METRIC_COLUMNS = (
    "scene_id",
    "tp",
    "fp",
    "fn",
    "precision",
    "recall",
    "f1",
    "acc",
    "jitter",
)


def metrics_row(scene_id, report: MatchReport, jitter: float) -> str:
    values = (
        str(scene_id),
        str(report.tp),
        str(report.fp),
        str(report.fn),
        f"{report.precision:.6f}",
        f"{report.recall:.6f}",
        f"{report.f1:.6f}",
        f"{report.acc:.6f}",
        f"{jitter:.6f}" if np.isfinite(jitter) else "nan",
    )
    return ",".join(values)


def write_metrics_csv(path, rows, config_hash: str | None = None) -> None:
    """Flat comma-separated table, one evaluated scene per row.

    A provenance comment line leads when the caller supplies the hash of
    the configuration that produced the rows.
    """
    lines = []
    if config_hash is not None:
        lines.append(f"# config_hash={config_hash}")
    lines.append(",".join(METRIC_COLUMNS))
    lines.extend(rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def aggregate_reports(reports) -> MatchReport:
    """Micro-average: sum the counts, then recompute the rates."""
    tp = sum(r.tp for r in reports)
    fp = sum(r.fp for r in reports)
    fn = sum(r.fn for r in reports)
    correct = sum(r.correct for r in reports)
    return MatchReport.from_counts(tp, fp, fn, correct)
