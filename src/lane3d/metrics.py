"""Matching-based F1/Acc evaluation and the temporal-smoothness measure.

A predicted lane matches a ground-truth lane when, on their shared
stations, enough of each side's visible extent is covered by stations
that are visible on both sides and within the distance threshold; the
coverage requirement is applied in both directions, which keeps the
protocol symmetric under swapping predictions with ground truth.
Matching among admissible pairs maximizes the number of matches and
breaks ties by minimum total mean distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Lane3D, VISIBILITY_THRESHOLD
from .synth import transform_points

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


def _pair_geometry(pred: Lane3D, gt: Lane3D):
    """Distances and visibility masks of a pred/gt pair on shared stations.

    Identical station grids are used as-is; otherwise the pred is
    linearly resampled onto the gt stations it covers.
    """
    if pred.stations.shape == gt.stations.shape and np.allclose(
        pred.stations, gt.stations
    ):
        p, g = pred, gt
    else:
        inside = (gt.stations >= pred.stations[0]) & (gt.stations <= pred.stations[-1])
        if not np.any(inside) or pred.stations.shape[0] < 2:
            return None
        from .geometry import resample_lane

        p = resample_lane(pred, gt.stations[inside])
        g = Lane3D(
            stations=gt.stations[inside],
            x=gt.x[inside],
            z=gt.z[inside],
            visibility=gt.visibility[inside],
            category=gt.category,
        )
    dist = np.sqrt((p.x - g.x) ** 2 + (p.z - g.z) ** 2)
    return dist, p.visible_mask(), g.visible_mask()


def _admissible(pred: Lane3D, gt: Lane3D, threshold: float, coverage: float):
    """(admissible, mean distance over both-visible stations)."""
    geom = _pair_geometry(pred, gt)
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
    dists = np.full((num_p, num_g), np.inf)
    for i, pred in enumerate(preds):
        for j, gt in enumerate(gts):
            ok, mean_dist = _admissible(pred, gt, distance_threshold, coverage_fraction)
            if ok:
                cost[i, j] = mean_dist
                dists[i, j] = mean_dist
    rows, cols = linear_sum_assignment(cost)
    matches = [
        (int(i), int(j), float(dists[i, j]))
        for i, j in zip(rows, cols)
        if cost[i, j] < _INADMISSIBLE
    ]
    tp = len(matches)
    correct = sum(1 for i, j, _ in matches if preds[i].category == gts[j].category)
    return MatchReport.from_counts(tp, num_p - tp, num_g - tp, correct, matches)


def _transported_lane(lane: Lane3D, forward: float, yaw_change: float) -> Lane3D | None:
    """Re-express a lane in the next ego frame; None if stations collapse."""
    moved = transform_points(lane.points(), forward, yaw_change)
    order = moved[:, 1]
    if np.any(np.diff(order) <= 0):
        return None
    return Lane3D(
        stations=order,
        x=moved[:, 0],
        z=moved[:, 2],
        visibility=lane.visibility,
        category=lane.category,
    )


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
    both sides.  All steps unmatched is an error.
    """
    ego_motion = np.asarray(ego_motion, dtype=np.float64)
    num_frames = len(frame_lanes)
    if num_frames < 2:
        raise ValueError("temporal_smoothness: need at least 2 frames")
    if ego_motion.shape != (num_frames, 2):
        raise ValueError("temporal_smoothness: ego_motion must be (T, 2)")
    gaps = []
    matched_any = False
    for t in range(num_frames - 1):
        forward, yaw_change = ego_motion[t + 1]
        transported = []
        for lane in frame_lanes[t]:
            moved = _transported_lane(lane, forward, yaw_change)
            if moved is not None:
                transported.append(moved)
        nxt = list(frame_lanes[t + 1])
        if not transported or not nxt:
            continue
        report = match_lanes(transported, nxt, distance_threshold, coverage_fraction)
        for i, j, _ in report.matches:
            matched_any = True
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
    if not matched_any:
        raise ValueError("temporal_smoothness: no lanes matched across any frame pair")
    if not gaps:
        raise ValueError("temporal_smoothness: matched lanes share no visible stations")
    return float(np.concatenate(gaps).mean())


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
