"""Matching-based F1/Acc evaluation and the temporal-smoothness measure.

A predicted lane matches a ground-truth lane when, on their shared
stations, enough of each side's visible extent is covered by stations
that are visible on both sides and within the distance threshold; the
coverage requirement is applied in both directions, which keeps the
protocol symmetric under swapping predictions with ground truth.
Matching among admissible pairs maximizes the number of matches and
breaks ties by minimum total mean distance.

Both public functions share one array core.  A LaneStack is one
``(N, S)`` stack, a Lane3D list (``match_lanes`` only) one per station
count.  The gts are grouped by their exact station grid, and each pred
stack is put on a grid with one ``_interp_rows`` call: a row whose
stations are ``geometry.on_grid`` (``np.isclose`` at every station) is
used as is, any other row is interpolated, with a mask of the grid
stations inside its own range.  The (N, G, S) distances and
visibility masks are broadcast, and every admissible pair's mean
distance is taken over its compacted both-visible stations, one
``(m, n)`` array per count n of such stations.  This is exact, not an
approximation of a per-pair test: ``_interp_rows`` gives ``np.interp``'s
bits target by target, the distances are elementwise, the station
counts are integer sums, and a row's ``.mean(axis=1)`` equals the 1-D
``.mean()`` of that row.  ``temporal_smoothness`` takes one LaneStack
per frame, moves it with one ``transform_points`` call and takes every
matched pair's gaps at once, in match order.  The one-to-one matching
among admissible pairs is ``heads.min_cost_assignment``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import VISIBILITY_THRESHOLD, LaneStack, on_grid, transform_points
from .heads import min_cost_assignment

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


def _interp_rows(x, xp, fp):
    """``np.interp`` row by row, with the same bits.

    Row r interpolates ``fp[..., r, :]`` over the knots ``xp[r]`` at the
    targets ``x`` (shape (Q,), shared by every row) or ``x[r]`` (shape
    (N, Q)).  xp is (N, S), each row strictly increasing, fp is
    (..., N, S) and the result (..., N, Q).  Targets must not be NaN.
    numpy's rules: a target below the first knot or above the last takes
    the end value, a target equal to a knot takes that knot's value, and
    any other target in [xp[j], xp[j+1]) takes ``slope * (x - xp[j]) +
    fp[j]`` with ``slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j])``; where
    that is NaN, the same line from knot j+1, and where that is NaN too
    and fp[j] == fp[j+1], fp[j].
    """
    knots = xp.shape[1]
    if knots == 1:
        return np.repeat(fp, x.shape[-1], axis=-1)
    seg = (xp[:, None, 1:-1] <= x[..., None]).sum(axis=2)  # j, clipped to the knot segments
    r = np.arange(xp.shape[0])[:, None]
    x0, x1, f0, f1 = xp[r, seg], xp[r, seg + 1], fp[..., r, seg], fp[..., r, seg + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (f1 - f0) / (x1 - x0)
        line = slope * (x - x0) + f0
        redo = np.isnan(line)
        if redo.any():
            back = slope * (x - x1) + f1
            back = np.where(np.isnan(back) & (f0 == f1), f0, back)
            line[redo] = back[redo]
    below, above = x < xp[:, :1], x >= xp[:, -1:]
    return np.where(above, f1, np.where(below | (x == x0), f0, line))


def _stack(lanes) -> list:
    """A frame's lanes as one (rows, stations, fields) stack per station count.

    rows index ``lanes`` in first-seen order; stations is (N, S) and
    fields (3, N, S) holds x, z and visibility.  A LaneStack is one stack.
    """
    if isinstance(lanes, LaneStack):
        return [(np.arange(len(lanes)), np.broadcast_to(lanes.stations, lanes.x.shape),
                 np.stack([lanes.x, lanes.z, lanes.visibility]))] if len(lanes) else []
    by_count = {}
    for index, lane in enumerate(lanes):
        by_count.setdefault(lane.stations.shape[0], []).append(index)
    return [
        (np.array(rows), np.array([lanes[i].stations for i in rows]),
         np.array([[getattr(lanes[i], name) for i in rows] for name in ("x", "z", "visibility")]))
        for rows in by_count.values()
    ]


def _put_on_grid(stations, fields, grid):
    """A pred stack's fields on a gt station grid, and the grid stations each row covers.

    A row whose stations are ``on_grid`` is used as is and
    covers it all; any other row is interpolated and covers the grid
    stations within its own range, none for a 1-station row.
    """
    rows, size = stations.shape[0], grid.shape[0]
    placed = np.zeros((3, rows, size))
    inside = np.zeros((rows, size), dtype=bool)
    off = np.ones(rows, dtype=bool)
    if stations.shape[1] == size:
        off = ~on_grid(stations, grid)
        placed[:, ~off] = fields[:, ~off]
        inside[~off] = True
    if stations.shape[1] >= 2 and off.any():
        placed[:, off] = _interp_rows(grid, stations[off], fields[:, off])
        inside[off] = (grid >= stations[off, :1]) & (grid <= stations[off, -1:])
    return placed, inside


def _mean_distances(dist, both):
    """Each row's mean of ``dist`` over its ``both`` stations.

    The rows with n such stations are compacted to one (m, n) array, and
    a row-wise mean equals the 1-D mean of each row bit for bit.
    """
    counts = both.sum(axis=1)
    means = np.empty(counts.shape)
    for n in np.unique(counts):
        same = counts == n
        means[same] = dist[same][both[same]].reshape(-1, n).mean(axis=1)
    return means


def _size(stacks) -> int:
    return sum(rows.size for rows, _, _ in stacks)


def _match(preds, gts, distance_threshold, coverage_fraction) -> list:
    """(pred row, gt row, mean distance) of every match between two ``_stack`` lists."""
    if not distance_threshold > 0.0:  # negated: NaN fails
        raise ValueError("match_lanes: distance threshold must be positive")
    if not 0.0 < coverage_fraction <= 1.0:
        raise ValueError("match_lanes: coverage fraction must lie in (0, 1]")
    if not preds or not gts:
        return []
    cost = np.full((_size(preds), _size(gts)), _INADMISSIBLE)
    for gt_rows, gt_stations, gt_fields in gts:
        grids = {}
        for k, grid in enumerate(gt_stations):
            grids.setdefault(grid.tobytes(), []).append(k)
        for members in grids.values():
            gx, gz, gv = gt_fields[:, members]
            gt_vis = gv >= VISIBILITY_THRESHOLD
            for pred_rows, pred_stations, pred_fields in preds:
                (px, pz, pv), inside = _put_on_grid(pred_stations, pred_fields,
                                                    gt_stations[members[0]])
                pred_vis = (pv >= VISIBILITY_THRESHOLD) & inside  # (P, S)
                dist = np.sqrt((px[:, None] - gx) ** 2 + (pz[:, None] - gz) ** 2)  # (P, G, S)
                both = pred_vis[:, None] & gt_vis
                covered = (both & (dist <= distance_threshold)).sum(axis=2)
                n_pred = pred_vis.sum(axis=1)[:, None]
                n_gt = (gt_vis & inside[:, None]).sum(axis=2)
                enough = (covered >= coverage_fraction * n_gt) & (
                    covered >= coverage_fraction * n_pred)
                i, j = np.nonzero((n_pred > 0) & (n_gt > 0) & enough)
                cost[pred_rows[i], gt_rows[members][j]] = _mean_distances(dist[i, j], both[i, j])
    rows, cols = min_cost_assignment(cost)
    dist = cost[rows, cols]
    kept = dist < _INADMISSIBLE
    return list(zip(rows[kept].tolist(), cols[kept].tolist(), dist[kept].tolist()))


def match_lanes(
    preds,
    gts,
    distance_threshold: float = DISTANCE_THRESHOLD,
    coverage_fraction: float = COVERAGE_FRACTION,
) -> MatchReport:
    """One-to-one lane matching with max cardinality, then min distance."""
    matches = _match(_stack(preds), _stack(gts), distance_threshold, coverage_fraction)
    tp = len(matches)
    pred_cat, gt_cat = (lanes.category if isinstance(lanes, LaneStack)
                        else [lane.category for lane in lanes] for lanes in (preds, gts))
    correct = sum(1 for i, j, _ in matches if pred_cat[i] == gt_cat[j])
    return MatchReport.from_counts(tp, len(preds) - tp, len(gts) - tp, correct, matches)


def _transported(stack, forward: float, yaw_change: float):
    """A frame's stack moved into the next ego frame with one transform.

    A row whose moved stations stop increasing (folded by the yaw) is
    dropped, and the kept rows are numbered 0, 1, ... in frame order.
    """
    _, stations, (x, z, visibility) = stack
    points = np.stack([x, stations, z], axis=2)  # (N, S, 3)
    x, stations, z = transform_points(
        points.reshape(-1, 3), forward, yaw_change).reshape(points.shape).transpose(2, 0, 1)
    keep = (stations[:, 1:] > stations[:, :-1]).all(axis=1)
    return (np.arange(np.count_nonzero(keep)), stations[keep],
            np.stack([x[keep], z[keep], visibility[keep]]))


def _gaps(prev, cur, matches) -> np.ndarray:
    """|x_cur(y) - x_prev(y)| of every match between two stacks, at the prev
    stations inside the cur lane's range and visible on both sides, in
    ``matches`` order, then station order."""
    p, c = np.array([(i, j) for i, j, _ in matches], dtype=np.intp).reshape(-1, 2).T
    targets, knots = prev[1][p], cur[1][c]
    x_prev, _, v_prev = prev[2][:, p]
    x_cur, _, v_cur = _interp_rows(targets, knots, cur[2][:, c])
    both = ((targets >= knots[:, :1]) & (targets <= knots[:, -1:])
            & (v_prev >= VISIBILITY_THRESHOLD) & (v_cur >= VISIBILITY_THRESHOLD))
    return np.abs(x_cur - x_prev)[both]


def temporal_smoothness(
    frame_lanes,
    ego_motion,
    distance_threshold: float = DISTANCE_THRESHOLD,
    coverage_fraction: float = COVERAGE_FRACTION,
) -> float:
    """Mean |x_next(y) - x_transported(y)| over matched lanes and stations.

    frame_lanes holds each frame's LaneStack; ego_motion[t] is the
    (forward, yaw change) moving into frame t.  Frame t's lanes are
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
    stacks = []
    for t, lanes in enumerate(frame_lanes):
        if not isinstance(lanes, LaneStack):
            raise ValueError(f"temporal_smoothness: frame {t} is a "
                             f"{type(lanes).__name__}, not a LaneStack")
        stacks.append(_stack(lanes))
    gaps = [np.empty(0)]
    for t in range(num_frames - 1):
        if not stacks[t] or not stacks[t + 1]:
            continue
        moved, nxt = _transported(stacks[t][0], *ego_motion[t + 1]), stacks[t + 1][0]
        matches = _match([moved], [nxt], distance_threshold, coverage_fraction)
        if matches:
            gaps.append(_gaps(moved, nxt, matches))
    gaps = np.concatenate(gaps)
    return float(gaps.mean()) if gaps.size else float("nan")


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


def write_table(path, columns, rows, config_hash: str | None = None) -> None:
    """Flat comma-separated table: the header of ``columns``, then ``rows``.

    A provenance comment line leads when the caller supplies the hash of
    the configuration that produced the rows.
    """
    lines = [] if config_hash is None else [f"# config_hash={config_hash}"]
    lines.append(",".join(columns))
    lines.extend(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def aggregate_reports(reports) -> MatchReport:
    """Micro-average: sum the counts, then recompute the rates."""
    tp = sum(r.tp for r in reports)
    fp = sum(r.fp for r in reports)
    fn = sum(r.fn for r in reports)
    correct = sum(r.correct for r in reports)
    return MatchReport.from_counts(tp, fp, fn, correct)
