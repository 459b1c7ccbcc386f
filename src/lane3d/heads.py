"""Detection heads over per-anchor features, and anchor-target assignment.

Each anchor's (fused) C-vector passes through a shared hidden layer
(width C, relu) and three affine heads producing lateral/height offsets
per station, visibility logits per station, and class logits.  Outputs
are raw; training.predict_frames decodes them into lanes.

Assignment takes ground truth sampled on the anchor stations, the grid
every offset target lives on, and rejects a lane that is not, by index.
It gives every lane the anchor with minimum mean lateral distance under
a global one-to-one minimum-cost matching; near-miss anchors become
ignore, the rest background.  That matching, and the lane matching of
``metrics``, is ``min_cost_assignment``, the one place the package
loads scipy's solver, on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import AnchorSet, on_grid

BACKGROUND = -1
IGNORE = -2

POSITIVE_THRESHOLD = 1.0


def head_forward(features, params):
    """Map (K, C) features to raw head outputs.

    Returns Vars (delta_x, delta_z, visibility_logits, class_logits) of
    shapes (K, S), (K, S), (K, S), (K, num_classes).  Reads a shared
    (C, C) relu hidden layer ``head.hidden_w``/``head.hidden_b``, then
    three affine heads: ``head.offset_*`` emits 2S values per anchor
    (delta-x for all stations, then delta-z), ``head.vis_*`` S values
    and ``head.cls_*`` num_classes values.
    """
    p = {name: ad.as_var(value) for name, value in params.items() if name.startswith("head.")}
    x = ad.as_var(features)
    if x.ndim != 2 or x.shape[1] != p["head.offset_w"].shape[1]:
        raise ValueError("head_forward: features must be (K, C) matching the heads")
    h = ad.relu(x @ p["head.hidden_w"].T + p["head.hidden_b"])
    offsets = h @ p["head.offset_w"].T + p["head.offset_b"]
    vis = h @ p["head.vis_w"].T + p["head.vis_b"]
    cls = h @ p["head.cls_w"].T + p["head.cls_b"]
    s = p["head.offset_w"].shape[0] // 2
    return offsets[:, :s], offsets[:, s:], vis, cls


@dataclass(frozen=True)
class AnchorAssignment:
    """Per-anchor role: gt lane index (>= 0), BACKGROUND, or IGNORE."""

    lane_for_anchor: np.ndarray
    cost: np.ndarray  # (num_lanes, K) mean lateral distances


def min_cost_assignment(cost):
    """(rows, cols) of a minimum-cost one-to-one assignment of a 2-D cost
    matrix: scipy's ``linear_sum_assignment``, imported here on the first
    call, so that a process that never assigns (the gradient audit, a
    command that exits before matching) never loads scipy.optimize."""
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)


def assign_targets(anchors: AnchorSet, gt_lanes) -> AnchorAssignment:
    """Globally optimal lane-to-anchor assignment.

    Ground truth must be sampled on the anchor stations; a lane that is
    not is rejected by index.  Each lane takes one anchor, chosen jointly
    to minimize the total mean lateral distance over the stations;
    unchosen anchors within POSITIVE_THRESHOLD of some lane are marked
    IGNORE, everything else BACKGROUND.
    """
    k = anchors.num_anchors
    lane_for_anchor = np.full(k, BACKGROUND, dtype=np.int64)
    if len(gt_lanes) == 0:
        return AnchorAssignment(lane_for_anchor, np.zeros((0, k)))
    for index, lane in enumerate(gt_lanes):
        if lane.stations.shape != anchors.stations.shape or not on_grid(
                lane.stations, anchors.stations):
            raise ValueError(f"assign_targets: ground-truth lane {index} is not "
                             "sampled on the anchor stations")
    x = np.array([lane.x for lane in gt_lanes])
    # an F-ordered base_x sums each (lane, anchor) mean station by station,
    # the order that fixes the bits of the cost, and so of every tie
    cost = np.abs(np.asfortranarray(anchors.base_x) - x[:, None]).mean(axis=2)
    rows, cols = min_cost_assignment(cost)
    near = np.any(cost <= POSITIVE_THRESHOLD, axis=0)
    lane_for_anchor[near] = IGNORE
    for lane_idx, anchor_idx in zip(rows, cols):
        lane_for_anchor[anchor_idx] = lane_idx
    return AnchorAssignment(lane_for_anchor, cost)
