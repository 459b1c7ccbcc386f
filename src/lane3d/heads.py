"""Detection heads over per-anchor features, and anchor-target assignment.

Each anchor's (fused) C-vector passes through a shared hidden layer
(width C, relu) and three affine heads producing lateral/height offsets
per station, visibility logits per station, and class logits.  Outputs
are raw; training.predict_frames decodes them into lanes.

Assignment gives every ground-truth lane the anchor with minimum mean
lateral distance under a global one-to-one minimum-cost matching;
near-miss anchors become ignore, the rest background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .geometry import AnchorSet, Lane3D, resample_lane

BACKGROUND = -1
IGNORE = -2

HEAD_PARAM_NAMES = (
    "hidden_w",
    "hidden_b",
    "offset_w",
    "offset_b",
    "vis_w",
    "vis_b",
    "cls_w",
    "cls_b",
)

POSITIVE_THRESHOLD = 1.0


@dataclass(frozen=True)
class HeadParameters:
    """A shared (C, C) relu hidden layer, then three affine heads.

    offset head emits 2S values per anchor: delta-x for all stations,
    then delta-z for all stations.
    """

    offset_w: np.ndarray
    offset_b: np.ndarray
    vis_w: np.ndarray
    vis_b: np.ndarray
    cls_w: np.ndarray
    cls_b: np.ndarray
    hidden_w: np.ndarray
    hidden_b: np.ndarray

    def __post_init__(self):
        for name in HEAD_PARAM_NAMES:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        c = self.offset_w.shape[1]
        two_s = self.offset_w.shape[0]
        if two_s % 2 != 0:
            raise ValueError("HeadParameters: offset head must emit 2S values")
        s = two_s // 2
        if self.offset_b.shape != (two_s,):
            raise ValueError("HeadParameters: offset bias shape mismatch")
        if self.vis_w.shape != (s, c) or self.vis_b.shape != (s,):
            raise ValueError("HeadParameters: visibility head shape mismatch")
        if self.cls_w.shape[1] != c or self.cls_b.shape != (self.cls_w.shape[0],):
            raise ValueError("HeadParameters: class head shape mismatch")
        if self.hidden_w.shape != (c, c) or self.hidden_b.shape != (c,):
            raise ValueError("HeadParameters: hidden layer must be (C, C) + (C,)")

    @property
    def channels(self) -> int:
        return self.offset_w.shape[1]

    @property
    def num_stations(self) -> int:
        return self.offset_w.shape[0] // 2

    @property
    def num_classes(self) -> int:
        return self.cls_w.shape[0]

    @staticmethod
    def initialize(
        channels: int,
        num_stations: int,
        num_classes: int,
        rng=None,
    ) -> "HeadParameters":
        if num_classes < 2:
            raise ValueError("HeadParameters.initialize: need >= 2 classes")
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        scale = 1.0 / np.sqrt(channels)
        u = lambda *shape: rng.uniform(-scale, scale, size=shape)
        return HeadParameters(
            hidden_w=u(channels, channels),
            hidden_b=u(channels),
            offset_w=u(2 * num_stations, channels),
            offset_b=u(2 * num_stations),
            vis_w=u(num_stations, channels),
            vis_b=u(num_stations),
            cls_w=u(num_classes, channels),
            cls_b=u(num_classes),
        )


def _as_head_vars(params) -> dict:
    if isinstance(params, HeadParameters):
        return {name: ad.Var(getattr(params, name)) for name in HEAD_PARAM_NAMES}
    return {name: ad.as_var(params[name]) for name in HEAD_PARAM_NAMES}


def head_forward(features, params):
    """Map (K, C) features to raw head outputs.

    Returns Vars (delta_x, delta_z, visibility_logits, class_logits) of
    shapes (K, S), (K, S), (K, S), (K, num_classes).
    """
    p = _as_head_vars(params)
    x = ad.as_var(features)
    if x.ndim != 2 or x.shape[1] != p["offset_w"].shape[1]:
        raise ValueError("head_forward: features must be (K, C) matching the heads")
    h = ad.relu(x @ p["hidden_w"].T + p["hidden_b"])
    offsets = h @ p["offset_w"].T + p["offset_b"]
    vis = h @ p["vis_w"].T + p["vis_b"]
    cls = h @ p["cls_w"].T + p["cls_b"]
    s = p["offset_w"].shape[0] // 2
    return offsets[:, :s], offsets[:, s:], vis, cls


@dataclass(frozen=True)
class AnchorAssignment:
    """Per-anchor role: gt lane index (>= 0), BACKGROUND, or IGNORE."""

    lane_for_anchor: np.ndarray
    cost: np.ndarray  # (num_lanes, K) mean lateral distances

    @property
    def positive_pairs(self):
        """(anchor, lane) pairs in lane order."""
        pairs = [
            (k, int(lane))
            for k, lane in enumerate(self.lane_for_anchor)
            if lane >= 0
        ]
        return sorted(pairs, key=lambda p: p[1])


def mean_lateral_distance(anchors: AnchorSet, lane: Lane3D) -> np.ndarray:
    """Per-anchor mean |base_x - lane_x| over the anchor stations covered
    by the lane (lanes off the station grid are linearly resampled)."""
    inside = (anchors.stations >= lane.stations[0]) & (anchors.stations <= lane.stations[-1])
    if not np.any(inside):
        return np.full(anchors.num_anchors, np.inf)
    if lane.stations.shape == anchors.stations.shape and np.allclose(
        lane.stations, anchors.stations
    ):
        x = lane.x
        cols = np.ones_like(anchors.stations, dtype=bool)
    else:
        resampled = resample_lane(lane, anchors.stations[inside])
        x = resampled.x
        cols = inside
    return np.abs(anchors.base_x[:, cols] - x).mean(axis=1)


def assign_targets(
    anchors: AnchorSet,
    gt_lanes,
    positive_threshold: float = POSITIVE_THRESHOLD,
) -> AnchorAssignment:
    """Globally optimal lane-to-anchor assignment.

    Each lane takes one anchor, chosen jointly to minimize the total mean
    lateral distance; unchosen anchors within positive_threshold of some
    lane are marked IGNORE, everything else BACKGROUND.
    """
    if positive_threshold <= 0.0:
        raise ValueError("assign_targets: positive threshold must be > 0")
    k = anchors.num_anchors
    lane_for_anchor = np.full(k, BACKGROUND, dtype=np.int64)
    if len(gt_lanes) == 0:
        return AnchorAssignment(lane_for_anchor, np.zeros((0, k)))
    cost = np.stack([mean_lateral_distance(anchors, lane) for lane in gt_lanes])
    rows, cols = linear_sum_assignment(cost)
    near = np.any(cost <= positive_threshold, axis=0)
    lane_for_anchor[near] = IGNORE
    for lane_idx, anchor_idx in zip(rows, cols):
        lane_for_anchor[anchor_idx] = lane_idx
    return AnchorAssignment(lane_for_anchor, cost)
