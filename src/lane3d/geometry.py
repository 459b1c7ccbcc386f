"""3D lanes, fixed anchors, resampling, the ego-motion transform, lane files.

Frame convention: ego-vehicle frame with y forward (the longitudinal
stations), x lateral, z up, every coordinate in meters.  Anchors are
straight axis-parallel rays on the ground plane: constant base lateral
per anchor, base height 0; all curvature lives in the predicted offsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

VISIBILITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class Lane3D:
    """One lane sampled at longitudinal stations.

    visibility is a soft score in [0,1] per station; thresholding is the
    consumer's job (see ``visible_mask``).
    """

    stations: np.ndarray
    x: np.ndarray
    z: np.ndarray
    visibility: np.ndarray
    category: int

    def __post_init__(self):
        for name in ("stations", "x", "z", "visibility"):
            value = getattr(self, name)
            if type(value) is not np.ndarray or value.dtype != np.float64:
                object.__setattr__(self, name, np.asarray(value, dtype=np.float64))
        stations, visibility = self.stations, self.visibility
        n = stations.shape[0]
        if self.x.shape != (n,) or self.z.shape != (n,) or visibility.shape != (n,):
            raise ValueError("Lane3D: stations, x, z, visibility must share one length")
        if n >= 2 and not (stations[..., 1:] > stations[..., :-1]).all():
            raise ValueError("Lane3D: stations must be strictly increasing")
        for name in ("x", "z"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"Lane3D: {name} must be finite")
        # negated, so that NaN, which fails both comparisons, is rejected too
        if not ((visibility >= 0.0).all() and (visibility <= 1.0).all()):
            raise ValueError("Lane3D: visibility must lie in [0, 1]")

    def visible_mask(self) -> np.ndarray:
        return self.visibility >= VISIBILITY_THRESHOLD

    def points(self) -> np.ndarray:
        """All stations as (n, 3) points in (x, y, z) order."""
        return np.stack([self.x, self.stations, self.z], axis=1)

    def to_dict(self) -> dict:
        return {
            "stations": self.stations.tolist(),
            "x": self.x.tolist(),
            "z": self.z.tolist(),
            "visibility": self.visibility.tolist(),
            "category": int(self.category),
        }

    @staticmethod
    def from_dict(d: dict, where: str = "lane") -> "Lane3D":
        """The lane-file form: lists of finite numbers and a JSON integer
        category.  Errors name ``where`` and the field; a missing field
        raises KeyError and a non-object entry TypeError."""
        arrays = {}
        for name in ("stations", "x", "z", "visibility"):
            values = d[name]
            if not isinstance(values, list) or not all(
                type(v) is float or type(v) is int for v in values
            ):
                raise ValueError(f"{where}: {name}: expected a list of numbers")
            arrays[name] = np.array(values, dtype=np.float64)
            if not np.all(np.isfinite(arrays[name])):
                raise ValueError(f"{where}: {name}: non-finite values")
        category = d["category"]
        if type(category) is not int:
            raise ValueError(f"{where}: category: {category!r} is not an integer")
        try:
            return Lane3D(category=category, **arrays)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class AnchorSet:
    """Fixed straight anchors sharing one station list.

    base_x is (K, S): constant along stations for each anchor; base_z is
    (K, S) and zero for the default ground-plane layout.
    """

    stations: np.ndarray
    base_x: np.ndarray
    base_z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stations", np.asarray(self.stations, dtype=np.float64))
        object.__setattr__(self, "base_x", np.asarray(self.base_x, dtype=np.float64))
        object.__setattr__(self, "base_z", np.asarray(self.base_z, dtype=np.float64))
        if self.base_x.ndim != 2 or self.base_x.shape != self.base_z.shape:
            raise ValueError("AnchorSet: base_x and base_z must be (K, S) and equal shape")
        if self.base_x.shape[1] != self.stations.shape[0]:
            raise ValueError("AnchorSet: base geometry must match station count")
        if self.base_x.shape[0] < 1:
            raise ValueError("AnchorSet: need K >= 1 anchors")
        if not np.all(np.isfinite(self.base_x)) or not np.all(np.isfinite(self.base_z)):
            raise ValueError("AnchorSet: base geometry must be finite")
        if self.stations.shape[0] >= 2 and not np.all(np.diff(self.stations) > 0):
            raise ValueError("AnchorSet: stations must be strictly increasing")

    @property
    def num_anchors(self) -> int:
        return self.base_x.shape[0]

    @property
    def num_stations(self) -> int:
        return self.stations.shape[0]


def build_default_anchors(
    num_anchors: int, lateral_span: tuple[float, float], stations
) -> AnchorSet:
    """Straight anchors evenly spaced across the lateral span, height 0.

    A single anchor sits at the span midpoint; K >= 2 includes both span
    endpoints, so the spacing is (hi - lo) / (K - 1).
    """
    if num_anchors < 1:
        raise ValueError("build_default_anchors: need at least one anchor")
    lo, hi = float(lateral_span[0]), float(lateral_span[1])
    if not hi > lo:
        raise ValueError("build_default_anchors: lateral span must be increasing")
    stations = np.asarray(stations, dtype=np.float64)
    if stations.ndim != 1 or stations.shape[0] < 1:
        raise ValueError("build_default_anchors: stations must be a non-empty 1-d list")
    if stations.shape[0] >= 2 and not np.all(np.diff(stations) > 0):
        raise ValueError("build_default_anchors: stations must be strictly increasing")
    if num_anchors == 1:
        laterals = np.array([0.5 * (lo + hi)])
    else:
        laterals = np.linspace(lo, hi, num_anchors)
    base_x = np.repeat(laterals[:, None], stations.shape[0], axis=1)
    return AnchorSet(stations=stations, base_x=base_x, base_z=np.zeros_like(base_x))


def resample_lane(lane: Lane3D, target_stations) -> Lane3D:
    """Linear interpolation of x, z, v onto new stations; category kept.

    Extrapolation is refused: every target must fall inside the lane's
    station range.
    """
    target = np.asarray(target_stations, dtype=np.float64)
    if lane.stations.shape[0] < 2:
        raise ValueError("resample_lane: lane needs at least 2 stations")
    if target.ndim != 1 or target.shape[0] < 1:
        raise ValueError("resample_lane: target stations must be a non-empty 1-d list")
    lo, hi = lane.stations[0], lane.stations[-1]
    outside = (target < lo) | (target > hi)
    if np.any(outside):
        bad = target[outside][0]
        raise ValueError(
            f"resample_lane: target station {bad} outside lane range [{lo}, {hi}]"
        )
    return Lane3D(
        stations=target,
        x=np.interp(target, lane.stations, lane.x),
        z=np.interp(target, lane.stations, lane.z),
        visibility=np.interp(target, lane.stations, lane.visibility),
        category=lane.category,
    )


def transform_points(points: np.ndarray, forward: float, yaw_change: float) -> np.ndarray:
    """Re-express (x, y, z) ego points of frame t in frame t+1.

    The ego advances ``forward`` meters along its own heading and then
    yaws by ``yaw_change``: p' = R(-yaw_change) @ (p - (0, forward)).
    """
    pts = np.asarray(points, dtype=np.float64).copy()
    pts[:, 1] -= forward
    sin, cos = np.sin(-yaw_change), np.cos(-yaw_change)
    x = cos * pts[:, 0] - sin * pts[:, 1]
    y = sin * pts[:, 0] + cos * pts[:, 1]
    out = pts.copy()
    out[:, 0] = x
    out[:, 1] = y
    return out


def write_lane_file(path, lanes, config_hash: str | None = None) -> None:
    """Write lanes as a JSON document: {"lanes": [...]} plus provenance.

    Each lane object carries the normative fields stations, x, z,
    visibility (equal-length arrays) and integer category.
    """
    document = {"lanes": [lane.to_dict() for lane in lanes]}
    if config_hash is not None:
        document["config_hash"] = config_hash
    with open(path, "w") as fh:
        json.dump(document, fh, sort_keys=True)
        fh.write("\n")


def read_lane_file(path):
    """Read a lane file; accepts the wrapped form or a bare lane list.

    Each lane needs lists of finite numbers for ``stations``, ``x``,
    ``z`` and ``visibility`` and a JSON integer ``category``.  A bad lane
    is rejected with a message naming the file, the lane index and the
    field.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"lane file {path}: invalid JSON ({exc})") from None
    entries = document.get("lanes") if isinstance(document, dict) else document
    if not isinstance(entries, list):
        raise ValueError(f"lane file {path}: expected a list of lanes")
    lanes = []
    for index, entry in enumerate(entries):
        where = f"lane file {path}: lane {index}"
        try:
            lanes.append(Lane3D.from_dict(entry, where))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{where}: malformed lane entry ({exc})")
    return lanes
