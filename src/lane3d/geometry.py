"""3D lanes and lane stacks, fixed anchors, the ego-motion transform, lane files.

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


def _check_lanes(owner: str, stations, x, z, visibility, rows: tuple) -> None:
    """Lane3D's rules on one lane (rows ()) or N lanes (rows (N,)); errors name ``owner``."""
    if stations.ndim != 1:
        raise ValueError(f"{owner}: stations must be one-dimensional, not of shape {stations.shape}")
    shape = (*rows, stations.shape[0])
    if stations.shape[0] == 0:
        raise ValueError(f"{owner}: stations must hold at least one station")
    for name, value in (("x", x), ("z", z), ("visibility", visibility)):
        if value.shape != shape:
            raise ValueError(f"{owner}: stations, x, z, visibility must share one length: "
                             f"{name} has shape {value.shape}, not {shape}")
    if not (stations[1:] > stations[:-1]).all():
        raise ValueError(f"{owner}: stations must be strictly increasing")
    # increasing stations between finite ends are all finite, which ``on_grid`` needs
    if not (-np.inf < stations[0] and stations[-1] < np.inf):
        raise ValueError(f"{owner}: stations must be finite")
    for name, value in (("x", x), ("z", z)):
        if not np.isfinite(value).all():
            raise ValueError(f"{owner}: {name} must be finite")
    # negated, so that NaN, which fails both comparisons, is rejected too
    if not ((visibility >= 0.0).all() and (visibility <= 1.0).all()):
        raise ValueError(f"{owner}: visibility must lie in [0, 1]")


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
        _check_lanes("Lane3D", self.stations, self.x, self.z, self.visibility, ())

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
            try:
                arrays[name] = np.array(values, dtype=np.float64)
            except OverflowError:  # an integer beyond the float range
                raise ValueError(f"{where}: {name}: non-finite values") from None
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
class LaneStack:
    """Decoded lanes on one grid, checked at once by Lane3D's rules; ``stack[a]`` is a Lane3D."""

    stations: np.ndarray  # (S,)
    x: np.ndarray  # (N, S), as are z and visibility
    z: np.ndarray
    visibility: np.ndarray
    category: np.ndarray  # (N,)

    def __post_init__(self):
        _check_lanes("LaneStack", self.stations, self.x, self.z, self.visibility,
                     self.category.shape)

    def __len__(self) -> int:
        return self.category.shape[0]

    def __getitem__(self, row: int) -> Lane3D:
        return Lane3D(stations=self.stations, x=self.x[row], z=self.z[row],
                      visibility=self.visibility[row], category=int(self.category[row]))


@dataclass(frozen=True)
class AnchorSet:
    """Fixed straight anchors sharing one station list, as ``build_default_anchors`` checks them.

    base_x is (K, S): constant along stations for each anchor; base_z is
    (K, S) and zero for the default ground-plane layout.  All three arrays
    are read-only, so one set can be shared.
    """

    stations: np.ndarray
    base_x: np.ndarray
    base_z: np.ndarray

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
    if not -np.inf < lo < hi < np.inf:
        raise ValueError("build_default_anchors: lateral span must be finite and increasing")
    stations = np.array(stations, dtype=np.float64)  # a copy: it is made read-only below
    if stations.ndim != 1 or stations.shape[0] < 1:
        raise ValueError("build_default_anchors: stations must be a non-empty 1-d list")
    if not np.isfinite(stations).all():  # first: np.diff of two infinities warns
        raise ValueError("build_default_anchors: stations must be finite")
    if stations.shape[0] >= 2 and not np.all(np.diff(stations) > 0):
        raise ValueError("build_default_anchors: stations must be strictly increasing")
    if num_anchors == 1:
        laterals = np.array([0.5 * (lo + hi)])
    else:
        laterals = np.linspace(lo, hi, num_anchors)
    base_x = np.repeat(laterals[:, None], stations.shape[0], axis=1)
    anchors = AnchorSet(stations=stations, base_x=base_x, base_z=np.zeros_like(base_x))
    for array in (stations, base_x, anchors.base_z):
        array.flags.writeable = False  # one AnchorSet is shared by every caller
    return anchors


def on_grid(stations, grid):
    """Whether each row of ``stations`` is ``np.isclose`` to ``grid`` at every station.

    isclose's own test at its default tolerances, ``|a - b| <= atol +
    rtol·|b|`` with rtol 1e-5 and atol 1e-8, without numpy's Python
    wrapper.  It equals isclose wherever ``grid`` is finite, as the
    stations of every lane, lane stack and anchor set are.  A 1-d
    ``stations`` gives one bool.
    """
    return (np.abs(stations - grid) <= 1e-8 + 1e-5 * np.abs(grid)).all(axis=-1)


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
        # json.dumps runs the C encoder; json.dump runs the pure-Python one
        fh.write(json.dumps(document, sort_keys=True) + "\n")


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
        except (ValueError, RecursionError) as exc:
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
