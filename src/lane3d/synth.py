"""Seeded synthetic driving scenes for training and evaluation.

World lanes are quadratic in plan view, x(u) = c0 + c1*u + c2*u^2, with
linear height z(u) = h0 + h1*u, defined over a longitudinal extent
[u_min, u_max] (outside it the lane is invisible).  The ego vehicle
advances through the world over T frames; each frame's ground truth is
the same world lanes re-expressed exactly (closed form, no polyline
approximation) in that frame's ego coordinates at the anchor stations.

Per-anchor features are a documented linear embedding of each anchor's
true offsets, visibility, and class, plus Gaussian noise that is drawn
independently per frame — the one condition under which temporal fusion
has signal to exploit.  All geometry is drawn before any noise, so a
noise-free twin with the same seed carries identical lanes and poses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AnchorSet, Lane3D, build_default_anchors
from .heads import assign_targets

# per-anchor feature layout: [dx * X_SCALE | dz * Z_SCALE | visibility |
# one-hot category | zero padding].  Lateral offsets are compressed so that
# feature noise of sigma decodes to ~sigma/X_SCALE meters of lateral error.
# At the default sigma=0.25 one frame decodes to ~2 m of error, beyond
# the matching threshold; averaging frames is what buys reliability.
X_SCALE = 0.125
Z_SCALE = 1.0

BACKGROUND_CLASS = 0


@dataclass(frozen=True)
class SceneConfig:
    """Everything that parameterizes scene generation (seed lives apart)."""

    num_lanes_range: tuple = (2, 4)
    lateral_offset_range: tuple = (-8.0, 8.0)
    slope_range: tuple = (-0.02, 0.02)
    curvature_range: tuple = (-0.004, 0.004)
    height_range: tuple = (-0.2, 0.2)
    height_slope_range: tuple = (-0.005, 0.005)
    extent_start_range: tuple = (-5.0, 25.0)
    extent_length_range: tuple = (50.0, 110.0)
    min_lane_separation: float = 2.5
    noise_sigma: float = 0.25
    ego_speed_range: tuple = (8.0, 15.0)
    yaw_rate_range: tuple = (-0.02, 0.02)
    frame_gap: float = 0.1
    num_frames: int = 3
    num_anchors: int = 40
    channels: int = 128
    num_classes: int = 5  # background + 4 lane categories
    lateral_span: tuple = (-10.0, 10.0)
    stations: tuple = tuple(np.linspace(3.0, 103.0, 20))

    def __post_init__(self):
        for name in (
            "num_lanes_range",
            "lateral_offset_range",
            "slope_range",
            "curvature_range",
            "height_range",
            "height_slope_range",
            "extent_start_range",
            "extent_length_range",
            "ego_speed_range",
            "yaw_rate_range",
            "lateral_span",
        ):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"SceneConfig: {name} must be (lo, hi) with lo <= hi")
        if self.num_lanes_range[0] < 1:
            raise ValueError("SceneConfig: need at least one lane")
        if self.num_frames < 1 or self.num_anchors < 1:
            raise ValueError("SceneConfig: num_frames and num_anchors must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("SceneConfig: noise sigma must be non-negative")
        if self.frame_gap <= 0:
            raise ValueError("SceneConfig: frame gap must be positive")
        if self.num_classes < 2:
            raise ValueError("SceneConfig: need background plus >= 1 lane class")
        st = np.asarray(self.stations, dtype=np.float64)
        if st.ndim != 1 or st.shape[0] < 1 or (st.shape[0] > 1 and not np.all(np.diff(st) > 0)):
            raise ValueError("SceneConfig: stations must be strictly increasing")
        object.__setattr__(self, "stations", tuple(float(s) for s in st))
        needed = 3 * st.shape[0] + self.num_classes
        if self.channels < needed:
            raise ValueError(
                f"SceneConfig: channels {self.channels} below the {needed} needed by the encoding"
            )

    @property
    def num_stations(self) -> int:
        return len(self.stations)

    def anchors(self) -> AnchorSet:
        return build_default_anchors(
            self.num_anchors, self.lateral_span, np.asarray(self.stations)
        )


@dataclass(frozen=True)
class WorldLane:
    """One lane in world coordinates, quadratic plan + linear height."""

    c0: float
    c1: float
    c2: float
    h0: float
    h1: float
    u_min: float
    u_max: float
    category: int

    def plan_x(self, u):
        return self.c0 + self.c1 * u + self.c2 * u * u

    def height(self, u):
        return self.h0 + self.h1 * u


@dataclass(frozen=True)
class Pose:
    """Ego pose in world coordinates; yaw rotates the heading."""

    x: float
    y: float
    yaw: float


@dataclass(frozen=True)
class FrameRecord:
    lanes: tuple
    features: np.ndarray  # (K, C)


@dataclass(frozen=True)
class SceneSequence:
    """T frames of ground truth + features under known ego motion.

    ego_motion[t] = (forward displacement, yaw change) moving from frame
    t-1 to frame t; row 0 is (0, 0).
    """

    frames: tuple
    ego_motion: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "ego_motion", np.asarray(self.ego_motion, dtype=np.float64)
        )
        if self.ego_motion.shape != (len(self.frames), 2):
            raise ValueError("SceneSequence: ego_motion must be (T, 2)")

    @property
    def num_frames(self) -> int:
        return len(self.frames)


def sample_lane_in_frame(lane: WorldLane, pose: Pose, stations) -> Lane3D:
    """Exact closed-form sampling of a world lane at ego-frame stations.

    For station s, the world parameter u solves the quadratic
    -sin(yaw)*c2*u^2 + (cos(yaw) - sin(yaw)*c1)*u
        - sin(yaw)*(c0 - px) - cos(yaw)*py - s = 0,
    taking the root nearest the straight-motion estimate py + s.
    Visibility is 1 where u lies inside the lane extent.
    """
    stations = np.asarray(stations, dtype=np.float64)
    sin, cos = np.sin(pose.yaw), np.cos(pose.yaw)
    a = -sin * lane.c2
    b = cos - sin * lane.c1
    c = -sin * (lane.c0 - pose.x) - cos * pose.y - stations
    guess = pose.y + stations
    if abs(a) < 1e-14:
        u = -c / b
        solved = np.ones_like(u, dtype=bool)
    else:
        disc = b * b - 4.0 * a * c
        solved = disc >= 0.0
        root = np.sqrt(np.maximum(disc, 0.0))
        u1 = (-b + root) / (2.0 * a)
        u2 = (-b - root) / (2.0 * a)
        u = np.where(np.abs(u1 - guess) <= np.abs(u2 - guess), u1, u2)
        u = np.where(solved, u, -c / b)  # linear fallback keeps values finite
    xw = lane.plan_x(u)
    lateral = cos * (xw - pose.x) + sin * (u - pose.y)
    visible = solved & (u >= lane.u_min) & (u <= lane.u_max)
    return Lane3D(
        stations=stations,
        x=lateral,
        z=lane.height(u),
        visibility=visible.astype(np.float64),
        category=lane.category,
    )


def _draw_world_lanes(rng, config: SceneConfig):
    lo, hi = config.num_lanes_range
    count = int(rng.integers(lo, hi + 1))
    span_lo, span_hi = config.lateral_offset_range
    for _ in range(100):
        offsets = np.sort(rng.uniform(span_lo, span_hi, size=count))
        if count == 1 or np.all(np.diff(offsets) >= config.min_lane_separation):
            break
    lanes = []
    for c0 in offsets:
        start = rng.uniform(*config.extent_start_range)
        length = rng.uniform(*config.extent_length_range)
        lanes.append(
            WorldLane(
                c0=float(c0),
                c1=float(rng.uniform(*config.slope_range)),
                c2=float(rng.uniform(*config.curvature_range)),
                h0=float(rng.uniform(*config.height_range)),
                h1=float(rng.uniform(*config.height_slope_range)),
                u_min=float(start),
                u_max=float(start + length),
                category=int(rng.integers(1, config.num_classes)),
            )
        )
    return lanes


def _draw_poses(rng, config: SceneConfig):
    pose = Pose(
        x=float(rng.uniform(-0.5, 0.5)),
        y=float(rng.uniform(-1.0, 1.0)),
        yaw=float(rng.uniform(-0.05, 0.05)),
    )
    speed = float(rng.uniform(*config.ego_speed_range))
    poses = [pose]
    motion = [(0.0, 0.0)]
    for _ in range(config.num_frames - 1):
        forward = speed * config.frame_gap
        yaw_change = float(rng.uniform(*config.yaw_rate_range))
        sin, cos = np.sin(pose.yaw), np.cos(pose.yaw)
        pose = Pose(
            x=pose.x - sin * forward,
            y=pose.y + cos * forward,
            yaw=pose.yaw + yaw_change,
        )
        poses.append(pose)
        motion.append((forward, yaw_change))
    return poses, np.array(motion)


def _lateral_noise_basis(num_stations: int) -> np.ndarray:
    """Orthonormal quadratic basis over the stations, variance-calibrated.

    Columns span {1, y, y^2} on a normalized grid; the sqrt(S/3) factor
    makes the station-averaged variance of basis @ N(0, I_3) exactly 1,
    so sigma keeps its usual meaning on the lateral block.
    """
    y = np.linspace(-1.0, 1.0, num_stations)
    vander = np.stack([np.ones_like(y), y, y * y], axis=1)
    q, _ = np.linalg.qr(vander)
    return q * np.sqrt(num_stations / 3.0)


def generate_scene(seed: int, config: SceneConfig | None = None) -> SceneSequence:
    """Deterministic scene: same seed, same config, bitwise-same output.

    World lanes that lose all visible stations in any frame are dropped
    up front so every frame lists the same world lanes.  Noise is drawn
    after all geometry, so sigma only affects the feature arrays.

    Noise on the lateral-offset block is a random quadratic per anchor
    per frame (fresh coefficients every frame) rather than independent
    per station.  True lanes are quadratics too, so within one frame
    this noise is indistinguishable from lane shape and no amount of
    cross-station pooling removes it; averaging frames does.  Remaining
    channels get independent Gaussian noise of the same sigma.
    """
    config = SceneConfig() if config is None else config
    if config.num_stations < 3:
        raise ValueError(
            f"generate_scene: stations: the quadratic lateral noise basis needs at least "
            f"3 stations, got {config.num_stations}"
        )
    rng = np.random.default_rng(int(seed))
    anchors = config.anchors()
    stations = np.asarray(config.stations)

    world_lanes = _draw_world_lanes(rng, config)
    poses, ego_motion = _draw_poses(rng, config)

    keep = []
    for lane in world_lanes:
        sampled = [sample_lane_in_frame(lane, pose, stations) for pose in poses]
        if all(s.visibility.sum() >= 1.0 for s in sampled):
            keep.append(sampled)
    per_frame = [tuple(column[t] for column in keep) for t in range(config.num_frames)]

    # one anchor-to-lane assignment for the whole sequence, taken on the
    # newest frame: an anchor's feature then tracks the same world lane
    # through every frame (each frame in its own coordinates), the way a
    # backbone would pool the same anchor region with ego compensation
    assignment = assign_targets(anchors, list(per_frame[-1]))

    # the feature layout for all anchors at once; anchors without a lane
    # carry only the BACKGROUND_CLASS one-hot
    s = len(stations)
    rows = np.flatnonzero(assignment.lane_for_anchor >= 0)
    lane_of_row = assignment.lane_for_anchor[rows]
    classes = np.full(config.num_anchors, BACKGROUND_CLASS)
    classes[rows] = [per_frame[-1][j].category for j in lane_of_row]
    frames = []
    for lanes_t in per_frame:
        # offsets are encoded over the full analytic curve; the
        # visibility block alone says which stations count
        truth = np.array([(lane.x, lane.z, lane.visibility) for lane in lanes_t])
        x, z, visibility = truth.reshape(-1, 3, s)[lane_of_row].transpose(1, 0, 2)
        features = np.zeros((config.num_anchors, config.channels))
        features[rows, :s] = (x - anchors.base_x[rows]) * X_SCALE
        features[rows, s : 2 * s] = (z - anchors.base_z[rows]) * Z_SCALE
        features[rows, 2 * s : 3 * s] = visibility
        features[np.arange(config.num_anchors), 3 * s + classes] = 1.0
        frames.append(FrameRecord(lanes=lanes_t, features=features))

    # noise last: the sigma=0 twin of a seed shares every lane and pose
    basis = _lateral_noise_basis(s)
    noisy_frames = []
    for record in frames:
        coeff = rng.normal(size=(config.num_anchors, 3))
        rest = rng.normal(size=(config.num_anchors, config.channels - s))
        noise = np.concatenate([coeff @ basis.T, rest], axis=1) * config.noise_sigma
        noisy_frames.append(FrameRecord(lanes=record.lanes, features=record.features + noise))
    return SceneSequence(frames=tuple(noisy_frames), ego_motion=ego_motion, seed=int(seed))


def generate_dataset(base_seed: int, count: int, config: SceneConfig | None = None):
    """Scenes for seeds base_seed .. base_seed + count - 1."""
    return [generate_scene(base_seed + i, config) for i in range(count)]

