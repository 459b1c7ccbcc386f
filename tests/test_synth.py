"""Synthetic scene generation: determinism, geometry consistency, feature layout."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from lane3d.cli import read_scene_dir, write_scene_dir
from lane3d.config import from_dict, to_dict
from lane3d.geometry import transform_points
from lane3d.heads import assign_targets
from lane3d.synth import (
    BACKGROUND_CLASS,
    X_SCALE,
    Z_SCALE,
    Pose,
    SceneConfig,
    WorldLane,
    generate_dataset,
    generate_scene,
    sample_lane_in_frame,
)

# small config keeps per-test generation cheap
SMALL = SceneConfig(
    num_anchors=8,
    channels=20,
    num_classes=4,
    stations=(5.0, 15.0, 25.0, 35.0),
    lateral_span=(-6.0, 6.0),
    lateral_offset_range=(-5.0, 5.0),
)


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(num_lanes_range=(3, 2))
    with pytest.raises(ValueError):
        SceneConfig(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SceneConfig(channels=10)  # below 3S + classes
    with pytest.raises(ValueError):
        SceneConfig(stations=(5.0, 5.0))


def test_config_roundtrip():
    cfg = from_dict(SceneConfig, json.loads(json.dumps(to_dict(SMALL))))
    assert cfg == SMALL


def test_same_seed_is_bitwise_identical():
    a = generate_scene(7, SMALL)
    b = generate_scene(7, SMALL)
    assert a.num_frames == b.num_frames
    assert np.array_equal(a.ego_motion, b.ego_motion)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.features, fb.features)
        assert len(fa.lanes) == len(fb.lanes)
        for la, lb in zip(fa.lanes, fb.lanes):
            assert np.array_equal(la.x, lb.x)
            assert np.array_equal(la.z, lb.z)
            assert np.array_equal(la.visibility, lb.visibility)
            assert la.category == lb.category


def test_different_seeds_differ():
    a = generate_scene(1, SMALL)
    b = generate_scene(2, SMALL)
    assert not np.array_equal(a.frames[0].features, b.frames[0].features)


def test_lanes_persist_across_frames():
    for seed in range(10):
        scene = generate_scene(seed, SMALL)
        counts = {len(f.lanes) for f in scene.frames}
        assert len(counts) == 1
        cats = [tuple(l.category for l in f.lanes) for f in scene.frames]
        assert all(c == cats[0] for c in cats)
        for f in scene.frames:
            for lane in f.lanes:
                assert lane.visibility.sum() >= 1.0


def test_noise_free_twin_shares_geometry():
    noisy_cfg = SMALL
    clean_cfg = replace(SMALL, noise_sigma=0.0)
    noisy = generate_scene(11, noisy_cfg)
    clean = generate_scene(11, clean_cfg)
    for fn, fc in zip(noisy.frames, clean.frames):
        for ln, lc in zip(fn.lanes, fc.lanes):
            assert np.array_equal(ln.x, lc.x)
            assert np.array_equal(ln.visibility, lc.visibility)
    assert not np.array_equal(noisy.frames[0].features, clean.frames[0].features)


def test_zero_noise_features_are_the_documented_layout():
    # [dx * X_SCALE | dz * Z_SCALE | visibility | one-hot category | 0] for
    # the anchor's assigned lane, and the BACKGROUND_CLASS one-hot alone
    # for every other anchor, bit for bit
    clean_cfg = replace(SMALL, noise_sigma=0.0)
    anchors = clean_cfg.anchors()
    s, k = clean_cfg.num_stations, clean_cfg.num_anchors
    background = np.zeros(clean_cfg.channels)
    background[3 * s + BACKGROUND_CLASS] = 1.0
    for seed in range(8):
        scene = generate_scene(seed, clean_cfg)
        lane_of = assign_targets(anchors, list(scene.frames[-1].lanes)).lane_for_anchor
        assert np.any(lane_of >= 0) and np.any(lane_of < 0)
        for record in scene.frames:
            for a in range(k):
                if lane_of[a] < 0:
                    assert record.features[a].tobytes() == background.tobytes()
                    continue
                lane = record.lanes[lane_of[a]]
                want = np.zeros(clean_cfg.channels)
                want[:s] = (lane.x - anchors.base_x[a]) * X_SCALE
                want[s : 2 * s] = (lane.z - anchors.base_z[a]) * Z_SCALE
                want[2 * s : 3 * s] = lane.visibility
                want[3 * s + lane.category] = 1.0
                assert record.features[a].tobytes() == want.tobytes()


def test_transform_points_straight_motion():
    # 10 m/s at 0.1 s gap: a world point at y=10 appears at y=9 next frame
    out = transform_points(np.array([[0.0, 10.0, 0.3]]), forward=1.0, yaw_change=0.0)
    assert np.allclose(out, [[0.0, 9.0, 0.3]], atol=1e-15)


def test_transform_points_pure_yaw():
    out = transform_points(np.array([[1.0, 0.0, 0.0]]), forward=0.0, yaw_change=np.pi / 2)
    assert np.allclose(out, [[0.0, -1.0, 0.0]], atol=1e-12)


def _advance(pose: Pose, forward: float, yaw_change: float) -> Pose:
    sin, cos = np.sin(pose.yaw), np.cos(pose.yaw)
    return Pose(x=pose.x - sin * forward, y=pose.y + cos * forward,
                yaw=pose.yaw + yaw_change)


def test_reexpression_consistency_exact():
    # frame t's samples, rigidly moved by the ego motion, land on frame
    # t+1's analytic curve to machine precision
    stations = np.linspace(3.0, 103.0, 20)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        lane = WorldLane(
            c0=rng.uniform(-8, 8), c1=rng.uniform(-0.02, 0.02),
            c2=rng.uniform(-0.002, 0.002), h0=rng.uniform(-0.2, 0.2),
            h1=rng.uniform(-0.005, 0.005), u_min=-50.0, u_max=250.0, category=1,
        )
        pose = Pose(rng.uniform(-0.5, 0.5), rng.uniform(-1, 1), rng.uniform(-0.05, 0.05))
        forward = rng.uniform(0.8, 1.5)
        yaw_change = rng.uniform(-0.02, 0.02)
        pose2 = _advance(pose, forward, yaw_change)

        first = sample_lane_in_frame(lane, pose, stations)
        moved = transform_points(first.points(), forward, yaw_change)
        inside = (moved[:, 1] >= stations[0]) & (moved[:, 1] <= stations[-1])
        assert inside.sum() >= 10
        again = sample_lane_in_frame(lane, pose2, moved[inside, 1])
        assert np.max(np.abs(again.x - moved[inside, 0])) < 1e-9
        assert np.max(np.abs(again.z - moved[inside, 2])) < 1e-9


def test_frame_average_variance_drops_as_one_over_t():
    cfg = SceneConfig(
        num_anchors=4, channels=16, num_classes=4,
        stations=(5.0, 15.0, 25.0, 35.0), lateral_span=(-6.0, 6.0),
        lateral_offset_range=(-5.0, 5.0), noise_sigma=0.5,
        ego_speed_range=(0.0, 0.0), yaw_rate_range=(0.0, 0.0),
    )
    clean_cfg = replace(cfg, noise_sigma=0.0)
    t = cfg.num_frames
    s = cfg.num_stations
    single, averaged = [], []
    for seed in range(1000):
        noisy = generate_scene(seed, cfg)
        clean = generate_scene(seed, clean_cfg)
        # lateral noise is correlated across stations within a frame, so
        # the sigma calibration holds for the station-averaged variance
        truth = clean.frames[0].features[0, :s]
        frames = [f.features[0, :s] for f in noisy.frames]
        single.append(frames[0] - truth)
        averaged.append(np.mean(frames, axis=0) - truth)
    var_single = np.var(np.asarray(single), axis=0).mean()
    var_avg = np.var(np.asarray(averaged), axis=0).mean()
    assert abs(var_single - cfg.noise_sigma**2) / cfg.noise_sigma**2 < 0.10
    assert abs(var_avg - cfg.noise_sigma**2 / t) / (cfg.noise_sigma**2 / t) < 0.10


def test_scene_write_read_roundtrip(tmp_path):
    scene = generate_scene(5, SMALL)
    write_scene_dir(tmp_path / "scene_0005", scene, "cafe00112233")
    again = read_scene_dir(tmp_path / "scene_0005")
    assert again.seed == scene.seed
    assert again.ego_motion.tobytes() == scene.ego_motion.tobytes()
    assert len(again.frames) == len(scene.frames)
    for fa, fb in zip(again.frames, scene.frames):
        assert fa.features.dtype == fb.features.dtype
        assert fa.features.tobytes() == fb.features.tobytes()
        for la, lb in zip(fa.lanes, fb.lanes):
            assert np.array_equal(la.x, lb.x)
            assert np.array_equal(la.visibility, lb.visibility)
            assert la.category == lb.category


def test_single_frame_scene():
    cfg = replace(SMALL, num_frames=1)
    scene = generate_scene(9, cfg)
    assert scene.num_frames == 1
    assert np.array_equal(scene.ego_motion, [[0.0, 0.0]])


def test_generate_scene_rejects_fewer_than_three_stations():
    # SceneConfig accepts two stations (the gradient audit's scene has two);
    # only scene synthesis needs the three of the quadratic noise basis
    config = SceneConfig(stations=(5.0, 25.0))
    with pytest.raises(ValueError, match=r"stations: .* at least 3 stations, got 2"):
        generate_dataset(0, 1, config)
