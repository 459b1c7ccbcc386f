"""What the scene generator produces and why it is learnable.

Prints one scene in detail: world lanes sampled into per-frame ego
coordinates, the anchor family, the encoded per-anchor features, and
the effect of the structured lateral noise. With sigma = 0 the feature
block decodes back to the exact anchor offsets; with noise, averaging
across frames recovers them, which is precisely the signal the
temporal fusion is there to exploit.
"""

import numpy as np

from lane3d.synth import X_SCALE, SceneConfig, generate_scene


def describe_scene():
    config = SceneConfig(num_frames=3)
    scene = generate_scene(7, config)
    anchors = config.anchors()
    print(f"frames: {scene.num_frames}, anchors: {config.num_anchors}, "
          f"channels: {config.channels}")
    print(f"ego motion per step (forward m, yaw rad):")
    for row in scene.ego_motion:
        print(f"  forward={row[0]:7.3f}  yaw={row[1]:+.5f}")
    last = scene.frames[-1]
    print(f"\nlast frame carries {len(last.lanes)} lanes:")
    for i, lane in enumerate(last.lanes):
        vis = lane.visible_mask()
        span = (lane.stations[vis][0], lane.stations[vis][-1]) if vis.any() else (0, 0)
        print(
            f"  lane {i}: category {lane.category}, "
            f"x(3m)={lane.x[0]:+.2f}, visible span {span[0]:.0f}-{span[1]:.0f} m"
        )
    return config, scene, anchors


def decode_matches_truth():
    print("\n== sigma = 0: features are an exact linear encoding ==")
    config = SceneConfig(noise_sigma=0.0)
    scene = generate_scene(3, config)
    anchors = config.anchors()
    s, c = config.num_stations, config.num_classes
    frame = scene.frames[-1]
    # the layout: [dx * X_SCALE | dz * Z_SCALE | visibility | one-hot category | 0]
    visibility = frame.features[:, 2 * s : 3 * s]
    # pick the strongest anchor: largest visibility block
    k = int(np.argmax(visibility.sum(axis=1)))
    dx, vis = frame.features[k, :s] / X_SCALE, visibility[k]
    category = int(np.argmax(frame.features[k, 3 * s : 3 * s + c]))
    print(f"anchor {k}: decoded category {category}, "
          f"{int((vis > 0.5).sum())} visible stations")
    for lane in frame.lanes:
        err = np.abs((lane.x - anchors.base_x[k]) - dx)
        if err.max() < 1e-9:
            print(f"  matches a lane exactly: max offset error {err.max():.1e}")


def noise_is_quadratic_within_a_frame():
    print("\n== structured lateral noise ==")
    config = SceneConfig(noise_sigma=0.25)
    clean = generate_scene(11, SceneConfig(noise_sigma=0.0))
    noisy = generate_scene(11, config)
    s = config.num_stations
    lateral = noisy.frames[0].features[:, :s] - clean.frames[0].features[:, :s]
    # fit a quadratic to each anchor's lateral noise; the residual is ~0
    y = np.linspace(-1.0, 1.0, s)
    design = np.stack([np.ones(s), y, y * y], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, lateral.T, rcond=None)
    residual = lateral.T - design @ coeffs
    print(f"per-frame lateral noise: rms {lateral.std():.3f}, "
          f"quadratic-fit residual {np.abs(residual).max():.2e}")
    print("a single frame cannot tell this noise from lane shape;")
    print("only cross-frame aggregation averages it away")


if __name__ == "__main__":
    describe_scene()
    decode_matches_truth()
    noise_is_quadratic_within_a_frame()
