import gc
import hashlib
import itertools
import json
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import lane3d.autodiff as ad
import lane3d.metrics as metrics_module
import lane3d.training as training_module
from lane3d.checks import KINK_MARGIN, STEP, TOLERANCE, corrupt_gradient
from lane3d.config import RunConfiguration, from_dict, to_dict
from lane3d.geometry import VISIBILITY_THRESHOLD, Lane3D, LaneStack
from lane3d.heads import BACKGROUND, IGNORE, assign_targets, head_forward
from lane3d.losses import (
    TASK_NAMES,
    LossConfig,
    balanced_l1_vector,
    chamfer,
    combine_uncertainty,
    dice,
    focal,
)
from lane3d.synth import (
    BACKGROUND_CLASS,
    FrameRecord,
    SceneConfig,
    SceneSequence,
    generate_dataset,
    generate_scene,
)
from lane3d.temporal import fuse_all_anchors
from lane3d.training import (
    PARAM_ORDER,
    AdamOptimizer,
    TrainConfig,
    TrainingDiverged,
    _equidistant_points,
    batch_gradients,
    curve_ramp_weight,
    evaluate_model,
    init_parameters,
    load_checkpoint,
    predict_frames,
    prepare_batch,
    run_ablation,
    ablation_table,
    save_checkpoint,
    scene_loss,
    train,
)

SMALL = SceneConfig(
    num_lanes_range=(1, 2),
    stations=tuple(np.linspace(3.0, 63.0, 6)),
    num_anchors=8,
    channels=24,
    num_frames=2,
    noise_sigma=0.05,
)


def small_scenes(n=4, base_seed=100, sigma=None):
    cfg = SMALL if sigma is None else replace(SMALL, noise_sigma=sigma)
    return generate_dataset(base_seed, n, cfg), cfg


def test_curve_ramp_weight_ramp_values():
    cfg = TrainConfig(epochs=30, curve_ramp_start=10, curve_ramp_end=20)
    assert curve_ramp_weight(0, cfg) == 0.0
    assert curve_ramp_weight(10, cfg) == 0.0
    assert curve_ramp_weight(15, cfg) == 0.5
    assert curve_ramp_weight(20, cfg) == 1.0
    assert curve_ramp_weight(29, cfg) == 1.0
    values = [curve_ramp_weight(e, cfg) for e in range(30)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_curve_ramp_weight_degenerate_ramp_and_errors():
    cfg = TrainConfig(epochs=10, curve_ramp_start=0, curve_ramp_end=0)
    assert curve_ramp_weight(0, cfg) == 1.0
    assert curve_ramp_weight(7, cfg) == 1.0
    with pytest.raises(ValueError):
        curve_ramp_weight(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=5, curve_ramp_start=4, curve_ramp_end=3)
    with pytest.raises(ValueError):
        TrainConfig(curve_ramp_start=-1, curve_ramp_end=3)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_train_config_round_trip():
    cfg = TrainConfig(epochs=12, batch_size=2, learning_rate=0.5, seed=9,
                      curve_ramp_start=1, curve_ramp_end=3,
                      use_balanced_l1=False, use_lstm_fusion=False)
    assert from_dict(TrainConfig, json.loads(json.dumps(to_dict(cfg)))) == cfg


def test_init_parameters_shapes_and_determinism():
    cfg = TrainConfig(seed=3)
    params = init_parameters(SMALL, cfg)
    assert tuple(params.keys()) == PARAM_ORDER
    c, s = SMALL.channels, SMALL.num_stations
    assert params["lstm.w_ih"].shape == (4 * c, c)
    assert params["head.offset_w"].shape == (2 * s, c)
    assert params["head.cls_w"].shape == (SMALL.num_classes, c)
    assert params["uncertainty.s"].shape == (4,)
    again = init_parameters(SMALL, cfg)
    for name in PARAM_ORDER:
        assert np.array_equal(params[name], again[name])
    other = init_parameters(SMALL, TrainConfig(seed=4))
    assert not np.array_equal(params["head.offset_w"], other["head.offset_w"])


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "615d8183a11d70a95a09ac6fb8b386b726c09ae657ad438f059413d4fc8bea7d"),
        (11, "0ff38315fb6cafca93d6ac227e69cad20558da182ae930cc121dacdae7befa7c"),
        (12, "0e1cc7844f3ebde28db5d061b89e09cdc983b7445dc5f6c73b54d97bb04ac538"),
    ],
)
def test_init_parameters_bytes_are_pinned(seed, digest):
    # the default benchmark's initial weights; a refactor of the draw must keep them
    run = RunConfiguration()
    params = init_parameters(run.scene, replace(run.train, seed=seed))
    data = b"".join(params[name].tobytes() for name in PARAM_ORDER)
    assert hashlib.sha256(data).hexdigest() == digest


def test_zero_learning_rate_leaves_parameters_bitwise_unchanged():
    scenes, cfg_scene = small_scenes(2)
    cfg = TrainConfig(epochs=2, batch_size=2, learning_rate=0.0, seed=5)
    before = init_parameters(cfg_scene, cfg)
    result = train(cfg, scenes, cfg_scene)
    for name in PARAM_ORDER:
        assert np.array_equal(result.params[name], before[name]), name


def test_adam_in_place_is_bitwise_the_textbook_update():
    rng = np.random.default_rng(17)
    shapes = {name: (3, 2) if name.endswith(("_w", "w_ih", "w_hh")) else (3,) for name in PARAM_ORDER}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    want = {name: value.copy() for name, value in params.items()}
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    opt = AdamOptimizer(lr)
    for t in range(1, 6):
        # transposed views, as backward hands some gradients over
        grads = {name: rng.normal(size=shape[::-1]).T for name, shape in shapes.items()}
        grads[PARAM_ORDER[0]][0, 0] = 0.0
        opt.step(params, grads)
        for name, g in grads.items():
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1**t)
            v_hat = v[name] / (1.0 - b2**t)
            want[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    for name in PARAM_ORDER:
        assert params[name].tobytes() == want[name].tobytes(), name


def test_sgd_step_decreases_loss_at_seeded_points():
    scenes, cfg_scene = small_scenes(2)
    batch = prepare_batch(scenes, cfg_scene.anchors())
    lc = LossConfig()
    for seed in (0, 1, 2):
        cfg = TrainConfig(seed=seed)
        params = init_parameters(cfg_scene, cfg)
        value, grads, _ = batch_gradients(params, batch, lc, cfg, epoch=0)
        decreased = False
        lr = 1e-2
        for _ in range(12):
            trial = {n: params[n] - lr * grads[n] for n in PARAM_ORDER}
            new_value, _, _ = batch_gradients(trial, batch, lc, cfg, epoch=0)
            if new_value < value:
                decreased = True
                break
            lr *= 0.5
        assert decreased, f"no decreasing step found from seed {seed}"


def test_batch_gradients_of_duplicated_scene_match_single():
    scenes, cfg_scene = small_scenes(1)
    anchors = cfg_scene.anchors()
    lc = LossConfig()
    cfg = TrainConfig(seed=0)
    params = init_parameters(cfg_scene, cfg)
    v1, g1, t1 = batch_gradients(params, prepare_batch(scenes, anchors), lc, cfg, epoch=0)
    v2, g2, t2 = batch_gradients(params, prepare_batch(scenes * 2, anchors), lc, cfg, epoch=0)
    assert np.isclose(v1, v2, rtol=0, atol=1e-12)
    for name in PARAM_ORDER:
        assert np.allclose(g1[name], g2[name], rtol=0, atol=1e-12)


def test_curve_ramp_weight_gates_curve_loss_in_epoch_rows():
    scenes, cfg_scene = small_scenes(3)
    cfg = TrainConfig(epochs=12, batch_size=3, learning_rate=1e-3, seed=2,
                      curve_ramp_start=4, curve_ramp_end=8)
    result = train(cfg, scenes, cfg_scene)
    rows = [r.split(",") for r in result.epoch_rows]
    weights = [float(r[1]) for r in rows]
    curves = [float(r[4]) for r in rows]
    assert weights[0] == 0.0 and curves[0] == 0.0
    assert weights[6] == 0.5
    assert weights[8] == 1.0 and weights[11] == 1.0
    assert curves[9] > 0.0


def test_training_is_bitwise_deterministic(tmp_path):
    scenes, cfg_scene = small_scenes(3)
    cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=1e-3, seed=8)
    a = train(cfg, scenes, cfg_scene)
    b = train(cfg, scenes, cfg_scene)
    assert a.epoch_rows == b.epoch_rows
    for name in PARAM_ORDER:
        assert np.array_equal(a.params[name], b.params[name])
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(pa, a.params, cfg.epochs, "deadbeef")
    save_checkpoint(pb, b.params, cfg.epochs, "deadbeef")
    assert pa.read_bytes() == pb.read_bytes()


def test_checkpoint_round_trip_bitwise(tmp_path):
    scenes, cfg_scene = small_scenes(2)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=6)
    result = train(cfg, scenes, cfg_scene)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result.params, 2, "cafe01", metrics={"f1": 0.5})
    loaded, header = load_checkpoint(path)
    assert header["config_hash"] == "cafe01"
    assert header["epoch"] == 2
    assert header["metrics"] == {"f1": 0.5}
    assert [name for name, _ in header["manifest"]] == list(PARAM_ORDER)
    for name in PARAM_ORDER:
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name], result.params[name])
    # loaded parameters drive identical predictions
    before = predict_frames(result.params, scenes[0], cfg_scene, True)
    after = predict_frames(loaded, scenes[0], cfg_scene, True)
    assert len(before) == len(after)
    for lanes_a, lanes_b in zip(before, after):
        assert len(lanes_a) == len(lanes_b)
        for la, lb in zip(lanes_a, lanes_b):
            assert np.array_equal(la.x, lb.x)
            assert np.array_equal(la.visibility, lb.visibility)
            assert la.category == lb.category


@pytest.fixture
def saved_checkpoint(tmp_path):
    params = init_parameters(SMALL, TrainConfig(seed=3))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, 1, "cafe01")
    return path


def _rewrite_header(path, edit):
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


def test_load_checkpoint_rejects_a_truncated_body(saved_checkpoint):
    saved_checkpoint.write_bytes(saved_checkpoint.read_bytes()[:-12])
    with pytest.raises(ValueError, match=r"model\.ckpt: uncertainty\.s: body truncated"):
        load_checkpoint(saved_checkpoint)


def test_load_checkpoint_rejects_trailing_bytes(saved_checkpoint):
    saved_checkpoint.write_bytes(saved_checkpoint.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match=r"model\.ckpt: body: 8 trailing bytes"):
        load_checkpoint(saved_checkpoint)


def test_load_checkpoint_rejects_a_shape_larger_than_the_file(saved_checkpoint):
    # 2**64 entries overflow an int64 product to 0; 2**67 bytes overflow read()
    def grow(header):
        header["manifest"][0][1] = [4294967296, 4294967296]

    _rewrite_header(saved_checkpoint, grow)
    with pytest.raises(ValueError) as info:
        load_checkpoint(saved_checkpoint)
    message = str(info.value)
    assert message.startswith(f"checkpoint {saved_checkpoint}: lstm.w_ih: body truncated")
    assert f"needs {8 * 2**64} bytes" in message


def test_load_checkpoint_rejects_a_header_without_manifest(saved_checkpoint):
    _rewrite_header(saved_checkpoint, lambda h: h.pop("manifest"))
    with pytest.raises(ValueError, match=r"model\.ckpt: header: missing field 'manifest'"):
        load_checkpoint(saved_checkpoint)


@pytest.mark.parametrize("edit", ["drop", "swap"])
def test_load_checkpoint_rejects_manifest_names_other_than_param_order(saved_checkpoint, edit):
    def change(header):
        manifest = header["manifest"]
        if edit == "drop":
            manifest.remove(next(e for e in manifest if e[0] == "head.cls_b"))
        else:
            manifest[0], manifest[1] = manifest[1], manifest[0]

    _rewrite_header(saved_checkpoint, change)
    with pytest.raises(ValueError, match=r"model\.ckpt: manifest: parameter names"):
        load_checkpoint(saved_checkpoint)


def test_load_checkpoint_rejects_boolean_manifest_dims(saved_checkpoint):
    # JSON true is a Python int; as a dimension it must not pass for 1
    def booleans(header):
        header["manifest"][-1][1] = [True]

    _rewrite_header(saved_checkpoint, booleans)
    run_shapes = {name: value.shape for name, value in init_parameters(SMALL, TrainConfig()).items()}
    for shapes in (None, {**run_shapes, "uncertainty.s": (1,)}):
        with pytest.raises(ValueError, match=r"model\.ckpt: manifest: need a list"):
            load_checkpoint(saved_checkpoint, shapes)


def test_load_checkpoint_rejects_a_deeply_nested_header(saved_checkpoint):
    body = saved_checkpoint.read_bytes().split(b"\n", 1)[1]
    saved_checkpoint.write_bytes(b"[" * 100_000 + b"]" * 100_000 + b"\n" + body)
    with pytest.raises(ValueError, match=r"model\.ckpt: header: not a JSON line"):
        load_checkpoint(saved_checkpoint)


def _pinned_scene():
    cfg = RunConfiguration()
    scene = generate_dataset(cfg.train_data_seed, 1, cfg.scene)[0]
    return cfg, scene, init_parameters(cfg.scene, cfg.train)


def test_batch_loss_tape_is_small_repeatable_and_flat_in_batch_size():
    # one tape per mini-batch: fusion, the heads and each loss run once,
    # so the node count does not depend on how many scenes the batch holds
    cfg = RunConfiguration()
    scenes = generate_dataset(cfg.train_data_seed, 4, cfg.scene)
    params = init_parameters(cfg.scene, cfg.train)

    def tape_nodes(batch_scenes):
        pvars = {name: ad.Var(params[name]) for name in PARAM_ORDER}
        batch = prepare_batch(batch_scenes, cfg.scene.anchors())
        total, _ = scene_loss(pvars, batch, cfg.loss, cfg.train, cfg.train.curve_ramp_end)
        return len(ad._topological_order(total))

    four = tape_nodes(scenes)
    # a node built from constants alone is a parentless constant, so the
    # feature batch and Chamfer's ground truth add no leaf behind their takes
    assert four == 157
    assert tape_nodes(scenes) == four
    assert four <= tape_nodes(scenes[:1])


@pytest.mark.parametrize("grid", ["shifted_1m", "10_stations"])
def test_prepare_batch_rejects_ground_truth_off_the_anchor_stations(grid):
    # offset targets subtract the anchor at its own stations, so a lane on
    # any other grid must be refused by name, not built into silent targets
    # (same length) or a numpy shape error (another length)
    cfg, scene, _ = _pinned_scene()
    stations = cfg.scene.anchors().stations
    if grid == "shifted_1m":
        off = stations + 1.0
    else:
        off = np.linspace(stations[0], stations[-1], 10)
    *kept, last = scene.frames[-1].lanes
    moved = Lane3D(stations=off, x=np.interp(off, last.stations, last.x),
                   z=np.interp(off, last.stations, last.z),
                   visibility=np.interp(off, last.stations, last.visibility),
                   category=last.category)
    frame = replace(scene.frames[-1], lanes=(*kept, moved))
    scene = replace(scene, frames=(*scene.frames[:-1], frame))
    with pytest.raises(ValueError, match=f"lane {len(kept)} is not sampled on the anchor stations"):
        prepare_batch([scene], cfg.scene.anchors())


# --- the per-scene composition the batch loss replaced, kept as its oracle


def _per_scene_loss(pvars, scene, anchors, loss_config, train_config, epoch):
    """One scene's total and task values, one loss call per scene and one
    Chamfer call per positive anchor."""
    cfg = train_config
    s = anchors.num_stations
    feats = np.stack([f.features for f in scene.frames], axis=1)
    fused = fuse_all_anchors(feats, pvars) if cfg.use_lstm_fusion else ad.as_var(feats[:, -1, :])
    dx, dz, vis_logits, cls_logits = head_forward(fused, pvars)
    gt_lanes = list(scene.frames[-1].lanes)
    assignment = assign_targets(anchors, gt_lanes)
    positives = sorted(((k, int(lane)) for k, lane in enumerate(assignment.lane_for_anchor)
                        if lane >= 0), key=lambda pair: pair[1])  # (anchor, lane), lane order
    task_losses = {}
    scored = np.flatnonzero(assignment.lane_for_anchor != IGNORE)
    if scored.size:
        targets = np.array([gt_lanes[j].category if j != BACKGROUND else BACKGROUND_CLASS
                            for j in assignment.lane_for_anchor[scored]])
        task_losses["classification"] = focal(cls_logits[scored], targets, loss_config).mean()
    else:
        task_losses["classification"] = ad.as_var(0.0)
    if positives:
        pos_anchor = np.array([k for k, _ in positives])
        pos_lane = [gt_lanes[j] for _, j in positives]
        target_dx = np.stack([lane.x - anchors.base_x[k] for (k, _), lane in zip(positives, pos_lane)])
        target_dz = np.stack([lane.z - anchors.base_z[k] for (k, _), lane in zip(positives, pos_lane)])
        visibility = np.stack([lane.visibility for lane in pos_lane])
        n = len(positives) * s
        flat_pred = ad.stack([dx[pos_anchor].reshape((n,)), dz[pos_anchor].reshape((n,))]).reshape((2 * n,))
        flat_target = np.concatenate([target_dx.reshape(-1), target_dz.reshape(-1)])
        flat_weights = np.concatenate([visibility.reshape(-1), visibility.reshape(-1)])
        if flat_weights.sum() > 0:
            if cfg.use_balanced_l1:
                task_losses["regression"] = balanced_l1_vector(
                    flat_pred, flat_target, flat_weights, loss_config)
            else:
                residual = ad.absolute(flat_pred - flat_target)
                task_losses["regression"] = (residual * flat_weights).sum() / flat_weights.sum()
        else:
            task_losses["regression"] = ad.as_var(0.0)
        if cfg.use_chamfer:
            terms = []
            for (k, _), lane in zip(positives, pos_lane):
                pred_points = ad.stack([dx[k] + anchors.base_x[k], ad.as_var(anchors.stations),
                                        dz[k] + anchors.base_z[k]], axis=1)
                terms.append(chamfer(pred_points, _equidistant_points(lane)))
            task_losses["curve"] = ad.stack(terms).mean() * curve_ramp_weight(epoch, cfg)
        task_losses["visibility"] = dice(
            ad.sigmoid(vis_logits[pos_anchor]), visibility, loss_config).mean()
    else:
        task_losses["regression"] = ad.as_var(0.0)
        task_losses["visibility"] = ad.as_var(0.0)
        if cfg.use_chamfer:
            task_losses["curve"] = ad.as_var(0.0)
    if cfg.use_uncertainty:
        s_var = pvars["uncertainty.s"]
        total = combine_uncertainty(
            task_losses, {name: s_var[i] for i, name in enumerate(TASK_NAMES) if name in task_losses})
    else:
        total = None
        for name in sorted(task_losses):
            total = task_losses[name] if total is None else total + task_losses[name]
    return total, {name: float(task_losses[name].value) for name in task_losses}


def _per_scene_gradients(params, scenes, anchors, loss_config, train_config, epoch):
    """Mean over scenes of the per-scene totals, its gradients and task means."""
    pvars = {name: ad.Var(params[name]) for name in PARAM_ORDER}
    totals, task_sums = [], {}
    for scene in scenes:
        total, values = _per_scene_loss(pvars, scene, anchors, loss_config, train_config, epoch)
        totals.append(total)
        for name, value in values.items():
            task_sums[name] = task_sums.get(name, 0.0) + value
    batch_total = ad.stack(totals).mean() if len(totals) > 1 else totals[0]
    batch_total.backward()
    grads = {name: np.zeros_like(params[name]) if pvars[name].grad is None else pvars[name].grad
             for name in PARAM_ORDER}
    return (float(batch_total.value), grads,
            {name: value / len(scenes) for name, value in task_sums.items()})


def _assert_matches_per_scene(params, scenes, anchors, loss_config, train_config, epoch):
    want_value, want_grads, want_tasks = _per_scene_gradients(
        params, scenes, anchors, loss_config, train_config, epoch)
    batch = prepare_batch(scenes, anchors, train_config.use_chamfer)
    value, grads, tasks = batch_gradients(params, batch, loss_config, train_config, epoch)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert tasks.keys() == want_tasks.keys()
    for name, want in want_tasks.items():
        assert tasks[name] == pytest.approx(want, rel=1e-12, abs=0.0), name
    for name in PARAM_ORDER:
        # summation order differs; an entry that cancels to near zero keeps
        # the rounding of the parameter's largest entries
        want = want_grads[name]
        np.testing.assert_allclose(grads[name], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(), err_msg=name)


@pytest.fixture(scope="module")
def pinned_split():
    cfg = RunConfiguration()
    scenes = generate_dataset(cfg.train_data_seed, 64, cfg.scene)
    return cfg, scenes, init_parameters(cfg.scene, cfg.train)


@pytest.mark.parametrize("epoch", [0, 10, 20])  # before, inside and after the ramp
def test_batch_loss_matches_the_per_scene_oracle_on_the_pinned_batches(pinned_split, epoch):
    cfg, scenes, params = pinned_split
    size = cfg.train.batch_size
    for start in range(0, len(scenes), size):
        _assert_matches_per_scene(params, scenes[start:start + size], cfg.scene.anchors(),
                                  cfg.loss, cfg.train, epoch)


@pytest.mark.parametrize(
    "flag", ["use_balanced_l1", "use_chamfer", "use_uncertainty", "use_lstm_fusion"])
def test_batch_loss_matches_the_per_scene_oracle_with_one_flag_off(pinned_split, flag):
    cfg, scenes, params = pinned_split
    train_config = replace(cfg.train, **{flag: False})
    for start in (0, 4):
        _assert_matches_per_scene(params, scenes[start:start + 4], cfg.scene.anchors(),
                                  cfg.loss, train_config, 10)


def test_batch_loss_matches_the_per_scene_oracle_with_a_scene_without_positives(pinned_split):
    cfg, scenes, params = pinned_split
    empty = replace(scenes[0], frames=scenes[0].frames[:-1]
                    + (replace(scenes[0].frames[-1], lanes=()),))
    anchors = cfg.scene.anchors()
    _assert_matches_per_scene(params, [empty, scenes[1]], anchors, cfg.loss, cfg.train, 10)
    _assert_matches_per_scene(params, [empty], anchors, cfg.loss, cfg.train, 10)
    _, _, tasks = batch_gradients(params, prepare_batch([empty], anchors), cfg.loss,
                                  cfg.train, 10)
    assert tasks["regression"] == tasks["curve"] == tasks["visibility"] == 0.0


def test_batch_loss_matches_the_per_scene_oracle_on_a_trailing_one_scene_batch(pinned_split):
    # 5 scenes at batch size 4: train() steps on 4 scenes, then on 1
    cfg, scenes, params = pinned_split
    for batch_scenes in (scenes[:4], scenes[4:5]):
        _assert_matches_per_scene(params, batch_scenes, cfg.scene.anchors(), cfg.loss,
                                  cfg.train, 10)


# --- gradient audit of the batch loss: B=2 scenes, K=3, S=2, 2 classes, C=8, T=2

AUDIT_SCENE = SceneConfig(num_anchors=3, channels=8, num_classes=2, num_frames=2,
                          stations=(5.0, 25.0), lateral_span=(-1.0, 1.0))


def _audit_lane(x, visibility):
    return Lane3D(stations=AUDIT_SCENE.stations, x=x, z=[0.1, -0.2],
                  visibility=visibility, category=1)


# anchors sit at x = -1, 0, 1: scene 0 has one positive, one ignored and
# one background anchor; scene 1 two positives (one lane half visible,
# so its Chamfer row is padded) and one ignored anchor
AUDIT_LANES = (
    (_audit_lane([0.3, 0.2], [1.0, 1.0]),),
    (_audit_lane([-1.2, -0.9], [1.0, 0.0]), _audit_lane([1.1, 0.8], [1.0, 1.0])),
)


def _audit_case():
    """A MiniBatch and parameters whose draws clear every kink.

    Draws repeat until the LSTM projection and hidden-layer relu
    pre-activations and the regression residuals (abs at 0, Balanced L1
    at beta = 1) all sit KINK_MARGIN or more from their kinks.  Chamfer
    nearest neighbours are decisive by construction: points of one set
    are 20 m apart along y.
    """
    anchors = AUDIT_SCENE.anchors()
    shapes = {name: value.shape for name, value in init_parameters(AUDIT_SCENE, TrainConfig()).items()}
    for seed in itertools.count():
        rng = np.random.default_rng(seed)
        scenes = [
            SceneSequence(frames=tuple(FrameRecord(lanes=lanes, features=rng.normal(size=(3, 8)))
                                       for _ in range(2)),
                          ego_motion=np.zeros((2, 2)), seed=seed)
            for lanes in AUDIT_LANES
        ]
        params = {name: rng.normal(size=shape) * 0.5 for name, shape in shapes.items()}
        batch = prepare_batch(scenes, anchors)
        h = ad.lstm_windows(batch.features, params["lstm.w_ih"], params["lstm.w_hh"],
                            params["lstm.bias"]).value
        projection = h @ params["lstm.proj_w"].T + params["lstm.proj_b"]
        hidden = np.maximum(projection, 0.0) @ params["head.hidden_w"].T + params["head.hidden_b"]
        offsets = np.maximum(hidden, 0.0) @ params["head.offset_w"].T + params["head.offset_b"]
        pos = batch.positive
        residual = np.abs(np.stack([offsets[pos, :2], offsets[pos, 2:]]) - batch.offsets)
        clearance = min(np.abs(projection).min(), np.abs(hidden).min(),
                        residual.min(), np.abs(residual - LossConfig().beta).min())
        if clearance > KINK_MARGIN:
            return batch, params


@pytest.fixture(scope="module")
def audit_case():
    return _audit_case()


def _audit(batch, params):
    def fn(p):
        return scene_loss(p, batch, LossConfig(), TrainConfig(), 10)[0]  # ramp weight 0.5

    return ad.finite_difference_check(fn, params, step=STEP)


def test_batch_loss_gradient_matches_central_differences(audit_case):
    batch, params = audit_case
    assert batch.positive.size == 3 and not batch.curve_mask.all()
    report = _audit(batch, params)
    assert report.max_relative_error < TOLERANCE, report.worst_parameter()


@pytest.mark.parametrize("op", ["relu", "take", "stack", "reduce_min", "matmul", "lstm_windows"])
def test_batch_loss_audit_catches_a_corrupted_primitive(audit_case, op):
    batch, params = audit_case
    with corrupt_gradient(op):
        report = _audit(batch, params)
    assert report.max_relative_error > TOLERANCE


def test_batch_gradients_leaves_no_reference_cycles():
    cfg, scene, params = _pinned_scene()
    anchors = cfg.scene.anchors()
    args = (params, prepare_batch([scene], anchors), cfg.loss, cfg.train,
            cfg.train.curve_ramp_end)
    batch_gradients(*args)  # first call may import and cache
    gc.collect()
    gc.disable()
    try:
        batch_gradients(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_uncertainty_s_converges_to_log_losses_through_optimizer():
    cfg_scene = SMALL
    cfg = TrainConfig(learning_rate=1e-2, seed=0)
    params = init_parameters(cfg_scene, cfg)
    optimizer = AdamOptimizer(cfg.learning_rate)
    frozen = {"regression": 2.0, "curve": 8.0}
    for _ in range(5000):
        pvars = {name: ad.Var(params[name]) for name in PARAM_ORDER}
        s_var = pvars["uncertainty.s"]
        total = combine_uncertainty(
            {k: ad.Var(np.asarray(v)) for k, v in frozen.items()},
            {"regression": s_var[0], "curve": s_var[1]},
        )
        total.backward()
        grads = {
            name: (np.zeros_like(params[name]) if pvars[name].grad is None
                   else pvars[name].grad)
            for name in PARAM_ORDER
        }
        optimizer.step(params, grads)
    s = params["uncertainty.s"]
    assert abs(s[0] - np.log(2.0)) < 1e-3
    assert abs(s[1] - np.log(8.0)) < 1e-3
    final = np.exp(-s[0]) * 2.0 + s[0] + np.exp(-s[1]) * 8.0 + s[1]
    assert abs(final - (2.0 + np.log(16.0))) < 1e-6


def test_ablation_flags_change_the_loss():
    scenes, cfg_scene = small_scenes(2)
    anchors = cfg_scene.anchors()
    lc = LossConfig()
    totals = {}
    for name, flags in (
        ("full", {}),
        ("plain_l1", {"use_balanced_l1": False}),
        ("no_chamfer", {"use_chamfer": False}),
        ("no_fusion", {"use_lstm_fusion": False}),
    ):
        cfg = TrainConfig(seed=0, curve_ramp_start=0, curve_ramp_end=0, **flags)
        params = init_parameters(cfg_scene, cfg)
        value, _, tasks = batch_gradients(params, prepare_batch(scenes, anchors), lc, cfg,
                                          epoch=1)
        totals[name] = value
        if name == "no_chamfer":
            assert "curve" not in tasks
        else:
            assert "curve" in tasks
    assert len({round(v, 12) for v in totals.values()}) == len(totals)

    # at s=0 the uncertainty combination equals the unit-weight sum, so the
    # flag shows up in the s gradient rather than the value
    for uncertainty, expect_grad in ((True, True), (False, False)):
        cfg = TrainConfig(seed=0, curve_ramp_start=0, curve_ramp_end=0,
                          use_uncertainty=uncertainty)
        params = init_parameters(cfg_scene, cfg)
        value, grads, _ = batch_gradients(params, prepare_batch(scenes, anchors), lc, cfg,
                                          epoch=1)
        if uncertainty:
            assert value == pytest.approx(totals["full"], abs=1e-12)
        assert np.any(grads["uncertainty.s"] != 0.0) == expect_grad


def test_lstm_parameters_move_only_with_fusion_enabled():
    scenes, cfg_scene = small_scenes(2)
    for fusion in (False, True):
        cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=1e-3, seed=4,
                          use_lstm_fusion=fusion)
        before = init_parameters(cfg_scene, cfg)
        result = train(cfg, scenes, cfg_scene)
        moved = not np.array_equal(result.params["lstm.w_ih"], before["lstm.w_ih"])
        assert moved == fusion
        assert not np.array_equal(result.params["head.offset_w"], before["head.offset_w"])


def test_divergence_guard_raises():
    scenes, cfg_scene = small_scenes(1)
    cfg = TrainConfig(seed=0)
    params = init_parameters(cfg_scene, cfg)
    params["head.offset_w"][0, 0] = np.nan
    with pytest.raises(TrainingDiverged):
        batch_gradients(params, prepare_batch(scenes, cfg_scene.anchors()), LossConfig(), cfg,
                        epoch=0)


def test_noise_free_single_scene_overfits_to_perfect_match():
    clean = replace(SMALL, noise_sigma=0.0)
    scene = generate_scene(5, clean)
    cfg = TrainConfig(epochs=250, batch_size=1, learning_rate=3e-3, seed=1,
                      curve_ramp_start=0, curve_ramp_end=0)
    result = train(cfg, [scene], clean)
    assert result.final_losses["regression"] < 1e-3
    reports, jitters, aggregate, mean_jitter = evaluate_model(
        result.params, [scene], clean, use_lstm_fusion=True
    )
    assert aggregate.f1 == 1.0
    assert aggregate.acc == 1.0
    assert mean_jitter < 0.2


def test_train_writes_epoch_log(tmp_path):
    scenes, cfg_scene = small_scenes(2)
    cfg = TrainConfig(epochs=3, batch_size=2, seed=1)
    log = tmp_path / "log.csv"
    train(cfg, scenes, cfg_scene, log_path=log)
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "epoch,curve_ramp_weight,total,regression,curve,classification,visibility"
    assert len(lines) == 4
    assert lines[1].startswith("0,")


def test_evaluate_model_handles_single_frame_scenes():
    cfg_scene = replace(SMALL, num_frames=1)
    scenes = generate_dataset(30, 2, cfg_scene)
    cfg = TrainConfig(seed=0)
    params = init_parameters(cfg_scene, cfg)
    reports, jitters, aggregate, mean_jitter = evaluate_model(
        params, scenes, cfg_scene, use_lstm_fusion=False
    )
    assert len(reports) == 2
    assert all(np.isnan(j) for j in jitters)
    assert np.isnan(mean_jitter)


def test_run_ablation_emits_five_nested_rows():
    scenes, cfg_scene = small_scenes(3)
    eval_scenes, _ = small_scenes(2, base_seed=300)
    cfg = TrainConfig(epochs=1, batch_size=3, learning_rate=1e-3, seed=0)
    rows = run_ablation(cfg, scenes, eval_scenes, cfg_scene)
    names = [r["configuration"] for r in rows]
    assert names == ["baseline", "+balanced_l1", "+chamfer", "+uncertainty", "+lstm_fusion"]
    table = ablation_table(rows, "beef99")
    lines = table.strip().split("\n")
    assert lines[0] == "# config_hash=beef99"
    assert lines[2] == "configuration,f1,acc,jitter"
    assert len(lines) == 8
    for line in lines[3:]:
        name, f1, acc, jitter = line.split(",")
        float(f1), float(acc)
        assert jitter == "nan" or float(jitter) >= 0.0


def test_train_empty_dataset_errors():
    with pytest.raises(ValueError):
        train(TrainConfig(epochs=1), [], SMALL)


@pytest.mark.parametrize("scene_anchors, config_anchors", [(12, 8), (8, 12)])
def test_predict_frames_rejects_a_scene_of_another_shape(scene_anchors, config_anchors):
    scene = generate_scene(3, replace(SMALL, num_anchors=scene_anchors))
    config = replace(SMALL, num_anchors=config_anchors)
    params = init_parameters(config, TrainConfig(seed=0))
    with pytest.raises(ValueError) as info:
        predict_frames(params, scene, config, True)
    message = str(info.value)
    assert f"({scene_anchors}, 24)" in message and f"({config_anchors}, 24)" in message


# --- the per-window, per-anchor decode that predict_frames replaced, kept as its oracle


def _per_window_predict_frames(params, scene, scene_config, use_lstm_fusion):
    """Frame t's left-padded window fused on its own, then one Lane3D per
    kept anchor, decoded one anchor at a time; each frame's lanes are then
    stacked, since jitter takes one LaneStack per frame."""
    anchors = scene_config.anchors()
    feats = np.stack([f.features for f in scene.frames], axis=0)
    total = feats.shape[0]
    pvars = {name: ad.Var(params[name]) for name in PARAM_ORDER}
    per_frame = []
    for t in range(total):
        if use_lstm_fusion:
            window = feats[: t + 1]
            if t + 1 < total:
                pad = np.repeat(feats[:1], total - (t + 1), axis=0)
                window = np.concatenate([pad, window], axis=0)
            fused = fuse_all_anchors(window.transpose(1, 0, 2), pvars).value
        else:
            fused = feats[t]
        dx, dz, vis_logits, cls_logits = head_forward(fused, pvars)
        lanes = []
        for k in range(anchors.num_anchors):
            category = int(np.argmax(cls_logits.value[k]))
            if category == BACKGROUND_CLASS:
                continue
            visibility = ad.sigmoid_values(vis_logits.value[k])
            if not np.any(visibility >= VISIBILITY_THRESHOLD):
                continue
            lanes.append(Lane3D(stations=anchors.stations, x=anchors.base_x[k] + dx.value[k],
                                z=anchors.base_z[k] + dz.value[k], visibility=visibility,
                                category=category))
        shape = (len(lanes), anchors.num_stations)
        per_frame.append(LaneStack(anchors.stations, *(
            np.array([getattr(lane, name) for lane in lanes]).reshape(shape)
            for name in ("x", "z", "visibility")), np.array([lane.category for lane in lanes])))
    return per_frame


DENSE_WEIGHT_SEED = 13  # its initial model decodes a lane at every anchor of pinned_eval


@pytest.fixture(scope="module")
def pinned_eval():
    """Eight pinned eval scenes, a short-trained checkpoint (the benchmark's
    eval recipe: 4 epochs at lr 1e-2 on 16 scenes) and a dense initial one."""
    cfg = RunConfiguration()
    trained = train(replace(cfg.train, epochs=4, learning_rate=1e-2),
                    generate_dataset(cfg.train_data_seed, 16, cfg.scene), cfg.scene, cfg.loss)
    dense = init_parameters(cfg.scene, replace(cfg.train, seed=DENSE_WEIGHT_SEED))
    scenes = generate_dataset(cfg.eval_data_seed, 8, cfg.scene)
    return cfg, scenes, {"trained": trained.params, "dense": dense}


def _lane_bytes(lane):
    return [a.tobytes() for a in (lane.stations, lane.x, lane.z, lane.visibility)] + [
        lane.category]


def _report_key(report):
    return repr((report.tp, report.fp, report.fn, report.correct, report.matches))


@pytest.mark.parametrize("use_lstm_fusion", [True, False])
@pytest.mark.parametrize("checkpoint", ["trained", "dense"])
def test_predict_frames_is_bitwise_the_per_window_oracle(pinned_eval, checkpoint,
                                                         use_lstm_fusion, monkeypatch):
    """Lanes, match reports and jitters equal the per-window composition bit for bit.

    The stacked fusion runs each gate product (M x C) @ (C x 4H) at
    M = T*K rows instead of K; on the recorded OpenBLAS (0.3.31,
    DYNAMIC_ARCH) that product gives the same bits per row at any row
    count.  The head products were measured not to: one head pass over
    all T*K rows changed the visibility logits, so the heads stay per frame.
    """
    cfg, scenes, checkpoints = pinned_eval
    params = checkpoints[checkpoint]
    decoded = 0
    for scene in scenes:
        got = predict_frames(params, scene, cfg.scene, use_lstm_fusion)
        want = _per_window_predict_frames(params, scene, cfg.scene, use_lstm_fusion)
        assert [[_lane_bytes(lane) for lane in frame] for frame in got] == [
            [_lane_bytes(lane) for lane in frame] for frame in want]
        decoded += sum(len(frame) for frame in got)
    if checkpoint == "dense" and use_lstm_fusion:
        assert decoded == len(scenes) * cfg.scene.num_frames * cfg.scene.num_anchors
    assert decoded > 0

    reports, jitters, aggregate, jitter = evaluate_model(
        params, scenes, cfg.scene, use_lstm_fusion)
    monkeypatch.setattr(training_module, "predict_frames", _per_window_predict_frames)
    want_reports, want_jitters, want_aggregate, want_jitter = evaluate_model(
        params, scenes, cfg.scene, use_lstm_fusion)
    assert [_report_key(r) for r in reports] == [_report_key(r) for r in want_reports]
    assert _report_key(aggregate) == _report_key(want_aggregate)
    assert np.array(jitters).tobytes() == np.array(want_jitters).tobytes()
    assert np.float64(jitter).tobytes() == np.float64(want_jitter).tobytes()


@pytest.mark.parametrize("use_lstm_fusion", [True, False])
def test_predict_frames_returns_one_lane_stack_per_frame(pinned_eval, use_lstm_fusion):
    cfg, scenes, checkpoints = pinned_eval
    stations = cfg.scene.anchors().stations
    for params in checkpoints.values():
        frames = predict_frames(params, scenes[0], cfg.scene, use_lstm_fusion)
        assert len(frames) == cfg.scene.num_frames
        for frame in frames:
            assert type(frame) is LaneStack
            assert frame.stations.tobytes() == stations.tobytes()
            assert frame.x.shape == (len(frame), stations.size)


def test_evaluate_model_builds_no_lane_for_a_prediction(pinned_eval, monkeypatch):
    cfg, scenes, checkpoints = pinned_eval
    built = []
    real = Lane3D.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Lane3D, "__post_init__", counting)
    decoded = matched = 0
    for params, use_lstm_fusion in itertools.product(checkpoints.values(), (True, False)):
        _, _, aggregate, _ = evaluate_model(params, scenes, cfg.scene, use_lstm_fusion)
        decoded, matched = decoded + aggregate.tp + aggregate.fp, matched + aggregate.tp
    assert decoded > 0 and matched > 0
    assert built == []
    predict_frames(checkpoints["dense"], scenes[0], cfg.scene, True)[-1][0]
    assert len(built) == 1  # the counter sees the one lane indexing builds


def test_evaluate_model_calls_the_fuser_once_per_scene_and_the_heads_once_per_frame(
        pinned_eval, monkeypatch):
    # the benchmark's tracer times these two names in lane3d.training; a
    # refactor that routes around them fails here, not in a traced run
    cfg, scenes, checkpoints = pinned_eval
    calls = {}
    for name in ("fuse_all_anchors", "head_forward"):
        def counting(*args, _name=name, _wrapped=getattr(training_module, name), **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(training_module, name, counting)
    for use_lstm_fusion in (True, False):
        calls.update(fuse_all_anchors=0, head_forward=0)
        evaluate_model(checkpoints["trained"], scenes[:3], cfg.scene, use_lstm_fusion)
        assert calls == {"fuse_all_anchors": 3 if use_lstm_fusion else 0,
                         "head_forward": 3 * cfg.scene.num_frames}


def test_prediction_on_plain_parameter_arrays_records_no_tape(pinned_eval, monkeypatch):
    # the fuser and the heads get the parameter arrays themselves, so every
    # node they build is a parentless constant and no VJP closure outlives it
    cfg, scenes, checkpoints = pinned_eval
    outputs = []
    for name in ("fuse_all_anchors", "head_forward"):
        def recording(*args, _wrapped=getattr(training_module, name), **kwargs):
            out = _wrapped(*args, **kwargs)
            outputs.extend(out if isinstance(out, tuple) else (out,))
            return out

        monkeypatch.setattr(training_module, name, recording)
    predict_frames(checkpoints["trained"], scenes[0], cfg.scene, True)
    assert len(outputs) == 1 + 4 * cfg.scene.num_frames
    for out in outputs:
        assert out.constant and out._parents == () and out._vjp is None


def test_evaluate_model_reaches_the_traced_matching_names(pinned_eval, monkeypatch):
    # the benchmark's tracer times match_lanes in lane3d.training and
    # lane3d.metrics and temporal_smoothness in lane3d.training, and reads
    # len() of both lane lists handed to a match_lanes
    cfg, scenes, checkpoints = pinned_eval
    calls, sizes = Counter(), []
    hooks = ((training_module, "match_lanes"), (training_module, "temporal_smoothness"),
             (metrics_module, "match_lanes"))
    for module, name in hooks:
        def counting(*args, _key=f"{module.__name__}.{name}", _wrapped=getattr(module, name)):
            calls[_key] += 1
            if _key.endswith(".match_lanes"):
                sizes.append((len(args[0]), len(args[1])))
            return _wrapped(*args)

        monkeypatch.setattr(module, name, counting)
    scene = scenes[0]
    assert scene.num_frames == 3
    evaluate_model(checkpoints["dense"], [scene], cfg.scene, True)
    assert calls["lane3d.training.match_lanes"] == 1
    assert calls["lane3d.training.temporal_smoothness"] == 1
    assert sizes[0] == (cfg.scene.num_anchors, len(scene.frames[-1].lanes))
    assert len(sizes) == calls["lane3d.training.match_lanes"] + calls["lane3d.metrics.match_lanes"]


# Taken before the LSTM recurrence became one autodiff node (numpy 2.4,
# OpenBLAS 0.3.31, x86-64): a speed-up that moves one bit of training or
# evaluation fails here.  Like the gradient-audit pin, the digest depends
# on the platform: a different libm or BLAS may move the last bits.
PINNED_TRAIN_EVAL_SHA256 = "645657e986111456b6f5ba5d04c58ce8d6dba07b3b6b582289a50e01cf6b15e2"


def test_training_and_evaluation_are_bitwise_pinned():
    """Parameters after a 3-epoch fused train on 8 pinned scenes, then every
    match report and jitter on 8 pinned eval scenes, for the trained model
    (which decodes no lane yet) and for the dense initial one."""
    cfg = RunConfiguration()
    trained = train(replace(cfg.train, epochs=3, learning_rate=1e-2),
                    generate_dataset(cfg.train_data_seed, 8, cfg.scene), cfg.scene, cfg.loss)
    dense = init_parameters(cfg.scene, replace(cfg.train, seed=DENSE_WEIGHT_SEED))
    scenes = generate_dataset(cfg.eval_data_seed, 8, cfg.scene)
    digest = hashlib.sha256()
    for name in PARAM_ORDER:
        digest.update(trained.params[name].tobytes())
    for params in (trained.params, dense):
        reports, jitters, _, _ = evaluate_model(params, scenes, cfg.scene, True)
        digest.update(repr(reports).encode())
        digest.update(np.array(jitters).tobytes())
    assert digest.hexdigest() == PINNED_TRAIN_EVAL_SHA256


# Taken before assignment required ground truth on the anchor stations.
# The 3-epoch train above never reaches the curve ramp (epoch 5), so this
# pin is the one that sees the Chamfer ground truth bit for bit.
PINNED_MINIBATCH_SHA256 = "bc97e59039348756f450204a52ebd06ea104bcf2317f38273c4c0c2ff2645a6a"


def test_prepare_batch_is_bitwise_pinned(pinned_split):
    """Every MiniBatch field, with its dtype and shape, of each mini-batch of
    the pinned 64-scene train split."""
    cfg, scenes, _ = pinned_split
    size = cfg.train.batch_size
    digest = hashlib.sha256()
    for start in range(0, len(scenes), size):
        batch = prepare_batch(scenes[start:start + size], cfg.scene.anchors())
        for field in fields(batch):
            value = getattr(batch, field.name)
            digest.update(f"{field.name}{value.dtype}{value.shape}".encode())
            digest.update(value.tobytes())
    assert digest.hexdigest() == PINNED_MINIBATCH_SHA256
