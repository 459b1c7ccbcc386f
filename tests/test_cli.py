import json

import numpy as np
import pytest

from lane3d.checks import format_report, run_gradient_checks
from lane3d.cli import main, read_scene_dir, write_scene_dir
from lane3d.config import RunConfiguration, save_run_configuration
from lane3d.geometry import read_lane_file, write_lane_file
from lane3d.losses import LossConfig
from lane3d.synth import SceneConfig, generate_dataset, generate_scene
from lane3d.training import TrainConfig, init_parameters, load_checkpoint, save_checkpoint

SMALL_SCENE = SceneConfig(
    num_lanes_range=(1, 2),
    stations=tuple(np.linspace(3.0, 63.0, 6)),
    num_anchors=8,
    channels=24,
    num_frames=2,
    noise_sigma=0.05,
)


@pytest.fixture
def small_config(tmp_path):
    cfg = RunConfiguration(
        scene=SMALL_SCENE,
        train=TrainConfig(
            epochs=3,
            batch_size=2,
            learning_rate=1e-3,
            seed=0,
            curve_ramp_start=0,
            curve_ramp_end=1,
        ),
        num_train_scenes=3,
        num_eval_scenes=2,
        output_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "config.json"
    save_run_configuration(path, cfg)
    return cfg, path


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_generate_writes_the_expected_tree(small_config, tmp_path, capsys):
    cfg, path = small_config
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "3 train scenes" in printed and "2 eval scenes" in printed
    assert cfg.config_hash() in printed
    assert (out / "config.json").exists()
    for split, count in (("train", 3), ("eval", 2)):
        dirs = sorted((out / split).iterdir())
        assert len(dirs) == count
        for d in dirs:
            assert (d / "features.npy").exists()
            assert (d / "scene.json").exists()
            assert not (d / "features.json").exists()
            assert (d / "frame_0.lanes.json").exists()
            assert (d / "frame_1.lanes.json").exists()


def test_generate_reruns_are_byte_identical(small_config, tmp_path):
    _, path = small_config
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["generate", "--config", str(path), "--out", str(out_b)]) == 0
    bytes_a, bytes_b = tree_bytes(out_a), tree_bytes(out_b)
    assert set(bytes_a) == set(bytes_b)
    for name in bytes_a:
        if name == "config.json":
            continue  # records the requested output directory
        assert bytes_a[name] == bytes_b[name], name


def test_generate_seed_flag_changes_the_data(small_config, tmp_path):
    _, path = small_config
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(path), "--out", str(out_a)]) == 0
    assert (
        main(["generate", "--config", str(path), "--out", str(out_b), "--seed", "9"])
        == 0
    )
    for name in ("features.npy", "scene.json"):
        a = (out_a / "train" / "scene_0000" / name).read_bytes()
        b = (out_b / "train" / "scene_0000" / name).read_bytes()
        assert a != b, name


def test_generate_rejects_bad_stations(small_config, tmp_path, capsys):
    cfg, path = small_config
    doc = json.loads(path.read_text())
    doc["scene"]["stations"] = [5.0, 4.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "stations" in capsys.readouterr().err


def test_generate_exits_1_on_two_stations(small_config, tmp_path, capsys):
    _, path = small_config
    doc = json.loads(path.read_text())
    doc["scene"]["stations"] = [5.0, 25.0]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(short), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "stations" in err and "at least 3" in err and "Traceback" not in err


def test_scene_dir_round_trip(tmp_path):
    scene = generate_scene(12, SMALL_SCENE)
    write_scene_dir(tmp_path / "s", scene, "cafe00112233")
    back = read_scene_dir(tmp_path / "s")
    assert back.seed == scene.seed
    assert np.array_equal(back.ego_motion, scene.ego_motion)
    assert len(back.frames) == len(scene.frames)
    for fa, fb in zip(scene.frames, back.frames):
        assert np.array_equal(fa.features, fb.features)
        assert len(fa.lanes) == len(fb.lanes)
        for la, lb in zip(fa.lanes, fb.lanes):
            assert np.array_equal(la.x, lb.x)
            assert np.array_equal(la.z, lb.z)
            assert np.array_equal(la.visibility, lb.visibility)
            assert la.category == lb.category


def _old_json_sidecar(d):
    scene = read_scene_dir(d)
    (d / "scene.json").unlink()
    (d / "features.npy").unlink()
    sidecar = {
        "seed": scene.seed,
        "ego_motion": scene.ego_motion.tolist(),
        "features": [frame.features.tolist() for frame in scene.frames],
    }
    (d / "features.json").write_text(json.dumps(sidecar))


def _edit_scene_doc(d, **fields):
    doc = json.loads((d / "scene.json").read_text())
    doc.update(fields)
    (d / "scene.json").write_text(json.dumps(doc))


def _edit_features(d, edit):
    np.save(d / "features.npy", edit(np.load(d / "features.npy")))


def _set_first(value):
    def edit(features):
        features.flat[0] = value
        return features

    return edit


# (case, how the written scene directory is broken, words the error must carry)
BROKEN_SCENE_DIRS = [
    ("missing-scene-json", lambda d: (d / "scene.json").unlink(), ["missing scene.json"]),
    ("missing-features", lambda d: (d / "features.npy").unlink(), ["missing features.npy"]),
    ("old-json-sidecar", _old_json_sidecar, ["missing scene.json", "lane3d generate"]),
    ("float32", lambda d: _edit_features(d, lambda f: f.astype(np.float32)),
     ["features.npy", "dtype <f4"]),
    ("big-endian", lambda d: _edit_features(d, lambda f: f.astype(">f8")),
     ["features.npy", "dtype >f8"]),
    ("ndim-2", lambda d: _edit_features(d, lambda f: f[0]), ["features.npy", "shape (8, 24)"]),
    ("ego-rows", lambda d: _edit_scene_doc(d, ego_motion=[[0.0, 0.0]] * 3),
     ["scene.json", "ego_motion", "(3, 2)", "2 frames"]),
    ("extra-lane-file", lambda d: (d / "frame_2.lanes.json").write_bytes(
        (d / "frame_1.lanes.json").read_bytes()), ["3 frame_<t>.lanes.json", "2 frames"]),
    ("missing-lane-file", lambda d: (d / "frame_1.lanes.json").unlink(),
     ["1 frame_<t>.lanes.json", "2 frames"]),
    ("nan-feature", lambda d: _edit_features(d, _set_first(np.nan)),
     ["features.npy", "non-finite"]),
    ("inf-feature", lambda d: _edit_features(d, _set_first(-np.inf)),
     ["features.npy", "non-finite"]),
    ("nan-ego-motion", lambda d: _edit_scene_doc(d, ego_motion=[[0.0, 0.0], [float("nan"), 0.0]]),
     ["scene.json", "ego_motion", "non-finite"]),
    ("ego-motion-missing", lambda d: (d / "scene.json").write_text('{"seed": 1}'),
     ["scene.json", "ego_motion: missing"]),
    ("scene-json-garbage", lambda d: (d / "scene.json").write_text("{broken"),
     ["scene.json", "not valid JSON"]),
    ("scene-json-deep", lambda d: (d / "scene.json").write_text("[" * 100_000 + "]" * 100_000),
     ["scene.json", "not valid JSON"]),
    ("truncated-body", lambda d: (d / "features.npy").write_bytes(
        (d / "features.npy").read_bytes()[:-5]), ["features.npy", "unreadable array"]),
    ("trailing-bytes", lambda d: (d / "features.npy").write_bytes(
        (d / "features.npy").read_bytes() + b"\0"), ["features.npy", "trailing bytes"]),
    ("seed-string", lambda d: _edit_scene_doc(d, seed="abc"), ["scene.json", "seed", "'abc'"]),
    ("seed-float", lambda d: _edit_scene_doc(d, seed=1.7), ["scene.json", "seed", "1.7"]),
    ("seed-integral-float", lambda d: _edit_scene_doc(d, seed=12.0), ["scene.json", "seed", "12.0"]),
    ("seed-bool", lambda d: _edit_scene_doc(d, seed=True), ["scene.json", "seed", "True"]),
    ("seed-null", lambda d: _edit_scene_doc(d, seed=None), ["scene.json", "seed", "None"]),
]


@pytest.mark.parametrize(
    "breaks, words", [case[1:] for case in BROKEN_SCENE_DIRS],
    ids=[case[0] for case in BROKEN_SCENE_DIRS],
)
def test_scene_dir_rejects(tmp_path, breaks, words):
    d = tmp_path / "s"
    write_scene_dir(d, generate_scene(12, SMALL_SCENE), "cafe00112233")
    breaks(d)
    with pytest.raises(ValueError) as info:
        read_scene_dir(d)
    for word in [str(d)] + words:
        assert word in str(info.value), (word, str(info.value))


def test_scene_dir_stores_features_as_one_binary_array(tmp_path):
    scene = generate_scene(12, SMALL_SCENE)
    write_scene_dir(tmp_path / "s", scene, "cafe00112233")
    stored = np.load(tmp_path / "s" / "features.npy", allow_pickle=False)
    assert stored.dtype.str == "<f8" and stored.shape == (2, 8, 24)
    assert stored.tobytes() == np.stack([f.features for f in scene.frames]).tobytes()
    doc = json.loads((tmp_path / "s" / "scene.json").read_text())
    assert sorted(doc) == ["config_hash", "ego_motion", "seed"]


def _checkpoint_of(cfg, path):
    params = init_parameters(cfg.scene, cfg.train)
    save_checkpoint(path, params, 0, cfg.config_hash())
    return path


def test_eval_rejects_an_old_scene_directory(small_config, tmp_path, capsys):
    cfg, path = small_config
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(path), "--out", str(gen)]) == 0
    _old_json_sidecar(gen / "eval" / "scene_0001")
    ckpt = _checkpoint_of(cfg, tmp_path / "checkpoint.bin")
    capsys.readouterr()
    code = main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                 "--scenes", str(gen / "eval"), "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert "scene_0001: missing scene.json" in err and "lane3d generate" in err


def test_eval_rejects_scenes_of_another_configuration(small_config, tmp_path, capsys):
    _, path = small_config
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(path), "--out", str(gen)]) == 0
    # 24-channel scenes evaluated under the default 128-channel config
    ckpt = _checkpoint_of(RunConfiguration(), tmp_path / "checkpoint.bin")
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--scenes", str(gen / "eval"),
                 "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert "scene_0000/features.npy: (K, C) = (8, 24) differs from (40, 128)" in err
    assert "matmul" not in err


def test_lane_file_accepts_bare_lists(tmp_path):
    lanes = generate_scene(3, SMALL_SCENE).frames[-1].lanes
    path = tmp_path / "bare.lanes.json"
    path.write_text(json.dumps([lane.to_dict() for lane in lanes]))
    back = read_lane_file(path)
    assert len(back) == len(lanes)
    wrapped = tmp_path / "wrapped.lanes.json"
    write_lane_file(wrapped, lanes, "abc")
    doc = json.loads(wrapped.read_text())
    assert doc["config_hash"] == "abc"
    assert len(doc["lanes"]) == len(lanes)


def test_lane_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.lanes.json"
    path.write_text("{broken")
    with pytest.raises(ValueError, match="invalid JSON"):
        read_lane_file(path)
    path.write_text('{"lanes": 4}')
    with pytest.raises(ValueError, match="list of lanes"):
        read_lane_file(path)
    path.write_text('{"lanes": [{"x": [1.0]}]}')
    with pytest.raises(ValueError, match="malformed lane"):
        read_lane_file(path)
    path.write_bytes(b'{"lanes": []}\xff')
    with pytest.raises(ValueError) as info:
        read_lane_file(path)
    assert str(info.value).startswith(f"lane file {path}: invalid JSON")


def test_lane_file_rejects_deep_nesting(tmp_path):
    path = tmp_path / "deep.lanes.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError) as info:
        read_lane_file(path)
    assert str(info.value).startswith(f"lane file {path}: invalid JSON")


def _one_lane(**fields):
    lane = generate_scene(3, SMALL_SCENE).frames[-1].lanes[0].to_dict()
    lane.update(fields)
    return lane


BAD_LANES = [
    ("nan-stations", {"stations": [float("nan")] * 6}, "stations: non-finite values"),
    ("inf-x", {"x": [float("inf")] * 6}, "x: non-finite values"),
    ("nan-z", {"z": [0.0] * 5 + [float("nan")]}, "z: non-finite values"),
    ("nan-visibility", {"visibility": [float("nan")] * 6}, "visibility: non-finite values"),
    ("string-x", {"x": ["1.0"] * 6}, "x: expected a list of numbers"),
    ("bool-z", {"z": [True] * 6}, "z: expected a list of numbers"),
    ("category-float", {"category": 1.7}, "category: 1.7 is not an integer"),
    ("category-integral-float", {"category": 1.0}, "category: 1.0 is not an integer"),
    ("category-bool", {"category": True}, "category: True is not an integer"),
    ("category-string", {"category": "1"}, "category: '1' is not an integer"),
    ("short-x", {"x": [0.0]}, "Lane3D: stations, x, z, visibility must share one length"),
]


@pytest.mark.parametrize("fields, words", [case[1:] for case in BAD_LANES],
                         ids=[case[0] for case in BAD_LANES])
def test_lane_file_names_the_file_lane_and_field(tmp_path, fields, words):
    path = tmp_path / "bad.lanes.json"
    path.write_text(json.dumps({"lanes": [_one_lane(), _one_lane(**fields)]}))
    with pytest.raises(ValueError) as info:
        read_lane_file(path)
    assert f"lane file {path}: lane 1: {words}" in str(info.value)


def test_eval_exits_1_on_a_lane_file_with_a_nan(small_config, tmp_path, capsys):
    cfg, path = small_config
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(path), "--out", str(gen)]) == 0
    lane_path = gen / "eval" / "scene_0001" / "frame_0.lanes.json"
    doc = json.loads(lane_path.read_text())
    doc["lanes"][0]["x"][2] = float("nan")
    lane_path.write_text(json.dumps(doc))
    ckpt = _checkpoint_of(cfg, tmp_path / "checkpoint.bin")
    capsys.readouterr()
    code = main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                 "--scenes", str(gen / "eval"), "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"lane file {lane_path}: lane 0: x: non-finite values" in err


def test_train_then_eval_checkpoint(small_config, tmp_path, capsys):
    cfg, path = small_config
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    for name in ("checkpoint.bin", "metrics.csv", "train_log.csv", "config.json"):
        assert (out / name).exists(), name
    head = (out / "metrics.csv").read_text().splitlines()[0]
    assert head == f"# config_hash={cfg.config_hash()}"
    params, header = load_checkpoint(out / "checkpoint.bin")
    assert header["config_hash"] == cfg.config_hash()
    assert header["epoch"] == cfg.train.epochs
    capsys.readouterr()

    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(path), "--out", str(gen)]) == 0
    eval_out = tmp_path / "ev"
    code = main(
        [
            "eval",
            "--config",
            str(path),
            "--checkpoint",
            str(out / "checkpoint.bin"),
            "--scenes",
            str(gen / "eval"),
            "--out",
            str(eval_out),
        ]
    )
    assert code == 0
    lines = (eval_out / "eval_metrics.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={cfg.config_hash()}"
    assert lines[1].startswith("scene_id,")
    assert lines[-1].startswith("aggregate,")


def test_train_reruns_are_bitwise_identical(small_config, tmp_path):
    _, path = small_config
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(path), "--out", str(out_b)]) == 0
    for name in ("checkpoint.bin", "metrics.csv", "train_log.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_eval_predictions_equal_truth_scores_one(small_config, tmp_path, capsys):
    _, path = small_config
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(path), "--out", str(gen)]) == 0
    pred = tmp_path / "pred"
    pred.mkdir()
    gt = tmp_path / "gt"
    gt.mkdir()
    for i, d in enumerate(sorted((gen / "eval").iterdir())):
        last = sorted(d.glob("frame_*.lanes.json"))[-1]
        (pred / f"scene_{i}.lanes.json").write_bytes(last.read_bytes())
        (gt / f"scene_{i}.lanes.json").write_bytes(last.read_bytes())
    capsys.readouterr()
    out = tmp_path / "ev"
    code = main(
        ["eval", "--pred", str(pred), "--scenes", str(gt), "--out", str(out)]
    )
    assert code == 0
    assert "f1=1.000000" in capsys.readouterr().out
    rows = (out / "eval_metrics.csv").read_text().splitlines()
    assert rows[-1].split(",")[6] == "1.000000"


def test_eval_requires_exactly_one_source(small_config, tmp_path, capsys):
    _, path = small_config
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "exactly one of" in err
    assert "usage:" in err


def test_eval_missing_checkpoint_shows_usage(small_config, tmp_path, capsys):
    _, path = small_config
    code = main(
        ["eval", "--config", str(path), "--checkpoint", str(tmp_path / "none.bin")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "checkpoint not found" in err
    assert "usage:" in err


def test_eval_rejects_a_truncated_checkpoint(small_config, tmp_path, capsys):
    cfg, path = small_config
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    ckpt = out / "checkpoint.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:-5])
    capsys.readouterr()
    code = main(["eval", "--config", str(path), "--checkpoint", str(ckpt)])
    assert code == 1
    err = capsys.readouterr().err
    assert "checkpoint.bin" in err and "body truncated" in err


def test_eval_rejects_a_checkpoint_with_a_nan(small_config, tmp_path, capsys):
    cfg, path = small_config
    params = init_parameters(cfg.scene, cfg.train)
    params["head.cls_w"][1, 2] = np.nan
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(ckpt, params, 0, cfg.config_hash())
    capsys.readouterr()
    code = main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert "checkpoint.bin: head.cls_w: non-finite parameter values" in err
    assert not (tmp_path / "ev" / "eval_metrics.csv").exists()


def test_eval_rejects_a_checkpoint_of_another_configuration(small_config, tmp_path, capsys):
    cfg, path = small_config
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    # a 24-channel checkpoint evaluated under the default 128-channel config
    code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    err = capsys.readouterr().err
    assert "checkpoint.bin: lstm.w_ih: shape (96, 24) differs from (512, 128)" in err
    assert "matmul" not in err


def test_gradcheck_passes_and_is_repeatable(tmp_path, capsys):
    argv = ["gradcheck", "--inputs", "2", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("[")]
    assert strip(first) == strip(second)
    assert "all gradient checks passed" in first


def test_gradcheck_corruption_fails_and_names_the_op(capsys):
    code = main(["gradcheck", "--inputs", "2", "--corrupt-op", "sigmoid"])
    assert code == 1
    captured = capsys.readouterr()
    assert "failing operations" in captured.out
    assert "gradient audit failed" in captured.err


def test_gradcheck_writes_report_with_hash(tmp_path, capsys):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--inputs", "2", "--out", str(out)]) == 0
    text = (out / "gradcheck_report.txt").read_text()
    assert text.startswith("# config_hash=")
    assert "worst offender" in text


def test_gradcheck_audits_the_config_loss_and_stamps_its_hash(tmp_path, capsys):
    cfg = RunConfiguration(loss=LossConfig(focal_gamma=3.0))
    path = tmp_path / "focal.json"
    save_run_configuration(path, cfg)
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", str(path), "--inputs", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    lines = (out / "gradcheck_report.txt").read_text().splitlines()
    # --seed picks the audit's inputs and stays out of the hash
    assert lines[0] == f"# config_hash={cfg.config_hash()}"
    assert cfg.config_hash() != RunConfiguration().config_hash()
    default = format_report(run_gradient_checks(num_inputs=2, base_seed=4))
    custom = format_report(run_gradient_checks(num_inputs=2, base_seed=4, loss_config=cfg.loss))
    assert "\n".join(lines[1:]) == custom != default


def test_gradcheck_rejects_a_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"loss": {"alpha": "x"}}))
    assert main(["gradcheck", "--config", str(path), "--inputs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.strip() == (
        f"lane3d: error: configuration file {path}: loss.alpha: expected a finite number, "
        "got a string"
    )


@pytest.mark.parametrize(
    "document",
    [
        {"train": {"use_chamfr": False}},
        {"scene": {"num_anchorz": 8}},
        {"loss": {"alphaa": 0.5}},
        {"scene": "oops"},
        {"train": {"epochs": 2.5}},
        {"loss": {"alpha": "x"}},
    ],
)
def test_train_rejects_a_bad_config_in_one_line(tmp_path, capsys, document):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(document))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"configuration file {path}: " in err
    assert not (tmp_path / "run").exists()


def test_deeply_nested_inputs_exit_1_without_a_traceback(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    config = tmp_path / "deep.json"
    config.write_text(deep)
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    write_lane_file(gt / "scene_0.lanes.json", generate_scene(3, SMALL_SCENE).frames[-1].lanes)
    (pred / "scene_0.lanes.json").write_text(deep)
    runs = [
        (["train", "--config", str(config), "--out", str(tmp_path / "run")],
         f"configuration file {config}: invalid JSON"),
        (["eval", "--pred", str(pred), "--scenes", str(gt), "--out", str(tmp_path / "ev")],
         f"lane file {pred / 'scene_0.lanes.json'}: invalid JSON"),
    ]
    for argv, message in runs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"lane3d: error: {message}")
        assert "Traceback" not in err


def test_ablate_emits_five_nested_rows(small_config, tmp_path, capsys):
    cfg, path = small_config
    out = tmp_path / "abl"
    code = main(
        ["ablate", "--config", str(path), "--out", str(out), "--epochs", "2"]
    )
    assert code == 0
    table = (out / "ablation.csv").read_text()
    lines = table.splitlines()
    assert lines[0] == f"# config_hash={cfg.with_overrides(epochs=2).config_hash()}"
    assert "rows nest" in lines[1]
    assert lines[2] == "configuration,f1,acc,jitter"
    names = [l.split(",")[0] for l in lines[3:]]
    assert names == [
        "baseline",
        "+balanced_l1",
        "+chamfer",
        "+uncertainty",
        "+lstm_fusion",
    ]
    assert table in capsys.readouterr().out


def test_epochs_flag_beats_config(small_config, tmp_path):
    _, path = small_config
    out = tmp_path / "run"
    assert (
        main(["train", "--config", str(path), "--out", str(out), "--epochs", "2"]) == 0
    )
    rows = (out / "train_log.csv").read_text().splitlines()
    assert len(rows) == 1 + 2  # header plus one row per epoch


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_default_config_used_when_no_file(tmp_path, capsys, monkeypatch):
    # gradcheck needs no config file at all
    assert main(["gradcheck", "--inputs", "1"]) == 0
