import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lane3d.config import (
    RunConfiguration,
    canonical_json,
    config_hash,
    from_dict,
    load_run_configuration,
    save_run_configuration,
    to_dict,
)
from lane3d.losses import LossConfig
from lane3d.synth import SceneConfig
from lane3d.training import TrainConfig


def test_defaults_pin_the_benchmark():
    cfg = RunConfiguration()
    assert cfg.num_train_scenes == 64
    assert cfg.num_eval_scenes == 32
    assert cfg.train_data_seed == 1000
    assert cfg.eval_data_seed == 5000
    assert cfg.distance_threshold == 1.5
    assert cfg.coverage_fraction == 0.75
    assert cfg.train.epochs == 60
    assert cfg.train.seed == 11
    assert cfg.train.batch_size == 4
    assert cfg.train.learning_rate == 1e-3
    assert (cfg.train.curve_ramp_start, cfg.train.curve_ramp_end) == (5, 15)
    assert cfg.scene == SceneConfig()
    assert cfg.loss == LossConfig()


def test_round_trip_through_dict():
    cfg = RunConfiguration(
        scene=SceneConfig(num_anchors=6, channels=32, stations=(3.0, 10.0, 20.0)),
        loss=LossConfig(alpha=0.7, gamma=2.1),
        train=TrainConfig(epochs=9, seed=4),
        distance_threshold=2.0,
        coverage_fraction=0.5,
        num_train_scenes=3,
        num_eval_scenes=2,
        output_dir="elsewhere",
    )
    back = from_dict(RunConfiguration, to_dict(cfg))
    assert back == cfg
    # and the dict itself survives a JSON round trip bit-for-bit
    assert from_dict(RunConfiguration, json.loads(json.dumps(to_dict(cfg)))) == cfg


def test_file_round_trip(tmp_path):
    cfg = RunConfiguration(num_train_scenes=5, train=TrainConfig(epochs=2))
    path = tmp_path / "run.json"
    save_run_configuration(path, cfg)
    assert load_run_configuration(path) == cfg


def test_from_dict_rejects_unknown_fields():
    d = to_dict(RunConfiguration())
    d["mystery"] = 1
    with pytest.raises(ValueError, match="mystery"):
        from_dict(RunConfiguration, d)


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_run_configuration(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_run_configuration(bad)


def test_load_rejects_a_deeply_nested_file(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError) as info:
        load_run_configuration(deep)
    assert str(info.value).startswith(f"configuration file {deep}: invalid JSON")


def test_hash_is_stable_and_sensitive():
    base = RunConfiguration()
    assert base.config_hash() == RunConfiguration().config_hash()
    assert len(base.config_hash()) == 12
    changed = dataclasses.replace(base, num_eval_scenes=33)
    assert changed.config_hash() != base.config_hash()
    deeper = base.with_overrides(seed=12)
    assert deeper.config_hash() != base.config_hash()


def test_hash_ignores_output_dir():
    a = RunConfiguration(output_dir="here")
    b = RunConfiguration(output_dir="there")
    assert a.config_hash() == b.config_hash()
    assert a != b


def test_canonical_json_sorts_keys():
    doc = {"b": 1, "a": {"d": 2, "c": 3}}
    assert canonical_json(doc) == '{"a":{"c":3,"d":2},"b":1}'
    assert config_hash(doc) == config_hash({"a": {"c": 3, "d": 2}, "b": 1})


def test_with_overrides_layering():
    cfg = RunConfiguration()
    out = cfg.with_overrides(seed=7, epochs=3, distance_threshold=2.5, output_dir=None)
    assert out.train.seed == 7
    assert out.train.epochs == 3
    assert out.distance_threshold == 2.5
    # untouched train fields survive the replacement
    assert out.train.batch_size == cfg.train.batch_size
    # None means "not given", never "set to None"
    assert out.output_dir == cfg.output_dir


def test_with_overrides_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown override"):
        RunConfiguration().with_overrides(learning=1.0)


def test_validation():
    with pytest.raises(ValueError):
        RunConfiguration(distance_threshold=0.0)
    with pytest.raises(ValueError):
        RunConfiguration(coverage_fraction=0.0)
    with pytest.raises(ValueError):
        RunConfiguration(coverage_fraction=1.5)
    with pytest.raises(ValueError):
        RunConfiguration(num_train_scenes=0)
    with pytest.raises(ValueError):
        RunConfiguration(output_dir="")


def test_hash_covers_nested_fields():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(8):
        cfg = RunConfiguration(
            scene=SceneConfig(noise_sigma=float(rng.uniform(0.0, 1.0))),
            train=TrainConfig(seed=int(rng.integers(0, 1000))),
        )
        seen.add(cfg.config_hash())
    assert len(seen) == 8


def test_default_hash_is_pinned():
    # every checkpoint and table of the default benchmark carries this value
    assert RunConfiguration().config_hash() == "a9e3e06cc2c1"


def test_to_dict_writes_every_init_field():
    d = to_dict(RunConfiguration())
    assert set(d["loss"]) == {"alpha", "beta", "gamma", "focal_gamma", "focal_alpha", "dice_epsilon"}
    assert d["scene"]["num_lanes_range"] == [2, 4]
    assert isinstance(d["scene"]["stations"], list) and len(d["scene"]["stations"]) == 20
    assert set(d["train"]) == {
        "epochs", "batch_size", "learning_rate", "seed", "curve_ramp_start", "curve_ramp_end",
        "use_balanced_l1", "use_chamfer", "use_uncertainty", "use_lstm_fusion",
    }


@pytest.mark.parametrize(
    "document, field",
    [
        ({"train": {"use_chamfr": False}}, "train.use_chamfr: unknown field"),
        ({"scene": {"num_anchorz": 8}}, "scene.num_anchorz: unknown field"),
        ({"loss": {"alphaa": 0.5}}, "loss.alphaa: unknown field"),
        ({"scene": "oops"}, "scene: expected a JSON object, got a string"),
        ({"train": {"epochs": 2.5}}, "train.epochs: expected an integer, got a number"),
        ({"loss": {"alpha": "x"}}, "loss.alpha: expected a finite number, got a string"),
        ({"train": {"use_chamfer": 0}}, "train.use_chamfer: expected a boolean, got a number"),
        ({"loss": {"beta": True}}, "loss.beta: expected a finite number, got a boolean"),
        ({"scene": {"lateral_span": [-1, "x"]}}, "scene.lateral_span: expected an array"),
        ({"distance_threshold": None}, "distance_threshold: expected a finite number, got null"),
        ({"loss": {"alpha": -1.0}}, "loss: LossConfig: alpha"),
        ({"train": {"optimizer": "adam"}}, "train.optimizer: unknown field"),
        ({"train": {"use_consistency": False}}, "train.use_consistency: unknown field"),
    ],
)
def test_load_names_the_file_and_the_field(tmp_path, document, field):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError) as info:
        load_run_configuration(path)
    message = str(info.value)
    assert message.startswith(f"configuration file {path}: {field}")
    assert "\n" not in message


def test_load_reads_json_integers_in_float_fields_as_floats(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"train": {"learning_rate": 1}, "loss": {"alpha": 1}}))
    cfg = load_run_configuration(path)
    assert isinstance(cfg.train.learning_rate, float) and cfg.train.learning_rate == 1.0
    assert isinstance(cfg.loss.alpha, float)
    # a partial section starts from that section's own defaults, which for
    # train are the benchmark's
    written = RunConfiguration(train=TrainConfig(learning_rate=1.0), loss=LossConfig(alpha=1.0))
    assert cfg.config_hash() == written.config_hash()
    assert cfg.train == dataclasses.replace(RunConfiguration().train, learning_rate=1.0)


def test_load_turns_arrays_into_tuples(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"scene": {"lateral_span": [-6, 6]}}))
    assert load_run_configuration(path).scene.lateral_span == (-6, 6)


_FIELDS = [f"{section}.{name}" for section, fields in to_dict(RunConfiguration()).items()
           if isinstance(fields, dict) for name in fields]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def _documents(draw):
    """Defaults with a few fields replaced by arbitrary JSON, plus stray keys."""
    document = to_dict(RunConfiguration())
    top = [name for name, value in document.items() if not isinstance(value, dict)]
    for path in draw(st.lists(st.sampled_from(_FIELDS + top + ["scene", "loss", "train"]), max_size=3)):
        *section, name = path.split(".")
        target = document[section[0]] if section else document
        if isinstance(target, dict):
            target[name] = draw(_JSON)
    if draw(st.booleans()):
        document.update(draw(st.dictionaries(st.text(max_size=8), _JSON, max_size=2)))
    return document


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_documents())
def test_load_either_loads_or_names_the_file(tmp_path, document):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    try:
        cfg = load_run_configuration(path)
    except ValueError as exc:
        assert str(exc).startswith(f"configuration file {path}: ")
    else:
        assert isinstance(cfg, RunConfiguration)
