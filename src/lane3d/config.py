"""Run configuration: one document that pins an entire experiment.

A run is a function of (configuration, seeds) and nothing else. The
configuration bundles scene generation, loss shape, training schedule,
and evaluation constants, plus the dataset sizes and data seeds of the
default benchmark. Serializing it to canonical JSON and hashing gives a
short fingerprint that every output artifact carries, so a table or a
checkpoint can always be traced back to the exact settings that made it.

One codec, ``to_dict``/``from_dict``, is the JSON format of
RunConfiguration and of its three sections (SceneConfig, LossConfig,
TrainConfig).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

from .losses import LossConfig
from .metrics import COVERAGE_FRACTION, DISTANCE_THRESHOLD
from .synth import SceneConfig
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfiguration:
    """Everything a subcommand needs, bundled and hashable.

    `train_data_seed` / `eval_data_seed` are deliberately separate from
    the model seed inside `train`: regenerating the same datasets under
    a different weight initialization is a supported experiment.
    """

    scene: SceneConfig = field(default_factory=SceneConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    distance_threshold: float = DISTANCE_THRESHOLD
    coverage_fraction: float = COVERAGE_FRACTION
    num_train_scenes: int = 64
    num_eval_scenes: int = 32
    train_data_seed: int = 1000
    eval_data_seed: int = 5000
    output_dir: str = "runs"

    def __post_init__(self):
        if self.distance_threshold <= 0:
            raise ValueError("RunConfiguration: distance_threshold must be positive")
        if not 0 < self.coverage_fraction <= 1:
            raise ValueError("RunConfiguration: coverage_fraction must be in (0, 1]")
        if self.num_train_scenes < 1 or self.num_eval_scenes < 1:
            raise ValueError("RunConfiguration: dataset sizes must be >= 1")
        if not self.output_dir:
            raise ValueError("RunConfiguration: output_dir must be non-empty")

    def with_overrides(self, **kwargs) -> "RunConfiguration":
        """New configuration with top-level or train-level fields replaced.

        Accepts RunConfiguration field names plus the TrainConfig fields
        that command-line flags map onto (seed, epochs).
        """

        top = {f.name for f in dataclasses.fields(RunConfiguration)}
        train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
        run_kwargs, train_kwargs = {}, {}
        for name, value in kwargs.items():
            if value is None:
                continue
            if name in top:
                run_kwargs[name] = value
            elif name in train_fields:
                train_kwargs[name] = value
            else:
                raise ValueError(f"RunConfiguration: unknown override {name!r}")
        if train_kwargs:
            base = run_kwargs.get("train", self.train)
            run_kwargs["train"] = dataclasses.replace(base, **train_kwargs)
        return dataclasses.replace(self, **run_kwargs)

    def config_hash(self) -> str:
        # where outputs land does not change what the run computes, so
        # the fingerprint ignores it
        document = to_dict(self)
        document.pop("output_dir")
        return config_hash(document)


def to_dict(config) -> dict:
    """Every init field of a config dataclass; sections nest, tuples become lists."""

    document = {}
    for f in dataclasses.fields(config):
        if not f.init:
            continue
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            value = to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        document[f.name] = value
    return document


def _is_number(value) -> bool:
    """A finite JSON number; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# field annotation -> (what the JSON value must be, test of the value)
_ACCEPTS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _is_number),
    tuple: ("an array of finite numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}
_JSON_TYPES = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array", dict: "an object", type(None): "null"}


def from_dict(cls, document, where: str = ""):
    """Config dataclass ``cls`` from the JSON document ``to_dict`` writes.

    Absent fields keep their defaults.  An unknown field, a value of the
    wrong JSON type (a boolean is not a number, 2.5 is not an integer)
    or a value the dataclass rejects raises a ValueError that starts
    with the dotted field, e.g. ``train.use_chamfr``.
    """

    prefix = f"{where}: " if where else ""
    if not isinstance(document, dict):
        raise ValueError(f"{prefix}expected a JSON object, got {_JSON_TYPES[type(document)]}")
    kinds = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls) if f.init}
    kwargs = {}
    for name, value in document.items():
        path = f"{where}.{name}" if where else name
        if name not in names:
            raise ValueError(f"{path}: unknown field")
        kind = kinds[name]
        if dataclasses.is_dataclass(kind):
            kwargs[name] = from_dict(kind, value, path)
            continue
        expected, accepts = _ACCEPTS[kind]
        if not accepts(value):
            raise ValueError(f"{path}: expected {expected}, got {_JSON_TYPES[type(value)]}")
        kwargs[name] = kind(value)  # an integer in a float field becomes a float
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def canonical_json(document: dict) -> str:
    """Key-sorted, whitespace-free JSON; the hashing wire format."""

    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def config_hash(document: dict) -> str:
    """First 12 hex chars of sha256 over the canonical JSON form."""

    digest = hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
    return digest[:12]


def save_run_configuration(path, config: RunConfiguration) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run_configuration(path) -> RunConfiguration:
    with open(path) as fh:
        try:
            document = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"configuration file {path}: invalid JSON ({exc})") from None
    try:
        return from_dict(RunConfiguration, document)
    except ValueError as exc:
        raise ValueError(f"configuration file {path}: {exc}") from None
