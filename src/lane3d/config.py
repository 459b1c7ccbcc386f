"""Run configuration: one document that pins an entire experiment.

A run is a function of (configuration, seeds) and nothing else. The
configuration bundles scene generation, loss shape, training schedule,
and evaluation constants, plus the dataset sizes and data seeds of the
default benchmark. Serializing it to canonical JSON and hashing gives a
short fingerprint that every output artifact carries, so a table or a
checkpoint can always be traced back to the exact settings that made it.

One codec, ``to_dict``/``from_dict``, is the JSON format of
RunConfiguration and of its three sections (SceneConfig, LossConfig,
TrainConfig). The command-line flags go through it too: written into
``to_dict`` of a configuration, they meet every check a file value meets.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

from .geometry import is_integer, is_number, load_json
from .losses import LossConfig
from .metrics import COVERAGE_FRACTION, DISTANCE_THRESHOLD
from .synth import SceneConfig
from .training import TrainConfig

# the default eval data seed, and `lane3d generate --seed`'s, is the
# train data seed plus this
EVAL_SEED_OFFSET = 4000


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
    eval_data_seed: int = train_data_seed + EVAL_SEED_OFFSET
    output_dir: str = "runs"

    def __post_init__(self):
        if not 0 < self.distance_threshold < math.inf:  # negated: NaN fails
            raise ValueError("RunConfiguration: distance_threshold must be positive and finite")
        if not 0 < self.coverage_fraction <= 1:
            raise ValueError("RunConfiguration: coverage_fraction must be in (0, 1]")
        if self.num_train_scenes < 1 or self.num_eval_scenes < 1:
            raise ValueError("RunConfiguration: dataset sizes must be >= 1")
        for name in ("train_data_seed", "eval_data_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"RunConfiguration: {name} must be non-negative")
        if not self.output_dir:
            raise ValueError("RunConfiguration: output_dir must be non-empty")

    def config_hash(self) -> str:
        """First 12 hex chars of sha256 over the key-sorted, whitespace-free
        JSON of ``to_dict``, without ``output_dir``: where outputs land does
        not change what the run computes."""
        document = to_dict(self)
        document.pop("output_dir")
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


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


# field annotation -> (what the JSON value must be, test of the value)
_ACCEPTS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", is_integer),
    float: ("a finite number", is_number),
    tuple: ("an array of finite numbers", lambda v: isinstance(v, list) and all(map(is_number, v))),
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


def save_run_configuration(path, config: RunConfiguration) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run_configuration(path) -> RunConfiguration:
    with open(path, "rb") as fh:
        document = load_json(fh.read(), f"configuration file {path}")
    try:
        return from_dict(RunConfiguration, document)
    except ValueError as exc:
        raise ValueError(f"configuration file {path}: {exc}") from None
