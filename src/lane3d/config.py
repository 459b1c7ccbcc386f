"""Run configuration: one document that pins an entire experiment.

A run is a function of (configuration, seeds) and nothing else. The
configuration bundles scene generation, loss shape, training schedule,
and evaluation constants, plus the dataset sizes and data seeds of the
default benchmark. Serializing it to canonical JSON and hashing gives a
short fingerprint that every output artifact carries, so a table or a
checkpoint can always be traced back to the exact settings that made it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .losses import LossConfig
from .metrics import COVERAGE_FRACTION, DISTANCE_THRESHOLD
from .synth import SceneConfig
from .training import TrainConfig


def _default_train() -> TrainConfig:
    # Benchmark budget: 60 epochs on 64 scenes. The fused model reaches
    # its best eval F1 in this window and starts to memorize past it.
    return TrainConfig(
        epochs=60,
        batch_size=4,
        learning_rate=1e-3,
        seed=11,
        curve_ramp_start=5,
        curve_ramp_end=15,
    )


@dataclass(frozen=True)
class RunConfiguration:
    """Everything a subcommand needs, bundled and hashable.

    `train_data_seed` / `eval_data_seed` are deliberately separate from
    the model seed inside `train`: regenerating the same datasets under
    a different weight initialization is a supported experiment.
    """

    scene: SceneConfig = field(default_factory=SceneConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=_default_train)
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

    def to_dict(self) -> dict:
        return {
            "scene": self.scene.to_dict(),
            "loss": self.loss.to_dict(),
            "train": self.train.to_dict(),
            "distance_threshold": self.distance_threshold,
            "coverage_fraction": self.coverage_fraction,
            "num_train_scenes": self.num_train_scenes,
            "num_eval_scenes": self.num_eval_scenes,
            "train_data_seed": self.train_data_seed,
            "eval_data_seed": self.eval_data_seed,
            "output_dir": self.output_dir,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunConfiguration":
        known = {f.name for f in dataclasses.fields(RunConfiguration)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"RunConfiguration: unknown fields {unknown}")
        kwargs = {}
        if "scene" in d:
            kwargs["scene"] = SceneConfig.from_dict(d["scene"])
        if "loss" in d:
            kwargs["loss"] = LossConfig.from_dict(d["loss"])
        if "train" in d:
            kwargs["train"] = TrainConfig.from_dict(d["train"])
        for name in (
            "distance_threshold",
            "coverage_fraction",
            "num_train_scenes",
            "num_eval_scenes",
            "train_data_seed",
            "eval_data_seed",
            "output_dir",
        ):
            if name in d:
                kwargs[name] = d[name]
        return RunConfiguration(**kwargs)

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
        document = self.to_dict()
        document.pop("output_dir")
        return config_hash(document)


def canonical_json(document: dict) -> str:
    """Key-sorted, whitespace-free JSON; the hashing wire format."""

    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def config_hash(document: dict) -> str:
    """First 12 hex chars of sha256 over the canonical JSON form."""

    digest = hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
    return digest[:12]


def save_run_configuration(path, config: RunConfiguration) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run_configuration(path) -> RunConfiguration:
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"configuration file {path}: invalid JSON ({exc})")
    if not isinstance(document, dict):
        raise ValueError(f"configuration file {path}: expected a JSON object")
    return RunConfiguration.from_dict(document)
