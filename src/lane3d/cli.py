"""Command-line entry point: generate / train / eval / gradcheck / ablate.

Every subcommand is a pure function of (configuration document, seed):
re-running one overwrites its outputs with identical bytes. Wall-clock
timestamps appear only in stdout log lines, never inside output files,
and every output document carries the configuration hash it was
produced under.

Exit codes: 0 success, 1 validation error (bad flags, unreadable or
inconsistent inputs, a failed gradient audit), 2 runtime or numerical
failure (training divergence, unexpected I/O loss mid-run).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import tokenize
from pathlib import Path

import numpy as np

from .checks import (
    DEFAULT_INPUTS_PER_CHECK,
    corrupt_gradient,
    format_report,
    run_gradient_checks,
    worst_result,
)
from .config import (
    RunConfiguration,
    load_run_configuration,
    save_run_configuration,
)
from .geometry import read_lane_file, write_lane_file
from .metrics import aggregate_reports, match_lanes, metrics_row, write_metrics_csv
from .synth import FrameRecord, SceneSequence, generate_dataset
from .training import (
    TrainingDiverged,
    ablation_table,
    evaluate_model,
    init_parameters,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

SCENE_NAME = "scene.json"
FEATURES_NAME = "features.npy"
FEATURES_DTYPE = np.dtype("<f8")


class _Parser(argparse.ArgumentParser):
    """argparse with validation failures mapped onto exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _log(message: str) -> None:
    # the only place wall-clock time is allowed to appear
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    print(f"[{stamp}] {message}")


def _resolve_config(args, data_seed_override: bool = False) -> RunConfiguration:
    """Layer flags over the config file over the defaults."""
    path = getattr(args, "config", None)
    config = load_run_configuration(path) if path else RunConfiguration()
    overrides = {}
    seed = getattr(args, "seed", None)
    if seed is not None:
        if data_seed_override:
            overrides["train_data_seed"] = seed
            overrides["eval_data_seed"] = seed + 4000
        else:
            overrides["seed"] = seed
    for flag, field in (
        ("epochs", "epochs"),
        ("threshold", "distance_threshold"),
        ("coverage", "coverage_fraction"),
        ("out", "output_dir"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return config.with_overrides(**overrides)


def _out_dir(config: RunConfiguration) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# scene files: per-frame lane documents, the (T, K, C) feature array and
# a small JSON document with the seed and ego motion


def write_scene_dir(dirpath, scene: SceneSequence, config_hash: str) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(scene.frames):
        write_lane_file(dirpath / f"frame_{t}.lanes.json", frame.lanes, config_hash)
    features = np.stack([frame.features for frame in scene.frames])
    np.save(dirpath / FEATURES_NAME, features.astype(FEATURES_DTYPE, copy=False))
    doc = {
        "config_hash": config_hash,
        "seed": scene.seed,
        "ego_motion": np.asarray(scene.ego_motion).tolist(),
    }
    with open(dirpath / SCENE_NAME, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


# np.load on a damaged file: a cut header reaches numpy's tokenizer, a
# header claiming a huge shape its allocator
_NPY_ERRORS = (ValueError, EOFError, SyntaxError, tokenize.TokenError, MemoryError)


def _read_features(path) -> np.ndarray:
    """The finite (T, K, C) little-endian float64 array of a features file."""
    with open(path, "rb") as fh:
        try:
            features = np.load(fh, allow_pickle=False)
        except _NPY_ERRORS as exc:
            raise ValueError(f"features {path}: unreadable array ({exc})") from None
        if fh.read(1):
            raise ValueError(f"features {path}: trailing bytes after the array")
    if features.dtype != FEATURES_DTYPE:
        raise ValueError(f"features {path}: dtype {features.dtype.str}, expected <f8")
    if features.ndim != 3 or features.shape[0] == 0:
        raise ValueError(f"features {path}: shape {features.shape} is not (T >= 1, K, C)")
    if not np.all(np.isfinite(features)):
        raise ValueError(f"features {path}: non-finite feature values")
    return features


def read_scene_dir(dirpath) -> SceneSequence:
    dirpath = Path(dirpath)
    for name in (SCENE_NAME, FEATURES_NAME):
        if not (dirpath / name).is_file():
            raise ValueError(
                f"scene directory {dirpath}: missing {name} "
                "(regenerate the scenes with `lane3d generate`)"
            )
    features = _read_features(dirpath / FEATURES_NAME)
    num_frames = features.shape[0]
    scene_path = dirpath / SCENE_NAME
    with open(scene_path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"scene {scene_path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or "ego_motion" not in doc:
        raise ValueError(f"scene {scene_path}: ego_motion: missing")
    try:
        ego_motion = np.asarray(doc["ego_motion"], dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        raise ValueError(f"scene {scene_path}: ego_motion: not a table of numbers") from None
    if ego_motion.shape != (num_frames, 2):
        raise ValueError(
            f"scene {scene_path}: ego_motion: shape {ego_motion.shape} does not "
            f"match the {num_frames} frames of {FEATURES_NAME}"
        )
    if not np.all(np.isfinite(ego_motion)):
        raise ValueError(f"scene {scene_path}: ego_motion: non-finite values")
    seed = doc.get("seed", -1)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"scene {scene_path}: seed: {seed!r} is not an integer")
    num_lane_files = len(list(dirpath.glob("frame_*.lanes.json")))
    if num_lane_files != num_frames:
        raise ValueError(
            f"scene directory {dirpath}: {num_lane_files} frame_<t>.lanes.json "
            f"files for the {num_frames} frames of {FEATURES_NAME}"
        )
    frames = []
    for t in range(num_frames):
        lane_path = dirpath / f"frame_{t}.lanes.json"
        if not lane_path.exists():
            raise ValueError(f"scene directory {dirpath}: missing {lane_path.name}")
        frames.append(FrameRecord(lanes=tuple(read_lane_file(lane_path)), features=features[t]))
    return SceneSequence(frames=tuple(frames), ego_motion=ego_motion, seed=seed)


def load_scene_dataset(root, feature_shape) -> list:
    """Every scene directory under root; each scene's (K, C) must equal feature_shape."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"scene dataset {root}: not a directory")
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not subdirs:
        raise ValueError(f"scene dataset {root}: no scene directories found")
    scenes = []
    for path in subdirs:
        scenes.append(read_scene_dir(path))
        shape = scenes[-1].frames[0].features.shape
        if shape != tuple(feature_shape):
            raise ValueError(
                f"scene {path / FEATURES_NAME}: (K, C) = {shape} differs from "
                f"{tuple(feature_shape)} of the run configuration"
            )
    return scenes


def _generate_split(config: RunConfiguration):
    train_scenes = generate_dataset(
        config.train_data_seed, config.num_train_scenes, config.scene
    )
    eval_scenes = generate_dataset(
        config.eval_data_seed, config.num_eval_scenes, config.scene
    )
    return train_scenes, eval_scenes


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    config = _resolve_config(args, data_seed_override=True)
    out = _out_dir(config)
    config_hash = config.config_hash()
    train_scenes, eval_scenes = _generate_split(config)
    save_run_configuration(out / "config.json", config)
    for split, scenes in (("train", train_scenes), ("eval", eval_scenes)):
        for i, scene in enumerate(scenes):
            write_scene_dir(out / split / f"scene_{i:04d}", scene, config_hash)
    print(
        f"wrote {len(train_scenes)} train scenes and {len(eval_scenes)} "
        f"eval scenes under {out} (config_hash={config_hash})"
    )
    _log("generate finished")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    # --seed seeds the audit's inputs, not the model, so it stays out of the hash
    config = load_run_configuration(args.config) if args.config else RunConfiguration()
    hook = getattr(args, "corrupt_op", None)
    with corrupt_gradient(hook) if hook else contextlib.nullcontext():
        results = run_gradient_checks(
            num_inputs=args.inputs, base_seed=args.seed or 0, loss_config=config.loss
        )
    report = format_report(results)
    print(report)
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        config_hash = config.config_hash()
        with open(out / "gradcheck_report.txt", "w") as fh:
            fh.write(f"# config_hash={config_hash}\n{report}\n")
    _log(f"gradcheck finished in {sum(r.seconds for r in results):.1f}s")
    if all(r.passed for r in results):
        return EXIT_OK
    worst = worst_result(results)
    print(
        f"gradient audit failed at operation {worst.name!r} "
        f"(parameter {worst.worst_parameter!r})",
        file=sys.stderr,
    )
    return EXIT_VALIDATION


def _metric_rows(reports, jitters, aggregate, mean_jitter, ids):
    rows = [metrics_row(i, r, j) for i, r, j in zip(ids, reports, jitters)]
    rows.append(metrics_row("aggregate", aggregate, mean_jitter))
    return rows


def cmd_train(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(config)
    config_hash = config.config_hash()
    train_scenes, eval_scenes = _generate_split(config)
    save_run_configuration(out / "config.json", config)
    _log(
        f"training {config.train.epochs} epochs on {len(train_scenes)} scenes "
        f"(config_hash={config_hash})"
    )
    result = train(
        config.train,
        train_scenes,
        config.scene,
        config.loss,
        log_path=out / "train_log.csv",
    )
    reports, jitters, aggregate, mean_jitter = evaluate_model(
        result.params,
        eval_scenes,
        config.scene,
        config.train.use_lstm_fusion,
        config.distance_threshold,
        config.coverage_fraction,
    )
    metrics = {"f1": aggregate.f1, "acc": aggregate.acc, "jitter": mean_jitter}
    save_checkpoint(
        out / "checkpoint.bin", result.params, result.epochs_run, config_hash, metrics
    )
    ids = [f"scene_{i:04d}" for i in range(len(reports))]
    write_metrics_csv(
        out / "metrics.csv",
        _metric_rows(reports, jitters, aggregate, mean_jitter, ids),
        config_hash,
    )
    print(
        f"final losses: "
        + " ".join(f"{k}={v:.6f}" for k, v in sorted(result.final_losses.items()))
    )
    print(
        f"eval: f1={aggregate.f1:.6f} acc={aggregate.acc:.6f} jitter={mean_jitter:.6f}"
    )
    _log("train finished")
    return EXIT_OK


def _eval_from_files(args, config, out, config_hash) -> int:
    pred_root, gt_root = Path(args.pred), Path(args.scenes)
    for root in (pred_root, gt_root):
        if not root.is_dir():
            args.parser.error(f"lane file directory not found: {root}")
    pattern = "*.lanes.json"
    pred_files = sorted(p.relative_to(pred_root) for p in pred_root.rglob(pattern))
    gt_files = sorted(p.relative_to(gt_root) for p in gt_root.rglob(pattern))
    if not gt_files:
        args.parser.error(f"no lane files (*.lanes.json) under {gt_root}")
    if pred_files != gt_files:
        args.parser.error(
            "prediction and ground-truth directories list different lane files"
        )
    reports = []
    for rel in gt_files:
        preds = read_lane_file(pred_root / rel)
        gts = read_lane_file(gt_root / rel)
        reports.append(
            match_lanes(preds, gts, config.distance_threshold, config.coverage_fraction)
        )
    aggregate = aggregate_reports(reports)
    jitters = [float("nan")] * len(reports)
    ids = [str(rel) for rel in gt_files]
    write_metrics_csv(
        out / "eval_metrics.csv",
        _metric_rows(reports, jitters, aggregate, float("nan"), ids),
        config_hash,
    )
    print(f"eval: f1={aggregate.f1:.6f} acc={aggregate.acc:.6f} jitter=nan")
    _log("eval finished")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(config)
    config_hash = config.config_hash()
    if (args.checkpoint is None) == (args.pred is None):
        args.parser.error("provide exactly one of --checkpoint or --pred")
    if args.pred is not None:
        return _eval_from_files(args, config, out, config_hash)
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        args.parser.error(f"checkpoint not found: {ckpt}")
    expected = init_parameters(config.scene, config.train)
    params, header = load_checkpoint(ckpt, {name: p.shape for name, p in expected.items()})
    if args.scenes:
        scenes = load_scene_dataset(
            args.scenes, (config.scene.num_anchors, config.scene.channels)
        )
    else:
        _, scenes = _generate_split(config)
    reports, jitters, aggregate, mean_jitter = evaluate_model(
        params,
        scenes,
        config.scene,
        config.train.use_lstm_fusion,
        config.distance_threshold,
        config.coverage_fraction,
    )
    ids = [f"scene_{i:04d}" for i in range(len(reports))]
    write_metrics_csv(
        out / "eval_metrics.csv",
        _metric_rows(reports, jitters, aggregate, mean_jitter, ids),
        config_hash,
    )
    print(
        f"eval: f1={aggregate.f1:.6f} acc={aggregate.acc:.6f} "
        f"jitter={mean_jitter:.6f} (checkpoint epoch {header.get('epoch')})"
    )
    _log("eval finished")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(config)
    config_hash = config.config_hash()
    train_scenes, eval_scenes = _generate_split(config)
    save_run_configuration(out / "config.json", config)
    _log(
        f"ablation ladder: 5 configurations x {config.train.epochs} epochs "
        f"on {len(train_scenes)} scenes (config_hash={config_hash})"
    )
    results = run_ablation(
        config.train,
        train_scenes,
        eval_scenes,
        config.scene,
        config.loss,
        config.distance_threshold,
        config.coverage_fraction,
    )
    table = ablation_table(results, config_hash)
    with open(out / "ablation.csv", "w") as fh:
        fh.write(table)
    print(table, end="")
    _log("ablate finished")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="lane3d", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="run-configuration JSON document")
        p.add_argument("--out", help="output directory (overrides the config)")
        return p

    p = add("generate", cmd_generate, "write synthetic scene files to disk")
    p.add_argument(
        "--seed", type=int, help="base data seed (eval scenes use seed + 4000)"
    )

    p = add("gradcheck", cmd_gradcheck, "finite-difference audit of all gradients")
    p.add_argument("--seed", type=int, help="base seed for the random inputs")
    p.add_argument("--inputs", type=int, default=DEFAULT_INPUTS_PER_CHECK,
                   help="random inputs per named check")
    p.add_argument(
        "--corrupt-op",
        help="test hook: deliberately break one primitive's backward rule",
    )

    p = add("train", cmd_train, "train on a regenerated benchmark and evaluate")
    p.add_argument("--seed", type=int, help="weight-initialization seed")
    p.add_argument("--epochs", type=int, help="training epochs")

    p = add("eval", cmd_eval, "evaluate a checkpoint or prediction files")
    p.add_argument("--checkpoint", help="checkpoint produced by the train subcommand")
    p.add_argument("--pred", help="directory of predicted lane files")
    p.add_argument("--scenes", help="scene dataset (or ground-truth lane files)")
    p.add_argument("--threshold", type=float, help="matching distance threshold [m]")
    p.add_argument("--coverage", type=float, help="required covered-station fraction")

    p = add("ablate", cmd_ablate, "emit the five-row component-ablation table")
    p.add_argument("--seed", type=int, help="weight-initialization seed")
    p.add_argument("--epochs", type=int, help="training epochs per row")
    p.add_argument("--threshold", type=float, help="matching distance threshold [m]")
    p.add_argument("--coverage", type=float, help="required covered-station fraction")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code is None else int(exc.code)
    except (ValueError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"lane3d: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrainingDiverged as exc:
        print(f"lane3d: numerical failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ArithmeticError, OSError) as exc:
        print(f"lane3d: runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
