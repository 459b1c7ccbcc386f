"""Command-line entry point: generate / train / eval / gradcheck / ablate.

Every subcommand is a pure function of (configuration document, seed):
re-running one overwrites its outputs with identical bytes. Wall-clock
timestamps appear only in stdout log lines, never inside output files,
and every output document carries the configuration hash it was
produced under.

Each flag sets one configuration field over the config file: `--seed`
and `--epochs` the `train` section, `--threshold`, `--coverage` and
`--out` the top level, and `generate --seed` both data seeds. `gradcheck`
reads only the `loss` section: its `--seed` picks the audit's inputs, and
its report is written only to its `--out`, if given.

Every input is checked before anything is written, so a command that
rejects its flags, configuration or inputs leaves no output directory
behind; only a failed gradient audit exits 1 after writing its report.
`generate`, `train` and `ablate` share one set-up, `_set_up`: resolve
the configuration, generate both splits, then create `--out` and write
`config.json`. `eval` creates `--out` only when it writes its table,
after its flags, the checkpoint and the scenes have passed. This module
writes every run output; every table goes through `metrics.write_table`,
and `_evaluate` runs `evaluate_model` under a configuration and writes
its table, labelling each scene by its directory name. Every reader here
parses and checks its JSON with the input rules of `geometry`.

Exit codes: 0 success, 1 validation error (bad flags, unreadable or
inconsistent inputs, a failed gradient audit), 2 runtime or numerical
failure (training divergence, unexpected I/O loss mid-run).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tokenize
from pathlib import Path

import numpy as np

from .checks import (
    DEFAULT_INPUTS_PER_CHECK,
    format_report,
    run_gradient_checks,
    worst_result,
)
from .config import (
    EVAL_SEED_OFFSET,
    RunConfiguration,
    from_dict,
    load_run_configuration,
    save_run_configuration,
    to_dict,
)
from .geometry import is_integer, load_json, number_array, read_lane_file, write_lane_file
from .metrics import METRIC_COLUMNS, aggregate_reports, match_lanes, metrics_row, write_table
from .synth import FrameRecord, SceneSequence, generate_dataset
from .training import (
    EPOCH_LOG_COLUMNS,
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
LANE_FILE_NAME = "frame_{}.lanes.json"  # of frame t: LANE_FILE_NAME.format(t)
FEATURES_DTYPE = np.dtype("<f8")


def _log(message: str) -> None:
    # the only place wall-clock time is allowed to appear
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    print(f"[{stamp}] {message}")


def _resolve_config(args) -> RunConfiguration:
    """Flags over the config file over the defaults, decoded once by ``from_dict``."""
    config = load_run_configuration(args.config) if args.config else RunConfiguration()

    def flags(*pairs):
        return {field: getattr(args, flag) for flag, field in pairs
                if getattr(args, flag, None) is not None}

    top = flags(("threshold", "distance_threshold"), ("coverage", "coverage_fraction"),
                ("out", "output_dir"), ("data_seed", "train_data_seed"))
    if "train_data_seed" in top:
        top["eval_data_seed"] = top["train_data_seed"] + EVAL_SEED_OFFSET
    document = {**to_dict(config), **top}
    document["train"].update(flags(("seed", "seed"), ("epochs", "epochs")))
    return from_dict(RunConfiguration, document)


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
        write_lane_file(dirpath / LANE_FILE_NAME.format(t), frame.lanes, config_hash)
    features = np.stack([frame.features for frame in scene.frames])
    np.save(dirpath / FEATURES_NAME, features.astype(FEATURES_DTYPE, copy=False))
    doc = {
        "config_hash": config_hash,
        "seed": scene.seed,
        "ego_motion": np.asarray(scene.ego_motion).tolist(),
    }
    with open(dirpath / SCENE_NAME, "w", encoding="utf-8") as fh:
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
    doc = load_json(scene_path.read_bytes(), f"scene {scene_path}")
    if not isinstance(doc, dict) or "ego_motion" not in doc:
        raise ValueError(f"scene {scene_path}: ego_motion: missing")
    rows = doc["ego_motion"]
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == 2 for r in rows):
        raise ValueError(f"scene {scene_path}: ego_motion: expected a list of [forward, yaw] pairs")
    ego_motion = number_array([v for r in rows for v in r],
                              f"scene {scene_path}: ego_motion").reshape(-1, 2)
    if ego_motion.shape != (num_frames, 2):
        raise ValueError(
            f"scene {scene_path}: ego_motion: shape {ego_motion.shape} does not "
            f"match the {num_frames} frames of {FEATURES_NAME}"
        )
    if "seed" not in doc:
        raise ValueError(f"scene {scene_path}: seed: missing")
    seed = doc["seed"]
    if not is_integer(seed):
        raise ValueError(f"scene {scene_path}: seed: {seed!r} is not an integer")
    names = [LANE_FILE_NAME.format(t) for t in range(num_frames)]
    found = sorted(p.name for p in dirpath.glob(LANE_FILE_NAME.format("*")))
    if found != sorted(names):
        raise ValueError(f"scene directory {dirpath}: {len(found)} {LANE_FILE_NAME.format('<t>')} "
                         f"files for the {num_frames} frames of {FEATURES_NAME}: "
                         f"expected {', '.join(names)}")
    frames = tuple(FrameRecord(lanes=tuple(read_lane_file(dirpath / name)), features=frame)
                   for name, frame in zip(names, features))
    return SceneSequence(frames=frames, ego_motion=ego_motion, seed=seed)


def _named(scenes) -> dict:
    """Generated scenes by the directory name `lane3d generate` gives each."""
    return {f"scene_{i:04d}": scene for i, scene in enumerate(scenes)}


def load_scene_dataset(root, scene_config) -> dict:
    """Each scene directory under root by name; each must hold scene_config's T frames of (K, C)."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"scene dataset {root}: not a directory")
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not subdirs:
        raise ValueError(f"scene dataset {root}: no scene directories found")
    expected = (scene_config.num_anchors, scene_config.channels)
    scenes = {}
    for path in subdirs:
        if not (path / SCENE_NAME).exists() and any(path.glob(f"*/{SCENE_NAME}")):
            raise ValueError(f"scene dataset {root}: {path} holds scene directories; "
                             f"pass --scenes {path}")
        scene = scenes[path.name] = read_scene_dir(path)
        shape = scene.frames[0].features.shape
        if shape != expected:
            raise ValueError(
                f"scene {path / FEATURES_NAME}: (K, C) = {shape} differs from "
                f"{expected} of the run configuration"
            )
        if scene.num_frames != scene_config.num_frames:
            raise ValueError(
                f"scene {path / FEATURES_NAME}: {scene.num_frames} frames differ "
                f"from num_frames = {scene_config.num_frames} of the run configuration"
            )
    return scenes


def _set_up(args):
    """The run set-up of generate, train and ablate.

    Returns the configuration, the output directory and the train and
    eval splits. Both splits are generated before ``--out`` is created
    and ``config.json`` written in it, so a configuration the generator
    rejects writes nothing.
    """
    config = _resolve_config(args)
    train_scenes = generate_dataset(config.train_data_seed, config.num_train_scenes, config.scene)
    eval_scenes = generate_dataset(config.eval_data_seed, config.num_eval_scenes, config.scene)
    out = _out_dir(config)
    save_run_configuration(out / "config.json", config)
    return config, out, train_scenes, eval_scenes


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    config, out, train_scenes, eval_scenes = _set_up(args)
    config_hash = config.config_hash()
    for split, scenes in (("train", train_scenes), ("eval", eval_scenes)):
        for name, scene in _named(scenes).items():
            write_scene_dir(out / split / name, scene, config_hash)
    print(
        f"wrote {len(train_scenes)} train scenes and {len(eval_scenes)} "
        f"eval scenes under {out} (config_hash={config_hash})"
    )
    _log("generate finished")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    # --seed seeds the audit's inputs, not the model, so it stays out of the hash
    config = load_run_configuration(args.config) if args.config else RunConfiguration()
    results = run_gradient_checks(
        num_inputs=args.inputs, base_seed=args.seed or 0, loss_config=config.loss
    )
    report = format_report(results)
    print(report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        config_hash = config.config_hash()
        with open(out / "gradcheck_report.txt", "w", encoding="utf-8") as fh:
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


def _write_table(config: RunConfiguration, name, ids, evaluation) -> str:
    """Per-scene metrics rows plus the aggregate row in ``--out``/``name``,
    creating ``--out``; returns the stdout summary.  ``evaluation`` is what
    ``evaluate_model`` returns: (reports, jitters, aggregate, mean jitter)."""
    reports, jitters, aggregate, mean_jitter = evaluation
    rows = [metrics_row(i, r, j) for i, r, j in zip(ids, reports, jitters)]
    rows.append(metrics_row("aggregate", aggregate, mean_jitter))
    write_table(_out_dir(config) / name, METRIC_COLUMNS, rows, config.config_hash())
    return f"eval: f1={aggregate.f1:.6f} acc={aggregate.acc:.6f} jitter={mean_jitter:.6f}"


def _evaluate(config: RunConfiguration, params, scenes: dict, name):
    """``evaluate_model`` under ``config`` on ``scenes``, a dict from row label
    to scene, tabled in ``--out``/``name``; returns the aggregate report, the
    mean jitter and the stdout summary."""
    evaluation = evaluate_model(params, list(scenes.values()), config.scene,
                                config.train.use_lstm_fusion, config.distance_threshold,
                                config.coverage_fraction)
    summary = _write_table(config, name, list(scenes), evaluation)
    return evaluation[2], evaluation[3], summary


def cmd_train(args) -> int:
    config, out, train_scenes, eval_scenes = _set_up(args)
    config_hash = config.config_hash()
    _log(
        f"training {config.train.epochs} epochs on {len(train_scenes)} scenes "
        f"(config_hash={config_hash})"
    )
    result = train(config.train, train_scenes, config.scene, config.loss)
    write_table(out / "train_log.csv", EPOCH_LOG_COLUMNS, result.epoch_rows)
    aggregate, mean_jitter, summary = _evaluate(config, result.params, _named(eval_scenes),
                                                "metrics.csv")
    metrics = {"f1": aggregate.f1, "acc": aggregate.acc, "jitter": mean_jitter}
    save_checkpoint(
        out / "checkpoint.bin", result.params, result.epochs_run, config_hash, metrics
    )
    print(
        f"final losses: "
        + " ".join(f"{k}={v:.6f}" for k, v in sorted(result.final_losses.items()))
    )
    print(summary)
    _log("train finished")
    return EXIT_OK


def _eval_from_files(args, config) -> int:
    if args.scenes is None:
        args.parser.error("--pred needs --scenes, the ground-truth lane files")
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
    reports = [
        match_lanes(read_lane_file(pred_root / rel), read_lane_file(gt_root / rel),
                    config.distance_threshold, config.coverage_fraction)
        for rel in gt_files
    ]
    nan = float("nan")
    evaluation = (reports, [nan] * len(reports), aggregate_reports(reports), nan)
    print(_write_table(config, "eval_metrics.csv", [str(rel) for rel in gt_files], evaluation))
    _log("eval finished")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _resolve_config(args)
    if (args.checkpoint is None) == (args.pred is None):
        args.parser.error("provide exactly one of --checkpoint or --pred")
    if args.pred is not None:
        return _eval_from_files(args, config)
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        args.parser.error(f"checkpoint not found: {ckpt}")
    expected = init_parameters(config.scene, config.train)
    params, header = load_checkpoint(ckpt, {name: p.shape for name, p in expected.items()})
    if args.scenes:
        scenes = load_scene_dataset(args.scenes, config.scene)
    else:
        scenes = _named(generate_dataset(config.eval_data_seed, config.num_eval_scenes,
                                         config.scene))
    _, _, summary = _evaluate(config, params, scenes, "eval_metrics.csv")
    print(f"{summary} (checkpoint epoch {header.get('epoch')})")
    _log("eval finished")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config, out, train_scenes, eval_scenes = _set_up(args)
    config_hash = config.config_hash()
    _log(
        f"ablation ladder: 5 configurations x {config.train.epochs} epochs "
        f"on {len(train_scenes)} scenes (config_hash={config_hash})"
    )
    results = run_ablation(config.train, train_scenes, eval_scenes, config.scene, config.loss,
                           config.distance_threshold, config.coverage_fraction)
    table = ablation_table(results, config_hash)
    with open(out / "ablation.csv", "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    _log("ablate finished")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lane3d", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, out_help="output directory (overrides the config)"):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="run-configuration JSON document")
        p.add_argument("--out", help=out_help)
        return p

    p = add("generate", cmd_generate, "write synthetic scene files to disk")
    p.add_argument(
        "--seed", type=int, dest="data_seed",
        help=f"train data seed (eval scenes use seed + {EVAL_SEED_OFFSET})",
    )

    p = add("gradcheck", cmd_gradcheck, "finite-difference audit of all gradients",
            "directory for gradcheck_report.txt; without it no file is written")
    p.add_argument("--seed", type=int, help="base seed for the random inputs")
    p.add_argument("--inputs", type=int, default=DEFAULT_INPUTS_PER_CHECK,
                   help="random inputs per named check")

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
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
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
