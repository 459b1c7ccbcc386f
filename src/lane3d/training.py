"""Training loop, Adam optimizer, checkpoints, evaluation, ablation ladder.

Supervision attaches to the last frame of each scene: fused (or raw
last-frame) features pass through the heads, ground-truth lanes are
assigned to anchors, and the enabled task losses are combined either by
learned uncertainty weights or plain summation.  The curve (Chamfer)
task is multiplied by the progressive ramp weight before combination,
and its ground-truth side is resampled onto equidistant stations across
the visible extent.

Each training step builds one tape per mini-batch: the batch's scenes
are stacked to (B*K, T, C) and run once through fusion, the heads and
each loss, with constant row weights that make every task the mean over
the scenes of that scene's value.  A scene's targets depend only on the
scene and the anchors, so ``train`` builds each batch's targets once,
ahead of the epoch loop.

Everything is deterministic given (config, seed): parameter init comes
from one seeded generator, batches follow a fixed order, and the
gradient reduction order is fixed by the batch graph, so two runs
produce bitwise-identical checkpoints and metric tables.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .geometry import VISIBILITY_THRESHOLD, LaneStack, is_integer, load_json
from .heads import BACKGROUND, IGNORE, assign_targets, head_forward
from .losses import (
    TASK_NAMES,
    LossConfig,
    balanced_l1_vector,
    chamfer,
    combine_uncertainty,
    dice,
    focal,
)
from .metrics import (
    COVERAGE_FRACTION,
    DISTANCE_THRESHOLD,
    aggregate_reports,
    match_lanes,
    temporal_smoothness,
)
from .synth import BACKGROUND_CLASS, SceneConfig
from .temporal import fuse_all_anchors

PARAM_ORDER = (
    "lstm.w_ih",
    "lstm.w_hh",
    "lstm.bias",
    "lstm.proj_w",
    "lstm.proj_b",
    "head.hidden_w",
    "head.hidden_b",
    "head.offset_w",
    "head.offset_b",
    "head.vis_w",
    "head.vis_b",
    "head.cls_w",
    "head.cls_b",
    "uncertainty.s",
)

EPOCH_LOG_COLUMNS = ("epoch", "curve_ramp_weight", "total") + TASK_NAMES


class TrainingDiverged(RuntimeError):
    """Raised when the total loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    # Benchmark budget: 60 epochs on 64 scenes. The fused model reaches
    # its best eval F1 in this window and starts to memorize past it.
    epochs: int = 60
    batch_size: int = 4
    learning_rate: float = 1e-3
    seed: int = 11
    curve_ramp_start: int = 5
    curve_ramp_end: int = 15
    use_balanced_l1: bool = True
    use_chamfer: bool = True
    use_uncertainty: bool = True
    use_lstm_fusion: bool = True

    def __post_init__(self):
        if not 0 <= self.curve_ramp_start <= self.curve_ramp_end:
            raise ValueError("TrainConfig: need 0 <= ramp-start <= ramp-end")
        if self.learning_rate < 0:
            raise ValueError("TrainConfig: learning rate must be non-negative")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("TrainConfig: batch size and epochs out of range")
        if self.seed < 0:
            raise ValueError("TrainConfig: seed must be non-negative")


def curve_ramp_weight(epoch: int, config: TrainConfig) -> float:
    """0 before the ramp, linear up to 1 across it, 1 after; non-decreasing."""
    if epoch < 0:
        raise ValueError("curve_ramp_weight: epoch must be non-negative")
    start, end = config.curve_ramp_start, config.curve_ramp_end
    if epoch <= start:
        return 0.0 if epoch < end else 1.0
    if epoch >= end:
        return 1.0
    return (epoch - start) / float(end - start)


def init_parameters(scene_config: SceneConfig, train_config: TrainConfig) -> dict:
    """All learnable arrays in checkpoint order, from the config seed.

    One generator draws Uniform(-1/sqrt(C), 1/sqrt(C)) arrays in a fixed
    order: the LSTM bias (forget-gate slice then shifted by +1), the rest
    of the LSTM (hidden size C), then the heads.  The uncertainty
    log-variances start at zero.
    """
    rng = np.random.default_rng(train_config.seed)
    c = scene_config.channels
    s = scene_config.num_stations
    shapes = {
        "lstm.bias": (4 * c,),
        "lstm.w_ih": (4 * c, c),
        "lstm.w_hh": (4 * c, c),
        "lstm.proj_w": (c, c),
        "lstm.proj_b": (c,),
        "head.hidden_w": (c, c),
        "head.hidden_b": (c,),
        "head.offset_w": (2 * s, c),
        "head.offset_b": (2 * s,),
        "head.vis_w": (s, c),
        "head.vis_b": (s,),
        "head.cls_w": (scene_config.num_classes, c),
        "head.cls_b": (scene_config.num_classes,),
    }
    scale = 1.0 / np.sqrt(c)
    params = {name: rng.uniform(-scale, scale, size=shape) for name, shape in shapes.items()}
    params["lstm.bias"][c : 2 * c] += 1.0
    params["uncertainty.s"] = np.zeros(len(TASK_NAMES))
    return {name: params[name] for name in PARAM_ORDER}


def _equidistant_points(lane) -> np.ndarray:
    """Visible (x, y, z) points of ``lane`` interpolated at as many equidistant
    stations across its visible span (one if that span is one station)."""
    visible = np.flatnonzero(lane.visible_mask())
    if visible.size == 0:
        raise ValueError("curve loss: ground-truth lane has no visible station")
    lo, hi = lane.stations[visible[0]], lane.stations[visible[-1]]
    y = np.linspace(lo, hi, lane.stations.shape[0] if hi > lo else 1)
    x, z, v = (np.interp(y, lane.stations, f) for f in (lane.x, lane.z, lane.visibility))
    return np.stack([x, y, z], axis=1)[v >= VISIBILITY_THRESHOLD]


@dataclass(frozen=True)
class MiniBatch:
    """The constant side of one mini-batch's loss, stacked over its B scenes.

    Rows index the B*K anchors of the batch, scene-major.  Each task of
    scene b is the mean over its own rows, and the batch loss the mean
    over scenes, so every row carries the constant weight 1 / (B * n_b)
    with n_b the scene's row count for that task; a scene without rows
    for a task adds 0 to it.  Regression entries are weighted by
    visibility / (2 * B * the scene's visibility sum), since delta-x and
    delta-z share it.
    """

    features: np.ndarray  # (B*K, T, C)
    scored: np.ndarray  # rows scored by the focal: positive or background
    classes: np.ndarray  # target class of each scored row
    class_weights: np.ndarray
    positive: np.ndarray  # positive rows, each scene's in lane order
    base_x: np.ndarray  # (P, S) anchor base of each positive row
    offsets: np.ndarray  # (2, P, S) delta-x and delta-z targets
    visibility: np.ndarray  # (P, S)
    positive_weights: np.ndarray  # (P,)
    regression_weights: np.ndarray  # (2, P, S)
    stations: np.ndarray  # (P, S) anchor stations
    curve_points: np.ndarray  # (P, m, 3) equidistant visible gt, padded
    curve_mask: np.ndarray  # (P, m) its valid points


def prepare_batch(scenes, anchors) -> MiniBatch:
    """Targets of the last frame of each scene, stacked into one MiniBatch.

    Only the last frame is supervised; earlier frames matter through the
    fused features.  Lanes are assigned to anchors with
    ``assign_targets``; ignored anchors are not scored.  The Chamfer
    ground truth is each positive lane resampled to equidistant stations
    over its visible span, keeping its visible points; it is always built,
    and only ``scene_loss`` decides by ``use_chamfer`` whether to read it.
    """
    if not scenes:
        raise ValueError("prepare_batch: need at least one scene")
    k, s = anchors.num_anchors, anchors.num_stations
    batch = len(scenes)
    scored, classes, class_weights = [], [], []
    positive, lanes, positive_weights = [], [], []
    for b, scene in enumerate(scenes):
        gt_lanes = list(scene.frames[-1].lanes)
        roles = assign_targets(anchors, gt_lanes).lane_for_anchor
        rows = np.flatnonzero(roles != IGNORE)
        scored.append(b * k + rows)
        classes.append([gt_lanes[j].category if j != BACKGROUND else BACKGROUND_CLASS
                        for j in roles[rows]])
        class_weights.append(np.full(rows.size, 1.0 / (batch * max(rows.size, 1))))
        pairs = sorted((int(j), int(a)) for a, j in enumerate(roles) if j >= 0)
        positive.extend(b * k + a for _, a in pairs)
        lanes.extend(gt_lanes[j] for j, _ in pairs)
        positive_weights.append(np.full(len(pairs), 1.0 / (batch * max(len(pairs), 1))))
    positive = np.array(positive, dtype=np.intp)
    anchor = positive % k
    visibility = np.array([lane.visibility for lane in lanes]).reshape(-1, s)
    scene_of = positive // k
    vis_sums = np.bincount(scene_of, visibility.sum(axis=1), minlength=batch)
    # delta-x and delta-z entries share the visibility weights: 2x its sum
    scale = np.divide(1.0, 2 * batch * vis_sums, out=np.zeros(batch), where=vis_sums > 0)
    row_weights = visibility * scale[scene_of][:, None]
    points = [_equidistant_points(lane) for lane in lanes]
    m = max(map(len, points), default=0)
    curve_points = np.zeros((len(points), m, 3))
    curve_mask = np.zeros((len(points), m), dtype=bool)
    for r, p in enumerate(points):
        curve_points[r, : len(p)] = p
        curve_mask[r, : len(p)] = True
    return MiniBatch(
        features=np.concatenate(
            [np.stack([f.features for f in scene.frames], axis=1) for scene in scenes]),
        scored=np.concatenate(scored),
        classes=np.array([c for row in classes for c in row], dtype=np.int64),
        class_weights=np.concatenate(class_weights),
        positive=positive,
        base_x=anchors.base_x[anchor],
        offsets=np.stack([  # ground-plane anchors: the delta-z target is z itself
            np.array([lane.x for lane in lanes]).reshape(-1, s) - anchors.base_x[anchor],
            np.array([lane.z for lane in lanes]).reshape(-1, s),
        ]),
        visibility=visibility,
        positive_weights=np.concatenate(positive_weights),
        regression_weights=np.stack([row_weights, row_weights]),
        stations=np.broadcast_to(anchors.stations, (positive.size, s)),
        curve_points=curve_points,
        curve_mask=curve_mask,
    )


def scene_loss(pvars, batch: MiniBatch, loss_config: LossConfig,
               train_config: TrainConfig, epoch: int):
    """Differentiable total loss of one mini-batch plus per-task values.

    One tape covers the batch: one fusion over its (B*K, T, C) features,
    one head pass, and one row-batched call of each loss, weighted by the
    batch's constant row weights so that each task is the mean over the
    scenes of that scene's task value.  The total combines the tasks
    (with the curve task scaled by the ramp weight) by learned
    uncertainty or plain summation, which equals the mean of the scenes'
    totals.
    """
    cfg = train_config
    if cfg.use_lstm_fusion:
        fused = fuse_all_anchors(batch.features, pvars)
    else:
        fused = ad.as_var(batch.features[:, -1, :])
    dx, dz, vis_logits, cls_logits = head_forward(fused, pvars)

    # every enabled task starts at zero; a batch without its rows keeps that
    task_losses = {name: ad.as_var(0.0) for name in TASK_NAMES
                   if name != "curve" or cfg.use_chamfer}
    if batch.scored.size:
        rows = focal(cls_logits[batch.scored], batch.classes, loss_config)
        task_losses["classification"] = (rows * batch.class_weights).sum()

    pos = batch.positive
    if pos.size:
        pred_dx, pred_dz = dx[pos], dz[pos]
        # prepare_batch gives each positive lane a visible station: the weights sum above 0
        weights = batch.regression_weights
        pred = ad.stack([pred_dx, pred_dz])
        if cfg.use_balanced_l1:
            # balanced_l1_vector divides by the weight sum; undo it
            task_losses["regression"] = balanced_l1_vector(
                pred.reshape((weights.size,)), batch.offsets.reshape(-1),
                weights.reshape(-1), loss_config,
            ) * weights.sum()
        else:
            residual = ad.absolute(pred - batch.offsets)
            task_losses["regression"] = (residual * weights).sum()

        if cfg.use_chamfer:
            ramp = curve_ramp_weight(epoch, cfg)
            pred_points = ad.stack([pred_dx + batch.base_x, batch.stations, pred_dz], axis=2)
            rows = chamfer(pred_points, batch.curve_points, batch.curve_mask)
            task_losses["curve"] = (rows * batch.positive_weights).sum() * ramp

        rows = dice(ad.sigmoid(vis_logits[pos]), batch.visibility, loss_config)
        task_losses["visibility"] = (rows * batch.positive_weights).sum()

    if cfg.use_uncertainty:
        s_var = pvars["uncertainty.s"]
        s_map = {name: s_var[i] for i, name in enumerate(TASK_NAMES) if name in task_losses}
        total = combine_uncertainty(task_losses, s_map)
    else:
        total = None
        for name in sorted(task_losses):
            total = task_losses[name] if total is None else total + task_losses[name]

    values = {name: float(task_losses[name].value) for name in task_losses}
    return total, values


class AdamOptimizer:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        """One Adam step in place.  Every element goes through
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps) in that order."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in PARAM_ORDER:
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            g2 = (1.0 - b2) * g
            g2 *= g
            v += g2
            step = m / (1.0 - b1**self.t)
            step *= self.learning_rate
            denom = v / (1.0 - b2**self.t)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            params[name] -= step


def batch_gradients(params: dict, batch: MiniBatch, loss_config, train_config, epoch):
    """Mean loss over the batch's scenes, its gradient for every parameter,
    and each task's mean over the scenes: one tape, one backward."""
    pvars = {name: ad.Var(params[name]) for name in PARAM_ORDER}
    total, task_means = scene_loss(pvars, batch, loss_config, train_config, epoch)
    value = float(total.value)
    if not np.isfinite(value):
        raise TrainingDiverged(f"total loss became non-finite ({value}) at epoch {epoch}")
    total.backward()
    grads = {
        name: (np.zeros_like(params[name]) if pvars[name].grad is None else pvars[name].grad)
        for name in PARAM_ORDER
    }
    return value, grads, task_means


@dataclass
class TrainResult:
    params: dict
    epochs_run: int
    epoch_rows: list
    final_losses: dict


def train(
    train_config: TrainConfig,
    scenes,
    scene_config: SceneConfig,
    loss_config: LossConfig | None = None,
) -> TrainResult:
    """Full-batch-order deterministic training over the given scenes; writes no file."""
    if not scenes:
        raise ValueError("train: need a non-empty dataset")
    loss_config = LossConfig() if loss_config is None else loss_config
    anchors = scene_config.anchors()
    params = init_parameters(scene_config, train_config)
    optimizer = AdamOptimizer(train_config.learning_rate)
    size = train_config.batch_size
    batches = [prepare_batch(scenes[start : start + size], anchors)
               for start in range(0, len(scenes), size)]
    rows = []
    final_losses = {}
    for epoch in range(train_config.epochs):
        tally = dict.fromkeys(EPOCH_LOG_COLUMNS[2:], 0.0)  # total, then TASK_NAMES
        for batch in batches:
            value, grads, task_means = batch_gradients(
                params, batch, loss_config, train_config, epoch
            )
            optimizer.step(params, grads)
            for name, v in {"total": value, **task_means}.items():
                tally[name] += v
        final_losses = {name: v / len(batches) for name, v in tally.items()}
        rows.append(",".join([str(epoch), f"{curve_ramp_weight(epoch, train_config):.6f}"]
                             + [f"{v:.9f}" for v in final_losses.values()]))
    return TrainResult(
        params=params,
        epochs_run=train_config.epochs,
        epoch_rows=rows,
        final_losses=final_losses,
    )


def save_checkpoint(path, params: dict, epoch: int, config_hash: str, metrics=None) -> None:
    """Single file: one JSON header line, then raw little-endian float64."""
    manifest = [[name, list(params[name].shape)] for name in PARAM_ORDER]
    header = {
        "config_hash": config_hash,
        "epoch": int(epoch),
        "manifest": manifest,
        "metrics": metrics or {},
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def _is_manifest_entry(entry) -> bool:
    """True for a [name, shape] pair with a list of non-negative int dims."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(is_integer(n) and n >= 0 for n in entry[1]))


def load_checkpoint(path, shapes: dict | None = None):
    """Parameters and header of a file written by ``save_checkpoint``.

    Rejects, with a ValueError naming the file and the field, a header
    that is not one JSON object, a missing or malformed ``manifest``,
    manifest names other than PARAM_ORDER in order, a manifest shape
    other than the one ``shapes`` gives for that name (when given), a
    shape needing more bytes than the file has left, a NaN or infinite
    parameter value, and bytes left over after the last one.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        header = load_json(fh.readline(), f"checkpoint {path}: header")
        if not isinstance(header, dict) or "manifest" not in header:
            raise ValueError(f"checkpoint {path}: header: missing field 'manifest'")
        manifest = header["manifest"]
        if not isinstance(manifest, list) or not all(_is_manifest_entry(e) for e in manifest):
            raise ValueError(f"checkpoint {path}: manifest: need a list of [name, shape] pairs")
        names = [name for name, _ in manifest]
        if names != list(PARAM_ORDER):
            raise ValueError(
                f"checkpoint {path}: manifest: parameter names {names} "
                f"differ from {list(PARAM_ORDER)}"
            )
        params = {}
        for name, shape in manifest:
            if shapes is not None and tuple(shape) != tuple(shapes[name]):
                raise ValueError(
                    f"checkpoint {path}: {name}: shape {tuple(shape)} differs from "
                    f"{tuple(shapes[name])} of the run configuration"
                )
            # checked before reading: a huge manifest shape must not reach read()
            size = 8 * math.prod(shape)
            left = file_size - fh.tell()
            if size > left:
                raise ValueError(
                    f"checkpoint {path}: {name}: body truncated, shape {tuple(shape)} "
                    f"needs {size} bytes and {left} are left"
                )
            data = fh.read(size)
            try:  # numpy bounds the rank and the extent of an empty shape
                params[name] = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
            except ValueError as exc:
                raise ValueError(
                    f"checkpoint {path}: {name}: shape {tuple(shape)} ({exc})") from None
            if not np.all(np.isfinite(params[name])):
                raise ValueError(f"checkpoint {path}: {name}: non-finite parameter values")
        trailing = file_size - fh.tell()
    if trailing:
        raise ValueError(
            f"checkpoint {path}: body: {trailing} trailing bytes after {PARAM_ORDER[-1]}"
        )
    return params, header


def predict_frames(params: dict, scene, scene_config: SceneConfig, use_lstm_fusion: bool):
    """Decoded lane predictions for every frame of a scene, one LaneStack each.

    With fusion, one ``fuse_all_anchors`` call fuses every frame's
    left-padded window: anchors are independent rows, and on the
    recorded OpenBLAS the gate products give the same bits per row at
    any row count from two up.  The heads run once per frame on that
    frame's K rows, because their products were measured not to.
    Anchors whose class output is background or that claim no visible
    station (none at or above VISIBILITY_THRESHOLD) yield no lane; the
    rest decode as x = base_x + dx, z = dz, visibility =
    sigmoid(logit), and category = argmax of the class logits.  A scene
    whose (K, C) differs from the configuration's is rejected.  The
    parameters go in as plain arrays, so the pass records no tape.
    """
    anchors = scene_config.anchors()
    feats = np.stack([f.features for f in scene.frames], axis=0)  # (T, K, C)
    expected = (scene_config.num_anchors, scene_config.channels)
    if feats.shape[1:] != expected:
        raise ValueError(
            f"predict_frames: scene features (K, C) = {feats.shape[1:]} differ from "
            f"{expected} of the configuration"
        )
    if use_lstm_fusion:
        windows = fuse_all_anchors(feats.transpose(1, 0, 2), params, frames=len(feats))
        feats = windows.value.reshape(feats.shape)
    per_frame = []
    for fused in feats:
        dx, dz, vis_logits, cls_logits = head_forward(fused, params)
        category = np.argmax(cls_logits.value, axis=1)
        visibility = ad.sigmoid_values(vis_logits.value)
        keep = (category != BACKGROUND_CLASS) & np.any(visibility >= VISIBILITY_THRESHOLD, axis=1)
        per_frame.append(LaneStack(
            anchors.stations, (anchors.base_x + dx.value)[keep], dz.value[keep],
            visibility[keep], category[keep]))
    return per_frame


def evaluate_model(
    params: dict,
    scenes,
    scene_config: SceneConfig,
    use_lstm_fusion: bool,
    distance_threshold: float = DISTANCE_THRESHOLD,
    coverage_fraction: float = COVERAGE_FRACTION,
):
    """Per-scene match reports and jitters, plus the aggregate report.

    Jitter is NaN for single-frame scenes and for scenes where no lanes
    match across any frame pair; the aggregate jitter averages the
    finite entries.
    """
    reports, jitters = [], []
    for scene in scenes:
        per_frame = predict_frames(params, scene, scene_config, use_lstm_fusion)
        reports.append(match_lanes(per_frame[-1], scene.frames[-1].lanes,
                                   distance_threshold, coverage_fraction))
        jitters.append(np.nan if scene.num_frames < 2 else temporal_smoothness(
            per_frame, scene.ego_motion, distance_threshold, coverage_fraction))
    aggregate = aggregate_reports(reports)
    finite = [j for j in jitters if np.isfinite(j)]
    mean_jitter = float(np.mean(finite)) if finite else float("nan")
    return reports, jitters, aggregate, mean_jitter


ABLATION_COMPONENTS = ("balanced_l1", "chamfer", "uncertainty", "lstm_fusion")
# rung r turns on the first r components
ABLATION_ROWS = tuple(
    ("+" + ABLATION_COMPONENTS[r - 1] if r else "baseline",
     {f"use_{name}": i < r for i, name in enumerate(ABLATION_COMPONENTS)})
    for r in range(len(ABLATION_COMPONENTS) + 1)
)


def run_ablation(
    base_config: TrainConfig,
    train_scenes,
    eval_scenes,
    scene_config: SceneConfig,
    loss_config: LossConfig | None = None,
    distance_threshold: float = DISTANCE_THRESHOLD,
    coverage_fraction: float = COVERAGE_FRACTION,
):
    """Five configurations, each adding one component; shared seed/budget."""
    results = []
    for name, flags in ABLATION_ROWS:
        config = replace(base_config, **flags)
        outcome = train(config, train_scenes, scene_config, loss_config)
        _, _, aggregate, jitter = evaluate_model(
            outcome.params,
            eval_scenes,
            scene_config,
            config.use_lstm_fusion,
            distance_threshold,
            coverage_fraction,
        )
        results.append(
            {
                "configuration": name,
                "f1": aggregate.f1,
                "acc": aggregate.acc,
                "jitter": jitter,
            }
        )
    return results


def ablation_table(results, config_hash: str) -> str:
    """Comparison table; each row adds one component to the previous."""
    lines = [
        f"# config_hash={config_hash}",
        "# rows nest: each configuration adds one component to the row above",
        "configuration,f1,acc,jitter",
    ]
    for row in results:
        jitter = f"{row['jitter']:.6f}" if np.isfinite(row["jitter"]) else "nan"
        lines.append(
            f"{row['configuration']},{row['f1']:.6f},{row['acc']:.6f},{jitter}"
        )
    return "\n".join(lines) + "\n"
