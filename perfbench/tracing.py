"""Spans around lane3d's public functions, and the per-layer metrics they give.

A hook replaces one module or class attribute of lane3d with a wrapper
that records a span: its name, start, end, parent span and op id.  The
attribute wrapped is the one the caller actually resolves, e.g.
``lane3d.training.focal`` (training imports ``focal`` by name) rather
than ``lane3d.losses.focal``, the same way ``checks.corrupt_gradient``
patches ``autodiff``.  Spans stay in memory until the run ends.

The program is single-threaded and has no queues, so a layer has busy
time and counts but no waiting time.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.stats import median, tail

SETUP = "setup"


class TraceError(RuntimeError):
    """A hook target is gone, or a layer a workload must exercise was idle."""


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = span.seconds - covered
    return out


# ---------------------------------------------------------------------------
# what each hook records besides its interval


def _tape(args, kwargs, result):
    """Walk the graph behind a finished backward from outside."""
    stack, seen = [args[0]], {id(args[0])}
    nodes = nonzero = 0
    while stack:
        node = stack.pop()
        nodes += 1
        if node.grad is not None and np.any(node.grad):
            nonzero += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return {"nodes": nodes, "nonzero": nonzero}


def _assignment(args, kwargs, result):
    from lane3d import heads

    roles = result.lane_for_anchor
    return {
        "positive": int(np.count_nonzero(roles >= 0)),
        "ignored": int(np.count_nonzero(roles == heads.IGNORE)),
        "background": int(np.count_nonzero(roles == heads.BACKGROUND)),
    }


def _matching(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1]), "matches": len(result.matches)}


def _check_seconds(args, kwargs, result):
    return {"seconds": {r.name: r.seconds for r in result}}


def _dir_bytes(args, kwargs, result):
    return {"bytes": sum(entry.stat().st_size for entry in os.scandir(args[0]))}


# (layer name, module, attribute path, extra recorder); one layer may
# have several entries when callers resolve it through different modules
HOOKS = (
    ("autodiff.backward", "lane3d.autodiff", "Var.backward", _tape),
    ("autodiff.finite_difference_check", "lane3d.autodiff", "finite_difference_check", None),
    ("autodiff.central_difference", "lane3d.autodiff", "central_difference", None),
    ("checks.run_gradient_checks", "lane3d.checks", "run_gradient_checks", _check_seconds),
    ("temporal.fuse_all_anchors", "lane3d.training", "fuse_all_anchors", None),
    ("heads.head_forward", "lane3d.training", "head_forward", None),
    ("heads.assign_targets", "lane3d.training", "assign_targets", _assignment),
    ("losses.focal", "lane3d.training", "focal", None),
    ("losses.chamfer", "lane3d.training", "chamfer", None),
    ("losses.dice", "lane3d.training", "dice", None),
    ("losses.balanced_l1_vector", "lane3d.training", "balanced_l1_vector", None),
    ("losses.combine_uncertainty", "lane3d.training", "combine_uncertainty", None),
    ("training.scene_loss", "lane3d.training", "scene_loss", None),
    ("training.batch_gradients", "lane3d.training", "batch_gradients", None),
    ("training.optimizer_step", "lane3d.training", "AdamOptimizer.step", None),
    ("training.predict_frames", "lane3d.training", "predict_frames", None),
    ("training.load_checkpoint", "lane3d.training", "load_checkpoint", None),
    ("metrics.match_lanes", "lane3d.training", "match_lanes", _matching),
    ("metrics.match_lanes", "lane3d.metrics", "match_lanes", _matching),
    ("metrics.temporal_smoothness", "lane3d.training", "temporal_smoothness", None),
    ("cli.read_scene_dir", "lane3d.cli", "read_scene_dir", _dir_bytes),
    ("geometry.read_lane_file", "lane3d.cli", "read_lane_file", None),
    ("synth.generate_scene", "lane3d.synth", "generate_scene", None),
    ("cli.write_scene_dir", "lane3d.cli", "write_scene_dir", _dir_bytes),
)


class Tracer:
    """Installs the hooks, records spans, and restores lane3d on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []
        self.op = SETUP
        self._stack: list = []
        self._originals: list = []

    def __enter__(self):
        try:
            for name, module, path, recorder in self.hooks:
                owner, attr = _resolve(module, path)
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if not callable(original):
                    raise TraceError(f"trace hook {name}: {module}.{path} no longer exists")
                setattr(owner, attr, self._wrap(name, original, recorder))
                self._originals.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()

    def _restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span of the benchmark's own around the block."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(*opened, name, {})

    def _open(self):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, start, name, extra):
        end = time.perf_counter()
        self._stack.pop()
        span = Span(sid, name, start, end, parent, self.op, extra)
        self.spans[sid] = span
        return span

    def _wrap(self, name, fn, recorder):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = tracer._open()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span = tracer._close(sid, parent, start, name, {} if ok else {"failed": 1})
            if recorder is not None:
                span.extra = recorder(args, kwargs, result)
            return result

        return traced


def write_spans(spans, path) -> None:
    """One JSON object per span, in the order the spans opened."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            row = {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent, "op": s.op, **s.extra}
            fh.write(json.dumps(row) + "\n")


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"trace hook: {module}.{path} no longer exists")
    return owner, attr


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better); op-side values are per timed op,
# set-up-side values (load_checkpoint, generate_scene, write_scene_dir) per
# set-up, and a layer a workload does not exercise reads 0

CHECK_NAMES = (
    "balanced_l1", "chamfer", "focal", "dice", "uncertainty_combination",
    "lstm_fusion_T1", "lstm_fusion_T2", "lstm_fusion_T3",
)
LOSS_NAMES = ("focal", "chamfer", "dice", "balanced_l1_vector", "combine_uncertainty")
SETUP_LAYERS = ("training.load_checkpoint", "synth.generate_scene", "cli.write_scene_dir")

PER_LAYER = (
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.backward.s", "s", "lower"),
    ("autodiff.tape_nodes_per_step", "count", "lower"),
    ("autodiff.grad_nonzero_ratio", "ratio", "higher"),
    ("autodiff.finite_difference_check.calls", "count", "lower"),
    ("autodiff.finite_difference_check.s", "s", "lower"),
    ("autodiff.central_difference.calls", "count", "lower"),
    ("autodiff.central_difference.s", "s", "lower"),
    *((f"checks.{name}.s", "s", "lower") for name in CHECK_NAMES),
    ("temporal.fuse_all_anchors.calls", "count", "lower"),
    ("temporal.fuse_all_anchors.s", "s", "lower"),
    ("heads.head_forward.calls", "count", "lower"),
    ("heads.head_forward.s", "s", "lower"),
    ("heads.assign_targets.calls", "count", "lower"),
    ("heads.assign_targets.s", "s", "lower"),
    ("heads.assign_targets.positive", "count", "higher"),
    ("heads.assign_targets.ignored", "count", "lower"),
    ("heads.assign_targets.background", "count", "lower"),
    *(item for name in LOSS_NAMES for item in (
        (f"losses.{name}.calls", "count", "lower"), (f"losses.{name}.s", "s", "lower"))),
    ("training.scene_loss.self_s", "s", "lower"),
    ("training.batch_gradients.s", "s", "lower"),
    ("training.step_s.p50", "s", "lower"),
    ("training.step_s.tail", "s", "lower"),
    ("training.optimizer_step.calls", "count", "lower"),
    ("training.optimizer_step.s", "s", "lower"),
    ("training.predict_frames.self_s", "s", "lower"),
    ("training.load_checkpoint.s", "s", "lower"),
    ("metrics.match_lanes.calls", "count", "lower"),
    ("metrics.match_lanes.s", "s", "lower"),
    ("metrics.match_lanes.pairs", "count", "lower"),
    ("metrics.match_lanes.matched_ratio", "ratio", "higher"),
    ("metrics.temporal_smoothness.calls", "count", "lower"),
    ("metrics.temporal_smoothness.s", "s", "lower"),
    ("metrics.temporal_smoothness.failed", "count", "lower"),
    ("cli.read_scene_dir.calls", "count", "lower"),
    ("cli.read_scene_dir.s", "s", "lower"),
    ("cli.read_scene_dir.bytes", "bytes", "lower"),
    ("geometry.read_lane_file.calls", "count", "lower"),
    ("geometry.read_lane_file.s", "s", "lower"),
    ("synth.generate_scene.calls", "count", "lower"),
    ("synth.generate_scene.s", "s", "lower"),
    ("cli.write_scene_dir.calls", "count", "lower"),
    ("cli.write_scene_dir.s", "s", "lower"),
    ("cli.write_scene_dir.bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    # the workloads' output quality, from the untraced phase; 0 where a
    # workload has no such output
    ("training.loss_end", "loss", "lower"),
    ("metrics.f1", "ratio", "higher"),
    ("metrics.jitter_m", "m", "lower"),
    ("checks.max_rel_err", "ratio", "lower"),
)


def layer_metrics(spans, op_ids) -> dict:
    """Per-layer values from the spans of one traced set-up and its ops."""
    ops = set(op_ids)
    n = max(len(ops), 1)
    selfs = self_times(spans)
    by_name: dict = {}
    for span in spans:
        if span.op in ops or (span.op == SETUP and span.name in SETUP_LAYERS):
            by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key=None):
        group = by_name.get(name, ())
        if key is None:
            return sum((s.seconds for s in group), 0.0)
        return sum((s.extra.get(key, 0) for s in group), 0.0)

    def self_total(name):
        return sum(selfs[s.sid] for s in by_name.get(name, ()))

    out = {}
    for layer in ("autodiff.backward", "autodiff.finite_difference_check",
                  "autodiff.central_difference", "temporal.fuse_all_anchors",
                  "heads.head_forward", "heads.assign_targets",
                  *(f"losses.{name}" for name in LOSS_NAMES),
                  "training.optimizer_step", "metrics.match_lanes",
                  "metrics.temporal_smoothness", "cli.read_scene_dir",
                  "geometry.read_lane_file"):
        out[f"{layer}.calls"] = calls(layer) / n
        out[f"{layer}.s"] = total(layer) / n
    for layer in SETUP_LAYERS:  # one traced set-up
        out[f"{layer}.s"] = total(layer)
    for layer in ("synth.generate_scene", "cli.write_scene_dir"):
        out[f"{layer}.calls"] = calls(layer)
    out["cli.write_scene_dir.bytes"] = total("cli.write_scene_dir", "bytes")
    out["cli.read_scene_dir.bytes"] = total("cli.read_scene_dir", "bytes") / n

    backward = calls("autodiff.backward")
    nodes = total("autodiff.backward", "nodes")
    out["autodiff.tape_nodes_per_step"] = nodes / backward if backward else 0.0
    out["autodiff.grad_nonzero_ratio"] = (
        total("autodiff.backward", "nonzero") / nodes if nodes else 0.0)
    for role in ("positive", "ignored", "background"):
        out[f"heads.assign_targets.{role}"] = total("heads.assign_targets", role) / n

    out["training.scene_loss.self_s"] = self_total("training.scene_loss") / n
    out["training.predict_frames.self_s"] = self_total("training.predict_frames") / n
    out["training.batch_gradients.s"] = total("training.batch_gradients") / n
    steps = step_seconds(spans, ops)
    out["training.step_s.p50"] = median(steps) if steps else 0.0
    out["training.step_s.tail"] = tail(steps).value if steps else 0.0

    pairs = total("metrics.match_lanes", "pairs")
    out["metrics.match_lanes.pairs"] = pairs / n
    out["metrics.match_lanes.matched_ratio"] = (
        total("metrics.match_lanes", "matches") / pairs if pairs else 0.0)
    out["metrics.temporal_smoothness.failed"] = total("metrics.temporal_smoothness", "failed") / n

    audits = by_name.get("checks.run_gradient_checks", ())
    for name in CHECK_NAMES:  # CheckResult.seconds, as the checks time themselves
        out[f"checks.{name}.s"] = sum((s.extra["seconds"].get(name, 0.0) for s in audits), 0.0) / n
    return out


def step_seconds(spans, ops) -> list:
    """One training step: a batch_gradients span plus the optimizer step after it."""
    steps, pending = [], None
    for span in spans:
        if span.op not in ops:
            continue
        if span.name == "training.batch_gradients":
            pending = span.seconds
        elif span.name == "training.optimizer_step" and pending is not None:
            steps.append(pending + span.seconds)
            pending = None
    return steps


def check_coverage(spans, op_ids, op_layers, setup_layers) -> None:
    """Fail when a layer the workload must exercise recorded no call."""
    ops = set(op_ids)
    seen_ops = {s.name for s in spans if s.op in ops}
    seen_setup = {s.name for s in spans if s.op == SETUP}
    idle = [f"{name} (per op)" for name in op_layers if name not in seen_ops]
    idle += [f"{name} (set-up)" for name in setup_layers if name not in seen_setup]
    if idle:
        raise TraceError("trace coverage: no calls recorded for " + ", ".join(idle))
