"""The four closed-loop workloads and the loop that times them.

Each workload has one client that repeats one op, starting the next
only when the previous one returned.  Ops call lane3d's public functions
through their module attributes, so the tracer's hooks see every call.
Only the op itself is timed; its output checks run between ops, and so
does the host-speed probe that the timings are scaled by (``probe.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from lane3d import checks, cli, metrics, synth, training
from lane3d.config import RunConfiguration

from perfbench import probe
from perfbench.tracing import LOSS_NAMES, SETUP, Tracer

DEFAULT_SEED = 0
SEED_PERIOD = 2**20
DATA_SEED_STRIDE = 10_007  # > any split size, so splits of two seeds never overlap
GRADCHECK_SEED_STRIDE = 1_000
SETUP_PROBES = 25  # probes on either side of a set-up

# The eval checkpoint is trained in set-up, so its budget must be seconds,
# not the pinned 60 epochs.  Ten times the default learning rate for four
# epochs on 16 scenes reaches the regime a trained checkpoint is in: a
# few decoded lanes per frame, nonzero F1 and a finite jitter.
CHECKPOINT_LEARNING_RATE = 1e-2


@dataclass(frozen=True)
class Seeds:
    train_data: int
    eval_data: int
    weights: int
    gradcheck: int


def derive_seeds(seed: int) -> Seeds:
    """Data, weight and gradcheck seeds; the default seed gives the pinned ones."""
    k = seed % SEED_PERIOD
    pinned = RunConfiguration()
    return Seeds(
        train_data=pinned.train_data_seed + DATA_SEED_STRIDE * k,
        eval_data=pinned.eval_data_seed + DATA_SEED_STRIDE * k,
        weights=pinned.train.seed + k,
        gradcheck=GRADCHECK_SEED_STRIDE * k,
    )


@dataclass(frozen=True)
class Sizes:
    train_scenes: int = 64
    train_epochs: int = 1
    eval_scenes: int = 64
    early_scenes: int = 32
    checkpoint_scenes: int = 16
    checkpoint_epochs: int = 4
    gradcheck_seeds: int = 64


class Workload:
    """One op repeated by one client; subclasses fill in the op and its checks."""

    name = ""
    op_layers: tuple = ()  # layers every traced run must reach inside ops
    setup_layers: tuple = ()  # ... and inside the traced set-up

    def __init__(self, seed: int, sizes: Sizes, workdir):
        self.seeds = derive_seeds(seed)
        self.sizes = sizes
        self.workdir = Path(workdir)
        self.run = RunConfiguration()

    def setup(self) -> None:
        """Build the inputs and run one untimed warm-up op."""

    def teardown(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, outcome) -> list:
        """Problems with op ``i``'s output; empty when it is correct."""
        return []

    def pass_size(self) -> int:
        """Ops in one pass over the inputs; every run makes at least one pass."""
        return 1

    def verify(self) -> dict:
        """Checks too slow to run between ops: op index -> problems."""
        return {}

    def quality(self) -> dict:
        """Deterministic output quality, over the first pass only."""
        return {}


class Train(Workload):
    """One op: a one-epoch ``training.train`` on one batch of the pinned
    train split, full configuration; op ``i`` takes batch ``i`` mod the
    number of batches, so a pass is one epoch's worth of batches.
    """

    name = "train"
    op_layers = (
        "autodiff.backward", "temporal.fuse_all_anchors", "heads.head_forward",
        "heads.assign_targets", *(f"losses.{name}" for name in LOSS_NAMES),
        "training.scene_loss", "training.batch_gradients", "training.optimizer_step",
    )
    setup_layers = ("synth.generate_scene",)

    def setup(self):
        run = self.run
        self.scenes = synth.generate_dataset(
            self.seeds.train_data, self.sizes.train_scenes, run.scene)
        self.config = replace(run.train, epochs=self.sizes.train_epochs, seed=self.seeds.weights)
        size = self.config.batch_size
        self.batches = [self.scenes[j: j + size] for j in range(0, len(self.scenes), size)]
        self.op(0)
        self.first = {}  # batch -> (parameter digest, final loss) of its first op

    def op(self, i):
        batch = self.batches[i % len(self.batches)]
        return training.train(self.config, batch, self.run.scene, self.run.loss)

    def check(self, i, result):
        problems = []
        loss = result.final_losses["total"]
        if not math.isfinite(loss):
            problems.append(f"final loss {loss} is not finite")
        digest = hashlib.sha256(
            b"".join(result.params[name].tobytes() for name in training.PARAM_ORDER)
        ).hexdigest()
        first = self.first.setdefault(i % len(self.batches), (digest, loss))
        if digest != first[0]:
            problems.append("final parameters differ from the first op's on this batch "
                            "(not bitwise deterministic)")
        return problems

    def pass_size(self):
        return len(self.batches)

    def quality(self):
        """Mean over the batches of the final total loss."""
        losses = [loss for _, loss in self.first.values()]
        return {"loss_end": float(np.mean(losses)) if losses else math.nan}


@dataclass
class _Seen:
    """First evaluation of one scene, and every op that evaluated it."""

    scene: object
    report: object
    jitter: float
    ops: list = field(default_factory=list)


class Eval(Workload):
    """One op: ``cli.read_scene_dir`` then ``training.evaluate_model`` on that scene.

    The checkpoint is trained in set-up, saved, and loaded back with
    ``training.load_checkpoint``, as ``lane3d eval --checkpoint`` does.
    """

    name = "eval"
    dir = None
    op_layers = (
        "cli.read_scene_dir", "geometry.read_lane_file", "training.predict_frames",
        "temporal.fuse_all_anchors", "heads.head_forward", "metrics.match_lanes",
        "metrics.temporal_smoothness",
    )
    setup_layers = ("synth.generate_scene", "cli.write_scene_dir", "training.load_checkpoint")

    def num_scenes(self) -> int:
        return self.sizes.eval_scenes

    def checkpoint(self, scenes):
        """(parameters, epoch) of the checkpoint under evaluation."""
        run = self.run
        train_scenes = synth.generate_dataset(
            self.seeds.train_data, self.sizes.checkpoint_scenes, run.scene)
        config = replace(run.train, epochs=self.sizes.checkpoint_epochs,
                         learning_rate=CHECKPOINT_LEARNING_RATE, seed=self.seeds.weights)
        result = training.train(config, train_scenes, run.scene, run.loss)
        return result.params, result.epochs_run

    def setup(self):
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))
        config_hash = self.run.config_hash()
        scenes = synth.generate_dataset(self.seeds.eval_data, self.num_scenes(), self.run.scene)
        self.scene_dirs = []
        for j, scene in enumerate(scenes):
            path = self.dir / f"scene_{j:04d}"
            cli.write_scene_dir(path, scene, config_hash)
            self.scene_dirs.append(path)
        params, epoch = self.checkpoint(scenes)
        path = self.dir / "checkpoint.bin"
        training.save_checkpoint(path, params, epoch, config_hash)
        self.params, _ = training.load_checkpoint(path)
        self.op(0)
        self.seen = {}

    def teardown(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    def op(self, i):
        run = self.run
        scene = cli.read_scene_dir(self.scene_dirs[i % len(self.scene_dirs)])
        reports, jitters, _, _ = training.evaluate_model(
            self.params, [scene], run.scene, run.train.use_lstm_fusion,
            run.distance_threshold, run.coverage_fraction)
        return scene, reports[0], jitters[0]

    def check(self, i, outcome):
        scene, report, jitter = outcome
        problems = []
        gt = len(scene.frames[-1].lanes)
        if report.tp + report.fn != gt:
            problems.append(f"tp + fn = {report.tp + report.fn}, but the scene has {gt} lanes")
        if not 0.0 <= report.acc <= 1.0:
            problems.append(f"category accuracy {report.acc} outside [0, 1]")
        seen = self.seen.get(i % len(self.scene_dirs))
        if seen is None:
            self.seen[i % len(self.scene_dirs)] = _Seen(scene, report, jitter, [i])
        else:
            seen.ops.append(i)
            if _counts(report, jitter) != _counts(seen.report, seen.jitter):
                problems.append("a repeated scene gave different counts")
        return problems

    def pass_size(self):
        return len(self.scene_dirs)

    def verify(self):
        """tp + fp equals the decoded lanes; 0 <= correct <= tp; per scene."""
        failures = {}
        run = self.run
        for seen in self.seen.values():
            preds = training.predict_frames(
                self.params, seen.scene, run.scene, run.train.use_lstm_fusion)[-1]
            gts = seen.scene.frames[-1].lanes
            report, problems = seen.report, []
            if report.tp + report.fp != len(preds):
                problems.append(f"tp + fp = {report.tp + report.fp}, but {len(preds)} lanes decoded")
            else:
                correct = sum(preds[a].category == gts[b].category for a, b, _ in report.matches)
                if not 0 <= correct <= report.tp or not math.isclose(
                        correct, report.acc * report.tp, abs_tol=1e-9):
                    problems.append(f"correct = {correct} disagrees with tp = {report.tp}, acc = {report.acc}")
            for i in seen.ops if problems else ():
                failures[i] = problems
        return failures

    def quality(self):
        first = [self.seen[j] for j in sorted(self.seen)]
        finite = [s.jitter for s in first if math.isfinite(s.jitter)]
        return {
            "f1": metrics.aggregate_reports([s.report for s in first]).f1,
            "jitter_m": float(np.mean(finite)) if finite else math.nan,
        }


def _counts(report, jitter):
    return (report.tp, report.fp, report.fn, report.acc, np.float64(jitter).tobytes())


class EvalEarly(Eval):
    """The eval op on the epoch-0 checkpoint, where every anchor decodes a lane."""

    name = "eval-early"

    def num_scenes(self) -> int:
        return self.sizes.early_scenes

    def checkpoint(self, scenes):
        """``init_parameters`` at the first weight seed, from the derived one on,
        whose model decodes a lane at every anchor of the first scene.

        About one weight seed in four gives an initial model that decodes
        a lane at fewer anchors, often at none; that is a different,
        cheaper workload, so the seed moves on to keep this one dense.
        """
        run = self.run
        anchors = run.scene.num_anchors
        for weights in range(self.seeds.weights, self.seeds.weights + 100):
            params = training.init_parameters(run.scene, replace(run.train, seed=weights))
            decoded = training.predict_frames(
                params, scenes[0], run.scene, run.train.use_lstm_fusion)[-1]
            if len(decoded) == anchors:
                self.weight_seed = weights
                return params, 0
        raise RuntimeError(f"no dense initial model within 100 weight seeds of {self.seeds.weights}")


class Gradcheck(Workload):
    """One op: ``checks.run_gradient_checks(num_inputs=1, base_seed=...)``."""

    name = "gradcheck"
    op_layers = ("checks.run_gradient_checks", "autodiff.finite_difference_check",
                 "autodiff.central_difference", "autodiff.backward")

    def setup(self):
        self.base_seeds = [self.seeds.gradcheck + j for j in range(self.sizes.gradcheck_seeds)]
        checks.run_gradient_checks(num_inputs=1, base_seed=self.base_seeds[0])
        self.first = {}

    def op(self, i):
        return checks.run_gradient_checks(
            num_inputs=1, base_seed=self.base_seeds[i % len(self.base_seeds)])

    def check(self, i, results):
        problems = [
            f"{r.name}: max_rel_err {r.max_relative_error:.3e} >= tolerance {r.tolerance:.0e}"
            for r in results if not r.passed
        ]
        errors = tuple(r.max_relative_error for r in results)
        first = self.first.setdefault(i % len(self.base_seeds), errors)
        if first != errors:
            problems.append("a repeated base seed gave different errors")
        return problems

    def pass_size(self):
        return len(self.base_seeds)

    def quality(self):
        return {"max_rel_err": max((max(e) for e in self.first.values()), default=math.nan)}


WORKLOADS = {w.name: w for w in (Train, Eval, EvalEarly, Gradcheck)}


@dataclass
class Measurement:
    """Wall times and the probes around them; the ``scaled_`` figures are
    the wall times at the nominal host speed (``probe.scaled``)."""

    setup_s: list
    setup_probe_s: list  # median probe around each set-up
    op_s: list
    probe_s: list  # the probe just before each op
    failures: dict  # op index -> problems
    quality: dict
    spans: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    @property
    def scaled_setup_s(self) -> list:
        return [s * probe.NOMINAL_S / p for s, p in zip(self.setup_s, self.setup_probe_s)]

    @property
    def scaled_op_s(self) -> list:
        return probe.scaled(self.op_s, self.probe_s)

    @property
    def ops_per_s(self) -> float:
        """Completed ops per scaled second."""
        return (self.attempted - len(self.failures)) / sum(self.scaled_op_s)

    @property
    def wall_ops_per_s(self) -> float:
        return (self.attempted - len(self.failures)) / sum(self.op_s)


def measure(workload: Workload, seconds: float, setups: int = 1, trace: bool = False):
    """Set up ``setups`` times, then repeat the op for ``seconds`` of wall time.

    The loop runs past the deadline until one full pass over the inputs
    is done, so the quality figures always cover the same inputs.  A
    probe runs before every op and on either side of every set-up.
    """
    tracer = Tracer() if trace else None
    setup_s, setup_probe_s, op_s, probe_s, failures = [], [], [], [], {}
    try:
        with tracer or contextlib.nullcontext():
            for r in range(setups):
                if r:
                    workload.teardown()
                before = probe.probes(SETUP_PROBES)
                started = time.perf_counter()
                with _span(tracer, "bench.setup", SETUP):
                    workload.setup()
                setup_s.append(time.perf_counter() - started)
                setup_probe_s.append((before + probe.probes(SETUP_PROBES)) / 2)
            deadline = time.perf_counter() + seconds
            i = 0
            while i < workload.pass_size() or time.perf_counter() < deadline:
                probe_s.append(probe.probe())
                started = time.perf_counter()
                try:
                    with _span(tracer, "bench.op", i):
                        outcome = workload.op(i)
                except Exception:  # an op that raises is a failed op, not a dead run
                    op_s.append(time.perf_counter() - started)
                    failures[i] = [traceback.format_exc(limit=-1).strip()]
                else:
                    op_s.append(time.perf_counter() - started)
                    problems = workload.check(i, outcome)
                    if problems:
                        failures[i] = problems
                i += 1
        for i, problems in workload.verify().items():
            failures.setdefault(i, []).extend(problems)
        return Measurement(
            setup_s=setup_s, setup_probe_s=setup_probe_s, op_s=op_s, probe_s=probe_s,
            failures=failures, quality=workload.quality(), spans=tracer.spans if tracer else [],
        )
    finally:
        workload.teardown()


@contextlib.contextmanager
def _span(tracer, name, op):
    if tracer is None:
        yield
        return
    tracer.op = op
    with tracer.span(name):
        yield
