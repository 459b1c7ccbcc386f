"""Finite-difference audit of every gradient path the trainer uses.

Each named check draws many seeded random inputs, compares reverse-mode
gradients against central differences, and reports the worst relative
error seen. Inputs are sampled away from the genuine kinks (absolute
value at zero, the Balanced L1 branch point, relu pre-activations near
zero, nearest-neighbor ties) because two-sided differences straddle a
kink and disagree with either one-sided derivative there.

`corrupt_gradient` deliberately breaks one primitive's backward rule so
callers can prove the audit actually fires; it is a test hook, not an
API for normal use.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses as ls
from .losses import LossConfig
from .temporal import fuse_all_anchors

TOLERANCE = 1e-4
STEP = 1e-5
DEFAULT_INPUTS_PER_CHECK = 100

# Margin kept between sampled inputs and the nearest kink, in units of
# the quantity being perturbed. Two decades above the probe step.
KINK_MARGIN = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    num_inputs: int
    max_relative_error: float
    worst_seed: int
    worst_parameter: str
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance

    def line(self) -> str:
        # no timing here: a report must be byte-identical across reruns
        status = "ok  " if self.passed else "FAIL"
        return (
            f"{status} {self.name:<24} inputs={self.num_inputs:<4} "
            f"max_rel_err={self.max_relative_error:.3e} "
            f"(seed {self.worst_seed}, {self.worst_parameter})"
        )


def _check_many(name, build, num_inputs, base_seed):
    """Run one named check over ``num_inputs`` seeds; keep the worst error.

    ``build(rng)`` returns (fn, params) for finite_difference_check; it
    may consume as much of the rng stream as it likes (e.g. to resample
    away from a kink).
    """
    worst, worst_seed, worst_param = 0.0, base_seed, ""
    started = time.perf_counter()
    for i in range(num_inputs):
        seed = base_seed + i
        fn, params = build(np.random.default_rng(seed))
        report = ad.finite_difference_check(fn, params, step=STEP)
        if report.max_relative_error >= worst:
            worst = report.max_relative_error
            worst_seed = seed
            worst_param = report.worst_parameter()
    return CheckResult(
        name=name,
        num_inputs=num_inputs,
        max_relative_error=worst,
        worst_seed=worst_seed,
        worst_parameter=worst_param,
        tolerance=TOLERANCE,
        seconds=time.perf_counter() - started,
    )


def _signed_residuals(rng, n, beta):
    """Signed deltas with |delta| clear of both 0 and the branch point."""
    low = rng.uniform(0.05 * beta, 0.9 * beta, size=n)
    high = rng.uniform(1.1 * beta, 3.0 * beta, size=n)
    mag = np.where(rng.random(n) < 0.5, low, high)
    return mag * np.where(rng.random(n) < 0.5, 1.0, -1.0)


def _build_balanced_l1(rng, config):
    n = 8
    target = rng.normal(size=n)
    pred = target + _signed_residuals(rng, n, config.beta)
    weights = rng.uniform(0.1, 2.0, size=n)

    def fn(p):
        return ls.balanced_l1_vector(p["predicted"], target, weights, config)

    return fn, {"predicted": pred}


def _build_chamfer(rng):
    # resample until every nearest-neighbor choice is decisive in both
    # directions, so the min never switches pairs within a probe step
    while True:
        P = rng.normal(size=(5, 3)) * 2.0
        Q = rng.normal(size=(4, 3)) * 2.0
        d2 = np.sum((P[:, None, :] - Q[None, :, :]) ** 2, axis=2)
        gaps = []
        for axis in (0, 1):
            s = np.sort(d2, axis=axis)
            gaps.append(np.min(np.take(s, 1, axis=axis) - np.take(s, 0, axis=axis)))
        if min(gaps) > KINK_MARGIN:
            break

    def fn(p):
        return ls.chamfer(p["p_points"], p["q_points"])

    return fn, {"p_points": P, "q_points": Q}


# focal and Dice are checked on row batches, the form the trainer uses:
# one row per anchor, each with its own target
ROWS_PER_BATCH = 3


def _build_focal(rng, config):
    logits = rng.normal(size=(ROWS_PER_BATCH, 6)) * 2.0
    targets = rng.integers(0, 6, size=ROWS_PER_BATCH)

    def fn(p):
        return ls.focal(p["logits"], targets, config).mean()

    return fn, {"logits": logits}


def _build_dice(rng, config):
    n = 8
    raw = rng.normal(size=(ROWS_PER_BATCH, n)) * 1.5
    mask = (rng.random((ROWS_PER_BATCH, n)) < 0.5).astype(np.float64)

    def fn(p):
        return ls.dice(ad.sigmoid(p["raw"]), mask, config).mean()

    return fn, {"raw": raw}


def _build_uncertainty(rng):
    names = ls.TASK_NAMES
    values = rng.uniform(0.1, 3.0, size=len(names))
    s = rng.normal(size=len(names))

    def fn(p):
        tasks = {name: p["losses"][i] for i, name in enumerate(names)}
        weights = {name: p["s"][i] for i, name in enumerate(names)}
        return ls.combine_uncertainty(tasks, weights)

    return fn, {"losses": values, "s": s}


def _build_lstm(rng, num_frames):
    # one anchor through the trainer's batched fuser: the K=1 case
    channels, hidden = 4, 3
    while True:
        params = {
            "lstm.w_ih": rng.normal(size=(4 * hidden, channels)) * 0.5,
            "lstm.w_hh": rng.normal(size=(4 * hidden, hidden)) * 0.5,
            "lstm.bias": rng.normal(size=4 * hidden) * 0.5,
            "lstm.proj_w": rng.normal(size=(channels, hidden)) * 0.5,
            "lstm.proj_b": rng.normal(size=channels) * 0.5,
            "x": rng.normal(size=(1, num_frames, channels)),
        }
        # relu kinks: reject draws whose projection pre-activation sits
        # within a margin of zero anywhere
        h = ad.lstm_windows(params["x"], params["lstm.w_ih"], params["lstm.w_hh"],
                            params["lstm.bias"]).value
        pre = h @ params["lstm.proj_w"].T + params["lstm.proj_b"]
        if np.min(np.abs(pre)) > KINK_MARGIN:
            break

    mix = rng.normal(size=channels)

    def fn(p):
        fused = fuse_all_anchors(p["x"], p)  # reads the five lstm.* entries of p
        return (fused * mix).sum()

    return fn, params


def run_gradient_checks(
    num_inputs: int = DEFAULT_INPUTS_PER_CHECK,
    base_seed: int = 0,
    loss_config: LossConfig | None = None,
):
    """Full audit; returns a list of CheckResult, one per named check."""
    if num_inputs < 1:
        raise ValueError("run_gradient_checks: need at least one input per check")
    if base_seed < 0:
        raise ValueError("run_gradient_checks: base_seed must be non-negative")
    config = loss_config if loss_config is not None else LossConfig()
    checks = [
        ("balanced_l1", lambda rng: _build_balanced_l1(rng, config)),
        ("chamfer", _build_chamfer),
        ("focal", lambda rng: _build_focal(rng, config)),
        ("dice", lambda rng: _build_dice(rng, config)),
        ("uncertainty_combination", _build_uncertainty),
        ("lstm_fusion_T1", lambda rng: _build_lstm(rng, 1)),
        ("lstm_fusion_T2", lambda rng: _build_lstm(rng, 2)),
        ("lstm_fusion_T3", lambda rng: _build_lstm(rng, 3)),
    ]
    return [
        _check_many(name, build, num_inputs, base_seed)
        for name, build in checks
    ]


def worst_result(results) -> CheckResult:
    return max(results, key=lambda r: r.max_relative_error)


def format_report(results) -> str:
    lines = [r.line() for r in results]
    worst = worst_result(results)
    lines.append(
        f"worst offender: {worst.name} ({worst.worst_parameter}) "
        f"max_rel_err={worst.max_relative_error:.3e} "
        f"tolerance={worst.tolerance:.1e}"
    )
    failing = [r.name for r in results if not r.passed]
    lines.append(
        "all gradient checks passed"
        if not failing
        else "failing operations: " + ", ".join(failing)
    )
    return "\n".join(lines)


@contextlib.contextmanager
def corrupt_gradient(op_name: str, factor: float = 1.5):
    """Scale one autodiff primitive's backward outputs by ``factor``.

    The forward value is untouched, so only a gradient audit can tell
    the difference. Restores the original op on exit.
    """
    original = getattr(ad, op_name, None)
    if original is None or not callable(original):
        raise ValueError(f"corrupt_gradient: no autodiff operation named {op_name!r}")

    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        inner = out._vjp
        if inner is not None:
            out._vjp = lambda g, need: tuple(
                None if p is None else p * factor for p in inner(g, need)
            )
        return out

    setattr(ad, op_name, wrapped)
    try:
        yield
    finally:
        setattr(ad, op_name, original)
