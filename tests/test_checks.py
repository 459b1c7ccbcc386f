import hashlib

import numpy as np
import pytest

import lane3d
from lane3d import autodiff as ad
from lane3d.checks import (
    TOLERANCE,
    _signed_residuals,
    corrupt_gradient,
    format_report,
    run_gradient_checks,
    worst_result,
)
from lane3d.losses import LossConfig

EXPECTED_CHECKS = (
    "balanced_l1",
    "chamfer",
    "focal",
    "dice",
    "uncertainty_combination",
    "lstm_fusion_T1",
    "lstm_fusion_T2",
    "lstm_fusion_T3",
)


def test_suite_passes_and_covers_everything():
    results = run_gradient_checks(num_inputs=5)
    assert tuple(r.name for r in results) == EXPECTED_CHECKS
    for r in results:
        assert r.passed, f"{r.name}: {r.max_relative_error}"
        assert r.max_relative_error < TOLERANCE
        assert r.num_inputs == 5


def test_suite_is_deterministic():
    a = run_gradient_checks(num_inputs=4, base_seed=3)
    b = run_gradient_checks(num_inputs=4, base_seed=3)
    for ra, rb in zip(a, b):
        assert ra.max_relative_error == rb.max_relative_error
        assert ra.worst_seed == rb.worst_seed
        assert ra.worst_parameter == rb.worst_parameter


# Taken from the audit before its forward nodes were trimmed (numpy 2.4,
# OpenBLAS 0.3.31, x86-64): a speed-up that moves one bit of the audit
# fails here.  A different libm or BLAS may move the last bits of these.
PINNED_REPORT_SHA256 = "49f8f9e4496568c8943f643bd100c95baff85af7c00c310b7432e16a79bf8e3d"
PINNED_MAX_RELATIVE_ERRORS = (
    "00000080e771c33d", "0000000040bddc3d", "00000000ca6e943d", "000000803e5ca23d",
    "0000000068c8d23d", "000000004c96983d", "00000000f464cd3d", "00000018341cc73d",
)


def test_audit_is_bitwise_pinned():
    results = run_gradient_checks(num_inputs=2, base_seed=0)
    errors = tuple(np.float64(r.max_relative_error).tobytes().hex() for r in results)
    assert errors == PINNED_MAX_RELATIVE_ERRORS
    assert hashlib.sha256(format_report(results).encode()).hexdigest() == PINNED_REPORT_SHA256


def test_the_audit_is_the_same_in_two_processes_and_in_one(monkeypatch):
    forked = run_gradient_checks(num_inputs=2, base_seed=5)
    monkeypatch.setattr(lane3d, "_usable_cpus", lambda: 1)  # the in-process path
    serial = run_gradient_checks(num_inputs=2, base_seed=5)
    assert format_report(forked) == format_report(serial)
    assert [r.max_relative_error for r in forked] == [r.max_relative_error for r in serial]


def test_different_base_seed_changes_the_draws():
    a = run_gradient_checks(num_inputs=4, base_seed=0)
    b = run_gradient_checks(num_inputs=4, base_seed=77)
    assert any(
        ra.max_relative_error != rb.max_relative_error for ra, rb in zip(a, b)
    )


def test_residual_sampler_avoids_the_kinks():
    beta = 1.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        deltas = np.abs(_signed_residuals(rng, 64, beta))
        assert np.all(deltas > 0.04 * beta)
        assert np.all(np.abs(deltas - beta) > 0.09 * beta)


def test_corrupt_gradient_is_caught_and_named():
    with corrupt_gradient("lstm_windows", factor=1.5):
        results = run_gradient_checks(num_inputs=2)
    failing = {r.name for r in results if not r.passed}
    # the recurrence node only appears inside the fuser
    assert failing == {"lstm_fusion_T1", "lstm_fusion_T2", "lstm_fusion_T3"}
    report = format_report(results)
    assert "failing operations" in report
    assert "lstm_fusion_T1" in report
    assert worst_result(results).name in failing


def test_corrupt_transpose_reaches_the_trainers_fusion_path():
    # the fuser transposes its projection weight; the audit runs that
    # path, so a wrong transpose rule must fail all three
    with corrupt_gradient("transpose", factor=1.5):
        results = run_gradient_checks(num_inputs=2)
    failing = {r.name for r in results if not r.passed}
    assert failing == {"lstm_fusion_T1", "lstm_fusion_T2", "lstm_fusion_T3"}


def test_corrupt_gradient_hits_shared_primitives():
    with corrupt_gradient("multiply", factor=2.0):
        results = run_gradient_checks(num_inputs=2)
    failing = {r.name for r in results if not r.passed}
    assert "balanced_l1" in failing
    assert "uncertainty_combination" in failing


def test_corrupt_where_reaches_the_trainers_chamfer_path():
    # the chamfer check runs the masked row-batch core that scene_loss
    # uses, whose nearest-neighbor search toward Q goes through where
    with corrupt_gradient("where", factor=1.5):
        results = run_gradient_checks(num_inputs=2)
    failing = {r.name for r in results if not r.passed}
    assert "chamfer" in failing


def test_corrupt_gradient_restores_the_op():
    original = ad.sigmoid
    with corrupt_gradient("sigmoid"):
        assert ad.sigmoid is not original
    assert ad.sigmoid is original
    results = run_gradient_checks(num_inputs=2)
    assert all(r.passed for r in results)


def test_corrupt_gradient_rejects_unknown_ops():
    with pytest.raises(ValueError, match="nosuch"):
        with corrupt_gradient("nosuch"):
            pass


def test_report_mentions_worst_offender():
    results = run_gradient_checks(num_inputs=2)
    report = format_report(results)
    assert "worst offender" in report
    assert "all gradient checks passed" in report
    for name in EXPECTED_CHECKS:
        assert name in report


def test_custom_loss_config_flows_through():
    config = LossConfig(alpha=0.8, beta=0.5, gamma=2.0, focal_gamma=3.0)
    results = run_gradient_checks(num_inputs=3, loss_config=config)
    assert all(r.passed for r in results)


def test_rejects_empty_suite():
    with pytest.raises(ValueError):
        run_gradient_checks(num_inputs=0)


def test_rejects_a_negative_base_seed():
    with pytest.raises(ValueError, match="^run_gradient_checks: base_seed must be non-negative"):
        run_gradient_checks(num_inputs=1, base_seed=-1)
