"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lane3d import synth
from perfbench import probe, run, tracing, workloads
from perfbench.stats import tail
from perfbench.tracing import SETUP, Span, self_times

ROOT = Path(__file__).resolve().parents[2]

TINY = workloads.Sizes(
    train_scenes=2, train_epochs=1, eval_scenes=2, early_scenes=1,
    checkpoint_scenes=2, checkpoint_epochs=1, gradcheck_seeds=1,
)


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 3.0, 0, 0),
        Span(2, "a.child", 1.5, 2.5, 1, 0),
        Span(3, "b", 5.0, 6.0, 0, 0),
        Span(4, "b.overlap", 5.5, 7.5, 3, 0),  # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(0.5)  # only the covered part counts
    assert selfs[4] == pytest.approx(2.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    t = tail(list(range(1, 101)))
    assert (t.value, t.percentile, t.beyond, t.samples) == (90, 90.0, 10, 100)
    t = tail(list(range(20, 0, -1)))
    assert (t.value, t.percentile, t.beyond) == (10, 50.0, 10)
    # under 20 samples the rule would fall below the median (at 11, the
    # minimum): the maximum instead, 0 beyond
    t = tail(list(range(19)))
    assert (t.value, t.percentile, t.beyond, t.samples) == (18, 100.0, 0, 19)
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.beyond, t.samples) == (3.0, 100.0, 0, 3)
    with pytest.raises(ValueError):
        tail([])


def test_scaled_times_follow_the_host_not_one_probe():
    nominal = probe.NOMINAL_S
    ops = [0.1, 0.2, 0.1, 0.3, 0.1, 0.1]
    # a host that runs the probe at half speed throughout doubles every wall time
    assert probe.scaled(ops, [2 * nominal] * 6) == pytest.approx([t / 2 for t in ops])
    # one probe caught in a stall moves no op's scale
    stalled = [nominal, nominal, nominal, 5 * nominal, nominal, nominal]
    assert probe.scaled(ops, stalled) == pytest.approx(ops)
    with pytest.raises(ValueError):
        probe.scaled(ops, [nominal])
    assert probe.probe() > 0


def test_default_seed_gives_the_pinned_benchmark_and_others_move_it():
    seeds = workloads.derive_seeds(workloads.DEFAULT_SEED)
    assert (seeds.train_data, seeds.eval_data, seeds.weights) == (1000, 5000, 11)
    other = workloads.derive_seeds(7)
    assert other.train_data != seeds.train_data and other.eval_data != seeds.eval_data
    assert other.weights != seeds.weights and other.gradcheck != seeds.gradcheck
    config = synth.SceneConfig()
    pinned = synth.generate_scene(seeds.train_data, config).frames[0].features
    moved = synth.generate_scene(other.train_data, config).frames[0].features
    assert not np.array_equal(pinned, moved)
    assert workloads.derive_seeds(-3).train_data > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload_untraced_and_traced(name, tmp_path):
    plain = workloads.measure(workloads.WORKLOADS[name](0, TINY, tmp_path), 0.01, setups=2)
    assert plain.attempted >= 1 and plain.failures == {}
    assert len(plain.setup_s) == 2
    assert all(np.isfinite(v) or k == "jitter_m" for k, v in plain.quality.items())

    workload = workloads.WORKLOADS[name](0, TINY, tmp_path)
    traced = workloads.measure(workload, 0.01, trace=True)
    assert traced.failures == {}
    op_ids = range(traced.attempted)
    tracing.check_coverage(traced.spans, op_ids, workload.op_layers, workload.setup_layers)
    layers = tracing.layer_metrics(traced.spans, op_ids)
    derived = {"trace.overhead_ratio", *run.QUALITY_LAYERS.values()}
    assert set(layers) == {name for name, _, _ in tracing.PER_LAYER} - derived
    np.testing.assert_equal(traced.quality, plain.quality)  # deterministic outputs
    assert list(tmp_path.iterdir()) == []  # set-up files removed


def test_a_missing_hook_target_fails_loudly():
    hooks = (("autodiff.gone", "lane3d.autodiff", "no_such_function", None),)
    with pytest.raises(tracing.TraceError, match="no longer exists"):
        with tracing.Tracer(hooks):
            pass


def test_an_idle_layer_fails_coverage():
    spans = [Span(0, "bench.op", 0.0, 1.0, None, 0), Span(1, "synth.generate_scene", 0, 1, None, SETUP)]
    tracing.check_coverage(spans, [0], ["bench.op"], ["synth.generate_scene"])
    with pytest.raises(tracing.TraceError, match="autodiff.backward"):
        tracing.check_coverage(spans, [0], ["autodiff.backward"], [])


def test_tracer_restores_lane3d():
    from lane3d import autodiff, training

    before = (autodiff.Var.backward, training.focal, training.AdamOptimizer.step)
    with tracing.Tracer():
        assert training.focal is not before[1]
    assert (autodiff.Var.backward, training.focal, training.AdamOptimizer.step) == before


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_run_refuses_without_lane3d_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_run_prints_every_end_to_end_metric_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradcheck", "--seed", "3",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 16
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
