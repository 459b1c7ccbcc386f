"""lane3d benchmark: one workload per run, or all four with --workload all.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; lane3d is imported from its ``src``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it times the op untraced, then again with every layer
hook installed, and reports the per-layer metrics.  The end-to-end
timings are scaled to a nominal host speed by the probe in ``probe.py``;
the wall-clock figures are printed and recorded next to them.
Human-readable lines come first; the last line of stdout is one JSON
object.  Per-run records (and the spans of a traced run) go to
``perfbench/results/``.

Exit codes: 0 ran (``correct`` says whether every output checked out),
1 bad arguments, 2 lane3d missing or the trace broken.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train", "eval", "eval-early", "gradcheck")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB",
}
# quality figure -> the per-layer metric that carries it
QUALITY_LAYERS = {"loss_end": "training.loss_end", "f1": "metrics.f1",
                  "jitter_m": "metrics.jitter_m", "max_rel_err": "checks.max_rel_err"}


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _blas_build():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# one workload


def _end_to_end(runs):
    """The timings scaled to the nominal host speed; wall figures go to the detail."""
    from perfbench import probe
    from perfbench.stats import median, tail

    times = runs.scaled_op_s
    t = tail(times)
    metrics = {
        "setup_s": median(runs.scaled_setup_s),
        "ops_per_s": runs.ops_per_s,
        "op_p50_s": median(times),
        "op_tail_s": t.value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s_samples": runs.scaled_setup_s,
        "op_tail_percentile": t.percentile,
        "op_tail_samples_beyond": t.beyond,
        "ops": t.samples,
        "probe_nominal_s": probe.NOMINAL_S,
        "probe_p50_s": median(runs.probe_s),
        "wall": {
            "setup_s": median(runs.setup_s),
            "ops_per_s": runs.wall_ops_per_s,
            "op_p50_s": median(runs.op_s),
            "op_tail_s": tail(runs.op_s).value,
        },
    }
    return metrics, detail


def run_workload(args) -> dict:
    from perfbench import tracing, workloads

    (RESULTS / "work").mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Sizes(), RESULTS / "work")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "seeds": dataclasses.asdict(workload.seeds),
              "environment": environment(), "load_1min_start": os.getloadavg()[0]}
    layer_units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    if args.trace == 0:
        runs = workloads.measure(workload, args.seconds, setups=SETUP_REPEATS)
        metrics, detail = _end_to_end(runs)
        units = END_TO_END_UNITS
        phases = [runs]
    else:
        base = workloads.measure(workload, args.seconds)
        traced = workloads.measure(workload, args.seconds, trace=True)
        op_ids = range(traced.attempted)
        tracing.check_coverage(traced.spans, op_ids, workload.op_layers, workload.setup_layers)
        layers = tracing.layer_metrics(traced.spans, op_ids)
        layers["trace.overhead_ratio"] = traced.ops_per_s / base.ops_per_s  # both scaled
        for key, layer in QUALITY_LAYERS.items():
            value = base.quality.get(key, 0.0)
            layers[layer] = value if math.isfinite(value) else 0.0  # NaN: nothing to average
        metrics = {name: layers[name] for name, _, _ in tracing.PER_LAYER}
        units = layer_units
        detail = {"ops_untraced": base.attempted, "ops_traced": traced.attempted,
                  "spans": len(traced.spans)}
        phases = [base, traced]
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(traced.spans, spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        runs = base
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    problems = [f"op {i}: {msg}" for p in phases for i, msgs in sorted(p.failures.items())
                for msg in msgs]
    record.update({
        "load_1min_end": os.getloadavg()[0],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "quality": {k: {"value": v if math.isfinite(v) else None,
                         "unit": layer_units[QUALITY_LAYERS[k]]}
                    for k, v in runs.quality.items()},
        "detail": detail,
        "problems": problems[:20],
    })
    if hasattr(workload, "weight_seed"):
        record["seeds"]["weights_used"] = workload.weight_seed
    return record


def _print_record(record):
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"seeds={json.dumps(record['seeds'])}")
    print(f"   environment {json.dumps(record['environment'])}")
    print(f"   load_1min start={record['load_1min_start']:.2f} end={record['load_1min_end']:.2f}")
    rows = dict(record["metrics"])
    if record["trace"] == 0:
        rows.update(record["quality"])
    for name, m in rows.items():
        print(f"   {name:<40} {m['value']} {m['unit']}")
    d = record["detail"]
    if "op_tail_percentile" in d:
        print(f"   op_tail_s is p{d['op_tail_percentile']:.1f} with "
              f"{d['op_tail_samples_beyond']} of {d['ops']} samples beyond it")
        print(f"   timings above are scaled to a host that runs the probe in "
              f"{d['probe_nominal_s'] * 1e3:g} ms; here its median was {d['probe_p50_s'] * 1e3:.4g} ms")
        for name, value in d["wall"].items():
            print(f"   wall {name:<35} {value} {END_TO_END_UNITS[name]}")
    print(f"   failed_ratio {record['failed']}/{record['attempted']} = {record['failed_ratio']:.6g}")
    for line in record["problems"]:
        print(f"   FAILED {line}", file=sys.stderr)


def _result_line(record) -> str:
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"],
    })


# ---------------------------------------------------------------------------
# all four workloads, each in its own process so peak RSS is its own


def run_all(args) -> int:
    records = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        print(child.stdout, end="")
        if child.returncode != 0:
            print(f"workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        with open(_record_path(name, args)) as fh:
            records.append(json.load(fh))
    summary = {
        "environment": records[0]["environment"],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": {r["workload"]: r for r in records},
    }
    path = RESULTS / f"summary-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"== summary written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
    }))
    return 0


def _record_path(workload, args) -> Path:
    return RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 1
    if not (ROOT / "src" / "lane3d" / "__init__.py").is_file():
        print(f"run.py: lane3d sources not found under {ROOT / 'src'}; "
              "run from the root of a lane3d checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    from perfbench.tracing import TraceError

    started = time.perf_counter()
    try:
        record = run_workload(args)
    except TraceError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    record["wall_s"] = time.perf_counter() - started
    _record_path(args.workload, args).write_text(json.dumps(record, indent=1) + "\n")
    _print_record(record)
    print(_result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
