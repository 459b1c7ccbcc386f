"""Freed heap memory stays in the process, so repeated training steps stop
page-faulting their temporaries in again.

Importing lane3d raises glibc's mmap and trim thresholds.  The guard runs
a fresh one-epoch ``training.train`` on one 4-scene batch of the default
configuration four times and counts the minor page faults of calls 3 and
4; calls 1 and 2 grow the heap to its working size.  The negative control
runs the same measurement in a subprocess that puts both thresholds back
to glibc's 128 KiB starting values after the import.
"""

import ctypes
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAULT_BOUND = 500  # per call; measured 0-2 with the thresholds raised, 4,000+ without
MALLOPT = getattr(ctypes.CDLL(None), "mallopt", None)
pytestmark = pytest.mark.skipif(MALLOPT is None, reason="the C library has no mallopt")


def later_call_faults():
    """Minor faults added by the 3rd and 4th of four identical ``train`` calls."""
    from lane3d import synth, training
    from lane3d.config import RunConfiguration

    run = RunConfiguration()
    scenes = synth.generate_dataset(run.train_data_seed, 4, run.scene)
    config = replace(run.train, epochs=1)
    added = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        training.train(config, scenes, run.scene, run.loss)
        added.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return added[2:]


def test_repeated_training_steps_reuse_freed_memory():
    faults = later_call_faults()
    assert all(f < FAULT_BOUND for f in faults), faults


def test_the_guard_sees_faults_at_glibc_starting_thresholds():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                            timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr[-4000:]
    assert all(int(faults) > FAULT_BOUND for faults in result.stdout.split()), result.stdout


if __name__ == "__main__":
    import lane3d  # noqa: F401  (sets the raised thresholds first)

    MALLOPT.argtypes, MALLOPT.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param in (-3, -1):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        if not MALLOPT(param, 128 << 10):
            sys.exit(f"mallopt({param}) refused")
    print(*later_call_faults())
