"""``lane3d.fork_map`` splits a list of tasks between this process and one
forked child and returns what the list comprehension would.

The forked cases start one child per call and wait for it; the fallback
cases replace ``os.fork`` with a function that fails the test, so they
start no process at all.
"""

import os
import sys
import time

import numpy as np
import pytest

import lane3d
from lane3d import fork_map

FORKS = (sys.platform == "linux" and hasattr(os, "fork") and lane3d._usable_cpus() >= 2
         and lane3d._blas_threads() is not None)
forking = pytest.mark.skipif(not FORKS, reason="fork_map runs in-process here")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _product(seed):
    """A BLAS product, this process's id and its BLAS thread count; the
    first task sleeps so that the child claims some of the others."""
    if seed == 0:
        time.sleep(0.2)
    a = np.random.default_rng(seed).standard_normal((96, 96))
    return (a @ a.T).tobytes(), os.getpid(), lane3d._blas_threads()[0]()


@forking
def test_forked_results_equal_in_process_results_in_input_order(monkeypatch):
    threads = lane3d._blas_threads()[0]()
    forked = fork_map(_product, range(6))
    _no_child_left()
    assert lane3d._blas_threads()[0]() == threads
    monkeypatch.setattr(lane3d, "_usable_cpus", lambda: 1)
    serial = fork_map(_product, range(6))
    assert [f[0] for f in forked] == [s[0] for s in serial]
    assert forked[0][1] == os.getpid()
    assert len({f[1] for f in forked}) == 2  # both processes ran tasks
    assert {f[2] for f in forked} == {1}  # one BLAS thread each while both run
    assert {s[1:] for s in serial} == {(os.getpid(), threads)}


@forking
def test_an_exception_in_the_child_is_raised_in_the_parent():
    parent = os.getpid()

    def task(i):
        if i == 0:
            time.sleep(0.2)
        elif os.getpid() != parent:
            raise ValueError(f"task {i} failed in the child")
        return i

    with pytest.raises(ValueError, match="^task 1 failed in the child$"):
        fork_map(task, range(4))
    _no_child_left()


@forking
def test_an_exception_in_the_parent_is_raised_after_the_child_is_reaped():
    def task(i):
        if i == 0:
            raise KeyError("parent side")
        time.sleep(0.05)
        return i

    with pytest.raises(KeyError, match="parent side"):
        fork_map(task, range(8))
    _no_child_left()


@forking
def test_a_call_inside_a_worker_runs_in_process():
    def task(i):
        if i == 0:
            time.sleep(0.2)
        return os.getpid(), fork_map(lambda j: os.getpid(), range(3))

    outer = fork_map(task, range(4))
    _no_child_left()
    assert len({pid for pid, _ in outer}) == 2
    assert all(inner == [pid] * 3 for pid, inner in outer)


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("fork_map started a process")

    monkeypatch.setattr(os, "fork", fork)


FALLBACKS = {
    "one usable cpu": lambda mp: mp.setattr(lane3d, "_usable_cpus", lambda: 1),
    "not linux": lambda mp: mp.setattr(sys, "platform", "darwin"),
    "no fork": lambda mp: mp.delattr(os, "fork"),
    "no openblas thread setter": lambda mp: mp.setattr(lane3d, "_blas_threads", lambda: None),
    "inside a worker": lambda mp: mp.setattr(lane3d, "_in_worker", True),
}


@pytest.mark.parametrize("condition", sorted(FALLBACKS))
def test_each_fallback_runs_in_process(monkeypatch, condition):
    if condition != "no fork":
        _forbid_fork(monkeypatch)
    FALLBACKS[condition](monkeypatch)
    assert fork_map(lambda i: (i * i, os.getpid()), range(5)) == [
        (i * i, os.getpid()) for i in range(5)]


@pytest.mark.parametrize("count", [0, 1, 257])
def test_too_few_or_too_many_tasks_run_in_process(monkeypatch, count):
    _forbid_fork(monkeypatch)
    assert fork_map(lambda i: -i, range(count)) == [-i for i in range(count)]
