"""Anchor-based 3D lane modeling with recurrent temporal feature fusion."""

import ctypes
import functools
import itertools
import os
import pickle
import sys

__version__ = "0.1.0"


def _keep_freed_memory():
    """Stop glibc returning freed heap memory to the kernel, so a training
    step reuses its temporaries' pages instead of faulting fresh ones in.
    A no-op where ``mallopt`` is missing or refuses (musl, macOS)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # M_MMAP_THRESHOLD (-3) at its 64-bit cap, then M_TRIM_THRESHOLD (-1) above a step's peak
        mallopt(-3, 32 << 20) and mallopt(-1, 128 << 20)


_keep_freed_memory()


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy links another BLAS or its extension cannot be loaded."""
    try:
        from numpy._core import _multiarray_umath
        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get = blas.scipy_openblas_get_num_threads64_
        set_ = blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


_in_worker = False  # True while this process runs tasks of fork_map


def _claim(queue):
    """The next task index from the queue pipe, or None when it is empty.
    A one-byte read from a pipe is atomic, so no index is claimed twice."""
    byte = os.read(queue, 1)
    return byte[0] if byte else None


def _run_claimed(fn, items, queue, first):
    """[(index, fn(items[index]))] for the indices in ``first``, then for every
    index this process claims from the queue, until it is empty."""
    claimed = iter(lambda: _claim(queue), None)
    return [(index, fn(items[index])) for index in itertools.chain(first, claimed)]


def _child(fn, items, queue, results):
    """Run claimed tasks, send back their results or the exception, and
    leave with ``os._exit``: the child must not run the parent's exit code."""
    try:
        try:
            message = ("ok", _run_claimed(fn, items, queue, ()))
        except BaseException as exc:  # sent to the parent, which raises it
            message = ("error", exc)
        try:
            data = pickle.dumps(message)
        except Exception:  # an unpicklable result or exception
            data = pickle.dumps(("error", RuntimeError(
                f"fork_map: the worker's outcome cannot be sent back: {message[1]!r}")))
        with open(results, "wb") as fh:
            fh.write(data)
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(0)


def fork_map(fn, items):
    """``[fn(item) for item in items]``, split between this process and one
    forked child; results come back in input order.

    Both processes claim tasks one at a time from a pipe, this process
    starting with ``items[0]``, so put the longest first.  While both run,
    OpenBLAS uses one thread each, so two processes do not oversubscribe two
    cores.  ``fn`` and ``items`` reach the child by the fork, not by pickling,
    so they may be closures, and test patches hold there too; each result
    comes back pickled.  An exception of either side is raised here, this
    process's first, and the child has always been reaped by then.
    Call it from a process that runs no other Python thread: the child
    is a copy of the calling thread alone.

    The list comprehension runs in-process instead on a platform without
    ``fork`` or other than Linux, with fewer than 2 usable CPUs, without
    numpy's bundled OpenBLAS, for fewer than 2 or more than 256 tasks (an
    index is one byte), and inside a task of a running ``fork_map``, so
    never more than two processes run.  Tasks that are deterministic give
    the same results either way.
    """
    global _in_worker
    items = list(items)
    if (_in_worker or not 2 <= len(items) <= 256 or sys.platform != "linux"
            or not hasattr(os, "fork") or _usable_cpus() < 2 or _blas_threads() is None):
        return [fn(item) for item in items]
    get_threads, set_threads = _blas_threads()
    threads = get_threads()
    queue, queue_in = os.pipe()
    os.write(queue_in, bytes(range(1, len(items))))  # at most 255 bytes: never blocks
    os.close(queue_in)
    results, results_in = os.pipe()
    fds = [queue, results, results_in]
    set_threads(1)
    _in_worker = True
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _child(fn, items, queue, results_in)
        os.close(fds.pop())  # the child's end
        try:
            mine = _run_claimed(fn, items, queue, (0,))
        finally:
            while _claim(queue) is not None:  # the child stops after its current task
                pass
            with open(results, "rb", closefd=False) as fh:  # until the child closes its end
                data = fh.read()
            os.waitpid(pid, 0)
    finally:
        _in_worker = False
        set_threads(threads)
        for fd in fds:
            os.close(fd)
    if not data:
        raise RuntimeError(f"fork_map: worker process {pid} ended without sending its results")
    status, theirs = pickle.loads(data)  # bytes that the child wrote
    if status == "error":
        raise theirs
    out = [None] * len(items)
    for index, result in mine + theirs:
        out[index] = result
    return out
