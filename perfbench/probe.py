"""A fixed piece of work, timed next to every op, that tracks the host's speed.

The benchmark's machine is a shared virtual one whose speed drifts by a
third over tens of seconds, so raw op times from two runs minutes apart
differ more than any bound worth having.  The probe is small-array numpy
work and plain interpreter work in about equal parts, the two kinds that
lane3d's ops are made of, and it never calls lane3d, so a change to
lane3d does not change it.  An op's scaled time is its wall time times
``NOMINAL_S`` over the probe time measured around it: the time the op
would take on a host that runs the probe in ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the probe's median time on the machine the README's figures
# come from; it only sets the scale of the scaled times
NOMINAL_S = 2.0e-3
NEIGHBOURS = 2  # probes on either side of an op that set its scale

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((16, 16))
_VECTOR = _rng.standard_normal(64)


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    started = time.perf_counter()
    x, y = _VECTOR, _MATRIX
    for _ in range(150):
        x = np.tanh(x * 0.5 + 0.1)
        y = y @ _MATRIX * 0.01
    total, table = 0, {}
    for i in range(8000):
        total += i * i
        table[i & 63] = total
    return time.perf_counter() - started


def probes(n: int) -> float:
    """Median of ``n`` probes."""
    return statistics.median(probe() for _ in range(n))


def scaled(op_s, probe_s) -> list:
    """Each op's wall time scaled to the nominal host speed.

    ``probe_s[i]`` is the probe taken just before op ``i`` (so
    ``probe_s[i + 1]`` is the one just after it).  Op ``i``'s scale is the
    median of the probes within ``NEIGHBOURS`` of it on either side,
    which follows the host's drift but not a single probe's jitter.
    """
    if len(op_s) != len(probe_s):
        raise ValueError("scaled: one probe per op")
    n = len(op_s)
    out = []
    for i, seconds in enumerate(op_s):
        window = probe_s[max(0, i - NEIGHBOURS + 1): min(n, i + NEIGHBOURS + 1)]
        out.append(seconds * NOMINAL_S / statistics.median(window))
    return out
