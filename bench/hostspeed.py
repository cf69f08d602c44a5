"""Host speed, measured by a fixed calibration kernel run next to each op.

On a shared host the same op can run up to twice as slow for spells of
seconds to minutes, because of load the process does not control. The
kernel below uses only Python and numpy, never the package under test, so
its time moves with the host and not with the code: `factor()` is its time
now divided by NOMINAL_S, about 1.0 on a quiet host and 2.0 when the host
runs at half speed. Multiplying an op rate by the factor of the interval it
ran in gives the rate at nominal host speed.

The kernel mixes the three kinds of work the workloads do: interpreted
Python with dicts, lists and calls; numpy calls on small arrays, where
per-call overhead dominates; and numpy passes over a 2 MB array.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# Seconds one kernel pass takes on a quiet host (2 GHz Xeon vCPU, CPython
# 3.11, numpy 2.4). Only the ratio of two runs' figures matters, so this
# constant just puts normalised rates on the scale of plain ones.
NOMINAL_S = 0.016

_BIG = np.random.default_rng(0).random(1 << 18)
_SMALL = np.arange(8, dtype=float)
_KEYS = [f"k{i}" for i in range(64)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def _python(n: int) -> int:
    # Dict lookups, list indexing, calls and int arithmetic, allocating no
    # container, so that the program's heap cannot slow the kernel via gc.
    table, keys = _TABLE, _KEYS
    total = 0
    for i in range(n):
        key = keys[i & 63]
        total += table[key] if i % 3 else max(i & 7, 2)
    return total


def _numpy_small(n: int) -> float:
    x = _SMALL
    for _ in range(n):
        x = np.maximum(x * 0.5 + 1.0, 0.0)
    return float(x[0])


def _numpy_big(n: int) -> float:
    s = 0.0
    for _ in range(n):
        s += float(np.exp(-_BIG).sum())
    return s


def kernel() -> None:
    _python(28_000)
    _numpy_small(1_400)
    _numpy_big(3)


def factor(passes: int = 1) -> float:
    """Seconds per kernel pass now, over `passes` passes, relative to
    NOMINAL_S."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(passes):
            kernel()
        return (perf_counter() - start) / passes / NOMINAL_S
    finally:
        if enabled:
            gc.enable()
