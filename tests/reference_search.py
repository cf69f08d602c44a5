"""Reference search helpers for differential tests.

A verbatim copy of the scalar `golden_min` and `coordinate_ascent` that the
decision-tree `golden_min` and the early-stopping `coordinate_ascent` in
`search` replaced: one probe per `fn` call, and always COORDINATE_PASSES
passes. Only this docstring differs. The new helpers must reproduce every
result bit for bit.
"""

from __future__ import annotations

import numpy as np

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2
COORDINATE_PASSES = 2  # cyclic sweeps of coordinate_ascent


def golden_min(fn, lo, hi, iters=40):
    """Golden-section minimization of fn on [lo, hi].

    Returns (x, fn(x)) for the best point seen, including the endpoints, so a
    minimum sitting exactly on the bracket boundary is never missed.
    """
    if hi < lo:
        raise ValueError("empty bracket")
    best_x, best_f = lo, fn(lo)
    for x in (hi,):
        f = fn(x)
        if f < best_f:
            best_x, best_f = x, f
    a, b = lo, hi
    h = b - a
    if h <= 0.0:
        return best_x, best_f
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(max(1, int(iters))):
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INV_PHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = fn(d)
    for x, f in ((c, fc), (d, fd)):
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def coordinate_ascent(fn, x0, lo, hi, iters=25):
    """Cyclic coordinate maximization of fn over the box [lo, hi]^n.

    One golden-section line search per coordinate per pass, COORDINATE_PASSES
    passes, starting from x0. Returns (x, fn(x)); never returns a point worse
    than the start.
    """
    x = np.array(x0, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    best = fn(x)
    for _ in range(COORDINATE_PASSES):
        for i in range(x.size):
            def neg_line(v, i=i):
                trial = x.copy()
                trial[i] = v
                return -fn(trial)

            xi, fi = golden_min(neg_line, lo[i], hi[i], iters)
            if -fi > best:
                best = -fi
                x[i] = xi
    return x, best
