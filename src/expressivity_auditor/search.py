"""Dependency-free scalar and coordinate search helpers."""

from __future__ import annotations

import numpy as np

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2


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


def golden_min_batch(fn, lo, hi, iters=40):
    """Elementwise golden_min over a batch of brackets [lo[i], hi[i]].

    fn maps an array of points, one per bracket, to their values. Each element
    follows golden_min's arithmetic and tie rules exactly (endpoints first,
    then c before d, strict <), so for an fn built from elementwise IEEE
    operations the result equals golden_min per bracket bit for bit. That can
    fail for fn using numpy's SIMD transcendentals (sin, exp, ...), whose
    array and scalar calls may differ by one ulp.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi < lo):
        raise ValueError("empty bracket")
    best_x, best_f = lo, fn(lo)
    f = fn(hi)
    take = f < best_f
    best_x, best_f = np.where(take, hi, best_x), np.where(take, f, best_f)
    a, b = lo, hi
    h = b - a
    live = ~(h <= 0.0)  # golden_min's early exit, NaN widths included
    if not np.any(live):
        return best_x, best_f
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(max(1, int(iters))):
        left = fc < fd  # golden_min's branch, per element
        a, b = np.where(left, a, c), np.where(left, d, b)
        keep, fkeep = np.where(left, c, d), np.where(left, fc, fd)
        h = b - a
        new = np.where(left, a + INV_PHI2 * h, a + INV_PHI * h)
        fnew = fn(new)
        c, fc = np.where(left, new, keep), np.where(left, fnew, fkeep)
        d, fd = np.where(left, keep, new), np.where(left, fkeep, fnew)
    for x, f in ((c, fc), (d, fd)):
        take = live & (f < best_f)
        best_x, best_f = np.where(take, x, best_x), np.where(take, f, best_f)
    return best_x, best_f


def golden_max(fn, lo, hi, iters=40):
    x, f = golden_min(lambda v: -fn(v), lo, hi, iters)
    return x, -f


def coordinate_ascent(fn, x0, lo, hi, passes=3, iters=25):
    """Cyclic coordinate maximization of fn over the box [lo, hi]^n.

    One golden-section line search per coordinate per pass, starting from x0.
    Returns (x, fn(x)); never returns a point worse than the start.
    """
    x = np.array(x0, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    best = fn(x)
    for _ in range(max(1, int(passes))):
        for i in range(x.size):
            def line(v, i=i):
                trial = x.copy()
                trial[i] = v
                return fn(trial)

            xi, fi = golden_max(line, lo[i], hi[i], iters)
            if fi > best:
                best = fi
                x[i] = xi
    return x, best
