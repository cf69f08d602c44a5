"""Dependency-free golden-section and coordinate search helpers.

Golden-section search is sequential, but each step has only two outcomes, so
the probes of the next k steps are known before any of them is evaluated.
golden_min hands fn a whole decision tree of probes per call and then walks
it with the real values; golden_min_batch runs many brackets in lockstep.
coordinate_ascent maximizes by cyclic golden line searches and stops after a
pass that moved nothing.
"""

from __future__ import annotations

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
COORDINATE_PASSES = 2  # most cyclic sweeps of coordinate_ascent


def _golden_children(a, b, c, d):
    """The two successors of one golden step on [a, b] with interior probes
    c < d: [a, d] when fc < fd, else [c, b]. Each is (a, b, c, d, new probe)."""
    left_c = a + INV_PHI2 * (d - a)
    right_d = c + INV_PHI * (b - c)
    return (a, d, left_c, c, left_c), (c, b, d, right_d, right_d)


def _values(fn, probes):
    """fn on a list of probes, as a list of Python floats."""
    return np.asarray(fn(np.array(probes)), dtype=float).tolist()


def golden_min(fn, lo, hi, iters=40, lookahead=1):
    """Golden-section minimization of fn on [lo, hi].

    fn maps a 1-D array of probes to their values. Returns (x, f) as floats
    for the best point seen, including the endpoints, so a minimum sitting
    exactly on the bracket boundary is never missed.

    The first fn call takes lo, hi and the two interior probes (only lo and hi
    for an empty bracket). Each later call takes the 2**k - 1 probes that the
    next k <= lookahead of the max(1, iters) steps could need, laid out as a
    heap-ordered decision tree, and the walk down it follows the real values.
    Ties go as with one probe per step: endpoints first, then c before d,
    strict <. A larger lookahead evaluates probes that are never used, which
    pays only when a call costs much more than a probe. For fn built from
    elementwise IEEE operations the result is bit-identical for every
    lookahead; numpy's SIMD transcendentals (sin, exp, ...) may differ by one
    ulp between array sizes, which can break that.
    """
    if hi < lo:
        raise ValueError("empty bracket")
    if int(lookahead) < 1:
        raise ValueError("lookahead must be >= 1")
    a, b = float(lo), float(hi)
    h = b - a
    if h <= 0.0:  # empty bracket: the endpoints are the only probes
        probes = [a, b]
    else:
        c = a + INV_PHI2 * h
        d = a + INV_PHI * h
        probes = [a, b, c, d]
    values = _values(fn, probes)
    best_x, best_f = a, values[0]
    if values[1] < best_f:
        best_x, best_f = b, values[1]
    if h <= 0.0:
        return best_x, best_f
    fc, fd = values[2], values[3]
    steps = max(1, int(iters))
    while steps:
        k = min(int(lookahead), steps)
        left = fc < fd
        tree = [_golden_children(a, b, c, d)[0 if left else 1]]
        for i in range(2 ** (k - 1) - 1):  # node i has children 2i+1 (left), 2i+2
            tree.extend(_golden_children(*tree[i][:4]))
        values = _values(fn, [node[4] for node in tree])
        i = 0
        for _ in range(k):
            a, b, c, d = tree[i][:4]
            if left:
                fd, fc = fc, values[i]
            else:
                fc, fd = fd, values[i]
            left = fc < fd
            i = 2 * i + (1 if left else 2)
        steps -= k
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


def coordinate_ascent(fn, x0, lo, hi, iters=25):
    """Cyclic coordinate maximization of fn over the box [lo, hi]^n.

    One golden-section line search per coordinate per pass, starting from x0,
    with one fn call per probe: a probe may be a whole expensive search, so
    the line search looks no further ahead than the next step. fn is
    deterministic, so a pass that moves nothing would only be replayed by the
    next one; the ascent stops there, or after COORDINATE_PASSES passes.
    Returns (x, fn(x)); never returns a point worse than the start.
    """
    x = np.array(x0, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    best = fn(x)
    for _ in range(COORDINATE_PASSES):
        moved = False
        for i in range(x.size):
            def neg_line(vs, i=i):
                out = np.empty(len(vs))
                for k, v in enumerate(vs):
                    trial = x.copy()
                    trial[i] = v
                    out[k] = -fn(trial)
                return out

            xi, fi = golden_min(neg_line, lo[i], hi[i], iters)
            if -fi > best:
                best = -fi
                x[i] = xi
                moved = True
        if not moved:
            break
    return x, best
