"""Reference restriction engine for differential tests.

A verbatim copy of the scalar engine that the array engine in `pwl`,
`restriction` and `netgraph` replaced: the per-in-edge loop of
`affine_combine`, the per-piece activation cut (run twice per unit, once for
the output and once for the state trace), the loop `normalize`, the graph
walk in `hidden_ancestors` and the per-cluster loop in `transitions`. Only
the imports differ, and `change_points`, once a cached property of
`LineRestriction`, is a function here built from the state traces. The
array engine must reproduce it byte for byte.
"""

from __future__ import annotations

import sys

import numpy as np

from expressivity_auditor.activations import PwlActivation
from expressivity_auditor.errors import UnsupportedActivationError
from expressivity_auditor.netgraph import OUTPUT_ID, Network, Segment, require_valid
from expressivity_auditor.pwl import COALESCE_TOL, MERGE_RTOL, PwlFunction1D
from expressivity_auditor.restriction import COINCIDENCE_TOL, LineRestriction

# `restrict` below calls `pwl.<name>`; here that is this module's copy.
pwl = sys.modules[__name__]


def normalize(f: PwlFunction1D) -> PwlFunction1D:
    """Canonical form: coalesce breakpoints closer than COALESCE_TOL (dropping
    the sliver piece between them) and dissolve junctions whose two sides are
    the same line within tolerance.

    A junction at b with pieces (sl, il) and (sr, ir) is dissolved iff
    |sl - sr| <= MERGE_RTOL * max(1, |sl|, |sr|) and the one-sided values
    differ by at most MERGE_RTOL * max(1, |value|). Idempotent.
    """
    knots = [0.0, *f.breakpoints.tolist(), 1.0]
    pieces = list(zip(f.slopes.tolist(), f.intercepts.tolist()))

    # Pass 1: drop sliver pieces. Absorb leftward except at the left edge.
    changed = True
    while changed and len(pieces) > 1:
        changed = False
        for j in range(len(pieces)):
            if knots[j + 1] - knots[j] <= COALESCE_TOL:
                if j == 0:
                    del pieces[0]
                    del knots[1]
                else:
                    del pieces[j]
                    del knots[j]
                changed = True
                break

    # Pass 2: merge collinear junctions, keeping the left piece's parameters.
    out_pieces = [pieces[0]]
    out_breaks = []
    for j in range(1, len(pieces)):
        b = knots[j]
        sl, il = out_pieces[-1]
        sr, ir = pieces[j]
        vl = sl * b + il
        vr = sr * b + ir
        tol_slope = MERGE_RTOL * max(1.0, abs(sl), abs(sr))
        tol_value = MERGE_RTOL * max(1.0, abs(vl), abs(vr))
        if abs(sl - sr) <= tol_slope and abs(vl - vr) <= tol_value:
            continue
        out_breaks.append(b)
        out_pieces.append((sr, ir))
    slopes, intercepts = zip(*out_pieces)
    return PwlFunction1D(np.array(out_breaks), np.array(slopes), np.array(intercepts))


def affine_combine(coeffs, fs, bias=0.0) -> PwlFunction1D:
    """Normalized sum(coeffs[i] * fs[i]) + bias."""
    coeffs = [float(c) for c in coeffs]
    fs = list(fs)
    if len(coeffs) != len(fs) or not fs:
        raise ValueError("coeffs and fs must have the same nonzero length")
    merged = np.unique(np.concatenate([f.breakpoints for f in fs]))
    if merged.size:
        keep = np.concatenate(([True], np.diff(merged) > COALESCE_TOL))
        merged = merged[keep]
    starts = np.concatenate(([0.0], merged))
    ends = np.concatenate((merged, [1.0]))
    mids = 0.5 * (starts + ends)
    slopes = np.zeros_like(mids)
    intercepts = np.full_like(mids, float(bias))
    for c, f in zip(coeffs, fs):
        idx = f.piece_index(mids)
        slopes += c * f.slopes[idx]
        intercepts += c * f.intercepts[idx]
    return normalize(PwlFunction1D(merged, slopes, intercepts))


def _cut_by_activation(act, f: PwlFunction1D):
    """Subdivide [0, 1] so the activation state of f is constant per cell.

    Yields (lo, hi, state, slope, intercept) with (slope, intercept) the piece
    of f on the cell. States at crossing points follow the right-continuous
    boundary convention of the activation combined with the carrier's
    left-closed pieces.
    """
    boundaries = np.asarray(act.boundaries, dtype=float)
    knots = np.concatenate(([0.0], f.breakpoints, [1.0]))
    cells = []
    for j in range(f.n_pieces):
        lo, hi = knots[j], knots[j + 1]
        if hi <= lo:
            continue
        a, c = float(f.slopes[j]), float(f.intercepts[j])
        if a == 0.0 or boundaries.size == 0:
            state = int(act.state_of(c if a == 0.0 else a * 0.5 * (lo + hi) + c))
            cells.append((lo, hi, state, a, c))
            continue
        with np.errstate(over="ignore"):  # near-zero slopes push crossings to inf
            crossings = (boundaries - c) / a
        crossings = np.sort(crossings[(crossings > lo) & (crossings < hi)])
        cuts = np.concatenate(([lo], crossings, [hi]))
        for k in range(cuts.size - 1):
            clo, chi = float(cuts[k]), float(cuts[k + 1])
            if chi <= clo:
                continue
            state = int(act.state_of(a * 0.5 * (clo + chi) + c))
            cells.append((clo, chi, state, a, c))
    return cells


def apply_activation(act, f: PwlFunction1D) -> PwlFunction1D:
    """Normalized composition act(f(alpha)).

    New breakpoints appear only where f crosses an activation boundary or at
    existing breakpoints of f; jumps of the activation become jump breakpoints.
    """
    if not hasattr(act, "boundaries"):
        raise UnsupportedActivationError(
            f"activation {getattr(act, 'name', act)!r} has no piecewise-linear structure"
        )
    breaks = []
    slopes = []
    intercepts = []
    act_slopes = np.asarray(act.slopes, dtype=float)
    act_intercepts = np.asarray(act.intercepts, dtype=float)
    for lo, hi, state, a, c in _cut_by_activation(act, f):
        m = act_slopes[state - 1]
        q = act_intercepts[state - 1]
        if lo > 0.0:
            breaks.append(lo)
        slopes.append(m * a)
        intercepts.append(m * c + q)
    return normalize(PwlFunction1D(np.array(breaks), np.array(slopes), np.array(intercepts)))


def state_trace(act, f: PwlFunction1D):
    """Activation states of f over [0, 1] as a list of (state, lo, hi).

    Intervals tile [0, 1] in order and adjacent intervals always carry distinct
    states, so every interior junction is a state change. The number of
    junctions is the raw per-unit transition count.
    """
    trace = []
    for lo, hi, state, _, _ in _cut_by_activation(act, f):
        if trace and trace[-1][0] == state:
            trace[-1] = (state, trace[-1][1], hi)
        else:
            trace.append((state, lo, hi))
    return trace


def hidden_ancestors(net: Network, units) -> frozenset:
    """Hidden units lying on a directed path from an input to any unit of
    `units`, excluding `units` itself. These are exactly the hidden units with
    a directed path into the set (every valid unit is input-reachable)."""
    target = frozenset(units)
    unknown = target - set(net.unit_map)
    if unknown:
        raise ValueError(f"unknown unit ids: {sorted(unknown)}")
    seen = set()
    frontier = list(target)
    while frontier:
        uid = frontier.pop()
        for e in net.in_edges.get(uid, ()):
            if e.src in net.unit_map and e.src not in seen:
                seen.add(e.src)
                frontier.append(e.src)
    return frozenset(seen - target)


def restrict(net: Network, seg: Segment) -> LineRestriction:
    """Restrict the network to z(alpha) = (1-alpha)x + alpha*y, exactly."""
    require_valid(net)
    if seg.n != net.n_inputs:
        raise ValueError(f"segment dimension {seg.n} != network inputs {net.n_inputs}")
    for u in net.units:
        if not isinstance(u.activation, PwlActivation):
            raise UnsupportedActivationError(
                f"unit {u.uid!r} has a non-piecewise-linear activation"
            )
    fns = {
        uid: pwl.PwlFunction1D.affine(seg.y[i] - seg.x[i], seg.x[i])
        for i, uid in enumerate(net.input_ids)
    }
    pre_activation, unit_output, state_traces = {}, {}, {}
    for uid in net.topo_order:
        unit = net.unit_map[uid]
        in_edges = net.in_edges[uid]
        pre = pwl.affine_combine(
            [e.weight for e in in_edges], [fns[e.src] for e in in_edges], bias=unit.bias
        )
        pre_activation[uid] = pre
        state_traces[uid] = pwl.state_trace(unit.activation, pre)
        fns[uid] = unit_output[uid] = pwl.apply_activation(unit.activation, pre)
    out_edges = net.in_edges[OUTPUT_ID]
    if out_edges:
        output = pwl.affine_combine(
            [e.weight for e in out_edges], [fns[e.src] for e in out_edges],
            bias=net.output_bias,
        )
    else:
        output = pwl.PwlFunction1D.constant(net.output_bias)
    return LineRestriction(net, seg, pre_activation, unit_output, output, state_traces)


def _clusters(points: np.ndarray) -> list:
    """Group sorted event points by consecutive linkage at the tolerance."""
    if points.size == 0:
        return []
    splits = np.nonzero(np.diff(points) > COINCIDENCE_TOL)[0] + 1
    return [(chunk[0], chunk[-1]) for chunk in np.split(points, splits)]


def change_points(r: LineRestriction) -> dict:
    """Per unit, the sorted interior alphas where its state changes."""
    return {
        uid: np.array([lo for _, lo, _ in trace[1:]], dtype=float)
        for uid, trace in r.state_traces.items()
    }


def transitions(r: LineRestriction, units) -> int:
    """N(U): state-vector changes of U at alphas where no unit of in(U)
    changes state (within the coincidence tolerance), counted on (0,1).

    Simultaneous changes of several members count once; with in(U) empty every
    state-vector change counts.
    """
    U = frozenset(units)
    unknown = U - set(r.net.unit_map)
    if unknown:
        raise ValueError(f"unknown unit ids: {sorted(unknown)}")
    if not U:
        return 0
    points = change_points(r)
    own = np.sort(np.concatenate([points[u] for u in U]))
    if own.size == 0:
        return 0
    in_u = hidden_ancestors(r.net, U)
    suppressors = (
        np.sort(np.concatenate([points[u] for u in in_u]))
        if in_u
        else np.empty(0)
    )
    count = 0
    for lo, hi in _clusters(own):
        i = np.searchsorted(suppressors, lo - COINCIDENCE_TOL, side="left")
        if i < suppressors.size and suppressors[i] <= hi + COINCIDENCE_TOL:
            continue
        count += 1
    return count
