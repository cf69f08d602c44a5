"""Exact restriction of a PWL-activated network to a segment.

Propagates one PwlFunction1D of the segment parameter alpha per unit, in
topological order: inputs restrict to affine functions, pre-activations are
affine combinations of predecessor outputs, unit outputs compose the unit's
activation with its pre-activation. The result supports exact break-point
counts B on the open segment, state-transition counts N(U) for unit sets, and
per-instance audits of the counting inequalities that chain B to the
depth/width bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import pwl
from .activations import PwlActivation
from .bounds import breakpoint_upper_bound_exact
from .errors import PreconditionError, UnsupportedActivationError
from .netgraph import OUTPUT_ID, Network, Segment, depth_profile, require_valid
from .netgraph import _ancestor_mask, _unit_mask
from .report import upper_audit

# Two event points are treated as simultaneous iff they differ by at most
# this; exact coincidence is measure-zero under random weights, so the value
# only matters for hand-constructed nets.
COINCIDENCE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LineRestriction:
    """All per-unit 1-D functions of alpha for one network and segment."""

    net: Network
    segment: Segment
    pre_activation: dict
    unit_output: dict
    output: pwl.PwlFunction1D
    state_traces: dict

    @cached_property
    def _events(self):
        """(points, starts, sorted points, owner): the interior alphas where
        each unit changes state, unit by unit, with units[i]'s run
        points[starts[i]:starts[i + 1]] sorted as its trace tiles [0, 1] in
        order; all of them sorted; owner[j], the j-th one's net.units index."""
        traces = [self.state_traces[u.uid] for u in self.net.units]
        points = np.array([lo for trace in traces for _, lo, _ in trace[1:]], dtype=float)
        sizes = [len(trace) - 1 for trace in traces]
        order = np.argsort(points, kind="stable")
        owner = np.repeat(np.arange(len(traces)), sizes)[order]
        return points, list(accumulate(sizes, initial=0)), points[order], owner

    @cached_property
    def _memo(self):
        """Two dicts keyed by the bytes of a unit set's boolean mask over
        net.units: the set's sorted change points, and its N."""
        return {}, {}


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
    fns, pre_activation, unit_output, state_traces = {}, {}, {}, {}

    def combine(edges, bias):
        return pwl.affine_combine([e.weight for e in edges], [fns[e.src] for e in edges], bias=bias)

    try:
        # An overflow leaves a non-finite piece, whose finiteness check
        # raises the only ValueError here; numpy's warnings would only
        # repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, uid in enumerate(net.input_ids):
                fns[uid] = pwl.PwlFunction1D.affine(seg.y[i] - seg.x[i], seg.x[i])
            for uid in net.topo_order:
                unit = net.unit_map[uid]
                pre_activation[uid] = pre = combine(net.in_edges[uid], unit.bias)
                fns[uid], state_traces[uid] = pwl.activate(unit.activation, pre)
                unit_output[uid] = fns[uid]
            uid = OUTPUT_ID  # a valid network always has edges into it
            output = combine(net.in_edges[OUTPUT_ID], net.output_bias)
    except ValueError:
        raise PreconditionError(
            f"restricting {uid!r} to the segment overflows binary64"
        ) from None
    return LineRestriction(net, seg, pre_activation, unit_output, output, state_traces)


def break_points(r: LineRestriction) -> int:
    """B, the number of break points of the restricted output on (0,1)."""
    return r.output.n_breakpoints


def transitions(r: LineRestriction, units) -> int:
    """N(U): state-vector changes of U at alphas where no unit of in(U)
    changes state (within the coincidence tolerance), counted on (0,1).

    The sorted change points of U are grouped into clusters by consecutive
    linkage at the tolerance; a cluster counts once, unless a change point of
    in(U) lies within the tolerance of it. So simultaneous changes of several
    members count once; with in(U) empty every state-vector change counts.
    """
    return _n_of(r, _unit_mask(r.net, units))


def _points(r: LineRestriction, member) -> np.ndarray:
    """The sorted change points of the units masked as `member` over
    net.units: a subsequence of the sorted table, so sorted too. Kept per
    mask, as a layer prefix is usually the in(U) of the next layer's units."""
    memo, key = r._memo[0], member.tobytes()
    if key not in memo:
        _, _, ev, owner = r._events
        memo[key] = ev[member[owner]]
    return memo[key]


def _n_of(r: LineRestriction, member) -> int:
    """N(U) for U masked as `member`, counted once per distinct set: the
    first layer is the first prefix, and ancestor sets are mostly prefixes."""
    memo, key = r._memo[1], member.tobytes()
    if key not in memo:
        own = _points(r, member)
        memo[key] = _n(own, _points(r, _ancestor_mask(r.net, member))) if own.size else 0
    return memo[key]


def _n(own, suppressors) -> int:
    """N(U) from the sorted change points of U and of in(U); see
    `transitions`. The only place that applies COINCIDENCE_TOL."""
    if own.size == 0:
        return 0
    gap = np.flatnonzero(own[1:] - own[:-1] > COINCIDENCE_TOL)
    n_clusters = gap.size + 1
    if suppressors.size == 0:
        return n_clusters
    lo = own[np.concatenate(([0], gap + 1))]
    hi = own[np.concatenate((gap, [own.size - 1]))]
    i = np.searchsorted(suppressors, lo - COINCIDENCE_TOL, side="left")
    hit = suppressors[np.minimum(i, suppressors.size - 1)] <= hi + COINCIDENCE_TOL
    return n_clusters - int(np.count_nonzero(hit & (i < suppressors.size)))


@dataclass(frozen=True, eq=False)
class TransitionCount:
    """raw: per-unit state-change counts on (0,1); filtered: N(U) for the
    layer, layer-prefix, and all-hidden unit sets, keyed by label."""

    raw: dict
    filtered: dict


def transition_counts(r: LineRestriction) -> TransitionCount:
    prof = depth_profile(r.net)
    _, starts, _, _ = r._events
    raw = {u.uid: starts[i + 1] - starts[i] for i, u in enumerate(r.net.units)}
    depth = np.array([prof.unit_depth[u.uid] for u in r.net.units])
    filtered = {}
    for i in range(1, prof.depth + 1):
        filtered[f"H{i}"] = _n_of(r, depth == i)
        filtered[f"H<={i}"] = _n_of(r, depth <= i)
    filtered["H"] = filtered[f"H<={prof.depth}"]  # every hidden unit has a depth in 1..d
    return TransitionCount(raw, filtered)


def _worst(kind, instances):
    """One report per inequality kind, carrying its tightest instance."""
    if not instances:
        return upper_audit(kind, 0.0, 0.0, parameters={"instances": 0})
    label, measured, bound = min(instances, key=lambda it: it[2] - it[1])
    return upper_audit(kind, float(measured), float(bound), parameters=label)


def audit_transition_inequalities(r: LineRestriction) -> list:
    """Per-instance checks of the transition-counting chain.

    Returns one report per kind, each pinned to the tightest instance found:
    subadditivity of N over layer-prefix unions, monotonicity of N along
    nested prefixes, the union bound over a layer's units, the per-unit cap
    N(u) <= (t-1)(N(in(u))+1), B <= N(all hidden), and N(all hidden) against
    the depth/width break-point bound (compared in exact rationals).
    """
    prof = depth_profile(r.net)
    f = transition_counts(r).filtered
    points, starts, _, _ = r._events
    anc = r.net._ancestors
    n_unit, caps = {}, []
    for i, u in enumerate(r.net.units):
        n_unit[u.uid] = _n(points[starts[i]:starts[i + 1]], _points(r, anc[i]))
        caps.append(({"unit": u.uid}, n_unit[u.uid], (u.activation.t - 1) * (_n_of(r, anc[i]) + 1)))
    steps = range(2, prof.depth + 1)
    instances = {
        "transition-subadditivity":
            [({"prefix_end": i}, f[f"H<={i}"], f[f"H{i}"] + f[f"H<={i - 1}"]) for i in steps],
        "prefix-monotonicity": [({"prefix_end": i}, f[f"H<={i - 1}"], f[f"H<={i}"]) for i in steps],
        "union-bound": [({"layer": i}, f[f"H{i}"], sum(n_unit[uid] for uid in layer))
                        for i, layer in enumerate(prof.layers, start=1)],
        "per-unit-transition-cap": caps,
    }
    t = max(u.activation.t for u in r.net.units)
    cap = breakpoint_upper_bound_exact(t, prof.width, prof.depth)
    params = {"t": t, "omega": str(prof.width), "d_f": prof.depth}
    return [_worst(kind, inst) for kind, inst in instances.items()] + [
        upper_audit("breakpoints-le-transitions", float(break_points(r)), float(f["H"])),
        upper_audit("transitions-le-depth-bound", f["H"], cap, parameters=params),
    ]
