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

import numpy as np

from . import pwl
from .activations import PwlActivation
from .bounds import breakpoint_upper_bound_exact
from .errors import PreconditionError, UnsupportedActivationError
from .netgraph import OUTPUT_ID, Network, Segment, depth_profile, hidden_ancestors, require_valid
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
    def change_points(self) -> dict:
        """Per unit, the sorted interior alphas where its state changes."""
        return {
            uid: pwl.state_change_points(trace) for uid, trace in self.state_traces.items()
        }


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
    try:
        # An overflow leaves a non-finite piece, whose finiteness check
        # raises the only ValueError here; numpy's warnings would only
        # repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, uid in enumerate(net.input_ids):
                fns[uid] = pwl.PwlFunction1D.affine(seg.y[i] - seg.x[i], seg.x[i])
            for uid in net.topo_order:
                unit = net.unit_map[uid]
                in_edges = net.in_edges[uid]
                pre = pwl.affine_combine(
                    [e.weight for e in in_edges], [fns[e.src] for e in in_edges], bias=unit.bias
                )
                pre_activation[uid] = pre
                out, state_traces[uid] = pwl.activate(unit.activation, pre)
                fns[uid] = unit_output[uid] = out
            uid = OUTPUT_ID
            out_edges = net.in_edges[OUTPUT_ID]
            if out_edges:
                output = pwl.affine_combine(
                    [e.weight for e in out_edges], [fns[e.src] for e in out_edges],
                    bias=net.output_bias,
                )
            else:
                output = pwl.PwlFunction1D.constant(net.output_bias)
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
    U = frozenset(units)
    unknown = U - set(r.net.unit_map)
    if unknown:
        raise ValueError(f"unknown unit ids: {sorted(unknown)}")
    if not U:
        return 0
    own = np.sort(np.concatenate([r.change_points[u] for u in U]))
    if own.size == 0:
        return 0
    gap = np.flatnonzero(np.diff(own) > COINCIDENCE_TOL)
    n_clusters = gap.size + 1
    in_u = hidden_ancestors(r.net, U)
    if not in_u:
        return n_clusters
    suppressors = np.sort(np.concatenate([r.change_points[u] for u in in_u]))
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
    raw = {uid: int(r.change_points[uid].size) for uid in r.net.unit_map}
    filtered = {}
    prefix = []
    for i, layer in enumerate(prof.layers, start=1):
        filtered[f"H{i}"] = transitions(r, layer)
        prefix.extend(layer)
        filtered[f"H<={i}"] = transitions(r, prefix)
    filtered["H"] = transitions(r, tuple(r.net.unit_map))
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
    layers = [tuple(layer) for layer in prof.layers]
    prefixes = []
    acc = []
    for layer in layers:
        acc.extend(layer)
        prefixes.append(tuple(acc))
    n_of = {}

    def N(units) -> int:
        key = frozenset(units)
        if key not in n_of:
            n_of[key] = transitions(r, key)
        return n_of[key]

    reports = [
        _worst(
            "transition-subadditivity",
            [
                ({"prefix_end": i + 2}, N(prefixes[i + 1]), N(layers[i + 1]) + N(prefixes[i]))
                for i in range(len(layers) - 1)
            ],
        ),
        _worst(
            "prefix-monotonicity",
            [
                ({"prefix_end": i + 2}, N(prefixes[i]), N(prefixes[i + 1]))
                for i in range(len(layers) - 1)
            ],
        ),
        _worst(
            "union-bound",
            [
                ({"layer": i + 1}, N(layer), sum(N((u,)) for u in layer))
                for i, layer in enumerate(layers)
            ],
        ),
        _worst(
            "per-unit-transition-cap",
            [
                (
                    {"unit": uid},
                    N((uid,)),
                    (r.net.unit_map[uid].activation.t - 1)
                    * (N(hidden_ancestors(r.net, (uid,))) + 1),
                )
                for uid in r.net.unit_map
            ],
        ),
        upper_audit(
            "breakpoints-le-transitions",
            float(break_points(r)),
            float(N(tuple(r.net.unit_map))),
        ),
    ]
    t = max(u.activation.t for u in r.net.units)
    cap = breakpoint_upper_bound_exact(t, prof.width, prof.depth)
    n_all = N(tuple(r.net.unit_map))
    reports.append(
        upper_audit(
            "transitions-le-depth-bound", n_all, cap,
            parameters={"t": t, "omega": str(prof.width), "d_f": prof.depth},
        )
    )
    return reports
