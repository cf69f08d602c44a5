"""Feedforward DAG networks with depth/width accounting.

A Network has n_inputs input units (ids "x1".."xn"), hidden units with bias and
activation, weighted edges (skip connections across non-neighbouring layers
allowed), and a single output unit "out" that weight-sums its in-edges with an
optional bias and no activation.

Unit depth is the length of the longest directed path from any input; the
network depth is the maximum over hidden units, and the width is the exact
rational |hidden| / depth (kept as a Fraction so bound formulas see 8/3, not
2.6666...).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any

import numpy as np

from .activations import LipschitzActivation, PwlActivation, builtin_activation
from .errors import ValidationError

OUTPUT_ID = "out"
_INPUT_ID_RE = re.compile(r"^x([1-9][0-9]*)$")
MIN_ABS_WEIGHT = 1e-3  # rejection threshold used by random_network


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    weight: float


@dataclass(frozen=True, eq=False)
class Unit:
    uid: str
    bias: float
    activation: Any


@dataclass(frozen=True, eq=False)
class Network:
    n_inputs: int
    units: tuple
    edges: tuple
    output_bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "edges", tuple(self.edges))

    @cached_property
    def input_ids(self):
        return tuple(f"x{i}" for i in range(1, self.n_inputs + 1))

    @cached_property
    def unit_map(self):
        return {u.uid: u for u in self.units}

    @cached_property
    def in_edges(self):
        by_dst = {u.uid: [] for u in self.units}
        by_dst[OUTPUT_ID] = []
        for e in self.edges:
            by_dst.setdefault(e.dst, []).append(e)
        return {k: tuple(v) for k, v in by_dst.items()}

    @cached_property
    def out_edges(self):
        by_src = {}
        for e in self.edges:
            by_src.setdefault(e.src, []).append(e)
        return {k: tuple(v) for k, v in by_src.items()}

    @cached_property
    def topo_order(self):
        """Hidden unit ids in a topological order (definition order among ties)."""
        hidden = set(self.unit_map)
        remaining_preds = {
            u.uid: {e.src for e in self.in_edges.get(u.uid, ()) if e.src in hidden} for u in self.units
        }
        order = []
        ready = [u.uid for u in self.units if not remaining_preds[u.uid]]
        while ready:
            uid = ready.pop(0)
            order.append(uid)
            for e in self.out_edges.get(uid, ()):
                if e.dst in remaining_preds and uid in remaining_preds[e.dst]:
                    remaining_preds[e.dst].discard(uid)
                    if not remaining_preds[e.dst]:
                        ready.append(e.dst)
        return tuple(order)

    # The network is frozen, so these are computed once per instance.

    @cached_property
    def _violations(self):
        return tuple(validate(self))

    @cached_property
    def _depth_profile(self):
        require_valid(self)
        depth_of = {uid: 0 for uid in self.input_ids}
        for uid in self.topo_order:
            depth_of[uid] = 1 + max(depth_of[e.src] for e in self.in_edges[uid])
        d = max(depth_of[u.uid] for u in self.units)
        layers = tuple(
            tuple(u.uid for u in self.units if depth_of[u.uid] == level) for level in range(1, d + 1)
        )
        widths = tuple(len(layer) for layer in layers)
        width = Fraction(len(self.units), d)
        return DepthProfile({u.uid: depth_of[u.uid] for u in self.units}, d, layers, widths, width)

    @cached_property
    def _ancestors(self):
        """Per hidden unit, the hidden units with a directed path into it."""
        require_valid(self)
        anc = {}
        for uid in self.topo_order:
            srcs = [e.src for e in self.in_edges[uid] if e.src in self.unit_map]
            anc[uid] = frozenset(srcs).union(*(anc[s] for s in srcs))
        return anc


@dataclass(frozen=True, eq=False)
class DepthProfile:
    unit_depth: dict
    depth: int
    layers: tuple  # tuple of tuples of unit ids, by depth 1..depth
    layer_widths: tuple
    width: Fraction  # exact |hidden| / depth


@dataclass(frozen=True, eq=False)
class Segment:
    """Directed segment from x to y in the input space; z(alpha) = (1-alpha)x + alpha y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("segment endpoints must be 1-D points of equal dimension")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite endpoint")
        with np.errstate(over="ignore"):
            length = np.linalg.norm(y - x)
        if not np.isfinite(length):
            raise ValueError("segment length overflows: y - x is not finite")
        if length == 0.0:
            raise ValueError("degenerate segment: x == y")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.y - self.x))

    def point(self, alpha):
        a = np.asarray(alpha, dtype=float)
        return self.x + np.multiply.outer(a, self.y - self.x) if a.ndim else self.x + a * (self.y - self.x)


@dataclass(frozen=True, eq=False)
class ForwardResult:
    output: Any
    unit_outputs: dict
    pre_activations: dict


def validate(net: Network) -> list:
    """All structural violations, empty when the network is well formed."""
    violations = []
    if net.n_inputs < 1:
        violations.append("n_inputs must be >= 1")
    if not net.units:
        violations.append("no hidden units: depth and width are undefined")
    if not np.isfinite(net.output_bias):
        violations.append("non-finite output bias")
    inputs = set(net.input_ids)
    hidden = [u.uid for u in net.units]
    hidden_set = set(hidden)
    if len(hidden_set) != len(hidden):
        dupes = sorted({h for h in hidden if hidden.count(h) > 1})
        violations.append(f"duplicate unit ids: {dupes}")
    for uid in hidden:
        if uid == OUTPUT_ID or _INPUT_ID_RE.match(uid):
            violations.append(f"unit id {uid!r} is reserved")
    for u in net.units:
        if not np.isfinite(u.bias):
            violations.append(f"non-finite bias on unit {u.uid!r}")
    known_src = inputs | hidden_set
    seen_pairs = set()
    for e in net.edges:
        if e.src not in known_src:
            violations.append(f"edge from unknown unit {e.src!r}")
        if e.dst != OUTPUT_ID and e.dst not in hidden_set:
            violations.append(f"edge into unknown or input unit {e.dst!r}")
        if (e.src, e.dst) in seen_pairs:
            violations.append(f"duplicate edge {e.src!r}->{e.dst!r}")
        seen_pairs.add((e.src, e.dst))
        if e.weight == 0.0:
            violations.append(f"zero weight on edge {e.src!r}->{e.dst!r}")
        if not np.isfinite(e.weight):
            violations.append(f"non-finite weight on edge {e.src!r}->{e.dst!r}")
    if violations:
        return violations
    if len(net.topo_order) != len(net.units):
        stuck = sorted(hidden_set - set(net.topo_order))
        violations.append(f"cycle among units {stuck}")
        return violations
    # Reachability both ways.
    fwd = set(inputs)
    for uid in net.topo_order:
        if any(e.src in fwd for e in net.in_edges[uid]):
            fwd.add(uid)
    back = {OUTPUT_ID}
    for uid in reversed(net.topo_order):
        if any(e.dst in back for e in net.out_edges.get(uid, ())):
            back.add(uid)
    for uid in hidden:
        if uid not in fwd:
            violations.append(f"unit {uid!r} unreachable from the inputs")
        if uid not in back:
            violations.append(f"unit {uid!r} does not reach the output")
    return violations


def require_valid(net: Network) -> None:
    if net._violations:
        raise ValidationError("; ".join(net._violations))


def depth_profile(net: Network) -> DepthProfile:
    """Unit depths by longest path from any input, layer partition, and the
    exact rational width |hidden| / depth."""
    return net._depth_profile


def hidden_ancestors(net: Network, units) -> frozenset:
    """Hidden units lying on a directed path from an input to any unit of
    `units`, excluding `units` itself. These are exactly the hidden units with
    a directed path into the set (every valid unit is input-reachable).
    Raises ValidationError when the network is not valid."""
    target = frozenset(units)
    unknown = target - set(net.unit_map)
    if unknown:
        raise ValueError(f"unknown unit ids: {sorted(unknown)}")
    anc = net._ancestors
    return frozenset().union(*(anc[u] for u in target)) - target


def forward(net: Network, x) -> ForwardResult:
    """Evaluate the network at x (shape (n,) for one point or (m, n) batched).

    Hidden unit v computes act(sum_u w(u, v) * out(u) + bias(v)); the output
    unit weight-sums its in-edges plus output_bias.
    """
    require_valid(net)
    x = np.asarray(x, dtype=float)
    scalar_input = x.ndim == 1
    if scalar_input:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.n_inputs:
        raise ValueError(f"expected points of dimension {net.n_inputs}")
    out, unit_outputs, pre_acts = _evaluate(net, x)
    if scalar_input:
        out = float(out[0])
        unit_outputs = {k: float(v[0]) for k, v in unit_outputs.items()}
        pre_acts = {k: float(v[0]) for k, v in pre_acts.items()}
    return ForwardResult(out, unit_outputs, pre_acts)


def _evaluate(net: Network, x: np.ndarray):
    """(output, unit outputs, pre-activations) of a valid network on the rows
    of the (m, n) array x.

    Each sum runs over the unit's in-edges in order and every operation is
    elementwise, so evaluating the rows in blocks gives the same bits.
    """
    values = {uid: x[:, i] for i, uid in enumerate(net.input_ids)}
    pre_acts = {}
    tmp = np.empty(x.shape[0])
    for uid in net.topo_order:
        unit = net.unit_map[uid]
        pre = np.full(x.shape[0], unit.bias, dtype=float)
        for e in net.in_edges[uid]:
            np.multiply(e.weight, values[e.src], out=tmp)
            np.add(pre, tmp, out=pre)
        pre_acts[uid] = pre
        values[uid] = unit.activation.value(pre)
    out = np.full(x.shape[0], net.output_bias, dtype=float)
    for e in net.in_edges[OUTPUT_ID]:
        np.multiply(e.weight, values[e.src], out=tmp)
        np.add(out, tmp, out=out)
    return out, {u.uid: values[u.uid] for u in net.units}, pre_acts


def random_network(
    n,
    depth,
    widths=None,
    max_width=None,
    skip_prob=0.0,
    weight_bound=1.0,
    activation="relu",
    seed=0,
) -> Network:
    """Deterministic random layered network.

    Adjacent layers are densely wired (so the requested depth is exact and
    every unit is live); every allowed non-neighbouring skip edge (input or
    hidden unit to a layer at least two levels deeper, or a non-final hidden
    unit straight to the output) is included independently with probability
    skip_prob. Weights are uniform on [-weight_bound, weight_bound], redrawn
    while |w| < 1e-3; biases use the same range without rejection.
    """
    if n < 1 or depth < 1:
        raise ValueError("need n >= 1 and depth >= 1")
    if (widths is None) == (max_width is None):
        raise ValueError("give exactly one of widths / max_width")
    if not 0.0 <= skip_prob <= 1.0:
        raise ValueError("skip_prob must be in [0, 1]")
    if not weight_bound > 0.0:
        raise ValueError("weight_bound must be positive")
    act = builtin_activation(activation) if isinstance(activation, str) else activation
    rng = np.random.default_rng(seed)
    if widths is None:
        widths = tuple(int(w) for w in rng.integers(1, max_width + 1, size=depth))
    else:
        widths = tuple(int(w) for w in widths)
        if len(widths) != depth or any(w < 1 for w in widths):
            raise ValueError("widths must list a positive size per layer")

    def draw_weight():
        while True:
            w = float(rng.uniform(-weight_bound, weight_bound))
            if abs(w) >= MIN_ABS_WEIGHT:
                return w

    layer_ids = [[f"u{i + 1}_{j + 1}" for j in range(widths[i])] for i in range(depth)]
    units = [
        Unit(uid, float(rng.uniform(-weight_bound, weight_bound)), act)
        for layer in layer_ids
        for uid in layer
    ]
    edges = []
    inputs = [f"x{i}" for i in range(1, n + 1)]
    for i in range(depth):
        prev = inputs if i == 0 else layer_ids[i - 1]
        for uid in layer_ids[i]:
            for src in prev:
                edges.append(Edge(src, uid, draw_weight()))
    for i in range(depth):  # skip edges from >= 2 levels above
        sources = (inputs if i >= 1 else []) + [uid for j in range(i - 1) for uid in layer_ids[j]]
        for uid in layer_ids[i]:
            for src in sources:
                if rng.random() < skip_prob:
                    edges.append(Edge(src, uid, draw_weight()))
    for uid in layer_ids[-1]:
        edges.append(Edge(uid, OUTPUT_ID, draw_weight()))
    for i in range(depth - 1):
        for uid in layer_ids[i]:
            if rng.random() < skip_prob:
                edges.append(Edge(uid, OUTPUT_ID, draw_weight()))
    net = Network(n, tuple(units), tuple(edges))
    require_valid(net)  # dense adjacent wiring keeps this vacuous
    return net


def _encode_activation(act):
    if isinstance(act, (PwlActivation, LipschitzActivation)):
        try:
            ref = builtin_activation(act.name)
        except ValueError:
            ref = None
        if isinstance(act, LipschitzActivation):
            if ref is None:
                raise ValueError(f"cannot serialize opaque activation {act.name!r}")
            return act.name
        if isinstance(ref, PwlActivation) and ref == act:
            return act.name
        return act.to_json()
    raise TypeError(f"not an activation: {act!r}")


def _decode_activation(obj):
    if isinstance(obj, str):
        return builtin_activation(obj)
    return PwlActivation.from_json(obj)


def network_to_json(net: Network) -> dict:
    doc = {
        "n_inputs": net.n_inputs,
        "units": [
            {"id": u.uid, "bias": u.bias, "activation": _encode_activation(u.activation)}
            for u in net.units
        ],
        "edges": [{"from": e.src, "to": e.dst, "weight": e.weight} for e in net.edges],
    }
    if net.output_bias != 0.0:
        doc["output_bias"] = net.output_bias
    return doc


def network_from_json(doc: dict) -> Network:
    try:
        n_inputs = doc["n_inputs"]
        if not isinstance(n_inputs, int) or isinstance(n_inputs, bool):
            raise ValueError(f"malformed network document: n_inputs {n_inputs!r} is not an integer")
        units = tuple(
            Unit(str(u["id"]), float(u["bias"]), _decode_activation(u["activation"]))
            for u in doc["units"]
        )
        edges = tuple(Edge(str(e["from"]), str(e["to"]), float(e["weight"])) for e in doc["edges"])
        return Network(n_inputs, units, edges, float(doc.get("output_bias", 0.0)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed network document: {exc}") from exc


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json(net), fh, indent=2)
        fh.write("\n")


def load_network(path) -> Network:
    with open(path) as fh:
        return network_from_json(json.load(fh))
