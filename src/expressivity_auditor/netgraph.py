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
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Real
from typing import Any

import numpy as np

from .activations import LipschitzActivation, PwlActivation, builtin_activation
from .errors import ValidationError, check_int

OUTPUT_ID = "out"
_INPUT_ID_RE = re.compile(r"^x([1-9][0-9]*)$")
MIN_ABS_WEIGHT = 1e-3  # rejection threshold used by random_network
MAX_WEIGHT_BOUND = float(np.finfo(float).max) / 2  # above it, 2 * weight_bound overflows


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
        hidden = self.unit_map
        preds = {u.uid: {e.src for e in self.in_edges[u.uid] if e.src in hidden} for u in self.units}
        order = [u.uid for u in self.units if not preds[u.uid]]
        for uid in order:  # a FIFO queue: ready units are appended while it is read
            for e in self.out_edges.get(uid, ()):
                if uid in preds.get(e.dst, ()):
                    preds[e.dst].discard(uid)
                    if not preds[e.dst]:
                        order.append(e.dst)
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
        layers = tuple(tuple(u.uid for u in self.units if depth_of[u.uid] == lv) for lv in range(1, d + 1))
        return DepthProfile({u.uid: depth_of[u.uid] for u in self.units}, d, layers,
                            tuple(len(layer) for layer in layers), Fraction(len(self.units), d))

    @cached_property
    def _ancestors(self):
        """Boolean matrix over unit indices: row i marks the hidden units with
        a directed path into units[i]. The rows are built as int bitsets in
        topological order, then unpacked."""
        require_valid(self)
        index = {u.uid: i for i, u in enumerate(self.units)}
        bits = [0] * len(self.units)
        for uid in self.topo_order:
            for e in self.in_edges[uid]:
                if e.src in index:
                    bits[index[uid]] |= bits[index[e.src]] | 1 << index[e.src]
        size = (len(bits) + 7) // 8
        packed = np.frombuffer(b"".join(b.to_bytes(size, "little") for b in bits), dtype=np.uint8)
        return np.unpackbits(packed, bitorder="little").view(bool).reshape(len(bits), -1)[:, :len(bits)]


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
    if not math.isfinite(net.output_bias):
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
        if not math.isfinite(u.bias):
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
        if not math.isfinite(e.weight):
            violations.append(f"non-finite weight on edge {e.src!r}->{e.dst!r}")
    if violations:
        return violations
    if len(net.topo_order) != len(net.units):
        return [f"cycle among units {sorted(hidden_set - set(net.topo_order))}"]
    fwd = set(inputs)  # reachability both ways
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


def _unit_mask(net: Network, units) -> np.ndarray:
    """Boolean mask over net.units of the hidden unit ids in `units`."""
    target = frozenset(units)
    unknown = target.difference(net.unit_map)
    if unknown:
        raise ValueError(f"unknown unit ids: {sorted(unknown)}")
    return np.array([u.uid in target for u in net.units], dtype=bool)


def _ancestor_mask(net: Network, member: np.ndarray) -> np.ndarray:
    """Mask of in(U), the units outside U with a directed path into U."""
    return net._ancestors[member].any(axis=0) & ~member


def hidden_ancestors(net: Network, units) -> frozenset:
    """Hidden units lying on a directed path from an input to any unit of
    `units`, excluding `units` itself. These are exactly the hidden units with
    a directed path into the set (every valid unit is input-reachable).
    Raises ValidationError when the network is not valid."""
    anc = _ancestor_mask(net, _unit_mask(net, units))
    return frozenset(net.units[i].uid for i in np.flatnonzero(anc).tolist())


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


def check_draw(skip_prob, weight_bound) -> None:
    """random_network's rule for skip_prob and weight_bound; bools are not numbers here."""
    if isinstance(skip_prob, bool) or not (isinstance(skip_prob, Real) and 0.0 <= skip_prob <= 1.0):
        raise ValueError(f"skip_prob must be in [0, 1], got {skip_prob!r}")
    if isinstance(weight_bound, bool) or not (isinstance(weight_bound, Real)
                                              and MIN_ABS_WEIGHT < weight_bound <= MAX_WEIGHT_BOUND):
        raise ValueError(f"weight_bound must be in ({MIN_ABS_WEIGHT}, {MAX_WEIGHT_BOUND:.3g}], "
                         f"got {weight_bound!r}")


def random_network(n, depth, widths=None, max_width=None, skip_prob=0.0, weight_bound=1.0,
                   activation="relu", seed=0) -> Network:
    """Deterministic random layered network.

    Adjacent layers are densely wired (so the requested depth is exact and
    every unit is live); every allowed non-neighbouring skip edge (input or
    hidden unit to a layer at least two levels deeper, or a non-final hidden
    unit straight to the output) is included independently with probability
    skip_prob. Weights are uniform on [-weight_bound, weight_bound], redrawn
    while |w| < MIN_ABS_WEIGHT; biases use the same range without rejection.

    The generator is one stream of doubles, one per draw, read in this order:
    widths (max_width only), biases, dense weights, per skip candidate a coin
    (kept if < skip_prob) and a kept coin's weight, the last layer's output
    weights, then the output skips' coins and weights; rejected weights drop
    out. Draws come in bulk, none larger than what the rest is sure to read,
    so the net and the generator's final state are those of one draw per call.
    """
    n, depth = check_int("n", n, 1), check_int("depth", depth, 1)
    if (widths is None) == (max_width is None):
        raise ValueError("give exactly one of widths / max_width")
    check_draw(skip_prob, weight_bound)
    act = builtin_activation(activation) if isinstance(activation, str) else activation
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, max_width + 1, size=depth) if widths is None else widths
    widths = tuple(int(w) for w in widths)
    if len(widths) != depth or min(widths) < 1:
        raise ValueError("widths must list a positive size per layer")
    lo, hi = -float(weight_bound), float(weight_bound)
    layer_ids = [[f"u{i + 1}_{j + 1}" for j in range(widths[i])] for i in range(depth)]
    ids = [uid for layer in layer_ids for uid in layer]
    units = [Unit(uid, b, act) for uid, b in zip(ids, rng.uniform(lo, hi, size=len(ids)).tolist())]
    inputs = [f"x{i}" for i in range(1, n + 1)]
    dense, m = np.empty(0), sum(w * f for w, f in zip(widths, (n,) + widths))
    while dense.size < m:  # the kept draws, in order, until there are m of them
        more = rng.uniform(lo, hi, size=m - dense.size)
        dense = np.concatenate((dense, more[np.abs(more) >= MIN_ABS_WEIGHT]))
    dense = iter(dense.tolist())
    edges = [Edge(src, uid, next(dense)) for i in range(depth)
             for uid in layer_ids[i] for src in (layer_ids[i - 1] if i else inputs)]
    buf, hits, pos = [], [], 0  # a bulk draw, offsets of its values < skip_prob + [len], next offset

    def draw(need):  # the next double; the walk is sure to consume `need` more, this one included
        nonlocal buf, hits, pos
        if pos == len(buf):
            buf, pos = rng.random(min(need, 1024)).tolist(), 0
            hits = [i for i, u in enumerate(buf) if u < skip_prob] + [len(buf)]  # as each coin compares
        pos += 1
        return buf[pos - 1]

    def weight(need):
        w = 0.0
        while abs(w) < MIN_ABS_WEIGHT:
            w = lo + (hi - lo) * draw(need)  # what Generator.uniform(lo, hi) returns
        return w

    def coins(k, after):  # (index, weight) of each kept coin among k, with `after` draws to follow
        nonlocal pos
        kept, c = [], 0
        while c < k:
            if draw(k - c + after) < skip_prob:
                kept.append((c, weight(k - c + after)))
            c += 1
            nxt = min(hits[bisect_left(hits, pos)], pos + k - c)  # drop coins before the next kept one
            c, pos = c + nxt - pos, nxt
        return kept

    left = sum(widths) + sum(w * (n + sum(widths[: i - 1])) for i, w in enumerate(widths) if i)
    for i in range(1, depth):  # skip edges from >= 2 levels above
        sources = inputs + [uid for j in range(i - 1) for uid in layer_ids[j]]
        left -= widths[i] * len(sources)
        edges += [Edge(sources[r % len(sources)], layer_ids[i][r // len(sources)], w)
                  for r, w in coins(widths[i] * len(sources), left)]
    edges += [Edge(uid, OUTPUT_ID, weight(left - j)) for j, uid in enumerate(layer_ids[-1])]
    edges += [Edge(ids[r], OUTPUT_ID, w) for r, w in coins(len(ids) - widths[-1], 0)]
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
    return builtin_activation(obj) if isinstance(obj, str) else PwlActivation.from_json(obj)


def network_to_json(net: Network) -> dict:
    doc = {
        "n_inputs": net.n_inputs,
        "units": [{"id": u.uid, "bias": u.bias, "activation": _encode_activation(u.activation)}
                  for u in net.units],
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
        units = tuple(Unit(str(u["id"]), _number(u["bias"]), _decode_activation(u["activation"]))
                      for u in doc["units"])
        edges = tuple(Edge(str(e["from"]), str(e["to"]), _number(e["weight"])) for e in doc["edges"])
        return Network(n_inputs, units, edges, _number(doc.get("output_bias", 0.0)))
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: an int beyond binary64
        raise ValueError(f"malformed network document: {exc}") from exc


def _number(value) -> float:
    if isinstance(value, bool):  # float(True) would read it as 1.0
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json(net), fh, indent=2)
        fh.write("\n")


def load_network(path) -> Network:
    with open(path) as fh:
        return network_from_json(json.load(fh))
