"""Reference values the benchmark checks the program against.

Everything here is computed from closed forms or from independent code in
this file; nothing calls the package under test except `tent_network`, which
only builds a Network from the package's plain data types.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# MD5 of `write_csv(run_campaign(CampaignSpec(), 1000, 42))`, the golden CSV
# bytes of the default verification campaign.
GOLDEN_CAMPAIGN_SEED = 42
GOLDEN_CAMPAIGN_MD5 = "a3ce25a54895f1548128869b5feeae49"


def depth_width_cap(t: int, n_hidden: int, depth: int) -> Fraction:
    """((t-1) * |H|/d + 1)^d - 1, the break-point ceiling, exactly."""
    return ((t - 1) * Fraction(n_hidden, depth) + 1) ** depth - 1


def as_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def sq_norm_multiplier(n: int) -> float:
    """sup ||x-y|| * sqrt(2) / 4 over the unit cube: diameter sqrt(n)."""
    return math.sqrt(2.0 * n) / 4.0


def cor2_sq_norm2(depth: int, epsilon: float) -> float:
    """Depth-scaled floor q*d*eps^(-1/(2d)) for x.x on [0,1]^2, where the
    curvature supremum is sqrt(2)*sqrt(2)/4 = 1/2 and so q = 1/4."""
    return 0.25 * depth * epsilon ** (-1.0 / (2.0 * depth))


def poly_a_grid_oracle(points_per_axis: int = 8, alphas: int = 4097, chunk: int = 128) -> float:
    """Segment-curvature supremum of 10*x1^2 + 10*x2^2 + x1^2*x2^2 on [0,1]^2
    over all pairs of an 8x8 lattice plus the centre, each scanned at 4097
    alphas, with a hand-written Hessian and closed-form 2x2 eigenvalues."""
    axis = np.linspace(0.0, 1.0, points_per_axis)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    points = np.concatenate([points, [[0.5, 0.5]]])
    i, j = np.triu_indices(len(points), k=1)
    p, q = points[i], points[j]
    a = np.linspace(0.0, 1.0, alphas)
    best = 0.0
    for s in range(0, len(p), chunk):
        pp, dq = p[s:s + chunk, None, :], (q - p)[s:s + chunk, None, :]
        seg = pp + a[None, :, None] * dq
        x1, x2 = seg[..., 0], seg[..., 1]
        h11 = 20.0 + 2.0 * x2 * x2
        h22 = 20.0 + 2.0 * x1 * x1
        h12 = 4.0 * x1 * x2
        mean = 0.5 * (h11 + h22)
        radius = np.hypot(0.5 * (h11 - h22), h12)
        lo, hi = mean - radius, mean + radius
        gamma = np.minimum(np.abs(lo), np.abs(hi))
        psi = np.sqrt(np.maximum(0.0, gamma * np.sign(lo * hi)).min(axis=1))
        dist = np.linalg.norm(dq[:, 0, :], axis=1)
        best = max(best, float(np.max(dist * psi / 4.0)))
    return best


def swap_cap(bits: int, lipschitz: float, A: float, omega: float, depth: int) -> float:
    """Activation-swap deviation cap at the nominal one-ULP gap 2^-bits; the
    measured sigmoid vs sigmoid-q(bits) gap is at most half of it."""
    return (2.0**-bits / lipschitz) * ((lipschitz * A * omega + 1.0) ** depth - 1.0)


# --- Telgarsky's sawtooth -------------------------------------------------

def tent(x: Fraction) -> Fraction:
    return 2 * x if x <= Fraction(1, 2) else 2 - 2 * x


def tent_power(x: Fraction, k: int) -> Fraction:
    for _ in range(k):
        x = tent(x)
    return x


def tent_network(ea, k: int):
    """One-input ReLU network computing tent^k on [0, 1].

    Level l has units a_l = relu(2s) and b_l = relu(4s - 2) of the previous
    level's output s = a_{l-1} - b_{l-1} (s = x1 at level 1), so that
    tent(s) = relu(2s) - relu(4s - 2); the output is a_k - b_k. tent^k has
    exactly 2^k - 1 break points on (0, 1), at the dyadics j / 2^k.
    """
    relu = ea.builtin_activation("relu")
    units, edges = [], []
    prev = None
    for level in range(1, k + 1):
        a, b = f"a{level}", f"b{level}"
        units += [ea.Unit(a, 0.0, relu), ea.Unit(b, -2.0, relu)]
        if prev is None:
            edges += [ea.Edge("x1", a, 2.0), ea.Edge("x1", b, 4.0)]
        else:
            pa, pb = prev
            edges += [
                ea.Edge(pa, a, 2.0), ea.Edge(pb, a, -2.0),
                ea.Edge(pa, b, 4.0), ea.Edge(pb, b, -4.0),
            ]
        prev = (a, b)
    edges += [ea.Edge(prev[0], "out", 1.0), ea.Edge(prev[1], "out", -1.0)]
    return ea.Network(1, tuple(units), tuple(edges))


def exact_eval(net, x: Fraction) -> Fraction:
    """Evaluate a one-input ReLU network in exact rationals. Units must be
    listed in topological order, as `tent_network` lists them."""
    values = {"x1": x}
    incoming = {}
    for e in net.edges:
        incoming.setdefault(e.dst, []).append(e)
    for u in net.units:
        pre = Fraction(u.bias) + sum(Fraction(e.weight) * values[e.src] for e in incoming[u.uid])
        values[u.uid] = max(pre, Fraction(0))
    return Fraction(net.output_bias) + sum(
        Fraction(e.weight) * values[e.src] for e in incoming["out"]
    )


def dyadic_breakpoints(k: int) -> np.ndarray:
    return np.arange(1, 2**k, dtype=float) / 2.0**k


def check_tent_network(ea, ks=(1, 2, 3, 4, 5)) -> list:
    """Problems with `tent_network` itself, checked in exact arithmetic at
    every dyadic j/2^(k+1) and at a few odd-denominator rationals."""
    problems = []
    for k in ks:
        net = tent_network(ea, k)
        probes = [Fraction(j, 2 ** (k + 1)) for j in range(2 ** (k + 1) + 1)]
        probes += [Fraction(j, 97) for j in range(0, 98, 7)]
        for x in probes:
            if exact_eval(net, x) != tent_power(x, k):
                problems.append(f"tent_network({k}) differs from tent^{k} at {x}")
                break
    return problems
