"""Empirical approximation machinery.

uniform_interpolant_1d builds the best uniform-knot piecewise-linear
approximation of a target along a segment; curvature_breakpoint_audit checks
the measured piece count of such an approximant against the curvature floor;
swap_audit compares two copies of a network that differ only in their
activation function against the closed-form deviation cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import activations, pwl
from .bounds import activation_swap_bound, min_curvature
from .errors import PreconditionError, check_int
from .netgraph import Network, Segment, Unit, _evaluate, depth_profile, require_valid
from .report import AuditReport, lower_audit
from .targets import TargetFunction

DENSE_PER_PIECE = 4096  # samples per linear piece for 1-D sup-error measurement
# Points per swap_audit block: peak memory grows with units x SWAP_CHUNK, not
# with the sample count.
SWAP_CHUNK = 8192


@dataclass(frozen=True)
class Sampler:
    """Seeded Monte Carlo sample count: swap_audit's inputs drawn uniformly
    from the unit cube."""

    samples: int = 100000
    seed: int = 0

    def __post_init__(self):
        check_int("samples", self.samples, 1)


@dataclass(frozen=True)
class SwapAudit:
    """Observed vs bounded output deviation for an activation swap."""

    empirical_sup: float
    bound: float
    samples: int
    margin: float
    gap: float
    lipschitz: float


def _dense_alphas(f: pwl.PwlFunction1D) -> np.ndarray:
    edges = np.concatenate(([0.0], f.breakpoints, [1.0]))
    chunks = [
        np.linspace(edges[i], edges[i + 1], DENSE_PER_PIECE) for i in range(len(edges) - 1)
    ]
    return np.unique(np.concatenate(chunks))


def sup_error_on_segment(f: pwl.PwlFunction1D, g: TargetFunction, seg: Segment) -> float:
    """max |f(alpha) - g(z(alpha))| sampled densely within every linear piece."""
    alphas = _dense_alphas(f)
    return float(np.max(np.abs(f.eval(alphas) - g.value(seg.point(alphas)))))


def uniform_interpolant_1d(g: TargetFunction, seg: Segment, s: int):
    """Piecewise-linear approximation of g along seg with s uniform pieces.

    Interpolates at the s+1 uniform knots, then shifts by half the signed
    deviation range so the error equioscillates; for curved targets that
    halves the plain interpolation error. Returns (normalized function,
    measured sup error); the unnormalized interpolant has exactly s-1
    interior breakpoints.
    """
    knots = np.linspace(0.0, 1.0, check_int("s", s, 1) + 1)
    f0 = pwl.PwlFunction1D.from_knots(knots, g.value(seg.point(knots)))
    alphas = _dense_alphas(f0)
    dev = f0.eval(alphas) - g.value(seg.point(alphas))
    shift = -(dev.max() + dev.min()) / 2.0
    achieved = float((dev.max() - dev.min()) / 2.0)
    return pwl.normalize(f0.shifted(shift)), achieved


def curvature_breakpoint_audit(
    g: TargetFunction, seg: Segment, f1d: pwl.PwlFunction1D, eps: float
) -> AuditReport:
    """Check breakpoints(f1d) >= ||x-y|| * curvature / (4 sqrt(eps)) - 1.

    eps is re-measured from the supplied approximant (the floor quantifies
    over actual approximations); a small relative tolerance absorbs the
    sampling bias of that measurement in the equality-tight cases.
    """
    e = sup_error_on_segment(f1d, g, seg)
    if e > eps + 1e-12 * max(1.0, eps):
        raise PreconditionError(
            f"interpolant misses the requested error: measured {e:.6g} > {eps:.6g}"
        )
    psi = min_curvature(g, seg.x, seg.y).value
    if psi <= 0.0:
        rhs = -1.0
    elif e <= 0.0:
        rhs = math.inf
    else:
        rhs = seg.length * psi / (4.0 * math.sqrt(e)) - 1.0
    return lower_audit(
        "breakpoints-vs-curvature-floor",
        float(f1d.n_breakpoints),
        rhs,
        parameters={"curvature": psi, "eps": e, "segment_length": seg.length},
        tol=1e-6 * max(1.0, abs(rhs)),
    )


def _with_activation(net: Network, act) -> Network:
    units = tuple(Unit(u.uid, u.bias, act) for u in net.units)
    return Network(net.n_inputs, units, net.edges, net.output_bias)


def _output_and_range(net: Network, x: np.ndarray):
    """Output of net on the rows of x, and the min and max over all its
    pre-activations; the per-unit arrays are dropped on return."""
    out, _, pre = _evaluate(net, x)
    pre = pre.values()
    return out, float(np.min([v.min() for v in pre])), float(np.max([v.max() for v in pre]))


def swap_audit(net: Network, act1, act2, A: float, sampler: Sampler | None = None) -> SwapAudit:
    """Empirical output deviation between act1- and act2-versions of one
    weight configuration, against the closed-form cap.

    Inputs are sampler.samples seeded uniform points of the unit cube. All
    edge weights must lie in [-A, A]. The activation gap entering the cap
    is measured over the observed pre-activation range of both versions,
    padded by 0.5 on each side to cover drift between sample points.
    """
    sampler = sampler or Sampler()
    require_valid(net)
    if not (A > 0 and math.isfinite(A)):
        raise ValueError("A must be positive and finite")
    for e in net.edges:
        if abs(e.weight) > A + 1e-12:
            raise PreconditionError(
                f"edge {e.src!r}->{e.dst!r} weight {e.weight} outside [-{A}, {A}]"
            )
    act1 = activations.builtin_activation(act1) if isinstance(act1, str) else act1
    act2 = activations.builtin_activation(act2) if isinstance(act2, str) else act2
    net1 = _with_activation(net, act1)
    net2 = _with_activation(net, act2)
    rng = np.random.default_rng(sampler.seed)
    emp, lo, hi = 0.0, math.inf, -math.inf
    for start in range(0, sampler.samples, SWAP_CHUNK):
        x = rng.random((min(SWAP_CHUNK, sampler.samples - start), net.n_inputs))
        with np.errstate(over="ignore", invalid="ignore"):
            out1, lo1, hi1 = _output_and_range(net1, x)
            out2, lo2, hi2 = _output_and_range(net2, x)
            dev = float(np.max(np.abs(out1 - out2)))
        # A NaN anywhere makes these NaN, and max/min below would drop it.
        if not np.all(np.isfinite((dev, lo1, hi1, lo2, hi2))):
            raise PreconditionError(
                "network outputs or pre-activations overflow binary64 on the sampled inputs"
            )
        emp, lo, hi = max(emp, dev), min(lo, lo1, lo2), max(hi, hi1, hi2)
    g = activations.gap(act1, act2, lo - 0.5, hi + 0.5)
    delta = activations.lipschitz_constant(act1)
    prof = depth_profile(net)
    bound = activation_swap_bound(delta, A, prof.width, prof.depth, g)
    return SwapAudit(emp, bound, sampler.samples, bound - emp, g.value, delta)
