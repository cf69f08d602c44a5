"""Size bounds for piecewise-linear approximators.

Upper side: the depth/width break-point bound ((t-1)*omega + 1)^d - 1 and its
consistency check against the crude per-unit state count t^H. Lower side: the
segment-curvature functional, its supremum over segment pairs, the strong
convexity and depth-scaled corollaries, the Laplacian-based floor, and the
output deviation bound for swapping one activation for a nearby one.

All infimum/supremum searches are grid scans plus local golden-section or
coordinate refinement at documented resolutions; they return estimates, not
certified optima. The segment-pair scan of the curvature floor runs as one
batched kernel over all pairs; for elementwise Hessians it is bit-identical
to evaluating the pairs one at a time. The coordinate-ascent polish of the
best pair stays sequential, one min_curvature call per probe, and stops after
a pass that moved nothing; inside each call the golden refinement takes
REFINE_LOOKAHEAD steps per Hessian call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, check_epsilon, check_int
from .linalg import eig2
from .report import AuditReport, _safe_float, upper_audit
from .search import coordinate_ascent, golden_min, golden_min_batch
from .targets import TargetFunction


# Search resolutions of the curvature floor: grid points per segment, golden
# refinement steps inside the best grid cell, and random segment pairs (also
# the positive-definiteness spot checks of the depth-scaled floor).
ALPHA_GRID = 1025
REFINE_ITERS = 40
PAIR_SAMPLES = 256
# Golden steps per Hessian call when one segment is refined: a call costs
# far more than a point, so 2**4 - 1 probes at once beat 4 calls of one. For
# elementwise Hessians, such as the catalogue's polynomials, the result does
# not depend on it (see golden_min).
REFINE_LOOKAHEAD = 4


@dataclass(frozen=True)
class BoundConfig:
    """Bound parameters and the pair-sampling seed shared by the evaluators."""

    epsilon: float = 1e-4
    t: int = 2
    seed: int = 0

    def __post_init__(self):
        check_epsilon(self.epsilon)
        check_int("t", self.t, 1)


@dataclass(frozen=True)
class SegmentCurvature:
    """Infimum along a segment of the clamped Hessian curvature.

    value is sqrt(inf_alpha max{0, gamma(alpha) * sign(lam_min * lam_max)})
    where gamma is the smaller absolute Hessian eigenvalue at the segment
    point; the remaining fields describe the minimizer found.
    """

    value: float
    minimizing_alpha: float
    gamma_at_min: float
    sign_at_min: int


@dataclass(frozen=True, eq=False)
class CurvatureBound:
    """Supremum of ||x-y|| * curvature / 4 over searched segment pairs.

    value / sqrt(eps) lower-bounds the piece count of any eps-approximation;
    hidden_units_lb is the corresponding log_t floor on hidden units.
    """

    value: float
    best_pair: tuple
    hidden_units_lb: float


@dataclass(frozen=True, eq=False)
class LaplacianBound:
    """Laplacian-driven lower bound: multiplier / sqrt(eps) bounds the piece
    count from below; hidden_units_lb is the log_t hidden-unit floor."""

    multiplier: float
    hidden_units_lb: float
    max_abs_laplacian: float
    at_point: np.ndarray


def breakpoint_upper_bound_exact(t: int, omega_f, d_f: int) -> Fraction:
    """((t-1)*omega + 1)^d - 1 as an exact rational."""
    t, d_f = check_int("t", t, 1), check_int("d_f", d_f, 1)
    if not 0 < omega_f < math.inf:  # Fraction(inf) would raise OverflowError
        raise ValueError("omega_f must be positive and finite")
    return ((t - 1) * Fraction(omega_f) + 1) ** d_f - 1


def breakpoint_upper_bound(t: int, omega_f, d_f: int) -> float:
    """Break-point cap along any segment; +inf when it exceeds binary64."""
    return _safe_float(breakpoint_upper_bound_exact(t, omega_f, d_f))


def depth_bound_vs_state_bound(t: int, d_f: int, H: int) -> AuditReport:
    """Check ((t-1)*(H/d) + 1)^d <= t^H with exact rational arithmetic.

    The left side is the piece-count bound at width H/d; the right side is the
    count of joint activation states, which it can never exceed.
    """
    t, d_f = check_int("t", t, 1), check_int("d_f", d_f, 1, H)
    lhs = ((t - 1) * Fraction(H, d_f) + 1) ** d_f
    rhs = Fraction(t) ** int(H)
    return upper_audit(
        "depth-bound-vs-state-bound", lhs, rhs,
        parameters={"t": t, "d_f": d_f, "n_hidden": int(H)},
    )


def _eig_range(h: np.ndarray):
    """(lam_min, lam_max) for a stack of symmetric matrices (m, n, n)."""
    n = h.shape[-1]
    if n == 1:
        lam = h[..., 0, 0]
        return lam, lam
    if n == 2:
        return eig2(h[..., 0, 0], h[..., 0, 1], h[..., 1, 1])
    w = np.linalg.eigvalsh(h)
    return w[..., 0], w[..., -1]


def _curvature_parts(h: np.ndarray):
    """(gamma, sign(lam_min) * sign(lam_max)) for a stack of symmetric matrices."""
    lo, hi = _eig_range(h)
    return np.minimum(np.abs(lo), np.abs(hi)), np.sign(lo) * np.sign(hi)


def _clamped_curvature(h: np.ndarray) -> np.ndarray:
    gamma, sign = _curvature_parts(h)
    return np.maximum(0.0, gamma * sign)


# Cap on the points per g.hessian call in the grid scan, the one stage whose
# memory scales with ALPHA_GRID: 1025-point grids go 63 segments at a time.
# Refinement and the final Hessian take one point per segment, so they stay
# proportional to the endpoint arrays themselves.
HESSIAN_BATCH_POINTS = 2**16


def _segment_curvatures(g: TargetFunction, X: np.ndarray, Y: np.ndarray):
    """min_curvature for every row pair of the (P, n) endpoint arrays X, Y.

    Returns the SegmentCurvature fields as length-P arrays (value,
    minimizing_alpha, gamma_at_min, sign_at_min); endpoints are not validated.
    Each pair takes min_curvature's arithmetic elementwise: the grid scan in
    stacked Hessian batches, then golden refinement of every pair with a
    positive grid minimum at once (golden_min with a decision tree of
    REFINE_LOOKAHEAD steps per Hessian call when P == 1, where one point per
    call would leave numpy overhead dominant). The final Hessian gives value
    and eigenvalue fields alike.
    """
    P = len(X)
    D = Y - X
    alphas = np.linspace(0.0, 1.0, ALPHA_GRID)
    best_a = np.empty(P)
    best_v = np.empty(P)
    rows = max(1, HESSIAN_BATCH_POINTS // ALPHA_GRID)
    for s in range(0, P, rows):
        pts = X[s:s + rows, None, :] + alphas[:, None] * D[s:s + rows, None, :]
        values = _clamped_curvature(g.hessian(pts.reshape(-1, g.n))).reshape(-1, alphas.size)
        k = np.argmin(values, axis=1)
        best_a[s:s + rows] = alphas[k]
        best_v[s:s + rows] = values[np.arange(k.size), k]
    refine = np.flatnonzero(best_v > 0.0)  # the clamp at 0 cannot be undercut
    if refine.size:
        step = 1.0 / (ALPHA_GRID - 1)
        lo = np.maximum(0.0, best_a[refine] - step)
        hi = np.minimum(1.0, best_a[refine] + step)
        Xr, Dr = X[refine], D[refine]
        curvature = lambda a: _clamped_curvature(g.hessian(Xr + a[:, None] * Dr))
        if P == 1:
            ref_a, ref_v = golden_min(
                curvature, float(lo[0]), float(hi[0]), REFINE_ITERS, REFINE_LOOKAHEAD
            )
        else:
            ref_a, ref_v = golden_min_batch(curvature, lo, hi, REFINE_ITERS)
        best_a[refine] = np.where(ref_v < best_v[refine], ref_a, best_a[refine])
    gamma, sign = _curvature_parts(g.hessian(X + best_a[:, None] * D))
    return np.sqrt(np.maximum(0.0, gamma * sign)), best_a, gamma, sign


def min_curvature(g: TargetFunction, x, y) -> SegmentCurvature:
    """Curvature infimum along the segment from x to y.

    Scans ALPHA_GRID uniform points, then golden-section refines inside the
    bracketing grid cell; keeps whichever is lower. The reported fields are
    all evaluated at the final alpha, so value**2 equals the clamped
    curvature there exactly.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.size != g.n:
        raise ValueError(f"endpoints must have dimension {g.n}")
    if np.array_equal(x, y):
        raise ValueError("degenerate segment: x == y")
    if not (g.domain.contains(x) and g.domain.contains(y)):
        raise ValueError("segment endpoints outside the domain")
    value, alpha, gamma, sign = _segment_curvatures(g, x[None, :], y[None, :])
    return SegmentCurvature(float(value[0]), float(alpha[0]), float(gamma[0]), int(sign[0]))


def _pair_value(g, x, y) -> float:
    dist = float(np.linalg.norm(y - x))
    if dist < 1e-9:
        return 0.0
    return dist * min_curvature(g, x, y).value / 4.0


def curvature_lower_bound(g: TargetFunction, cfg: BoundConfig | None = None) -> CurvatureBound:
    """sup ||x-y|| * curvature(g, x, y) / 4 over corner pairs, random pairs,
    and a coordinate-ascent polish of the best pair found.

    The corner and random pairs go through one batched curvature kernel call,
    bit-identical to one min_curvature call per pair for elementwise
    Hessians. The polish stays sequential, one min_curvature call per probe,
    and ends after its first pass when that pass cannot improve the best pair
    (the common case: a corner pair that no line search moves).
    """
    cfg = cfg or BoundConfig()
    corners = g.domain.corners()
    pairs = [
        (corners[i], corners[j])
        for i in range(len(corners))
        for j in range(i + 1, len(corners))
    ]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(PAIR_SAMPLES):
        x = g.domain.sample(rng, 1)[0]
        y = g.domain.sample(rng, 1)[0]
        while np.linalg.norm(y - x) < 1e-9:
            y = g.domain.sample(rng, 1)[0]
        pairs.append((x, y))
    curvatures = _segment_curvatures(
        g, np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
    )[0]
    best_val = -1.0
    best = None
    for (x, y), c in zip(pairs, curvatures):
        dist = float(np.linalg.norm(y - x))
        v = 0.0 if dist < 1e-9 else dist * float(c) / 4.0
        if v > best_val:
            best_val, best = v, (x, y)
    p0 = np.concatenate(best)
    lo = np.concatenate([g.domain.lo, g.domain.lo])
    hi = np.concatenate([g.domain.hi, g.domain.hi])
    p, v = coordinate_ascent(
        lambda p: _pair_value(g, p[: g.n], p[g.n:]), p0, lo, hi, iters=20
    )
    if v > best_val:
        best_val, best = v, (p[: g.n].copy(), p[g.n:].copy())
    floor = hidden_units_floor(best_val, cfg.epsilon, cfg.t) if cfg.t >= 2 else 0.0
    return CurvatureBound(best_val, best, floor)


def hidden_units_floor(value: float, epsilon: float, t: int) -> float:
    """log_t(value / sqrt(epsilon)), clamped at 0.

    A network whose restriction to some segment needs more than value/sqrt(eps)
    linear pieces needs at least this many hidden units.
    """
    check_epsilon(epsilon)
    t = check_int("t", t, 2)
    if value <= 0:
        return 0.0
    return max(0.0, math.log(value / math.sqrt(epsilon), t))


def strong_convexity_lower_bound(mu: float, diam: float, epsilon: float, t: int) -> float:
    """Hidden-unit floor 0.5 * log_t(mu * diam^2 / (16 * epsilon)) for targets
    with hessian >= mu*I, clamped at 0."""
    if not (mu > 0 and diam > 0 and epsilon > 0):
        raise ValueError("mu, diam, epsilon must be positive")
    check_epsilon(epsilon)
    t = check_int("t", t, 2)
    return max(0.0, 0.5 * math.log(mu * diam * diam / (16.0 * epsilon), t))


def depth_scaled_lower_bound(
    g: TargetFunction, d_f: int, epsilon: float, cfg: BoundConfig | None = None
) -> float:
    """Hidden-unit floor q * d * eps^(-1/(2d)) for fixed depth d, with
    q = min(c, 1)/2 and c the curvature supremum of g.

    Requires a positive-definite Hessian on the domain (spot-checked at
    PAIR_SAMPLES random points); two-piece activations assumed.
    """
    cfg = cfg or BoundConfig()
    d_f = check_int("d_f", d_f, 1)
    check_epsilon(epsilon)
    rng = np.random.default_rng(cfg.seed)
    pts = g.domain.sample(rng, PAIR_SAMPLES)
    lam_min = _eig_range(g.hessian(pts))[0].min()
    if lam_min <= 0:
        raise PreconditionError(
            f"hessian of {g.name} is not positive definite (eigenvalue {lam_min:.6g})"
        )
    c = curvature_lower_bound(g, cfg).value
    q = 0.5 * min(c, 1.0)
    return q * d_f * epsilon ** (-1.0 / (2.0 * d_f))


# Grid points per axis of the Laplacian scan; above two dimensions the axes
# shrink so that the scan stays near 1e5 points.
LAPLACIAN_GRID = 129


def max_abs_laplacian(g: TargetFunction):
    """(max |trace hessian|, argmax point): grid scan plus coordinate ascent."""
    per_axis = max(2, min(LAPLACIAN_GRID, int(round(100000 ** (1.0 / g.n)))))
    axes = [np.linspace(g.domain.lo[i], g.domain.hi[i], per_axis) for i in range(g.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.abs(g.laplacian(pts))
    k = int(np.argmax(vals))
    p, v = coordinate_ascent(
        lambda x: float(np.abs(g.laplacian(x))), pts[k], g.domain.lo, g.domain.hi,
        iters=25,
    )
    if v < vals[k]:
        p, v = pts[k], float(vals[k])
    return float(v), np.asarray(p, dtype=float)


def laplacian_lower_bound(g: TargetFunction, epsilon: float, t: int) -> LaplacianBound:
    """Floor sqrt((max|lap(g)|/n - delta3 * n^(3/2))+ / 16) on the piece-count
    multiplier, and the matching log_t hidden-unit floor.

    delta3 is the target's uniform third-derivative bound; the positive part
    clamps the multiplier to 0 when curvature is drowned out. The floor is
    stated on the unit box [0, 1]^n, so any other domain is rejected.
    """
    check_epsilon(epsilon)
    if not (np.all(g.domain.lo == 0.0) and np.all(g.domain.hi == 1.0)):
        raise ValueError(f"the Laplacian floor is stated on the unit box [0, 1]^{g.n}, "
                         f"not on {g.name}'s domain")
    max_lap, at = max_abs_laplacian(g)
    n = g.n
    inner = max(0.0, max_lap / n - g.third_bound * n**1.5)
    multiplier = math.sqrt(inner / 16.0)
    floor = hidden_units_floor(multiplier, epsilon, t) if t >= 2 else 0.0
    return LaplacianBound(multiplier, floor, max_lap, at)


def activation_swap_bound(delta: float, A: float, omega_f, d_f: int, gap) -> float:
    """Output deviation cap (gap/delta) * ((delta*A*omega + 1)^d - 1) for two
    networks with identical weights whose activations differ by at most gap in
    sup norm, the first being delta-Lipschitz."""
    gap_val = float(getattr(gap, "value", gap))
    if not gap_val >= 0:
        raise ValueError("gap must be >= 0")
    if not (delta > 0 and A > 0 and math.isfinite(A)):
        raise ValueError("delta and A must be positive, A finite")
    d_f = check_int("d_f", d_f, 1)
    omega = float(omega_f)
    if not omega > 0:
        raise ValueError("omega_f must be positive")
    if gap_val == 0.0:
        return 0.0  # exact for any finite A, where the growth factor may overflow
    try:
        return (gap_val / delta) * ((delta * A * omega + 1.0) ** d_f - 1.0)
    except OverflowError:  # a finite float to the power d_f that exceeds binary64
        return math.inf
