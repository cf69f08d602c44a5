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
best pair stays sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .linalg import eig2
from .report import FAIL, PASS, AuditReport, upper_audit
from .search import coordinate_ascent, golden_min, golden_min_batch
from .targets import TargetFunction


@dataclass(frozen=True)
class BoundConfig:
    """Search resolutions and bound parameters shared by the evaluators."""

    epsilon: float = 1e-4
    t: int = 2
    alpha_grid: int = 1025
    refine_iters: int = 40
    pair_samples: int = 256
    corner_pairs: bool = True
    seed: int = 0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.t < 1 or self.t != int(self.t):
            raise ValueError("t must be an integer >= 1")
        if min(self.alpha_grid, self.refine_iters, self.pair_samples) < 1:
            raise ValueError("all search counts must be >= 1")


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


def _safe_float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def breakpoint_upper_bound_exact(t: int, omega_f, d_f: int) -> Fraction:
    """((t-1)*omega + 1)^d - 1 as an exact rational."""
    if int(t) != t or t < 1:
        raise ValueError("t must be an integer >= 1")
    if int(d_f) != d_f or d_f < 1:
        raise ValueError("d_f must be an integer >= 1")
    omega = Fraction(omega_f)
    if omega <= 0:
        raise ValueError("omega_f must be positive")
    return ((t - 1) * omega + 1) ** int(d_f) - 1


def breakpoint_upper_bound(t: int, omega_f, d_f: int) -> float:
    """Break-point cap along any segment; +inf when it exceeds binary64."""
    return _safe_float(breakpoint_upper_bound_exact(t, omega_f, d_f))


def depth_bound_vs_state_bound(t: int, d_f: int, H: int) -> AuditReport:
    """Check ((t-1)*(H/d) + 1)^d <= t^H with exact rational arithmetic.

    The left side is the piece-count bound at width H/d; the right side is the
    count of joint activation states, which it can never exceed.
    """
    if int(t) != t or t < 1:
        raise ValueError("t must be an integer >= 1")
    if not 1 <= d_f <= H:
        raise ValueError("need 1 <= d_f <= H")
    lhs = ((t - 1) * Fraction(H, d_f) + 1) ** int(d_f)
    rhs = Fraction(t) ** int(H)
    return AuditReport(
        kind="depth-bound-vs-state-bound",
        parameters={"t": int(t), "d_f": int(d_f), "n_hidden": int(H)},
        measured=_safe_float(lhs),
        bound=_safe_float(rhs),
        margin=_safe_float(rhs - lhs),
        verdict=PASS if lhs <= rhs else FAIL,
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


# Cap on the points per g.hessian call: 1025-point grids go 63 segments at a
# time, and refinement takes at most this many segments at once, so peak
# memory does not grow with the pair count.
HESSIAN_BATCH_POINTS = 2**16


def _segment_curvatures(g: TargetFunction, X: np.ndarray, Y: np.ndarray, cfg: BoundConfig):
    """min_curvature for every row pair of the (P, n) endpoint arrays X, Y.

    Returns the SegmentCurvature fields as length-P arrays (value,
    minimizing_alpha, gamma_at_min, sign_at_min); endpoints are not validated.
    Each pair takes min_curvature's arithmetic elementwise: the grid scan in
    stacked Hessian batches, then golden refinement of every pair with a
    positive grid minimum at once (golden_min itself when P == 1, where array
    overhead would dominate). The final Hessian gives value and eigenvalue
    fields alike.
    """
    P = len(X)
    if P > HESSIAN_BATCH_POINTS:
        parts = [
            _segment_curvatures(g, X[s:s + HESSIAN_BATCH_POINTS], Y[s:s + HESSIAN_BATCH_POINTS], cfg)
            for s in range(0, P, HESSIAN_BATCH_POINTS)
        ]
        return tuple(np.concatenate(field) for field in zip(*parts))
    D = Y - X
    alphas = np.linspace(0.0, 1.0, cfg.alpha_grid)
    best_a = np.empty(P)
    best_v = np.empty(P)
    rows = max(1, HESSIAN_BATCH_POINTS // cfg.alpha_grid)
    for s in range(0, P, rows):
        pts = X[s:s + rows, None, :] + alphas[:, None] * D[s:s + rows, None, :]
        values = _clamped_curvature(g.hessian(pts.reshape(-1, g.n))).reshape(-1, alphas.size)
        k = np.argmin(values, axis=1)
        best_a[s:s + rows] = alphas[k]
        best_v[s:s + rows] = values[np.arange(k.size), k]
    refine = np.flatnonzero(best_v > 0.0)  # the clamp at 0 cannot be undercut
    if refine.size:
        step = 1.0 / (cfg.alpha_grid - 1)
        lo = np.maximum(0.0, best_a[refine] - step)
        hi = np.minimum(1.0, best_a[refine] + step)
        if P == 1:
            x, d = X[0], D[0]
            ref_a, ref_v = golden_min(
                lambda a: float(_clamped_curvature(g.hessian(x + a * d))),
                float(lo[0]), float(hi[0]), cfg.refine_iters,
            )
        else:
            Xr, Dr = X[refine], D[refine]
            ref_a, ref_v = golden_min_batch(
                lambda a: _clamped_curvature(g.hessian(Xr + a[:, None] * Dr)),
                lo, hi, cfg.refine_iters,
            )
        best_a[refine] = np.where(ref_v < best_v[refine], ref_a, best_a[refine])
    gamma, sign = _curvature_parts(g.hessian(X + best_a[:, None] * D))
    return np.sqrt(np.maximum(0.0, gamma * sign)), best_a, gamma, sign


def min_curvature(g: TargetFunction, x, y, cfg: BoundConfig | None = None) -> SegmentCurvature:
    """Curvature infimum along the segment from x to y.

    Scans cfg.alpha_grid uniform points, then golden-section refines inside
    the bracketing grid cell; keeps whichever is lower. The reported fields
    are all evaluated at the final alpha, so value**2 equals the clamped
    curvature there exactly.
    """
    cfg = cfg or BoundConfig()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.size != g.n:
        raise ValueError(f"endpoints must have dimension {g.n}")
    if np.array_equal(x, y):
        raise ValueError("degenerate segment: x == y")
    if not (g.domain.contains(x) and g.domain.contains(y)):
        raise ValueError("segment endpoints outside the domain")
    value, alpha, gamma, sign = _segment_curvatures(g, x[None, :], y[None, :], cfg)
    return SegmentCurvature(float(value[0]), float(alpha[0]), float(gamma[0]), int(sign[0]))


def _pair_value(g, cfg, x, y) -> float:
    dist = float(np.linalg.norm(y - x))
    if dist < 1e-9:
        return 0.0
    return dist * min_curvature(g, x, y, cfg).value / 4.0


def curvature_lower_bound(g: TargetFunction, cfg: BoundConfig | None = None) -> CurvatureBound:
    """sup ||x-y|| * curvature(g, x, y) / 4 over corner pairs, random pairs,
    and a coordinate-ascent polish of the best pair found.

    The corner and random pairs go through one batched curvature kernel call,
    bit-identical to one min_curvature call per pair for elementwise
    Hessians; the polish stays sequential, one min_curvature call per probe.
    """
    cfg = cfg or BoundConfig()
    pairs = []
    if cfg.corner_pairs:
        corners = g.domain.corners()
        pairs.extend(
            (corners[i], corners[j])
            for i in range(len(corners))
            for j in range(i + 1, len(corners))
        )
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.pair_samples):
        x = g.domain.sample(rng, 1)[0]
        y = g.domain.sample(rng, 1)[0]
        while np.linalg.norm(y - x) < 1e-9:
            y = g.domain.sample(rng, 1)[0]
        pairs.append((x, y))
    curvatures = _segment_curvatures(
        g, np.array([x for x, _ in pairs]), np.array([y for _, y in pairs]), cfg
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
        lambda p: _pair_value(g, cfg, p[: g.n], p[g.n:]), p0, lo, hi, passes=2, iters=20
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
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if int(t) != t or t < 2:
        raise ValueError("t must be an integer >= 2")
    if value <= 0:
        return 0.0
    return max(0.0, math.log(value / math.sqrt(epsilon), t))


def strong_convexity_lower_bound(mu: float, diam: float, epsilon: float, t: int) -> float:
    """Hidden-unit floor 0.5 * log_t(mu * diam^2 / (16 * epsilon)) for targets
    with hessian >= mu*I, clamped at 0."""
    if not (mu > 0 and diam > 0 and epsilon > 0):
        raise ValueError("mu, diam, epsilon must be positive")
    if int(t) != t or t < 2:
        raise ValueError("t must be an integer >= 2")
    return max(0.0, 0.5 * math.log(mu * diam * diam / (16.0 * epsilon), t))


def depth_scaled_lower_bound(
    g: TargetFunction, d_f: int, epsilon: float, cfg: BoundConfig | None = None
) -> float:
    """Hidden-unit floor q * d * eps^(-1/(2d)) for fixed depth d, with
    q = min(c, 1)/2 and c the curvature supremum of g.

    Requires a positive-definite Hessian on the domain (spot-checked at
    cfg.pair_samples random points); two-piece activations assumed.
    """
    cfg = cfg or BoundConfig()
    if int(d_f) != d_f or d_f < 1:
        raise ValueError("d_f must be an integer >= 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(cfg.seed)
    pts = g.domain.sample(rng, cfg.pair_samples)
    lam_min = _eig_range(g.hessian(pts))[0].min()
    if lam_min <= 0:
        raise PreconditionError(
            f"hessian of {g.name} is not positive definite (eigenvalue {lam_min:.6g})"
        )
    c = curvature_lower_bound(g, cfg).value
    q = 0.5 * min(c, 1.0)
    return q * d_f * epsilon ** (-1.0 / (2.0 * d_f))


def max_abs_laplacian(g: TargetFunction, grid: int = 129):
    """(max |trace hessian|, argmax point): grid scan plus coordinate ascent."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if g.n <= 2:
        per_axis = grid
    else:
        per_axis = max(2, min(grid, int(round(100000 ** (1.0 / g.n)))))
    axes = [np.linspace(g.domain.lo[i], g.domain.hi[i], per_axis) for i in range(g.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.abs(g.laplacian(pts))
    k = int(np.argmax(vals))
    p, v = coordinate_ascent(
        lambda x: float(np.abs(g.laplacian(x))), pts[k], g.domain.lo, g.domain.hi,
        passes=2, iters=25,
    )
    if v < vals[k]:
        p, v = pts[k], float(vals[k])
    return float(v), np.asarray(p, dtype=float)


def laplacian_lower_bound(g: TargetFunction, epsilon: float, t: int, grid: int = 129) -> LaplacianBound:
    """Floor sqrt((max|lap(g)|/n - delta3 * n^(3/2))+ / 16) on the piece-count
    multiplier, and the matching log_t hidden-unit floor.

    delta3 is the target's uniform third-derivative bound; the positive part
    clamps the multiplier to 0 when curvature is drowned out.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    max_lap, at = max_abs_laplacian(g, grid)
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
    if gap_val < 0:
        raise ValueError("gap must be >= 0")
    if not (delta > 0 and A > 0):
        raise ValueError("delta and A must be positive")
    if int(d_f) != d_f or d_f < 1:
        raise ValueError("d_f must be an integer >= 1")
    omega = float(omega_f)
    if omega <= 0:
        raise ValueError("omega_f must be positive")
    return (gap_val / delta) * ((delta * A * omega + 1.0) ** int(d_f) - 1.0)
