"""Twice-differentiable target functions with analytic derivatives.

Every target carries its input dimension, an axis-aligned box domain, value /
gradient / Hessian callables (all batch-capable over a leading sample axis), a
uniform bound on all third partial derivatives, and, when it holds, a strong
convexity parameter. A small catalog covers the worked examples; opaque
callables can be probed with the finite-difference helpers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_n, hi_n]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D of equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("non-finite box corner")
        if not np.all(hi > lo):
            raise ValueError("need hi > lo on every axis")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return int(self.lo.size)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        ok = (x >= self.lo - 1e-9) & (x <= self.hi + 1e-9)
        return np.all(ok, axis=-1)

    def sample(self, rng, m: int) -> np.ndarray:
        return self.lo + rng.random((m, self.n)) * (self.hi - self.lo)

    def corners(self) -> np.ndarray:
        if self.n > 20:
            raise ValueError("corner enumeration capped at 20 dimensions")
        return np.array(list(itertools.product(*zip(self.lo, self.hi))))


def unit_box(n: int) -> Box:
    return Box(np.zeros(n), np.ones(n))


@dataclass(frozen=True, eq=False)
class TargetFunction:
    """C^2 target with analytic derivatives.

    third_bound is a uniform bound on |D^J g| over the domain for every third
    order multi-index J. mu, when set, certifies hessian >= mu*I on the domain.
    reference_multiplier is an externally documented figure for the segment
    curvature lower bound, carried for side-by-side reporting only; no audit
    asserts it.
    """

    name: str
    n: int
    domain: Box
    value_fn: Callable
    gradient_fn: Callable
    hessian_fn: Callable
    third_bound: float
    mu: float | None = None
    reference_multiplier: float | None = None

    def __post_init__(self):
        if self.domain.n != self.n:
            raise ValueError("domain dimension mismatch")
        if self.third_bound < 0:
            raise ValueError("third_bound must be >= 0")

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ValueError(f"expected points of dimension {self.n}")
        return x

    def value(self, x):
        return self.value_fn(self._check(x))

    def gradient(self, x):
        return self.gradient_fn(self._check(x))

    def hessian(self, x):
        return self.hessian_fn(self._check(x))

    def laplacian(self, x):
        h = self.hessian(x)
        return np.trace(h, axis1=-2, axis2=-1)


def _sq_norm(n: int) -> TargetFunction:
    eye2 = 2.0 * np.eye(n)

    def value(x):
        return np.sum(x * x, axis=-1)

    def gradient(x):
        return 2.0 * x

    def hessian(x):
        return np.broadcast_to(eye2, x.shape[:-1] + (n, n)).copy()

    return TargetFunction("sq_norm", n, unit_box(n), value, gradient, hessian,
                          third_bound=0.0, mu=2.0)


def _poly(name, a1, a2, mu, reference_multiplier=None) -> TargetFunction:
    # g(x) = a1*x1^2 + a2*x2^2 + x1^2*x2^2 on [0,1]^2; third partials are
    # 4*x1 and 4*x2, so the uniform third-derivative bound is 4.
    def value(x):
        x1, x2 = x[..., 0], x[..., 1]
        return a1 * x1**2 + a2 * x2**2 + x1**2 * x2**2

    def gradient(x):
        x1, x2 = x[..., 0], x[..., 1]
        g = np.empty(x.shape)
        g[..., 0] = 2 * a1 * x1 + 2 * x1 * x2**2
        g[..., 1] = 2 * a2 * x2 + 2 * x1**2 * x2
        return g

    def hessian(x):
        x1, x2 = x[..., 0], x[..., 1]
        h = np.empty(x.shape[:-1] + (2, 2))
        h[..., 0, 0] = 2 * a1 + 2 * x2**2
        h[..., 1, 1] = 2 * a2 + 2 * x1**2
        h[..., 0, 1] = 4 * x1 * x2
        h[..., 1, 0] = h[..., 0, 1]
        return h

    return TargetFunction(name, 2, unit_box(2), value, gradient, hessian,
                          third_bound=4.0, mu=mu,
                          reference_multiplier=reference_multiplier)


def catalog(name: str, n: int | None = None) -> TargetFunction:
    """Built-in targets.

    sq_norm: x.x in any dimension (default 2); Hessian 2I, strongly convex
    with mu=2, zero third derivatives.
    poly_a / poly_g2: 10*x1^2 + 10*x2^2 + x1^2*x2^2 (two aliases of the same
    polynomial used by different bound walk-throughs; poly_g2 carries the
    externally documented curvature multiplier 1.37 for comparison).
    poly_g1: 20*x1^2 - 2*x2^2 + x1^2*x2^2, whose Hessian eigenvalues have
    opposite signs everywhere on [0,1]^2.
    """
    if name == "sq_norm":
        return _sq_norm(2 if n is None else int(n))
    if n is not None and n != 2:
        raise ValueError(f"{name} is only defined for n=2")
    if name == "poly_a":
        return _poly("poly_a", 10.0, 10.0, mu=18.0)
    if name == "poly_g2":
        return _poly("poly_g2", 10.0, 10.0, mu=18.0, reference_multiplier=1.37)
    if name == "poly_g1":
        return _poly("poly_g1", 20.0, -2.0, mu=None)
    raise ValueError(f"unknown target {name!r}")


def _as_value_fn(g):
    return g.value if isinstance(g, TargetFunction) else g


def _margin_check(g, x, h):
    if isinstance(g, TargetFunction):
        x = np.asarray(x, dtype=float)
        if np.any(x - h < g.domain.lo - 1e-15) or np.any(x + h > g.domain.hi + 1e-15):
            raise ValueError(f"point {x} within {h} of the domain boundary")


def fd_gradient(g, x, h=1e-6):
    """Central-difference gradient of a value function (or TargetFunction)."""
    _margin_check(g, x, h)
    fn = _as_value_fn(g)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return out


def fd_hessian(g, x, h=1e-4):
    """Central second differences; symmetric by construction.

    Diagonal entries use the three-point stencil, off-diagonal entries the
    four-point mixed stencil (identical under i<->j, so the result is exactly
    symmetric). Raises when x sits within h of the domain boundary.
    """
    _margin_check(g, x, h)
    fn = _as_value_fn(g)
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fn(x + ei) - 2 * f0 + fn(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (fn(x + ei + ej) - fn(x + ei - ej)
                     - fn(x - ei + ej) + fn(x - ei - ej)) / (4 * h**2)
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def check_target(g: TargetFunction, samples=100, seed=0) -> list:
    """Consistency violations between the declared fields and numeric probes.

    Checks Hessian symmetry, the strong-convexity certificate, the gradient
    and Hessian against finite differences, and the third-derivative bound
    against central differences of the analytic Hessian. Empty list = clean.
    """
    rng = np.random.default_rng(seed)
    pts = g.domain.sample(rng, samples)
    violations = []
    h = g.hessian(pts)
    asym = np.max(np.abs(h - np.swapaxes(h, -1, -2)))
    if asym > 1e-9:
        violations.append(f"hessian asymmetry {asym:.3g}")
    if g.mu is not None:
        lam_min = np.linalg.eigvalsh(h)[..., 0].min()
        if lam_min < g.mu - 1e-9:
            violations.append(f"min hessian eigenvalue {lam_min:.6g} below mu={g.mu}")
    # Finite-difference probes need interior points; pull samples off the walls.
    eps = 1e-3
    span = g.domain.hi - g.domain.lo
    interior = np.clip(pts, g.domain.lo + eps * span, g.domain.hi - eps * span)
    grad_err = max(
        np.max(np.abs(fd_gradient(g.value, p, h=1e-6) - g.gradient(p))) for p in interior
    )
    if grad_err > 1e-5:
        violations.append(f"gradient vs finite differences off by {grad_err:.3g}")
    hess_err = max(
        np.max(np.abs(fd_hessian(g.value, p, h=1e-4) - g.hessian(p))) for p in interior
    )
    if hess_err > 1e-4:
        violations.append(f"hessian vs finite differences off by {hess_err:.3g}")
    step = 1e-4
    third = 0.0
    for p in interior:
        for i in range(g.n):
            e = np.zeros(g.n)
            e[i] = step
            probe = np.max(np.abs(g.hessian(p + e) - g.hessian(p - e))) / (2 * step)
            third = max(third, probe)
    if third > g.third_bound + 1e-3:
        violations.append(f"third-derivative probe {third:.6g} exceeds bound {g.third_bound}")
    return violations
