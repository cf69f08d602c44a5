"""Twice-differentiable target functions with analytic derivatives.

Every target carries its input dimension, an axis-aligned box domain, value /
gradient / Hessian callables (all batch-capable over a leading sample axis), a
uniform bound on all third partial derivatives, and, when it holds, a strong
convexity parameter. A small catalog covers the worked examples.
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
        if lo.size == 0:
            raise ValueError("box needs at least one dimension")
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
