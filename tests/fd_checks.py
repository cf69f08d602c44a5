"""Finite-difference checks of the catalogue's exact derivatives.

Test-only diagnostics: central differences of a value function (or a
TargetFunction), and `check_target`, which probes a target's declared
Hessian symmetry, strong-convexity parameter, gradient, Hessian and
third-derivative bound.
"""

from __future__ import annotations

import numpy as np

from expressivity_auditor.targets import TargetFunction


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
