import math
import re
from fractions import Fraction

import numpy as np
import pytest

from expressivity_auditor import (
    BoundConfig,
    activation_swap_bound,
    breakpoint_upper_bound,
    breakpoint_upper_bound_exact,
    catalog,
    curvature_lower_bound,
    depth_bound_vs_state_bound,
    depth_scaled_lower_bound,
    hidden_units_floor,
    laplacian_lower_bound,
    max_abs_laplacian,
    min_curvature,
    strong_convexity_lower_bound,
)
from expressivity_auditor import bounds
from expressivity_auditor.errors import PreconditionError


# ------------------------------------------------------------ counting bound

def test_breakpoint_bound_reference_values():
    assert breakpoint_upper_bound_exact(2, Fraction(8, 3), 3) == Fraction(1304, 27)
    assert breakpoint_upper_bound(2, Fraction(8, 3), 3) == pytest.approx(48.2962962962963)
    assert breakpoint_upper_bound_exact(2, 2, 2) == 8
    assert breakpoint_upper_bound_exact(2, 1, 1) == 1
    assert breakpoint_upper_bound_exact(1, 5, 4) == 0  # one piece: affine network


def test_breakpoint_bound_monotone():
    prev = -1
    for d in range(1, 6):
        cur = breakpoint_upper_bound_exact(2, 3, d)
        assert cur > prev
        prev = cur
    assert breakpoint_upper_bound_exact(3, 2, 2) > breakpoint_upper_bound_exact(2, 2, 2)


def test_breakpoint_bound_overflow_to_inf():
    assert breakpoint_upper_bound(5, 10**6, 400) == math.inf
    assert math.isfinite(breakpoint_upper_bound(2, 2, 30))


def test_breakpoint_bound_validation():
    with pytest.raises(ValueError):
        breakpoint_upper_bound_exact(0, 2, 2)
    with pytest.raises(ValueError):
        breakpoint_upper_bound_exact(2, 2, 0)
    with pytest.raises(ValueError):
        breakpoint_upper_bound_exact(2, Fraction(0), 2)
    with pytest.raises(ValueError, match="^t must be an integer >= 1, got inf$"):
        breakpoint_upper_bound_exact(math.inf, 1, 1)
    with pytest.raises(ValueError, match="^omega_f must be positive and finite$"):
        breakpoint_upper_bound_exact(2, math.inf, 1)  # Fraction(inf) raises OverflowError


def test_depth_bound_vs_state_bound():
    rep = depth_bound_vs_state_bound(2, 3, 8)
    assert rep.verdict == "pass"
    # equal-split edge case is exactly tight
    rep = depth_bound_vs_state_bound(3, 4, 4)
    assert rep.verdict == "pass"
    assert rep.margin == 0.0
    with pytest.raises(ValueError):
        depth_bound_vs_state_bound(2, 9, 8)
    with pytest.raises(ValueError, match="^d_f must be an integer >= 1, got 2.5$"):
        depth_bound_vs_state_bound(2, 2.5, 5)


# -------------------------------------------------------------- curvature psi

def test_min_curvature_constant_hessian():
    g = catalog("sq_norm")
    sc = min_curvature(g, [0.0, 0.0], [1.0, 1.0])
    assert sc.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert sc.sign_at_min == 1


def test_min_curvature_indefinite_is_zero():
    g = catalog("poly_g1")
    sc = min_curvature(g, [0.0, 0.0], [1.0, 1.0])
    assert sc.value == 0.0
    assert sc.sign_at_min <= 0


def test_min_curvature_diagonal_poly():
    g = catalog("poly_g2")
    sc = min_curvature(g, [0.0, 0.0], [1.0, 1.0])
    # smaller eigenvalue along the diagonal is 20 - 2*a^2, minimized at a=1
    assert sc.value == pytest.approx(math.sqrt(18.0), abs=1e-9)
    assert sc.minimizing_alpha == pytest.approx(1.0, abs=1e-6)


def test_min_curvature_value_squares_to_gamma():
    g = catalog("poly_a")
    sc = min_curvature(g, [0.1, 0.9], [0.8, 0.2])
    if sc.sign_at_min == 1:
        assert sc.value**2 == pytest.approx(sc.gamma_at_min, rel=1e-12)
    else:
        assert sc.value == 0.0


def test_min_curvature_grid_refinement_no_worse(monkeypatch):
    g = catalog("poly_a")
    monkeypatch.setattr(bounds, "ALPHA_GRID", 17)
    coarse = min_curvature(g, [0.0, 1.0], [1.0, 0.0])
    monkeypatch.setattr(bounds, "ALPHA_GRID", 4097)
    fine = min_curvature(g, [0.0, 1.0], [1.0, 0.0])
    assert fine.value <= coarse.value + 1e-6


def test_min_curvature_validation():
    g = catalog("sq_norm")
    with pytest.raises(ValueError):
        min_curvature(g, [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        min_curvature(g, [0.0, 0.0], [2.0, 0.0])
    with pytest.raises(ValueError):
        min_curvature(g, [0.0], [1.0])


# ----------------------------------------------------------- curvature floor

def test_curvature_lower_bound_sq_norm():
    res = curvature_lower_bound(catalog("sq_norm"))
    assert res.value == pytest.approx(0.5, abs=1e-6)
    x, y = res.best_pair
    assert np.linalg.norm(np.asarray(y) - np.asarray(x)) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_curvature_lower_bound_indefinite_target():
    res = curvature_lower_bound(catalog("poly_g1"))
    assert res.value == 0.0
    assert res.hidden_units_lb == 0.0


def test_curvature_lower_bound_poly():
    res = curvature_lower_bound(catalog("poly_g2"))
    assert res.value == pytest.approx(math.sqrt(39.0) / 4.0, abs=1e-6)


def test_hidden_units_floor():
    assert hidden_units_floor(0.5, 1e-4, 2) == pytest.approx(math.log2(50.0))
    assert hidden_units_floor(0.0, 1e-4, 2) == 0.0
    assert hidden_units_floor(-1.0, 1e-4, 2) == 0.0
    assert hidden_units_floor(1e-6, 1.0, 2) == 0.0  # clamped at zero
    with pytest.raises(ValueError):
        hidden_units_floor(0.5, 0.0, 2)
    with pytest.raises(ValueError):
        hidden_units_floor(0.5, 1e-4, 1)


def test_strong_convexity_floor():
    # mu=2 on the unit square: 0.5*log2(2*2/(16*eps))
    val = strong_convexity_lower_bound(2.0, math.sqrt(2.0), 1e-4, 2)
    assert val == pytest.approx(0.5 * math.log2(2500.0), abs=1e-12)
    with pytest.raises(ValueError):
        strong_convexity_lower_bound(-1.0, 1.0, 1e-4, 2)


def test_floors_agree_for_sq_norm():
    g = catalog("sq_norm")
    eps = 1e-4
    via_curvature = hidden_units_floor(curvature_lower_bound(g).value, eps, 2)
    via_mu = strong_convexity_lower_bound(g.mu, g.domain.diameter, eps, 2)
    assert via_curvature == pytest.approx(via_mu, rel=1e-9)


def test_depth_scaled_lower_bound():
    g = catalog("sq_norm")
    # q = min(0.5, 1)/2 = 0.25; at d=2, eps=1e-4 the floor is 0.25*2*10
    assert depth_scaled_lower_bound(g, 2, 1e-4) == pytest.approx(5.0, rel=1e-12)
    assert depth_scaled_lower_bound(g, 1, 1e-4) == pytest.approx(25.0, rel=1e-9)
    with pytest.raises(PreconditionError):
        depth_scaled_lower_bound(catalog("poly_g1"), 2, 1e-4)
    with pytest.raises(ValueError):
        depth_scaled_lower_bound(g, 0, 1e-4)


# ----------------------------------------------------------- laplacian floor

def test_max_abs_laplacian_poly():
    g = catalog("poly_a")
    val, at = max_abs_laplacian(g)
    assert val == pytest.approx(44.0, abs=1e-9)
    assert np.allclose(at, [1.0, 1.0], atol=1e-6)


def test_max_abs_laplacian_flat():
    g = catalog("sq_norm")
    val, _ = max_abs_laplacian(g)
    assert val == pytest.approx(4.0, abs=1e-12)


def test_laplacian_lower_bound_poly():
    g = catalog("poly_a")
    res = laplacian_lower_bound(g, 1e-4, 2)
    want = math.sqrt((44.0 / 2.0 - 4.0 * 2.0**1.5) / 16.0)
    assert res.multiplier == pytest.approx(want, rel=1e-9)
    assert res.hidden_units_lb == pytest.approx(math.log2(want / 1e-2), rel=1e-9)
    assert res.max_abs_laplacian == pytest.approx(44.0, abs=1e-9)


def test_laplacian_lower_bound_clamps():
    # sq_norm has |lap| = 2n and zero third bound: multiplier sqrt(2n/(16n)) > 0
    g = catalog("sq_norm")
    res = laplacian_lower_bound(g, 1e-4, 2)
    assert res.multiplier == pytest.approx(math.sqrt(4.0 / 2.0 / 16.0), rel=1e-9)
    # a dominant third-derivative bound drives the inner term to zero
    from expressivity_auditor import TargetFunction

    noisy = TargetFunction(
        name="noisy", n=2, domain=g.domain, value_fn=g.value_fn,
        gradient_fn=g.gradient_fn, hessian_fn=g.hessian_fn, third_bound=100.0,
    )
    res = laplacian_lower_bound(noisy, 1e-4, 2)
    assert res.multiplier == 0.0
    assert res.hidden_units_lb == 0.0


def test_laplacian_lower_bound_needs_unit_box():
    # the floor is stated on [0, 1]^n; off it the same multiplier would be wrong
    from expressivity_auditor import Box, TargetFunction

    g = catalog("sq_norm")
    for lo, hi in (([0.0, 0.0], [10.0, 10.0]), ([-1.0, -1.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, 2.0])):
        moved = TargetFunction(
            name="moved", n=2, domain=Box(lo, hi), value_fn=g.value_fn,
            gradient_fn=g.gradient_fn, hessian_fn=g.hessian_fn, third_bound=0.0,
        )
        with pytest.raises(ValueError, match="unit box"):
            laplacian_lower_bound(moved, 1e-4, 2)


# ----------------------------------------------------------------- swap bound

def test_activation_swap_bound_values():
    # gap/delta * ((delta*A*omega + 1)^d - 1)
    assert activation_swap_bound(1.0, 1.0, 2.0, 2, 0.5) == pytest.approx(0.5 * 8.0)
    assert activation_swap_bound(0.25, 1.0, 2.0, 1, 0.1) == pytest.approx(0.4 * 0.5)
    assert activation_swap_bound(1.0, 1.0, 1.0, 1, 0.0) == 0.0
    # a zero gap gives 0 even where (delta*A*omega + 1)^d overflows to inf
    assert activation_swap_bound(1.0, 1e308, 2.0, 2, 0.0) == 0.0


def test_activation_swap_bound_accepts_gap_object():
    from expressivity_auditor import ActivationGap

    a = activation_swap_bound(1.0, 1.0, 2.0, 2, ActivationGap(0.5))
    b = activation_swap_bound(1.0, 1.0, 2.0, 2, 0.5)
    assert a == b


def test_activation_swap_bound_validation():
    with pytest.raises(ValueError):
        activation_swap_bound(0.0, 1.0, 2.0, 2, 0.5)
    with pytest.raises(ValueError):
        activation_swap_bound(1.0, 1.0, 2.0, 2, -0.5)
    with pytest.raises(ValueError):
        activation_swap_bound(1.0, 1.0, 2.0, 0, 0.5)
    for A in (math.inf, math.nan):
        with pytest.raises(ValueError):
            activation_swap_bound(1.0, A, 2.0, 2, 0.0)
    # both returned NaN before
    with pytest.raises(ValueError, match="^omega_f must be positive$"):
        activation_swap_bound(0.25, 1.0, math.nan, 2, 0.1)
    with pytest.raises(ValueError, match="^gap must be >= 0$"):
        activation_swap_bound(0.25, 1.0, 2.0, 2, math.nan)


def test_activation_swap_bound_overflow_is_inf():
    # 1e200 ** 2 raises OverflowError in float arithmetic; the cap is +inf
    assert activation_swap_bound(1.0, 1e200, 1.0, 2, 0.5) == math.inf


def test_bound_config_validation():
    with pytest.raises(ValueError):
        BoundConfig(epsilon=0.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be"):
            BoundConfig(epsilon=eps)
    for t in (math.inf, math.nan, True):
        with pytest.raises(ValueError, match=f"^t must be an integer >= 1, got {re.escape(repr(t))}$"):
            BoundConfig(t=t)


def test_floors_reject_non_finite_epsilon():
    g = catalog("sq_norm")
    calls = [
        lambda e: hidden_units_floor(1.0, e, 2),
        lambda e: strong_convexity_lower_bound(2.0, 1.0, e, 2),
        lambda e: depth_scaled_lower_bound(g, 2, e),
        lambda e: laplacian_lower_bound(g, e, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="epsilon must be finite"):
            call(math.inf)
    with pytest.raises(ValueError):
        BoundConfig(t=0)
