import numpy as np
import pytest

from expressivity_auditor import Box, TargetFunction, catalog, unit_box
from fd_checks import check_target, fd_gradient, fd_hessian


# ----------------------------------------------------------------------- box

def test_box_basics():
    box = unit_box(2)
    assert box.n == 2
    assert box.diameter == pytest.approx(np.sqrt(2.0))
    assert box.contains([0.5, 0.5])
    assert not box.contains([1.5, 0.5])
    corners = box.corners()
    assert corners.shape == (4, 2)
    assert {tuple(c) for c in corners} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_box_validation():
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        Box([0.0], [1.0, 1.0])


def test_box_sampling_deterministic():
    box = unit_box(3)
    a = box.sample(np.random.default_rng(4), 50)
    b = box.sample(np.random.default_rng(4), 50)
    assert np.array_equal(a, b)
    assert a.shape == (50, 3)
    assert np.all((a >= 0.0) & (a <= 1.0))


# ------------------------------------------------------------------- catalog

def test_sq_norm_values():
    g = catalog("sq_norm")
    assert g.n == 2
    assert g.value([0.3, 0.4]) == pytest.approx(0.25)
    assert np.allclose(g.gradient([0.3, 0.4]), [0.6, 0.8])
    assert np.allclose(g.hessian([0.3, 0.4]), 2.0 * np.eye(2))
    assert g.mu == 2.0
    assert g.third_bound == 0.0
    assert g.laplacian([0.3, 0.4]) == pytest.approx(4.0)


def test_sq_norm_any_dimension():
    g = catalog("sq_norm", 5)
    assert g.n == 5
    assert g.value(np.ones(5)) == pytest.approx(5.0)
    assert g.laplacian(np.zeros(5)) == pytest.approx(10.0)


def test_poly_a_values():
    g = catalog("poly_a")
    assert g.n == 2
    assert g.value([1.0, 1.0]) == pytest.approx(21.0)
    h = g.hessian([1.0, 1.0])
    assert np.allclose(h, [[22.0, 4.0], [4.0, 22.0]])
    assert np.allclose(np.linalg.eigvalsh(h), [18.0, 26.0])
    assert g.laplacian([1.0, 1.0]) == pytest.approx(44.0)
    assert g.mu == 18.0
    assert g.third_bound == 4.0


def test_poly_g1_values():
    g = catalog("poly_g1")
    # indefinite hessian at the far corner: eigenvalues straddle zero
    h = g.hessian([1.0, 1.0])
    assert np.allclose(h, [[42.0, 4.0], [4.0, -2.0]])
    assert g.laplacian([1.0, 1.0]) == pytest.approx(40.0)
    assert g.mu is None


def test_poly_g2_reference_multiplier():
    g = catalog("poly_g2")
    assert g.reference_multiplier == pytest.approx(1.37)
    assert g.mu == 18.0


def test_catalog_rejects_bad_requests():
    with pytest.raises(ValueError):
        catalog("unknown_target")
    with pytest.raises(ValueError):
        catalog("poly_a", 3)  # two-variable polynomial only


def test_laplacian_batched():
    g = catalog("poly_a")
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    lap = g.laplacian(pts)
    assert lap.shape == (3,)
    assert lap[0] == pytest.approx(40.0)
    assert lap[1] == pytest.approx(44.0)


# ----------------------------------------------------- derivative validation

def test_fd_gradient_matches():
    g = catalog("poly_a")
    x = np.array([0.4, 0.6])
    assert np.allclose(fd_gradient(g, x), g.gradient(x), atol=1e-5)


def test_fd_hessian_matches():
    g = catalog("poly_g1")
    x = np.array([0.5, 0.5])
    h = fd_hessian(g, x)
    assert np.allclose(h, g.hessian(x), atol=1e-4)
    assert np.allclose(h, h.T)


def test_fd_near_boundary_raises():
    g = catalog("sq_norm")
    with pytest.raises(ValueError):
        fd_hessian(g, np.array([1.0, 0.5]))


def test_check_target_clean_catalog():
    for name in ("sq_norm", "poly_a", "poly_g1", "poly_g2"):
        assert check_target(catalog(name)) == []


def test_check_target_flags_wrong_mu():
    base = catalog("sq_norm")
    bad = TargetFunction(
        name="sq_norm_bad_mu", n=2, domain=base.domain,
        value_fn=base.value_fn, gradient_fn=base.gradient_fn,
        hessian_fn=base.hessian_fn, third_bound=0.0, mu=3.0,
    )
    assert any("mu" in v for v in check_target(bad))


def test_check_target_flags_wrong_gradient():
    base = catalog("sq_norm")
    bad = TargetFunction(
        name="sq_norm_bad_grad", n=2, domain=base.domain,
        value_fn=base.value_fn, gradient_fn=lambda x: 3.0 * np.asarray(x, dtype=float),
        hessian_fn=base.hessian_fn, third_bound=0.0, mu=2.0,
    )
    assert any("gradient" in v for v in check_target(bad))
