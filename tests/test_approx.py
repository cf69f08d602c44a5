import math
import tracemalloc

import numpy as np
import pytest

from expressivity_auditor import (
    PwlFunction1D,
    Sampler,
    Segment,
    catalog,
    curvature_breakpoint_audit,
    laplacian_lower_bound,
    random_network,
    sup_error_on_segment,
    swap_audit,
    uniform_interpolant_1d,
)
from expressivity_auditor import approx
from expressivity_auditor.errors import PreconditionError, UnsupportedActivationError

SEG_1D = Segment([0.0], [1.0])


# -------------------------------------------------------------- interpolant

def test_interpolant_error_quarters_with_s():
    g = catalog("sq_norm", 1)
    for s in (1, 2, 4, 8, 16):
        f, achieved = uniform_interpolant_1d(g, SEG_1D, s)
        assert f.n_breakpoints == s - 1
        assert achieved == pytest.approx(1.0 / (8.0 * s * s), rel=1e-6)
        assert sup_error_on_segment(f, g, SEG_1D) == pytest.approx(achieved, rel=1e-9)


def test_interpolant_recentering_halves_chord_error():
    # plain chord interpolation of x^2 errs by 1/(4 s^2); recentred by half
    g = catalog("sq_norm", 1)
    s = 4
    knots = np.linspace(0.0, 1.0, s + 1)
    chord = PwlFunction1D.from_knots(knots, g.value(knots[:, None]))
    chord_err = sup_error_on_segment(chord, g, SEG_1D)
    _, achieved = uniform_interpolant_1d(g, SEG_1D, s)
    assert chord_err == pytest.approx(1.0 / (4.0 * s * s), rel=1e-6)
    assert achieved == pytest.approx(chord_err / 2.0, rel=1e-6)


def test_interpolant_validation():
    g = catalog("sq_norm", 1)
    with pytest.raises(ValueError):
        uniform_interpolant_1d(g, SEG_1D, 0)


# ------------------------------------------------------------- floor audits

def test_curvature_floor_equality_case():
    # for x^2 on [0,1] the floor is tight: s-1 breakpoints vs bound s-1
    g = catalog("sq_norm", 1)
    for s in (2, 4, 8, 16):
        f, achieved = uniform_interpolant_1d(g, SEG_1D, s)
        rep = curvature_breakpoint_audit(g, SEG_1D, f, achieved)
        assert rep.verdict == "pass"
        assert rep.measured == s - 1
        assert rep.bound == pytest.approx(s - 1, rel=1e-6)


def test_curvature_floor_indefinite_target_trivial():
    g = catalog("poly_g1")
    seg = Segment([0.0, 0.0], [1.0, 1.0])
    f, achieved = uniform_interpolant_1d(g, seg, 6)
    rep = curvature_breakpoint_audit(g, seg, f, achieved)
    assert rep.verdict == "pass"
    assert rep.bound == -1.0  # clamped curvature vanishes along the segment


def test_curvature_floor_rejects_busted_budget():
    g = catalog("sq_norm", 1)
    f, achieved = uniform_interpolant_1d(g, SEG_1D, 4)
    with pytest.raises(PreconditionError):
        curvature_breakpoint_audit(g, SEG_1D, f, achieved / 2.0)


def test_laplacian_floor_equality_case():
    # for x^2 on [0,1] the Laplacian floor is tight too: bound s-1 at the
    # measured error of the s-piece interpolant, which has s-1 breakpoints
    g = catalog("sq_norm", 1)
    for s in (2, 4, 8):
        f, _ = uniform_interpolant_1d(g, SEG_1D, s)
        e = sup_error_on_segment(f, g, SEG_1D)
        floor = laplacian_lower_bound(g, e, 2).multiplier / math.sqrt(e) - 1.0
        assert f.n_breakpoints == s - 1
        assert floor == pytest.approx(s - 1, rel=1e-6)


def test_laplacian_floor_poly_diagonal():
    g = catalog("poly_a")
    seg = Segment([0.0, 0.0], [1.0, 1.0])
    for s in (4, 8, 16):
        f, _ = uniform_interpolant_1d(g, seg, s)
        e = sup_error_on_segment(f, g, seg)
        floor = laplacian_lower_bound(g, e, 2).multiplier / math.sqrt(e) - 1.0
        assert f.n_breakpoints == s - 1
        assert floor < f.n_breakpoints


# --------------------------------------------------------------- swap audit

def test_swap_identical_activations(tent2_net):
    audit = swap_audit(tent2_net, "relu", "relu", A=4.0, sampler=Sampler(samples=2000))
    assert audit.empirical_sup == 0.0
    assert audit.gap == 0.0
    assert audit.bound == 0.0
    assert audit.margin == 0.0
    assert audit.lipschitz == 1.0


def test_swap_relu_vs_leaky(tent2_net):
    audit = swap_audit(tent2_net, "relu", "leaky-relu(0.01)", A=4.0,
                       sampler=Sampler(samples=5000, seed=3))
    assert audit.margin >= 0.0
    assert audit.bound >= audit.empirical_sup
    assert audit.gap > 0.0


def test_swap_weight_range_enforced(tent2_net):
    with pytest.raises(PreconditionError) as err:
        swap_audit(tent2_net, "relu", "relu", A=1.0)
    assert "->" in str(err.value)


def test_swap_needs_lipschitz_baseline(single_relu_net):
    with pytest.raises(UnsupportedActivationError):
        swap_audit(single_relu_net, "step", "relu", A=2.0,
                   sampler=Sampler(samples=100))


@pytest.mark.parametrize("seed,act,pair", [
    (11, "sigmoid", ("sigmoid", "sigmoid-q(16)")),
    (12, "relu", ("relu", "leaky-relu(0.01)")),
    (13, "sigmoid", ("sigmoid", "sigmoid-q(8)")),
])
def test_swap_audit_block_invariant(monkeypatch, seed, act, pair):
    # every operation is elementwise over the points, so the block size must
    # not move a bit; 1000 samples are not a multiple of 7
    net = random_network(2, 3, max_width=5, skip_prob=0.5, activation=act, seed=seed)
    assert any(e.src == "x1" and not e.dst.startswith("u1_") for e in net.edges)  # a skip edge
    sampler = Sampler(samples=1000, seed=seed)
    monkeypatch.setattr(approx, "SWAP_CHUNK", 7)
    blocked = swap_audit(net, *pair, A=1.0, sampler=sampler)
    monkeypatch.setattr(approx, "SWAP_CHUNK", 1000)
    whole = swap_audit(net, *pair, A=1.0, sampler=sampler)
    assert repr(blocked) == repr(whole)


def test_swap_audit_memory_bounded():
    # the criterion 6 scenario; holding every unit's values for all 1e5
    # points of both networks takes about 310 MiB
    net = random_network(2, 5, widths=(20,) * 5, weight_bound=1.0, activation="sigmoid", seed=1)
    tracemalloc.start()
    try:
        swap_audit(net, "sigmoid", "sigmoid-q(32)", A=1.0, sampler=Sampler(samples=100000, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
