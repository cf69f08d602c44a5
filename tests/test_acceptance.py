"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line. Criteria 1 and 2 and the golden
CSV bytes share one 1000-trial campaign (module-scoped fixture) so the suite
stays fast.
"""

import hashlib
import io
import math
import time

import numpy as np
import pytest

from expressivity_auditor import (
    CampaignSpec,
    Sampler,
    Segment,
    activation_swap_bound,
    catalog,
    curvature_breakpoint_audit,
    curvature_lower_bound,
    depth_bound_vs_state_bound,
    forward,
    laplacian_lower_bound,
    quantization_gap,
    random_network,
    restrict,
    run_campaign,
    strong_convexity_lower_bound,
    swap_audit,
    uniform_interpolant_1d,
    violations,
    write_csv,
)
from conftest import build_tent2

SEED = 42
TRIALS = 1000
# MD5 of the `verify --trials 1000 --seed 42` CSV
GOLDEN_CSV_MD5 = "a3ce25a54895f1548128869b5feeae49"


@pytest.fixture(scope="module")
def campaign():
    start = time.monotonic()
    results = run_campaign(CampaignSpec(), TRIALS, seed=SEED)
    elapsed = time.monotonic() - start
    return results, elapsed


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'pass' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_counting_sandwich(campaign):
    results, elapsed = campaign
    bad = [
        r for r in results
        if not (r.breakpoints <= r.transitions_all and r.transitions_all <= r.bound)
    ]
    ok = len(results) == TRIALS and not bad and not violations(results) and elapsed < 120.0
    report(1, ok,
           f"{TRIALS} trials, B<=N<=bound violations={len(bad)}, "
           f"runtime {elapsed:.1f}s (limit 120s)")


def test_criterion_2_per_instance_audits(campaign):
    results, _ = campaign
    failed = [r.trial for r in results if not r.overall]
    grid_ok = True
    for t in range(1, 6):
        for H in range(1, 31):
            for d in range(1, H + 1):
                if depth_bound_vs_state_bound(t, d, H).verdict != "pass":
                    grid_ok = False
    ok = not failed and grid_ok
    report(2, ok,
           f"audit failures in {TRIALS} trials: {len(failed)}; "
           f"depth-vs-state grid t<=5, H<=30, d<=H exact-rational: "
           f"{'clean' if grid_ok else 'violated'}")


def test_golden_campaign_csv_bytes(campaign):
    results, _ = campaign
    buf = io.StringIO()
    write_csv(results, buf)
    digest = hashlib.md5(buf.getvalue().encode()).hexdigest()
    report("golden CSV", digest == GOLDEN_CSV_MD5, f"{TRIALS}-trial CSV md5 {digest}")


def test_criterion_3_quadratic_tightness():
    g = catalog("sq_norm", 1)
    seg = Segment([0.0], [1.0])
    worst = 0.0
    ok = True
    for s in (2, 4, 8, 16):
        f, achieved = uniform_interpolant_1d(g, seg, s)
        rep = curvature_breakpoint_audit(g, seg, f, achieved)
        right_side = rep.bound + 1.0  # ||x-y|| * curvature / (4 sqrt(eps))
        rel = abs(right_side - s) / s
        worst = max(worst, rel)
        if rel > 1e-3 or rep.verdict != "pass" or f.n_breakpoints + 1 != s:
            ok = False
    report(3, ok, f"s in (2,4,8,16): right side matches s, worst rel err {worst:.2e} "
                  f"(tol 1e-3), floors pass with equality")


def test_criterion_4_worked_constants():
    lap_a = laplacian_lower_bound(catalog("poly_a"), 1e-4, 2).multiplier
    lap_g1 = laplacian_lower_bound(catalog("poly_g1"), 1e-4, 2).multiplier
    curv_g1 = curvature_lower_bound(catalog("poly_g1")).value
    formula_ok = True
    for k, (n, eps) in enumerate([(1, 1e-4), (2, 1e-4), (3, 1e-3), (4, 1e-5),
                                  (5, 1e-2), (8, 1e-6), (2, 1e-8), (16, 1e-3),
                                  (10, 1e-4), (7, 1e-7)]):
        g = catalog("sq_norm", n)
        got = strong_convexity_lower_bound(g.mu, g.domain.diameter, eps, 2)
        want = 0.5 * math.log2(n / (8.0 * eps))
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            formula_ok = False
    ok = (abs(lap_a - 0.82) <= 0.005 and abs(lap_g1 - 0.737) <= 0.005
          and curv_g1 == 0.0 and formula_ok)
    report(4, ok,
           f"laplacian multipliers {lap_a:.4f} (0.82+-0.005), {lap_g1:.4f} "
           f"(0.737+-0.005); convexity floor formula exact on 10 (n,eps) pairs; "
           f"indefinite curvature floor {curv_g1}")


def test_criterion_5_independent_curvature_oracle():
    g_val = curvature_lower_bound(catalog("poly_g2")).value

    # oracle: hand-rolled hessian of 10*x1^2 + 10*x2^2 + x1^2*x2^2, a 65-point
    # corner+grid pair set (8x8 lattice plus the centre), 4097-point alpha scan
    axis = np.linspace(0.0, 1.0, 8)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    points = np.concatenate([points, [[0.5, 0.5]]])
    assert len(points) == 65
    alphas = np.linspace(0.0, 1.0, 4097)

    def psi_grid(p, q):
        seg = p + alphas[:, None] * (q - p)
        x1, x2 = seg[:, 0], seg[:, 1]
        h11 = 20.0 + 2.0 * x2 * x2
        h22 = 20.0 + 2.0 * x1 * x1
        h12 = 4.0 * x1 * x2
        mean = 0.5 * (h11 + h22)
        radius = np.hypot(0.5 * (h11 - h22), h12)
        lo, hi = mean - radius, mean + radius
        gamma = np.minimum(np.abs(lo), np.abs(hi))
        clamped = np.maximum(0.0, gamma * np.sign(lo * hi))
        return math.sqrt(float(clamped.min()))

    oracle = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist = float(np.linalg.norm(points[j] - points[i]))
            if dist < 1e-12:
                continue
            oracle = max(oracle, dist * psi_grid(points[i], points[j]) / 4.0)

    rel = abs(g_val - oracle) / oracle
    ok = rel <= 0.01
    report(5, ok,
           f"search {g_val:.6f} vs 65x65-pair oracle {oracle:.6f} "
           f"(rel diff {rel:.2e}, tol 1%); reference figure 1.37 printed, "
           f"not asserted")


def test_criterion_6_swap_scenario():
    net = random_network(2, 5, widths=(20, 20, 20, 20, 20), weight_bound=1.0,
                         activation="sigmoid", seed=1)
    audit = swap_audit(net, "sigmoid", "sigmoid-q(32)", A=1.0,
                       sampler=Sampler(samples=100000, seed=0))
    nominal = activation_swap_bound(0.25, 1.0, 20, 5, quantization_gap(32))
    scenario_ok = (audit.bound <= 1e-4 and audit.bound >= audit.empirical_sup
                   and nominal <= 1e-4)

    rng = np.random.default_rng(6)
    worst_margin = math.inf
    for i in range(200):
        small = random_network(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                               max_width=4, skip_prob=0.3, weight_bound=1.0,
                               activation="sigmoid" if i % 2 else "relu",
                               seed=int(rng.integers(2**31)))
        if i % 2:
            pair = ("sigmoid", "sigmoid-q(16)")
        else:
            pair = ("relu", "leaky-relu(0.01)")
        a = swap_audit(small, pair[0], pair[1], A=1.0,
                       sampler=Sampler(samples=2000, seed=i))
        worst_margin = min(worst_margin, a.margin)
    ok = scenario_ok and worst_margin >= 0.0
    report(6, ok,
           f"100-unit depth-5 scenario: bound {audit.bound:.3e} <= 1e-4, "
           f"empirical {audit.empirical_sup:.3e}; 200 random audits, "
           f"worst margin {worst_margin:.3e} >= 0")


def test_criterion_7_restriction_matches_forward():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        net = random_network(int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                             max_width=5, skip_prob=0.3,
                             activation="hard-tanh" if i % 2 else "relu",
                             seed=int(rng.integers(2**31)))
        x = rng.random(net.n_inputs)
        y = rng.random(net.n_inputs)
        while np.linalg.norm(y - x) < 1e-6:
            y = rng.random(net.n_inputs)
        r = restrict(net, Segment(x, y))
        alphas = rng.random(64)
        pts = x + alphas[:, None] * (y - x)
        diff = np.max(np.abs(r.output.eval(alphas) - forward(net, pts).output))
        worst = max(worst, float(diff))

    tent = restrict(build_tent2(), Segment([0.0], [1.0]))
    tent_ok = np.array_equal(tent.output.breakpoints, np.array([0.25, 0.5, 0.75]))
    ok = worst <= 1e-8 and tent_ok
    report(7, ok,
           f"100 nets x 64 alphas, worst |restrict - forward| = {worst:.2e} "
           f"(tol 1e-8); tent-of-tent breakpoints exactly (0.25, 0.5, 0.75): "
           f"{tent_ok}")
