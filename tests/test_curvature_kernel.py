"""Frozen floor values and the batched curvature scan against the scalar path.

The frozen values were recorded from the per-pair scan (one min_curvature call
per segment pair); the batched kernel must reproduce them bit for bit.
"""

import hashlib

import numpy as np
import pytest

from expressivity_auditor import (
    BoundConfig,
    catalog,
    curvature_lower_bound,
    depth_scaled_lower_bound,
    min_curvature,
)
from expressivity_auditor import bounds
from expressivity_auditor.cli import main
from expressivity_auditor.search import golden_min, golden_min_batch
from expressivity_auditor.targets import TargetFunction, unit_box


def quartic_bowl() -> TargetFunction:
    """(u^4 + v^4)/12 + |x|^2/2 + x1*x2/4 with u = x1 - 0.4, v = x2 - 0.6.

    Its segment curvature has interior minima, so golden refinement runs.
    """

    def value(x):
        u, v = x[..., 0] - 0.4, x[..., 1] - 0.6
        return (u**4 + v**4) / 12 + (x[..., 0] ** 2 + x[..., 1] ** 2) / 2 + x[..., 0] * x[..., 1] / 4

    def gradient(x):
        u, v = x[..., 0] - 0.4, x[..., 1] - 0.6
        g = np.empty(x.shape)
        g[..., 0] = u**3 / 3 + x[..., 0] + x[..., 1] / 4
        g[..., 1] = v**3 / 3 + x[..., 1] + x[..., 0] / 4
        return g

    def hessian(x):
        u, v = x[..., 0] - 0.4, x[..., 1] - 0.6
        h = np.empty(x.shape[:-1] + (2, 2))
        h[..., 0, 0] = u**2 + 1.0
        h[..., 1, 1] = v**2 + 1.0
        h[..., 0, 1] = h[..., 1, 0] = 0.25
        return h

    return TargetFunction("quartic_bowl", 2, unit_box(2), value, gradient, hessian, third_bound=1.2)


# ------------------------------------------------------------- frozen values

FROZEN_CURVATURE = {
    ("poly_a", None): (1.5612494995995998, 7.286557299205849, [[0.0, 1.0], [1.0, 0.0]]),
    ("poly_g1", None): (0.0, 0.0, [[0.0, 0.0], [0.0, 1.0]]),
    ("sq_norm", 2): (0.5000000000000001, 5.643856189774725, [[0.0, 0.0], [1.0, 1.0]]),
    ("sq_norm", 4): (0.7071067811865476, 6.143856189774725,
                     [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]),
}


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("key", list(FROZEN_CURVATURE), ids=lambda k: f"{k[0]}({k[1]})")
def test_curvature_lower_bound_frozen(key, seed):
    value, floor, pair = FROZEN_CURVATURE[key]
    res = curvature_lower_bound(catalog(*key), BoundConfig(seed=seed))
    assert repr(res.value) == repr(value)
    assert repr(res.hidden_units_lb) == repr(floor)
    assert [p.tolist() for p in res.best_pair] == pair


def test_curvature_lower_bound_random_pairs_only_frozen():
    cfg = BoundConfig(seed=7, corner_pairs=False, pair_samples=32, alpha_grid=65)
    res = curvature_lower_bound(catalog("poly_a"), cfg)
    assert repr(res.value) == "1.5612494995995998"
    assert [p.tolist() for p in res.best_pair] == [[0.0, 1.0], [1.0, 0.0]]


def test_depth_scaled_lower_bound_frozen():
    assert repr(depth_scaled_lower_bound(catalog("sq_norm", 2), 3, 1e-4)) == "3.481191625209585"


# (x, y, value, minimizing_alpha, gamma_at_min) on the quartic bowl
FROZEN_SEGMENTS = [
    ([0.4874032925129972, 0.17924326731342033], [0.9106144830799372, 0.991956482930152],
     0.8864828596572092, 0.38685210987475205, 0.7858518604660232),
    ([0.13883880366440415, 0.183088894849311], [0.9550300304094317, 0.6157505767143332],
     0.8829398041697796, 0.4442566073049458, 0.7795826977873688),
    ([0.25446666393790685, 0.7872294855486395], [0.7145857007547555, 0.9318846033564707],
     0.8796747385672884, 0.1925410952198119, 0.7738276456734272),
    ([0.33492921614888915, 0.672943783357508], [0.11283414398568925, 0.0035654724605452826],
     0.8680857853910334, 0.06993782098972923, 0.7535729307979673),
]


@pytest.mark.parametrize("x, y, value, alpha, gamma", FROZEN_SEGMENTS)
def test_min_curvature_frozen(x, y, value, alpha, gamma):
    sc = min_curvature(quartic_bowl(), x, y)
    assert (sc.value, sc.minimizing_alpha, sc.gamma_at_min, sc.sign_at_min) == (value, alpha, gamma, 1)


@pytest.mark.parametrize("argv, digest", [
    (["--target", "poly_a"], "6fe0a8a2f9529dc8df4a4d451adc51c0"),
    (["--target", "sq_norm(4)"], "8fdc1b3827025fa4a6e546cf5693da3c"),
    (["--target", "sq_norm", "--theorem", "cor2", "--depth", "3"], "d69086dda2bde2e5c425bfd0978f5ef4"),
])
def test_lower_bound_json_bytes_frozen(capsys, argv, digest):
    assert main(["lower-bound", *argv, "--json"]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest


# ------------------------------------------- batched kernel vs scalar reference
# Polynomial targets only: numpy's SIMD sin/exp may differ by one ulp between
# array and scalar calls, which would break bit equality for reasons outside
# the kernel.

KERNEL_TARGETS = {
    "poly_a": lambda: catalog("poly_a"),
    "poly_g1": lambda: catalog("poly_g1"),
    "sq_norm": lambda: catalog("sq_norm"),
    "sq_norm(3)": lambda: catalog("sq_norm", 3),
    "quartic_bowl": quartic_bowl,
}


@pytest.mark.parametrize("alpha_grid", [17, 1025])
@pytest.mark.parametrize("name", list(KERNEL_TARGETS))
def test_segment_curvatures_match_min_curvature(name, alpha_grid):
    g = KERNEL_TARGETS[name]()
    cfg = BoundConfig(alpha_grid=alpha_grid)
    rng = np.random.default_rng(alpha_grid)
    X, Y = g.domain.sample(rng, 60), g.domain.sample(rng, 60)
    value, alpha, gamma, sign = bounds._segment_curvatures(g, X, Y, cfg)
    for i in range(60):
        sc = min_curvature(g, X[i], Y[i], cfg)
        assert (value[i], alpha[i], gamma[i], int(sign[i])) == (
            sc.value, sc.minimizing_alpha, sc.gamma_at_min, sc.sign_at_min)


def test_segment_curvatures_batch_cap_keeps_bits(monkeypatch):
    # At a cap of 50 points, 120 segments of 17 alphas go through the grid
    # 2 segments at a time and through refinement in splits of 50.
    g = quartic_bowl()
    cfg = BoundConfig(alpha_grid=17)
    rng = np.random.default_rng(5)
    X, Y = g.domain.sample(rng, 120), g.domain.sample(rng, 120)
    whole = bounds._segment_curvatures(g, X, Y, cfg)
    monkeypatch.setattr(bounds, "HESSIAN_BATCH_POINTS", 50)
    for a, b in zip(whole, bounds._segment_curvatures(g, X, Y, cfg)):
        assert np.array_equal(a, b)


def _bracket_cases():
    # (lo, hi, fn parameter m) for f(a) = (a - m)^2 * (1 + a^2 / 4)
    return [
        (0.0, 1.0, 0.3),      # interior minimum
        (0.2, 0.2, 0.5),      # empty bracket, lo == hi
        (0.0, 1.0, -2.0),     # minimum on the left end
        (0.0, 1.0, 3.0),      # minimum on the right end
        (-1.0, 2.0, 0.5),
        (0.49, 0.51, 0.5),
        (0.0, 1.0, 0.5),      # symmetric bracket
        (5.0, 5.0, 5.0),      # empty bracket on the minimum
    ]


@pytest.mark.parametrize("iters", [1, 7, 40])
def test_golden_min_batch_matches_golden_min(iters):
    lo, hi, m = (np.array(c) for c in zip(*_bracket_cases()))
    xs, fs = golden_min_batch(lambda a: (a - m) ** 2 * (1 + a**2 / 4), lo, hi, iters)
    for i in range(lo.size):
        x, f = golden_min(lambda a: (a - m[i]) ** 2 * (1 + a**2 / 4), lo[i], hi[i], iters)
        assert (xs[i], fs[i]) == (x, f)


def test_golden_min_batch_tie_rules():
    # A flat function ties everywhere: strict < keeps lo, like golden_min.
    lo, hi = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 4.0])
    xs, fs = golden_min_batch(lambda a: np.zeros_like(a), lo, hi)
    assert xs.tolist() == [golden_min(lambda a: 0.0, a, b)[0] for a, b in zip(lo, hi)]
    assert xs.tolist() == lo.tolist() and fs.tolist() == [0.0, 0.0, 0.0]


def test_golden_min_batch_rejects_reversed_bracket():
    with pytest.raises(ValueError, match="empty bracket"):
        golden_min_batch(lambda a: a, np.array([0.0, 1.0]), np.array([1.0, 0.5]))
