import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expressivity_auditor.linalg import eig2
from expressivity_auditor.report import (
    AuditReport,
    estimate_report,
    lower_audit,
    upper_audit,
)
from expressivity_auditor.search import coordinate_ascent, golden_max, golden_min


# ------------------------------------------------------------------- reports

def test_upper_audit_semantics():
    assert upper_audit("k", 1.0, 2.0).verdict == "pass"
    assert upper_audit("k", 3.0, 2.0).verdict == "fail"
    assert upper_audit("k", 2.05, 2.0, tol=0.1).verdict == "pass"
    rep = upper_audit("k", 1.0, 2.0)
    assert rep.margin == 1.0


def test_lower_audit_semantics():
    assert lower_audit("k", 2.0, 1.0).verdict == "pass"
    assert lower_audit("k", 0.5, 1.0).verdict == "fail"
    rep = lower_audit("k", 2.0, 1.0)
    assert rep.margin == 1.0


def test_estimate_report():
    rep = estimate_report("search", 1.5, parameters={"grid": 65})
    assert rep.verdict == "estimate"
    assert rep.measured == rep.bound == 1.5
    assert rep.margin == 0.0


def test_report_to_dict_json_safe():
    from fractions import Fraction

    rep = AuditReport(
        kind="k",
        parameters={"omega": Fraction(8, 3), "point": np.array([1.0, 2.0]),
                    "count": np.int64(3)},
        measured=1.0, bound=2.0, margin=1.0, verdict="pass",
    )
    doc = rep.to_dict()
    json.dumps(doc)  # must not raise
    assert doc["parameters"]["omega"] == "8/3"
    assert doc["parameters"]["point"] == [1.0, 2.0]
    assert doc["parameters"]["count"] == 3


# --------------------------------------------------------------- eigenvalues

def test_eig2_against_numpy():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, c = rng.normal(size=3) * 10
        lo, hi = eig2(a, b, c)
        want = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
        assert np.allclose([lo, hi], want, atol=1e-9)


def test_eig2_array_arguments():
    h11 = np.array([2.0, 1.0])
    h12 = np.array([0.0, 0.0])
    h22 = np.array([2.0, 3.0])
    lo, hi = eig2(h11, h12, h22)
    assert np.allclose(lo, [2.0, 1.0])
    assert np.allclose(hi, [2.0, 3.0])


# -------------------------------------------------------------------- search

def test_golden_min_quadratic():
    x, f = golden_min(lambda v: (v - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert f == pytest.approx(0.0, abs=1e-13)


def test_golden_min_endpoint():
    # decreasing function: the minimum sits on the bracket edge
    x, f = golden_min(lambda v: -v, 0.0, 1.0)
    assert x == 1.0
    assert f == -1.0


def test_golden_max():
    x, f = golden_max(lambda v: -(v - 0.7) ** 2 + 2.0, 0.0, 1.0)
    assert x == pytest.approx(0.7, abs=1e-7)
    assert f == pytest.approx(2.0, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.5, 3.0))
def test_golden_min_locates_vee(c, scale):
    fn = lambda v: scale * abs(v - c)
    x, f = golden_min(fn, 0.0, 1.0)
    assert abs(x - c) <= 1e-6
    assert f == fn(x)


def test_coordinate_ascent_improves():
    fn = lambda p: -((p[0] - 0.2) ** 2 + (p[1] - 0.8) ** 2)
    x0 = np.array([0.5, 0.5])
    x, f = coordinate_ascent(fn, x0, [0.0, 0.0], [1.0, 1.0])
    assert f >= fn(x0)
    assert np.allclose(x, [0.2, 0.8], atol=1e-6)


def test_coordinate_ascent_never_worse():
    # flat-ish ridge with noise-free plateau: result is at least the start
    fn = lambda p: float(np.min(p))
    x0 = np.array([0.9, 0.1, 0.4])
    _, f = coordinate_ascent(fn, x0, np.zeros(3), np.ones(3), passes=1, iters=5)
    assert f >= fn(x0)
