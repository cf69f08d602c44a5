"""golden_min and coordinate_ascent against the one-probe-per-call reference.

reference_search.py holds the helpers as they were before golden_min took a
decision tree of probes per fn call and coordinate_ascent stopped after a pass
that moved nothing. Every result must match it bit for bit, and every probe
the reference evaluates must be among the probes evaluated now.
"""

import math
import struct

import numpy as np
import pytest

import reference_search as ref
from expressivity_auditor.search import COORDINATE_PASSES, coordinate_ascent, golden_min


def bits(v):
    return struct.pack("<d", float(v))


def bowl(m):
    # (a - m)^2 * (1 + a^2 / 4) with products only, so that scalar and array
    # evaluation round alike
    return lambda a: (a - m) * (a - m) * (1.0 + a * a / 4.0)


GOLDEN_CASES = {
    "interior": (0.0, 1.0, bowl(0.3)),
    "left end": (0.0, 1.0, bowl(-2.0)),
    "right end": (0.0, 1.0, bowl(3.0)),
    "wide bracket": (-1.0, 2.0, bowl(0.5)),
    "narrow bracket": (0.49, 0.51, bowl(0.5)),
    "flat ties": (0.0, 1.0, lambda a: a * 0.0),
    "step ties": (0.0, 1.0, lambda a: (a > 0.6) * 1.0),
    "vee": (0.0, 1.0, lambda a: 2.5 * abs(a - 0.37)),
    "zero width": (0.2, 0.2, bowl(0.5)),
    "zero width on the minimum": (5.0, 5.0, bowl(5.0)),
    "nan everywhere": (0.0, 1.0, lambda a: a * math.nan),
    "nan on the right half": (0.0, 1.0, lambda a: np.where(a > 0.5, math.nan, bowl(0.3)(a))),
}


def run_reference(f, lo, hi, iters):
    probes = []

    def fn(v):
        probes.append(v)
        return f(v)

    x, fx = ref.golden_min(fn, lo, hi, iters)
    return (bits(x), bits(fx)), [bits(v) for v in probes]


def run_tree(f, lo, hi, iters, lookahead):
    calls = []

    def fn(a):
        calls.append(a.tolist())
        return f(a)

    x, fx = golden_min(fn, lo, hi, iters, lookahead)
    assert type(x) is float and type(fx) is float
    return (bits(x), bits(fx)), calls


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_min_matches_reference(case):
    lo, hi, f = GOLDEN_CASES[case]
    for iters in range(0, 42):
        want, ref_probes = run_reference(f, lo, hi, iters)
        for lookahead in range(1, 7):
            got, calls = run_tree(f, lo, hi, iters, lookahead)
            assert got == want, (iters, lookahead)
            probes = [bits(v) for call in calls for v in call]
            assert set(ref_probes) <= set(probes), (iters, lookahead)
            if lo == hi:
                assert len(calls) == 1 and len(probes) == 2
                continue
            steps = max(1, iters)
            sizes = [2 ** min(lookahead, steps - s) - 1 for s in range(0, steps, lookahead)]
            assert [len(call) for call in calls] == [4, *sizes]
            if lookahead == 1:
                assert probes == ref_probes


def test_golden_min_validation():
    with pytest.raises(ValueError, match="empty bracket"):
        golden_min(bowl(0.5), 1.0, 0.0)
    with pytest.raises(ValueError, match="lookahead"):
        golden_min(bowl(0.5), 0.0, 1.0, lookahead=0)


def counted(f):
    calls = []

    def fn(p):
        calls.append(p.copy())
        return f(p)

    return fn, calls


ASCENT_CASES = {
    # pass 1 improves, so a second pass runs
    "bowl": (lambda p: -((p[0] - 0.2) ** 2 + (p[1] - 0.8) ** 2), [0.5, 0.5], 0.0, 1.0),
    "coupled": (lambda p: -((p[0] - p[1]) ** 2 + 0.1 * (p[0] - 0.7) ** 2), [0.1, 0.9], 0.0, 1.0),
    "ridge": (lambda p: float(np.min(p)), [0.9, 0.1, 0.4], 0.0, 1.0),
    # started on the maximum: pass 1 moves nothing and is the only pass
    "corner": (lambda p: float(p[0] + p[1]), [1.0, 1.0], 0.0, 1.0),
    "flat": (lambda p: 0.0, [0.3, 0.6], [0.0, -1.0], [1.0, 2.0]),
}


@pytest.mark.parametrize("case", list(ASCENT_CASES))
@pytest.mark.parametrize("iters", [1, 5, 20, 25])
def test_coordinate_ascent_matches_reference(case, iters):
    f, x0, lo, hi = ASCENT_CASES[case]
    fn_ref, ref_calls = counted(f)
    want_x, want_f = ref.coordinate_ascent(fn_ref, x0, lo, hi, iters)
    fn, calls = counted(f)
    got_x, got_f = coordinate_ascent(fn, x0, lo, hi, iters)
    assert got_x.tobytes() == want_x.tobytes()
    assert bits(got_f) == bits(want_f)
    per_pass = len(x0) * (4 + iters)
    assert len(ref_calls) == 1 + COORDINATE_PASSES * per_pass
    if case in ("corner", "flat"):
        assert len(calls) == 1 + per_pass
        assert all(a.tobytes() == b.tobytes() for a, b in zip(calls, ref_calls))
    else:
        assert len(calls) == len(ref_calls)
