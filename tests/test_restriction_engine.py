"""The array restriction engine against the scalar reference, byte for byte.

`reference_restriction` is the scalar engine the array one replaced. These
tests compare the two on seeded random networks over every builtin
piecewise-linear activation and on engineered coincidences, and freeze CLI
output recorded with the scalar engine.
"""

import hashlib

import numpy as np
import pytest

import reference_restriction as ref
from expressivity_auditor import (
    CampaignSpec,
    Edge,
    Network,
    PwlActivation,
    Segment,
    Unit,
    builtin_activation,
    depth_profile,
    hidden_ancestors,
    pwl,
    random_network,
    restrict,
    run_trial,
    save_network,
    transitions,
)
from expressivity_auditor import netgraph
from expressivity_auditor.cli import main
from expressivity_auditor.errors import UnsupportedActivationError
from expressivity_auditor.pwl import COALESCE_TOL, MERGE_RTOL, PwlFunction1D
from expressivity_auditor.restriction import COINCIDENCE_TOL, LineRestriction

PWL_ACTS = ("relu", "hard-tanh", "step", "leaky-relu(0.01)", "identity")
# Four boundaries, jumps at two of them, a flat piece.
CUSTOM = PwlActivation("custom", [-1.0, 0.0, 0.5, 2.0], [0.5, 0.0, 1.0, -1.0, 2.0],
                       [0.0, 1.0, 0.0, 3.0, -4.0])
ALL_ACTS = tuple(builtin_activation(name) for name in PWL_ACTS) + (CUSTOM,)


def fn_bytes(f):
    return tuple(np.asarray(a).dtype.str + a.tobytes().hex() for a in (f.breakpoints, f.slopes, f.intercepts))


def trace_key(trace):
    return [(int(s), float(lo), float(hi)) for s, lo, hi in trace]


def assert_activate_matches(act, f):
    out, trace = pwl.activate(act, f)
    assert fn_bytes(out) == fn_bytes(ref.apply_activation(act, f))
    assert trace_key(trace) == trace_key(ref.state_trace(act, f))
    assert all(type(s) is int and type(lo) is float and type(hi) is float for s, lo, hi in trace)
    assert fn_bytes(pwl.apply_activation(act, f)) == fn_bytes(out)
    assert trace_key(pwl.state_trace(act, f)) == trace_key(trace)


def tent_net(k):
    """tent^k on one input: 2^k - 1 break points, at the dyadics j/2^k."""
    relu = builtin_activation("relu")
    units, edges, prev = [], [], None
    for level in range(1, k + 1):
        a, b = f"a{level}", f"b{level}"
        units += [Unit(a, 0.0, relu), Unit(b, -2.0, relu)]
        if prev is None:
            edges += [Edge("x1", a, 2.0), Edge("x1", b, 4.0)]
        else:
            edges += [Edge(prev[0], a, 2.0), Edge(prev[1], a, -2.0),
                      Edge(prev[0], b, 4.0), Edge(prev[1], b, -4.0)]
        prev = (a, b)
    edges += [Edge(prev[0], "out", 1.0), Edge(prev[1], "out", -1.0)]
    return Network(1, tuple(units), tuple(edges))


def seeded_case(act_name, i):
    rng = np.random.default_rng([17, PWL_ACTS.index(act_name), i])
    n = int(rng.integers(1, 4))
    depth = int(rng.integers(1, 7))
    widths = [int(w) for w in rng.integers(1, 7, size=depth)]
    net = random_network(n, depth, widths=widths, skip_prob=0.3,
                         weight_bound=float(rng.choice([1.0, 3.0])), activation=act_name, seed=rng)
    return net, Segment(rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n))


def unit_sets(net, rng):
    prof = depth_profile(net)
    uids = list(net.unit_map)
    sets = [(u,) for u in uids] + [tuple(layer) for layer in prof.layers] + [tuple(uids)]
    prefix = []
    for layer in prof.layers:
        prefix += layer
        sets.append(tuple(prefix))
    for _ in range(5):
        sets.append(tuple(rng.choice(uids, size=int(rng.integers(1, len(uids) + 1)), replace=False)))
    return sets


# ------------------------------------------------------- whole restrictions

@pytest.mark.parametrize("act_name", PWL_ACTS)
def test_restrict_matches_reference(act_name):
    for i in range(24):
        net, seg = seeded_case(act_name, i)
        new, old = restrict(net, seg), ref.restrict(net, seg)
        assert fn_bytes(new.output) == fn_bytes(old.output)
        for uid in net.unit_map:
            assert fn_bytes(new.pre_activation[uid]) == fn_bytes(old.pre_activation[uid])
            assert fn_bytes(new.unit_output[uid]) == fn_bytes(old.unit_output[uid])
            assert trace_key(new.state_traces[uid]) == trace_key(old.state_traces[uid])
        rng = np.random.default_rng(i)
        for units in unit_sets(net, rng):
            assert transitions(new, units) == ref.transitions(new, units)
            assert hidden_ancestors(net, units) == ref.hidden_ancestors(net, units)


def test_restrict_matches_reference_wide_nets():
    for act_name in ("relu", "hard-tanh", "step"):
        net = random_network(2, 8, widths=[8] * 8, skip_prob=0.1, activation=act_name, seed=7)
        seg = Segment([0.1, 0.2], [0.9, 0.7])
        new, old = restrict(net, seg), ref.restrict(net, seg)
        assert fn_bytes(new.output) == fn_bytes(old.output)
        for uid in net.unit_map:
            assert fn_bytes(new.unit_output[uid]) == fn_bytes(old.unit_output[uid])
            assert trace_key(new.state_traces[uid]) == trace_key(old.state_traces[uid])
        for units in unit_sets(net, np.random.default_rng(3)):
            assert transitions(new, units) == ref.transitions(new, units)


def test_tent_dyadic_breakpoints_exact():
    k = 10
    r = restrict(tent_net(k), Segment([0.0], [1.0]))
    assert np.array_equal(r.output.breakpoints, np.arange(1, 2**k) / 2**k)
    assert transitions(r, tuple(r.net.unit_map)) == 2**k - 1
    old = ref.restrict(tent_net(k), Segment([0.0], [1.0]))
    assert fn_bytes(r.output) == fn_bytes(old.output)


# ------------------------------------------------------- one activation cut

def random_pwl(rng):
    m = int(rng.integers(1, 40))
    bp = np.unique(rng.random(m - 1))
    bp = bp[(bp > 0.0) & (bp < 1.0)]
    slopes = rng.normal(0.0, 4.0, bp.size + 1)
    intercepts = rng.normal(0.0, 2.0, bp.size + 1)
    kind = rng.random(bp.size + 1)
    slopes[kind < 0.15] = 0.0
    slopes[(kind >= 0.15) & (kind < 0.2)] *= 1e-12
    # constants sitting exactly on an activation boundary
    on_edge = kind > 0.9
    slopes[on_edge] = 0.0
    intercepts[on_edge] = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], int(on_edge.sum()))
    if rng.random() < 0.5:  # make it continuous
        for j, b in enumerate(bp):
            intercepts[j + 1] = slopes[j] * b + intercepts[j] - slopes[j + 1] * b
    return PwlFunction1D(bp, slopes, intercepts)


@pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.name)
def test_activate_matches_reference_random(act):
    rng = np.random.default_rng([23, ALL_ACTS.index(act)])
    for _ in range(150):
        assert_activate_matches(act, random_pwl(rng))


def test_crossing_exactly_at_knot():
    # 2a - 1 on [0, 1/2) and a - 1/2 on [1/2, 1]: both reach 0 at the knot
    f = PwlFunction1D([0.5], [2.0, 1.0], [-1.0, -0.5])
    for act in ALL_ACTS:
        assert_activate_matches(act, f)
    out, trace = pwl.activate(builtin_activation("relu"), f)
    assert trace == [(1, 0.0, 0.5), (2, 0.5, 1.0)]
    assert out.n_breakpoints == 1


def test_two_boundaries_give_one_crossing():
    # both hard-tanh boundaries round to the crossing alpha = 1/2
    f = PwlFunction1D.affine(1e17, -0.5e17)
    act = builtin_activation("hard-tanh")
    assert_activate_matches(act, f)
    out, trace = pwl.activate(act, f)
    assert trace == [(1, 0.0, 0.5), (3, 0.5, 1.0)]
    assert out(0.25) == -1.0 and out(0.5) == 1.0


@pytest.mark.parametrize("slope", [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-12, -1e-12])
@pytest.mark.parametrize("intercept", [-1.0, -0.5e-12, -5e-324, 0.0, 0.5, 1.0])
def test_zero_and_tiny_slopes(slope, intercept):
    f = PwlFunction1D([0.25, 0.75], [1.0, slope, -1.0], [0.0, intercept, 1.0])
    # a cell midpoint past 1/2, where a * 0.5 and 0.5 * (lo + hi) underflow
    # differently for subnormal slopes
    g = PwlFunction1D([0.5], [1.0, slope], [-0.5, intercept])
    for act in ALL_ACTS:
        for h in (f, g, PwlFunction1D.affine(slope, intercept)):
            assert_activate_matches(act, h)


def test_sliver_cells_and_breakpoints():
    # a crossing 1e-13 past a knot leaves a sliver cell for normalize to drop
    f = PwlFunction1D([0.5], [1.0, 1.0], [-0.5 - 1e-13, -0.5 - 1e-13])
    for act in ALL_ACTS:
        assert_activate_matches(act, f)
    rng = np.random.default_rng(5)
    t = 0.5 * COALESCE_TOL
    for bp in ([t, 0.5], [COALESCE_TOL, 0.5], [0.5, 0.5 + t], [0.3, 0.3 + t, 0.3 + 2 * t, 0.6], [0.5, 1 - t],
               [t, 2 * t, 0.5, 1 - 2 * t, 1 - t], [0.2, 0.2 + 2 * COALESCE_TOL]):
        for _ in range(20):
            g = PwlFunction1D(bp, rng.normal(size=len(bp) + 1), rng.normal(size=len(bp) + 1))
            assert fn_bytes(pwl.normalize(g)) == fn_bytes(ref.normalize(g))
            for act in ALL_ACTS:
                assert_activate_matches(act, g)
    # seeded fuzz: knots at multiples of t around 0, 1 and interior anchors,
    # with small integer pieces half the time so junction merges meet slivers
    for case in range(500):
        anchors = np.concatenate(([0.0, 1.0], rng.random(2)))
        steps = rng.integers(-4, 5, size=rng.integers(1, 10))
        bp = np.unique(rng.choice(anchors, steps.size) + steps * t)
        bp = bp[(bp > 0.0) & (bp < 1.0)]
        if case % 2:
            sl, ic = rng.integers(-1, 2, size=(2, bp.size + 1)).astype(float)
        else:
            sl, ic = rng.normal(size=(2, bp.size + 1))
        g = PwlFunction1D(bp, sl, ic)
        assert fn_bytes(pwl.normalize(g)) == fn_bytes(ref.normalize(g))


def test_step_jumps_left_closed_right_open():
    step = builtin_activation("step")
    up = PwlFunction1D.affine(2.0, -1.0)  # crosses 0 upward at 1/2
    down = PwlFunction1D.affine(-2.0, 1.0)
    for f in (up, down, PwlFunction1D([0.5], [2.0, -2.0], [-1.0, 1.0])):
        assert_activate_matches(step, f)
    out, trace = pwl.activate(step, up)
    assert trace == [(1, 0.0, 0.5), (2, 0.5, 1.0)]
    assert out.breakpoints.tolist() == [0.5] and out(0.5) == 1.0 and out(0.4999) == 0.0
    out, trace = pwl.activate(step, down)
    # the cell starting at the crossing carries the state of its interior
    assert trace == [(2, 0.0, 0.5), (1, 0.5, 1.0)]
    assert out(0.5) == 0.0 and out(0.4999) == 1.0


def test_activate_rejects_non_pwl():
    f = PwlFunction1D.affine(1.0, 0.0)
    for cut in (pwl.activate, pwl.apply_activation, pwl.state_trace, ref.apply_activation):
        with pytest.raises(UnsupportedActivationError):
            cut(builtin_activation("sigmoid"), f)


def test_transitions_tolerance_edges():
    """Synthetic change points spaced by exactly COINCIDENCE_TOL, so every
    cluster link and every suppression test meets its tolerance edge."""
    relu = builtin_activation("relu")
    net = Network(1, [Unit(u, 0.0, relu) for u in "abcd"], [
        Edge("x1", "a", 1.0), Edge("x1", "d", 1.0), Edge("a", "b", 1.0), Edge("b", "c", 1.0),
        Edge("d", "c", 1.0), Edge("c", "out", 1.0),
    ])
    one = PwlFunction1D.constant(0.0)
    rng = np.random.default_rng(29)
    for _ in range(300):
        points = {}
        for uid in "abcd":
            p = [float(rng.uniform(0.3, 0.7))]
            for _ in range(int(rng.integers(0, 6))):
                p.append(p[-1] + COINCIDENCE_TOL * float(rng.choice([1, 1, 2, 1e5])))
            points[uid] = p
        for uid, src in (("a", "b"), ("b", "c"), ("d", "c"), ("a", "c")):
            for q in rng.choice(points[src], size=2):
                points[uid].append(q + COINCIDENCE_TOL if rng.random() < 0.5 else q - COINCIDENCE_TOL)
        traces = {}
        for uid, p in points.items():
            cuts = [0.0, *sorted(set(p)), 1.0]
            traces[uid] = [(1 + k % 2, lo, hi) for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
        r = LineRestriction(net, Segment([0.0], [1.0]), {}, {}, one, traces)
        for units in ("a", "b", "c", "d", "bd", "cd", "bc", "abcd"):
            assert transitions(r, units) == ref.transitions(r, units)
    # two changes exactly COINCIDENCE_TOL apart form one cluster
    traces = {uid: [(1, 0.0, 1.0)] for uid in "acd"}
    traces["b"] = [(1, 0.0, COINCIDENCE_TOL), (2, COINCIDENCE_TOL, 2 * COINCIDENCE_TOL),
                   (1, 2 * COINCIDENCE_TOL, 1.0)]
    r = LineRestriction(net, Segment([0.0], [1.0]), {}, {}, one, traces)
    assert transitions(r, "b") == ref.transitions(r, "b") == 1


# ------------------------------------------------------------- normalize

def chain(slopes, bp=(0.25, 0.5, 0.75), jumps=None):
    """Continuous (or jumping by `jumps`) function with the given slopes."""
    slopes = np.asarray(slopes, dtype=float)
    intercepts = np.zeros_like(slopes)
    for j, b in enumerate(bp):
        jump = 0.0 if jumps is None else jumps[j]
        intercepts[j + 1] = slopes[j] * b + intercepts[j] - slopes[j + 1] * b + jump
    return PwlFunction1D(np.asarray(bp), slopes, intercepts)


def test_merge_with_neighbour_but_not_run_head():
    # each junction merges its two sides, but the third piece is too far
    # from the run's first piece, so the second junction stays
    r = MERGE_RTOL
    f = chain([1.0, 1.0 + 0.8 * r, 1.0 + 1.6 * r], bp=(0.3, 0.6))
    g = pwl.normalize(f)
    assert fn_bytes(g) == fn_bytes(ref.normalize(f))
    assert g.breakpoints.tolist() == [0.6]


def test_merge_with_run_head_but_not_neighbour():
    # the second junction fails the adjacent test but merges with the head
    r = MERGE_RTOL
    f = chain([1.0, 1.0 + 0.9 * r, 1.0 - 0.9 * r], bp=(0.3, 0.6))
    g = pwl.normalize(f)
    assert fn_bytes(g) == fn_bytes(ref.normalize(f))
    assert g.n_breakpoints == 0


def test_identical_pieces_after_inexact_merge():
    r = MERGE_RTOL
    f = chain([1.0, 1.0 + 0.8 * r, 1.0 + 0.8 * r, 1.0 + 1.6 * r, 1.0 + 1.6 * r, 3.0],
              bp=(0.1, 0.2, 0.3, 0.4, 0.5))
    assert fn_bytes(pwl.normalize(f)) == fn_bytes(ref.normalize(f))
    g = chain([0.0, 0.0, 0.0, 2.0, 2.0 + r, 2.0], bp=(0.1, 0.2, 0.3, 0.4, 0.5),
              jumps=[0.0, 0.5 * r, 0.0, 0.0, -0.5 * r])
    assert fn_bytes(pwl.normalize(g)) == fn_bytes(ref.normalize(g))


def test_normalize_matches_reference_near_collinear():
    rng = np.random.default_rng(11)
    for _ in range(600):
        m = int(rng.integers(1, 30))
        bp = np.sort(rng.choice(np.arange(1, 1000), m - 1, replace=False)) / 1000.0
        base = rng.normal(size=2) * rng.choice([1.0, 1e3])
        steps = rng.choice([-2, -1, 0, 0, 1, 2], m) * rng.choice([0.3, 0.5, 0.8]) * MERGE_RTOL
        slopes = base[0] * (1.0 + np.cumsum(steps)) if rng.random() < 0.5 else base[0] + steps
        restart = rng.random(m) < 0.1
        slopes[restart] = rng.normal(size=int(restart.sum()))
        jumps = rng.choice([0.0, 0.0, 0.4, -0.4, 1e3], m - 1) * MERGE_RTOL
        f = chain(slopes, bp=bp, jumps=jumps)
        assert fn_bytes(pwl.normalize(f)) == fn_bytes(ref.normalize(f))
        h = [f, f.shifted(base[1])]
        coeffs = rng.normal(size=2)
        assert fn_bytes(pwl.affine_combine(coeffs, h)) == fn_bytes(ref.affine_combine(coeffs, h))


# ------------------------------------------------- affine combine gather

def assert_combine_matches(coeffs, fs, bias=0.0):
    assert fn_bytes(pwl.affine_combine(coeffs, fs, bias)) == fn_bytes(
        ref.affine_combine(coeffs, fs, bias))


def test_combine_many_edges_into_one_cell():
    # With one cell the terms form one column; a pairwise sum of eight or
    # more of them rounds differently from the edge-by-edge sum.
    rng = np.random.default_rng(31)
    for _ in range(200):
        k = int(rng.integers(8, 40))
        fs = [PwlFunction1D.affine(*rng.normal(size=2) * rng.choice([1.0, 1e8, 1e-8], 2))
              for _ in range(k)]
        assert_combine_matches(rng.normal(size=k), fs, float(rng.normal()))


def test_combine_predecessors_without_breakpoints():
    rng = np.random.default_rng(37)
    for _ in range(200):
        fs = [random_pwl(rng) if rng.random() < 0.4 else PwlFunction1D.constant(rng.normal())
              for _ in range(int(rng.integers(1, 12)))]
        assert_combine_matches(rng.normal(size=len(fs)), fs, float(rng.normal()))


def test_combine_coalesced_breakpoints():
    # Chains of breakpoints 0.9 * COALESCE_TOL apart coalesce into one knot,
    # and a long chain puts breakpoints right of its cell's midpoint, some
    # right of every midpoint.
    rng = np.random.default_rng(41)
    t = 0.9 * COALESCE_TOL
    for _ in range(300):
        fs = []
        for _ in range(int(rng.integers(2, 10))):
            anchor = rng.choice([0.25, 0.5, 1.0 - 12 * t, float(rng.random())])
            bp = np.unique(anchor + t * rng.integers(0, 12, size=int(rng.integers(0, 6))))
            bp = bp[(bp > 0.0) & (bp < 1.0)]
            fs.append(PwlFunction1D(bp, rng.normal(size=bp.size + 1), rng.normal(size=bp.size + 1)))
        assert_combine_matches(rng.normal(size=len(fs)), fs, float(rng.normal()))


def test_combine_signed_zero_products():
    neg = PwlFunction1D([0.5], [-1.0, 0.0], [-0.0, -2.0])
    pos = PwlFunction1D([0.25], [1.0, 0.0], [0.0, 3.0])
    flat = PwlFunction1D.constant(-0.0)
    for coeffs in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0], [1.0, -0.0, -0.0]):
        for bias in (0.0, -0.0):
            assert_combine_matches(coeffs, [neg, pos, flat], bias)
    # the first term -0.0 meets the slope accumulator's +0.0
    out = pwl.affine_combine([-0.0], [pos], -0.0)
    assert np.signbit(out.intercepts).all() and not np.signbit(out.slopes).any()


def test_combine_step_jumps():
    step = builtin_activation("step")
    rng = np.random.default_rng(43)
    jumps = 0
    for _ in range(100):
        fs = [pwl.activate(step, random_pwl(rng))[0] for _ in range(int(rng.integers(2, 12)))]
        jumps += sum(int(np.count_nonzero(np.subtract(*f.junction_values()))) for f in fs)
        assert_combine_matches(rng.normal(size=len(fs)), fs, float(rng.normal()))
    assert jumps > 100
    net = random_network(2, 6, widths=[10] * 6, skip_prob=0.5, activation="step", seed=47)
    seg = Segment([-1.0, 0.5], [1.5, -0.5])
    new, old = restrict(net, seg), ref.restrict(net, seg)
    assert fn_bytes(new.output) == fn_bytes(old.output)
    for uid in net.unit_map:
        assert fn_bytes(new.pre_activation[uid]) == fn_bytes(old.pre_activation[uid])
    assert max(len(net.in_edges[uid]) for uid in net.unit_map) >= 8


# -------------------------------------------------------- graph caches

def test_network_validated_once(monkeypatch):
    calls = []
    original = netgraph.validate
    monkeypatch.setattr(netgraph, "validate", lambda net: calls.append(net) or original(net))
    run_trial(CampaignSpec(), 42, 3)
    assert len(calls) == 1
    net, seg = seeded_case("relu", 0)
    restrict(net, seg)
    assert depth_profile(net) is depth_profile(net)
    assert len(calls) == 2


def test_restrict_validates_only_its_inputs(monkeypatch):
    # pieces the engine builds skip the full check; the inputs take it
    calls = []
    original = PwlFunction1D.__post_init__
    monkeypatch.setattr(PwlFunction1D, "__post_init__",
                        lambda f: calls.append(f) or original(f))
    for act_name in PWL_ACTS:
        net, seg = seeded_case(act_name, 5)
        calls.clear()
        restrict(net, seg)
        assert len(calls) == net.n_inputs


def root_nbytes(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


def test_restriction_holds_no_larger_buffers():
    for act_name in ("relu", "hard-tanh", "step"):
        net = random_network(2, 6, widths=[6] * 6, skip_prob=0.3, activation=act_name, seed=53)
        r = restrict(net, Segment([0.1, 0.9], [0.8, 0.05]))
        fns = [r.output, *r.pre_activation.values(), *r.unit_output.values()]
        for f in fns:
            for a in (f.breakpoints, f.slopes, f.intercepts):
                assert root_nbytes(a) == a.nbytes
                assert not a.flags.writeable
    # a sliver dropped without a merge
    f = pwl.normalize(PwlFunction1D([0.5, 0.5 + 0.5 * COALESCE_TOL], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0]))
    assert f.n_breakpoints == 1 and root_nbytes(f.breakpoints) == f.breakpoints.nbytes


def test_hidden_ancestors_needs_valid_network():
    net = Network(1, [Unit("a", 0.0, builtin_activation("relu"))], [Edge("x1", "a", 1.0)])
    with pytest.raises(netgraph.ValidationError):
        hidden_ancestors(net, ["a"])


# --------------------------------------------------- frozen CLI output

def cli_md5(capsys, tmp_path, net, seg_from, seg_to):
    path = tmp_path / "net.json"
    save_network(net, path)
    assert main(["breakpoints", "--net", str(path), "--from", seg_from, "--to", seg_to, "--json"]) == 0
    return hashlib.md5(capsys.readouterr().out.encode()).hexdigest()


def test_breakpoints_json_frozen_wide(capsys, tmp_path):
    net = random_network(2, 16, widths=[16] * 16, skip_prob=0.1, seed=16)
    assert cli_md5(capsys, tmp_path, net, "0.1,0.2", "0.9,0.7") == "09199f928f9562a1ff3aebcf752eaf3c"


def test_breakpoints_json_frozen_tent10(capsys, tmp_path):
    assert cli_md5(capsys, tmp_path, tent_net(10), "0", "1") == "6ca66c3a07acd57f103e8b1f08463c78"
