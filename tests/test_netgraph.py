import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from expressivity_auditor import (
    Edge,
    Network,
    Segment,
    Unit,
    builtin_activation,
    depth_profile,
    forward,
    hidden_ancestors,
    load_network,
    network_from_json,
    network_to_json,
    random_network,
    require_valid,
    restrict,
    save_network,
    validate,
)
from expressivity_auditor.errors import ValidationError
from reference_network import random_network as reference_random_network

RELU = builtin_activation("relu")


# ---------------------------------------------------------------- validation

def test_reference_net_is_valid(fig1_net):
    assert validate(fig1_net) == []
    require_valid(fig1_net)  # must not raise


def test_cycle_detected():
    net = Network(1, [Unit("a", 0.0, RELU), Unit("b", 0.0, RELU)], [
        Edge("x1", "a", 1.0), Edge("a", "b", 1.0), Edge("b", "a", 1.0),
        Edge("b", "out", 1.0),
    ])
    msgs = validate(net)
    assert any("cycle" in m for m in msgs)
    with pytest.raises(ValidationError):
        require_valid(net)


def test_zero_weight_rejected():
    net = Network(1, [Unit("a", 0.0, RELU)], [
        Edge("x1", "a", 0.0), Edge("a", "out", 1.0),
    ])
    assert any("zero weight" in m for m in validate(net))


def test_duplicate_edge_rejected():
    net = Network(1, [Unit("a", 0.0, RELU)], [
        Edge("x1", "a", 1.0), Edge("x1", "a", 0.5), Edge("a", "out", 1.0),
    ])
    assert any("duplicate" in m for m in validate(net))


def test_unknown_endpoint_rejected():
    net = Network(1, [Unit("a", 0.0, RELU)], [
        Edge("x2", "a", 1.0), Edge("a", "out", 1.0),
    ])
    assert validate(net)


def test_reserved_ids_rejected():
    net = Network(1, [Unit("out", 0.0, RELU)], [Edge("x1", "out", 1.0)])
    assert validate(net)
    net = Network(1, [Unit("x1", 0.0, RELU)], [Edge("x1", "x1", 1.0)])
    assert validate(net)


def test_unreachable_unit_rejected():
    net = Network(1, [Unit("a", 0.0, RELU), Unit("b", 0.0, RELU)], [
        Edge("x1", "a", 1.0), Edge("a", "out", 1.0), Edge("x1", "b", 1.0),
    ])
    assert any("out" in m for m in validate(net))


def test_no_hidden_units_rejected():
    net = Network(1, [], [Edge("x1", "out", 1.0)])
    assert validate(net) == ["no hidden units: depth and width are undefined"]
    with pytest.raises(ValidationError, match="no hidden units"):
        restrict(net, Segment([0.0], [1.0]))


def test_non_finite_output_bias_rejected():
    net = Network(1, [Unit("a", 0.0, RELU)], [Edge("x1", "a", 1.0), Edge("a", "out", 1.0)],
                  output_bias=float("inf"))
    assert validate(net) == ["non-finite output bias"]


# -------------------------------------------------------------- depth, width

def test_depth_profile_reference(fig1_net):
    prof = depth_profile(fig1_net)
    assert prof.unit_depth["u23"] == 2
    assert prof.depth == 3
    assert prof.layer_widths == (2, 3, 3)
    assert prof.width == Fraction(8, 3)
    assert set(prof.layers[2]) == {"u31", "u32", "u33"}


def test_depth_profile_single_unit(single_relu_net):
    prof = depth_profile(single_relu_net)
    assert prof.depth == 1
    assert prof.width == Fraction(1)


def test_hidden_ancestors_reference(fig1_net):
    assert hidden_ancestors(fig1_net, {"u32"}) == {"u11", "u12", "u21", "u23"}
    # whole layers, then layer prefixes: both are ancestor-closed
    prof = depth_profile(fig1_net)
    assert hidden_ancestors(fig1_net, prof.layers[0]) == frozenset()
    prefix = []
    for layer in prof.layers:
        prefix.extend(layer)
        assert hidden_ancestors(fig1_net, prefix) == frozenset()


def test_hidden_ancestors_excludes_queried_units(fig1_net):
    anc = hidden_ancestors(fig1_net, {"u21", "u11"})
    assert "u21" not in anc and "u11" not in anc
    assert anc == frozenset()


# ------------------------------------------------------------------- forward

def test_forward_single_unit():
    net = Network(1, [Unit("a", -0.5, RELU)], [
        Edge("x1", "a", 1.0), Edge("a", "out", 1.0),
    ])
    res = forward(net, [1.0])
    assert res.unit_outputs["a"] == 0.5
    assert res.output == 0.5


def test_forward_zero_everything():
    net = Network(1, [Unit("a", 0.0, RELU)], [
        Edge("x1", "a", 1.0), Edge("a", "out", 1.0),
    ])
    assert forward(net, [0.0]).output == 0.0


def test_forward_tent_composition(tent2_net):
    assert forward(tent2_net, [0.25]).output == pytest.approx(1.0, abs=1e-12)
    assert forward(tent2_net, [0.5]).output == pytest.approx(0.0, abs=1e-12)
    x = np.linspace(0.0, 1.0, 41)[:, None]
    tent = lambda v: np.minimum(2 * v, 2 - 2 * v)
    assert np.allclose(forward(tent2_net, x).output, tent(tent(x[:, 0])), atol=1e-12)


def test_forward_batch_shapes(fig1_net):
    x = np.random.default_rng(0).random((7, 3))
    res = forward(fig1_net, x)
    assert res.output.shape == (7,)
    assert res.unit_outputs["u11"].shape == (7,)
    # batch rows agree with one-at-a-time evaluation
    for i in range(7):
        assert forward(fig1_net, x[i]).output == pytest.approx(res.output[i], abs=1e-12)


def test_forward_dimension_mismatch(fig1_net):
    with pytest.raises(ValueError):
        forward(fig1_net, [1.0, 2.0])


def test_segment_basics():
    seg = Segment([0.0, 0.0], [1.0, 1.0])
    assert seg.n == 2
    assert seg.length == pytest.approx(np.sqrt(2.0))
    assert np.allclose(seg.point(0.5), [0.5, 0.5])
    assert seg.point(np.array([0.0, 1.0])).shape == (2, 2)
    with pytest.raises(ValueError):
        Segment([1.0], [1.0])


# ---------------------------------------------------------------- generation

def test_random_network_deterministic():
    a = random_network(2, 3, widths=(2, 3, 3), skip_prob=0.4, seed=7)
    b = random_network(2, 3, widths=(2, 3, 3), skip_prob=0.4, seed=7)
    assert network_to_json(a) == network_to_json(b)
    c = random_network(2, 3, widths=(2, 3, 3), skip_prob=0.4, seed=8)
    assert network_to_json(a) != network_to_json(c)


def test_random_network_requested_shape():
    net = random_network(3, 3, widths=(2, 3, 3), seed=0)
    prof = depth_profile(net)
    assert prof.depth == 3
    assert prof.layer_widths == (2, 3, 3)
    assert len(net.units) == 8


def test_random_network_max_width():
    net = random_network(2, 4, max_width=5, seed=11)
    prof = depth_profile(net)
    assert prof.depth == 4
    assert all(1 <= w <= 5 for w in prof.layer_widths)


def test_random_network_weight_range():
    net = random_network(2, 3, max_width=4, skip_prob=0.5, weight_bound=0.7, seed=3)
    w = np.array([e.weight for e in net.edges])
    assert np.all(np.abs(w) <= 0.7)
    assert np.all(np.abs(w) >= 1e-3)


def test_random_network_always_valid():
    for seed in range(200):
        net = random_network(1 + seed % 3, 1 + seed % 4, max_width=5,
                             skip_prob=0.3, seed=seed)
        assert validate(net) == []


def test_random_network_bad_args():
    with pytest.raises(ValueError):
        random_network(2, 3, seed=0)  # neither widths nor max_width
    with pytest.raises(ValueError):
        random_network(2, 3, widths=(2, 2), seed=0)  # wrong length
    with pytest.raises(ValueError):
        random_network(2, 3, max_width=4, skip_prob=1.5, seed=0)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 1\.5$"):
        random_network(1.5, 2, widths=[1, 1])
    with pytest.raises(ValueError, match="^depth must be an integer >= 1, got True$"):
        random_network(1, True, widths=[1])
    with pytest.raises(ValueError, match=r"^skip_prob must be in \[0, 1\], got True$"):
        random_network(1, 1, widths=[1], skip_prob=True)


@pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), float("inf"), 1e308, "1", None])
def test_random_network_rejects_bad_weight_bound(bound):
    with pytest.raises(ValueError, match="weight_bound must be in"):
        random_network(2, 1, widths=[1], weight_bound=bound, seed=0)


def test_random_network_tiny_weight_bound_does_not_hang():
    # Every draw from [-1e-4, 1e-4], and all but a 2**-53 share of those from
    # [-1e-3, 1e-3], fail the |w| >= MIN_ABS_WEIGHT rule. Run them in a child
    # so that a hang fails this test instead of stalling it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("from expressivity_auditor import random_network\n"
            "for bound in (1e-3, 1e-4):\n"
            "    try:\n        random_network(2, 1, widths=[1], weight_bound=bound)\n"
            "    except ValueError as exc:\n        print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("weight_bound must be in (0.001, 8.99e+307], got 0.001\n"
                           "weight_bound must be in (0.001, 8.99e+307], got 0.0001\n")


def _net_bits(net):
    return ([(u.uid, float(u.bias).hex(), u.activation.name) for u in net.units],
            [(e.src, e.dst, float(e.weight).hex()) for e in net.edges], net.n_inputs)


def _seed_forms(entropy, form):
    if form == "int":
        return entropy
    if form == "seedseq":
        return np.random.SeedSequence(entropy)
    bitgen = {"pcg64": np.random.PCG64, "mt19937": np.random.MT19937, "philox": np.random.Philox}[form]
    return np.random.Generator(bitgen(entropy))


def test_random_network_matches_reference():
    # The bulk draws must replay the draw-by-draw stream: same units, bias
    # bits, edge order and weight bits, and a passed-in generator left in
    # the same state. Bounds 0.002 and 0.0011 reject half and 91% of draws.
    rng = np.random.default_rng(20261019)
    forms = ("int", "seedseq", "pcg64", "mt19937", "philox")
    for case in range(240):
        n, depth = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        kw = {
            "skip_prob": (0.0, 0.1, 0.3, 1.0)[case % 4],
            "weight_bound": (1.0, 3.0, 0.002, 0.0011)[case // 4 % 4],
            "activation": ("relu", "hard-tanh")[case % 2],
        }
        if case % 6 == 5:
            kw["max_width"] = int(rng.integers(1, 41))
        else:
            kw["widths"] = [int(w) for w in rng.integers(1, 41 if depth <= 3 else 13, size=depth)]
        form, entropy = forms[case // 16 % 5], int(rng.integers(2**32))
        seed_a, seed_b = _seed_forms(entropy, form), _seed_forms(entropy, form)
        want = reference_random_network(n, depth, seed=seed_a, **kw)
        got = random_network(n, depth, seed=seed_b, **kw)
        label = f"case {case}: n={n} depth={depth} {kw} seed={form}:{entropy}"
        assert _net_bits(got) == _net_bits(want), label
        if isinstance(seed_a, np.random.Generator):
            assert seed_b.random() == seed_a.random(), label


class _CountingGenerator(np.random.Generator):
    calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return super().random(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return super().uniform(*args, **kwargs)


def test_random_network_draws_in_bulk():
    # One generator call per coin and per weight made 34,516 calls here.
    rng = _CountingGenerator(np.random.PCG64(2016))
    net = random_network(2, 16, widths=[16] * 16, skip_prob=0.1, seed=rng)
    assert len(net.edges) > 6000
    assert rng.calls <= 64


# ------------------------------------------------------------------- JSON IO

def test_json_round_trip_exact(tmp_path, fig1_net):
    path = tmp_path / "net.json"
    save_network(fig1_net, path)
    back = load_network(path)
    assert validate(back) == []
    assert network_to_json(back) == network_to_json(fig1_net)
    x = np.random.default_rng(2).random((4, 3))
    assert np.array_equal(forward(back, x).output, forward(fig1_net, x).output)


def test_json_round_trip_random_weights(tmp_path):
    net = random_network(2, 3, max_width=4, skip_prob=0.5, seed=5)
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert [e.weight for e in back.edges] == [e.weight for e in net.edges]
    assert [u.bias for u in back.units] == [u.bias for u in net.units]


def test_json_inline_custom_activation():
    from expressivity_auditor import PwlActivation

    act = PwlActivation("clip-half", [-0.5, 0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.5])
    net = Network(1, [Unit("a", 0.1, act)], [Edge("x1", "a", 1.0), Edge("a", "out", 1.0)])
    back = network_from_json(network_to_json(net))
    assert back.unit_map["a"].activation == act
