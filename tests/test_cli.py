import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_tent2
from expressivity_auditor import (
    Edge,
    Network,
    Unit,
    builtin_activation,
    network_to_json,
    random_network,
    save_network,
)
from expressivity_auditor.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def tent2_path(tmp_path, tent2_net):
    path = tmp_path / "tent2.json"
    save_network(tent2_net, path)
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_module(argv):
    """`python -m expressivity_auditor ...` in a child process, which a hang
    fails after 60 s instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "expressivity_auditor", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point(capsys):
    proc = run_module(["verify", "--trials", "3", "--seed", "5"])
    assert (proc.returncode, proc.stdout, proc.stderr) == run(
        capsys, ["verify", "--trials", "3", "--seed", "5"])
    assert proc.stdout.startswith("# expressivity-auditor v1\n")
    assert proc.stdout.endswith("\ntrials 3, violations 0 -> -\n")


# ------------------------------------------------------------------- analyze

def test_analyze_human(capsys, tent2_path):
    rc, out, err = run(capsys, ["analyze", "--net", tent2_path])
    assert rc == 0
    assert "depth" in out and "2" in out
    assert err == ""


def test_analyze_json(capsys, tent2_path):
    rc, out, _ = run(capsys, ["analyze", "--net", tent2_path, "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert doc["depth"] == 2
    assert doc["omega"] == "2"
    assert doc["n_hidden"] == 4
    assert doc["t"] == 2
    assert doc["breakpoint_bound"] == 8.0
    assert doc["depth_vs_state"]["verdict"] == "pass"


def test_analyze_json_deterministic(capsys, tent2_path):
    _, out1, _ = run(capsys, ["analyze", "--net", tent2_path, "--json"])
    _, out2, _ = run(capsys, ["analyze", "--net", tent2_path, "--json"])
    assert out1 == out2
    assert out1.count("\n") == 1  # exactly one JSON line


def test_analyze_json_bytes_frozen(capsys, tent2_path):
    _, out, _ = run(capsys, ["analyze", "--net", tent2_path, "--json"])
    assert hashlib.md5(out.encode()).hexdigest() == "ae28447d14bef9c7a4999da0e476f68d"


def test_analyze_missing_file(capsys):
    rc, _, err = run(capsys, ["analyze", "--net", "/nonexistent/net.json"])
    assert rc == 1
    assert "error" in err


# --------------------------------------------------------------- breakpoints

def test_breakpoints_sandwich(capsys, tent2_path):
    rc, out, _ = run(capsys, ["breakpoints", "--net", tent2_path,
                              "--from", "0", "--to", "1", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["B"] == 3
    assert doc["N"] == 3
    assert doc["bound"] == 8.0
    assert doc["sandwich"] == "pass"


def test_breakpoints_claimed_t_too_small(capsys, tent2_path):
    # t=1 claims an affine network: the cap drops to 0 and the check fails
    rc, out, _ = run(capsys, ["breakpoints", "--net", tent2_path,
                              "--from", "0", "--to", "1", "--t", "1", "--json"])
    assert rc == 2
    assert json.loads(out)["sandwich"] == "fail"


def test_breakpoints_dimension_mismatch(capsys, tent2_path):
    rc, _, err = run(capsys, ["breakpoints", "--net", tent2_path,
                              "--from", "0,0", "--to", "1,1"])
    assert rc == 1
    assert "error" in err


def test_breakpoints_overflowing_segment(capsys, tent2_path):
    # both endpoints are finite, but y - x overflows binary64
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, ["breakpoints", "--net", tent2_path,
                                    "--from=-1e308", "--to=1e308"])
    assert (rc, out, err) == (
        1, "", "error: segment length overflows: y - x is not finite\n")


def test_breakpoints_overflow_exits_one(capsys, tmp_path):
    # 1e308 * (1e308 * x1) overflows: the output piece is inf - inf = NaN
    relu = builtin_activation("relu")
    net = Network(1, [Unit("a", 0.0, relu), Unit("b", 0.0, relu)], [
        Edge("x1", "a", 1e308), Edge("x1", "b", 1e308),
        Edge("a", "out", 1e308), Edge("b", "out", -1e308),
    ])
    path = tmp_path / "overflow.json"
    save_network(net, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, ["breakpoints", "--net", str(path),
                                    "--from", "0", "--to", "1"])
    assert (rc, out, err) == (
        1, "", "error: restricting 'out' to the segment overflows binary64\n")


# -------------------------------------------------------------------- verify

def test_verify_to_file(capsys, tmp_path):
    out_path = tmp_path / "campaign.csv"
    rc, out, _ = run(capsys, ["verify", "--trials", "5", "--seed", "42",
                              "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text()
    assert text.startswith("# expressivity-auditor v1\n")
    assert len(text.strip().split("\n")) == 2 + 5
    assert "violations 0" in out


def test_verify_stdout_csv(capsys):
    rc, out, _ = run(capsys, ["verify", "--trials", "3", "--seed", "1"])
    assert rc == 0
    assert out.startswith("# expressivity-auditor v1\n")


def test_verify_json_needs_file(capsys):
    rc, _, err = run(capsys, ["verify", "--trials", "3", "--json"])
    assert rc == 1
    assert "error" in err


def test_verify_deterministic_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["verify", "--trials", "10", "--seed", "7", "--out", str(p1)])
    run(capsys, ["verify", "--trials", "10", "--seed", "7", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_custom_spec(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_choices": [1], "depth_max": 2}))
    out_path = tmp_path / "c.csv"
    rc, _, _ = run(capsys, ["verify", "--spec", str(spec_path), "--trials", "4",
                            "--out", str(out_path), "--json"])
    assert rc == 0
    rows = out_path.read_text().strip().split("\n")[2:]
    assert all(row.split(",")[2] == "1" for row in rows)  # n column


def test_verify_bad_spec(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"bogus_key": 1}))
    rc, _, err = run(capsys, ["verify", "--spec", str(spec_path), "--trials", "1"])
    assert rc == 1
    assert "bogus_key" in err


@pytest.mark.parametrize("doc, message", [
    ({"weight_bound": 1e308}, "weight_bound must be in (0.001, 8.99e+307], got 1e+308"),
    ({"weight_bound": float("inf")}, "weight_bound must be in (0.001, 8.99e+307], got inf"),
    ({"weight_bound": "1"}, "weight_bound must be in (0.001, 8.99e+307], got '1'"),
    ({"depth_max": 2.5}, "depth_max must be an integer >= 1, got 2.5"),
    ({"width_max": True}, "width_max must be an integer >= 1, got True"),
    ({"skip_prob": "0.3"}, "skip_prob must be in [0, 1], got '0.3'"),
    ({"skip_prob": float("nan")}, "skip_prob must be in [0, 1], got nan"),
    ({"segment_box": 5}, "segment_box must be a list [lo, hi], got 5"),
    ({"segment_box": [None, 1]}, "segment_lo and segment_hi must be finite numbers, got None, 1"),
    ({"segment_box": [-1e308, 1e308]},
     "segment_hi - segment_lo overflows binary64 for [-1e+308, 1e+308]"),
    ({"segment_box": [0, 1e-7]}, "segment_hi - segment_lo must be at least 2e-06, got [0.0, 1e-07]"),
    ({"n_choices": 2}, "n_choices must be a list, got 2"),
    ({"n_choices": [1.5]}, "n_choices must list integer dimensions >= 1, got [1.5]"),
    ({"n_choices": [True]}, "n_choices must list integer dimensions >= 1, got [True]"),
    ({"activations": "relu"}, "activations must be a list, got 'relu'"),
    ({"activations": [5]}, "activations must list names, got 5"),
    ({"activations": ["sigmoid"]},
     "activations must be piecewise linear to restrict exactly, got 'sigmoid'"),
    # 2**63 - 1 is the largest v for which rng.integers(1, v + 1) accepts its high end
    ({"depth_max": 10**29}, f"depth_max must be at most {2**63 - 1}, got {10**29}"),
    ({"width_max": 2**63}, f"width_max must be at most {2**63 - 1}, got {2**63}"),
])
def test_verify_rejects_bad_draw_parameters(capsys, tmp_path, doc, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["verify", "--spec", str(spec_path), "--trials", "3"])
    assert (rc, out, err) == (1, "", f"error: {message}\n")


SPEC_KEYS = ("n_choices", "depth_max", "width_max", "skip_prob", "weight_bound", "activations",
             "segment_box")
SPEC_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308]),
    st.text(max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(SPEC_KEYS), SPEC_SCALARS | st.lists(SPEC_SCALARS, max_size=3)))
def test_verify_spec_fuzz(doc):
    """Any document over the known keys runs, or exits 1 with one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, out_path = os.path.join(tmp, "spec.json"), os.path.join(tmp, "c.csv")
        with open(spec_path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["verify", "--spec", spec_path, "--trials", "1", "--out", out_path])
    lines = err.getvalue().splitlines()
    assert rc == 0 or (rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")), (rc, lines)


def test_verify_tiny_weight_bound_exits_one(tmp_path):
    # every draw from [-1e-4, 1e-4] fails the |w| >= 1e-3 rule, so without
    # the check the first trial would redraw forever
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"weight_bound": 1e-4}))
    proc = run_module(["verify", "--spec", str(spec_path), "--trials", "3"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: weight_bound must be in (0.001, 8.99e+307], got 0.0001\n")


def test_verify_overflowing_segment_box(capsys, tmp_path):
    # finite corners whose difference overflows binary64 in the segment's norm
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"segment_box": [0, 1e308]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, ["verify", "--spec", str(spec_path), "--trials", "3"])
    assert (rc, out, err) == (1, "", "error: segment length overflows: y - x is not finite\n")


# --------------------------------------------------------------- lower-bound

def test_lower_bound_curvature(capsys):
    rc, out, _ = run(capsys, ["lower-bound", "--target", "sq_norm", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["theorem"] == "1"
    assert doc["multiplier"] == pytest.approx(0.5, abs=1e-6)
    assert doc["piece_floor"] == pytest.approx(50.0, rel=1e-5)
    assert doc["search"] == "estimate"


def test_lower_bound_reference_multiplier_reported(capsys):
    rc, out, _ = run(capsys, ["lower-bound", "--target", "poly_g2"])
    assert rc == 0
    assert "not asserted" in out
    rc, out, _ = run(capsys, ["lower-bound", "--target", "poly_g2", "--json"])
    assert json.loads(out)["reference_multiplier"] == pytest.approx(1.37)


def test_lower_bound_laplacian(capsys):
    rc, out, _ = run(capsys, ["lower-bound", "--target", "poly_a",
                              "--theorem", "2", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["max_abs_laplacian"] == pytest.approx(44.0, abs=1e-6)
    assert doc["multiplier"] == pytest.approx(0.8172473424939676, abs=1e-9)


def test_lower_bound_cor1(capsys):
    rc, out, _ = run(capsys, ["lower-bound", "--target", "sq_norm",
                              "--theorem", "cor1", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["mu"] == 2.0
    assert doc["hidden_units_lb"] == pytest.approx(5.643856189774724, rel=1e-12)


def test_lower_bound_cor1_needs_mu(capsys):
    rc, _, err = run(capsys, ["lower-bound", "--target", "poly_g1",
                              "--theorem", "cor1"])
    assert rc == 1
    assert "error" in err


def test_lower_bound_cor2(capsys):
    rc, out, _ = run(capsys, ["lower-bound", "--target", "sq_norm",
                              "--theorem", "cor2", "--depth", "2", "--json"])
    assert rc == 0
    assert json.loads(out)["hidden_units_lb"] == pytest.approx(5.0, rel=1e-9)


def test_lower_bound_cor2_needs_depth(capsys):
    rc, _, err = run(capsys, ["lower-bound", "--target", "sq_norm",
                              "--theorem", "cor2"])
    assert rc == 1
    assert "depth" in err


def test_lower_bound_target_dimension_syntax(capsys):
    rc, out, _ = run(capsys, ["lower-bound", "--target", "sq_norm(3)", "--json"])
    assert rc == 0
    assert json.loads(out)["n"] == 3


def test_lower_bound_bad_target(capsys):
    rc, _, err = run(capsys, ["lower-bound", "--target", "nope!!"])
    assert rc == 1
    assert "error" in err


THEOREMS = ["1", "2", "weak", "cor1", "cor2"]


@pytest.mark.parametrize("theorem", THEOREMS)
def test_lower_bound_zero_dimensional_target(capsys, theorem):
    rc, out, err = run(capsys, ["lower-bound", "--target", "sq_norm(0)",
                                "--theorem", theorem, "--depth", "2"])
    assert (rc, out, err) == (1, "", "error: box needs at least one dimension\n")


@pytest.mark.parametrize("theorem", THEOREMS)
def test_lower_bound_non_finite_epsilon(capsys, theorem):
    rc, out, err = run(capsys, ["lower-bound", "--target", "sq_norm", "--epsilon", "inf",
                                "--theorem", theorem, "--depth", "2"])
    assert (rc, out, err) == (1, "", "error: epsilon must be finite\n")


# ---------------------------------------------------------------------- swap

def test_swap_ok(capsys, tent2_path):
    rc, out, _ = run(capsys, ["swap", "--net", tent2_path, "--act1", "relu",
                              "--act2", "leaky-relu(0.01)", "--A", "4",
                              "--samples", "2000", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["margin"] >= 0.0
    assert doc["bound"] >= doc["empirical_sup"]


def test_swap_json_bytes_frozen(capsys, tmp_path):
    path = tmp_path / "sigmoid.json"
    save_network(random_network(2, 3, widths=(4, 4, 4), activation="sigmoid", seed=3), path)
    rc, out, _ = run(capsys, ["swap", "--net", str(path), "--act1", "sigmoid",
                              "--act2", "sigmoid-q(16)", "--A", "1",
                              "--samples", "2000", "--json"])
    assert rc == 0
    assert hashlib.md5(out.encode()).hexdigest() == "ead26d357fb6b306dff4acc8df270c1f"


def test_swap_weight_cap_violation(capsys, tent2_path):
    rc, _, err = run(capsys, ["swap", "--net", tent2_path, "--act1", "relu",
                              "--act2", "relu", "--A", "1"])
    assert rc == 1
    assert "error" in err


def test_swap_overflow_exits_one(capsys, tmp_path):
    # a * 1e308 - b * 1e308 is inf - inf = NaN at every point with x1 > 0;
    # exit 2 would claim a bound violation
    relu = builtin_activation("relu")
    net = Network(1, [Unit("a", 0.0, relu), Unit("b", 0.0, relu)], [
        Edge("x1", "a", 1e308), Edge("x1", "b", 1e308),
        Edge("a", "out", 1e308), Edge("b", "out", -1e308),
    ])
    path = tmp_path / "overflow.json"
    save_network(net, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, ["swap", "--net", str(path), "--act1", "relu",
                                    "--act2", "relu", "--A", "1e308", "--json"])
    assert (rc, out) == (1, "")
    assert err.startswith("error: network outputs or pre-activations overflow")
    assert err.count("\n") == 1


def test_swap_gap_range_overflow_exits_one(capsys, tmp_path):
    # finite outputs, but the pre-activations span about [-1e308, 1e308], so
    # the width of the gap grid overflows
    relu = builtin_activation("relu")
    net = Network(1, [Unit("a", 0.0, relu), Unit("b", 0.0, relu)], [
        Edge("x1", "a", 1e308), Edge("x1", "b", -1e308),
        Edge("a", "out", 1e-300), Edge("b", "out", 1.0),
    ])
    path = tmp_path / "wide.json"
    save_network(net, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, ["swap", "--net", str(path), "--act1", "relu",
                                    "--act2", "leaky-relu(0.01)", "--A", "1e308",
                                    "--samples", "100"])
    assert (rc, out) == (1, "")
    assert err.startswith("error: activation gap range [")
    assert err.endswith("] is wider than binary64 can hold\n")
    assert err.count("\n") == 1


def test_swap_zero_gap_huge_A_bound_zero(capsys, tmp_path):
    # gap 0 times an overflowing growth factor is 0, not 0 * inf = NaN
    path = tmp_path / "net.json"
    save_network(random_network(2, 2, widths=(3, 3), seed=1), path)
    rc, out, _ = run(capsys, ["swap", "--net", str(path), "--act1", "relu",
                              "--act2", "relu", "--A", "1e308", "--json"])
    doc = json.loads(out)
    assert (rc, doc["gap"], doc["bound"], doc["margin"]) == (0, 0.0, 0.0, 0.0)


def test_swap_infinite_A_exits_one(capsys, tent2_path):
    rc, out, err = run(capsys, ["swap", "--net", tent2_path, "--act1", "relu",
                                "--act2", "relu", "--A", "inf"])
    assert (rc, out, err) == (1, "", "error: A must be positive and finite\n")


# ------------------------------------------------------------------- general

def test_unknown_subcommand(capsys):
    rc, _, err = run(capsys, ["frobnicate"])
    assert rc == 1
    assert "error" in err


def test_nan_inline_activation_exits_one(capsys, tmp_path, tent2_path):
    with open(tent2_path) as fh:
        doc = json.load(fh)
    doc["units"][0]["activation"] = {
        "name": "custom",
        "boundaries": [0.0],
        "pieces": [{"slope": float("nan"), "intercept": 0.0}, {"slope": 1.0, "intercept": 0.0}],
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes the bare token NaN
    assert "NaN" in path.read_text()
    rc, out, err = run(capsys, ["analyze", "--net", str(path)])
    assert (rc, out) == (1, "")
    assert err.startswith("error: non-finite activation slopes")


def test_nan_output_bias_exits_one(capsys, tmp_path, tent2_path):
    # a NaN output bias makes every output NaN; swap must not turn that into
    # exit 2, which claims a bound violation
    with open(tent2_path) as fh:
        doc = json.load(fh)
    doc["output_bias"] = float("nan")
    path = tmp_path / "nan_bias.json"
    path.write_text(json.dumps(doc))
    for argv in (["analyze"], ["swap", "--act1", "relu", "--act2", "relu", "--A", "4"]):
        rc, out, err = run(capsys, [*argv, "--net", str(path)])
        assert (rc, out, err) == (1, "", "error: non-finite output bias\n")


@pytest.mark.parametrize("token", ["1e400", "1.5", "true"])
def test_non_integer_n_inputs_exits_one(capsys, tmp_path, tent2_path, token):
    # 1e400 parses as the float inf, 1.5 as a float, true as a bool
    with open(tent2_path) as fh:
        text = json.dumps(json.load(fh)).replace('"n_inputs": 1', f'"n_inputs": {token}')
    path = tmp_path / "n_inputs.json"
    path.write_text(text)
    rc, out, err = run(capsys, ["analyze", "--net", str(path)])
    assert (rc, out) == (1, "")
    assert err.startswith("error: malformed network document: n_inputs")


COMMANDS = {
    "analyze": ["analyze"],
    "breakpoints": ["breakpoints", "--from", "0", "--to", "1"],
    "swap": ["swap", "--act1", "relu", "--act2", "relu", "--A", "1"],
}
HOSTILE_DOCS = {
    # (where in the tent2 document, the value put there, the one error line)
    "huge-weight": (("edges", 0, "weight"), 10**400,
                    "malformed network document: int too large to convert to float"),
    "huge-bias": (("units", 0, "bias"), 10**400,
                  "malformed network document: int too large to convert to float"),
    "huge-output-bias": (("output_bias",), 10**400,
                         "malformed network document: int too large to convert to float"),
    "sigmoid-q-5000": (("units", 0, "activation"), "sigmoid-q(5000)",
                       "bit count must be at most 1023, got 5000"),
    "2-d-boundaries": (("units", 0, "activation"),
                       {"name": "a", "boundaries": [[0]],
                        "pieces": [{"slope": 0, "intercept": 0}, {"slope": 1, "intercept": 0}]},
                       "activation boundaries must be a 1-D array, got shape (1, 1)"),
    "true-weight": (("edges", 0, "weight"), True, "malformed network document: True is not a number"),
    "true-bias": (("units", 0, "bias"), True, "malformed network document: True is not a number"),
}
HOSTILE_CASES = {
    f"{name}/{command}": (keys, value, argv, message)
    for name, (keys, value, message) in HOSTILE_DOCS.items() for command, argv in COMMANDS.items()
}
HOSTILE_CASES["swap-act2-sigmoid-q-5000"] = (
    (), None, ["swap", "--act1", "sigmoid", "--act2", "sigmoid-q(5000)", "--A", "4"],
    "bit count must be at most 1023, got 5000")


def _tent2_doc(edits):
    """tent2's network document with each {(key, ..., key): value} of edits
    put in place."""
    doc = network_to_json(build_tent2())
    for (*keys, last), value in edits.items():
        place = doc
        for k in keys:
            place = place[k]
        place[last] = value
    return doc


@pytest.mark.parametrize("keys, value, argv, message", HOSTILE_CASES.values(), ids=HOSTILE_CASES)
def test_hostile_input_exits_one(capsys, tmp_path, keys, value, argv, message):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_tent2_doc({keys: value} if keys else {})))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, [argv[0], "--net", str(path), *argv[1:]])
    assert (rc, out, err) == (1, "", f"error: {message}\n")


NET_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.just(10**400),
    st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308]),
    st.text(max_size=4),
)
NET_VALUES = st.recursive(NET_SCALARS, lambda inner: st.lists(inner, max_size=2), max_leaves=4)
NET_NAMES = st.one_of(  # activation names, unit ids, and inline activations
    st.sampled_from(["relu", "hard-tanh", "sigmoid", "leaky-relu(0.1)", "u11", "x1", "out"]),
    st.integers(-1, 5000).map(lambda k: f"sigmoid-q({k})"),
    st.builds(lambda b, pieces, nest: {"name": "c", "boundaries": [[b]] if nest else [b],
                                       "pieces": pieces},
              NET_VALUES, st.lists(st.fixed_dictionaries({"slope": NET_VALUES, "intercept": NET_VALUES}),
                                   min_size=1, max_size=3), st.booleans()),
)
# Where a value of a tent2 document may be replaced: unit ids, biases and
# activations, edge endpoints and weights, and the output bias.
NET_FIELDS = ([("units", i, k) for i in range(4) for k in ("id", "bias", "activation")]
              + [("edges", j, k) for j in range(8) for k in ("from", "to", "weight")]
              + [("output_bias",)])
FUZZ_COMMANDS = (["analyze"], ["breakpoints", "--from", "0", "--to", "1"],
                 ["swap", "--act1", "relu", "--act2", "hard-tanh", "--A", "1e300", "--samples", "16"])


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(NET_FIELDS), NET_VALUES | NET_NAMES, max_size=4))
def test_network_document_fuzz(edits):
    """Any such document is analyzed, restricted and swapped, or gives one
    error line: never a traceback or a warning."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        with open(path, "w") as fh:
            json.dump(_tent2_doc(edits), fh)
        for argv in FUZZ_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([argv[0], "--net", path, *argv[1:]])
            lines = err.getvalue().splitlines()
            assert rc in (0, 2) and not lines or (
                rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")), (argv[0], rc, lines)


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_no_hidden_units_exits_one(capsys, tmp_path, argv):
    path = tmp_path / "affine.json"
    save_network(Network(1, [], [Edge("x1", "out", 1.0)]), path)
    rc, out, err = run(capsys, [argv[0], "--net", str(path), *argv[1:]])
    assert (rc, out, err) == (1, "", "error: no hidden units: depth and width are undefined\n")


def test_missing_required_flag(capsys):
    rc, _, err = run(capsys, ["analyze"])
    assert rc == 1
    assert "error" in err


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
