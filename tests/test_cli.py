import hashlib
import json
import warnings

import pytest

from expressivity_auditor import (
    Edge,
    Network,
    Unit,
    builtin_activation,
    random_network,
    save_network,
)
from expressivity_auditor.cli import main


@pytest.fixture
def tent2_path(tmp_path, tent2_net):
    path = tmp_path / "tent2.json"
    save_network(tent2_net, path)
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


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


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["breakpoints", "--from", "0", "--to", "1"],
    ["swap", "--act1", "relu", "--act2", "relu", "--A", "1"],
], ids=["analyze", "breakpoints", "swap"])
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
