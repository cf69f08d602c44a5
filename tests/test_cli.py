import json

import pytest

from expressivity_auditor import save_network
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


def test_swap_weight_cap_violation(capsys, tent2_path):
    rc, _, err = run(capsys, ["swap", "--net", tent2_path, "--act1", "relu",
                              "--act2", "relu", "--A", "1"])
    assert rc == 1
    assert "error" in err


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


def test_missing_required_flag(capsys):
    rc, _, err = run(capsys, ["analyze"])
    assert rc == 1
    assert "error" in err


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
