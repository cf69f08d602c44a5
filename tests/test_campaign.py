import io

import pytest

from expressivity_auditor import (
    CSV_COLUMNS,
    CSV_HEADER,
    CampaignSpec,
    run_campaign,
    run_trial,
    violations,
    write_csv,
)


def csv_text(results):
    buf = io.StringIO()
    write_csv(results, buf)
    return buf.getvalue()


def test_trial_deterministic():
    spec = CampaignSpec()
    a = run_trial(spec, 42, 7)
    b = run_trial(spec, 42, 7)
    assert csv_text([a]) == csv_text([b])
    c = run_trial(spec, 43, 7)
    assert csv_text([a]) != csv_text([c])


def test_campaign_deterministic_and_ordered():
    spec = CampaignSpec()
    res = run_campaign(spec, 20, seed=42)
    assert [r.trial for r in res] == list(range(20))
    res2 = run_campaign(spec, 20, seed=42)
    assert csv_text(res) == csv_text(res2)


def test_activation_alternation():
    spec = CampaignSpec()
    res = run_campaign(spec, 8, seed=1)
    # relu (t=2) on even trials, hard-tanh (t=3) on odd ones
    assert [r.t for r in res] == [2, 3] * 4


def test_counting_chain_holds_per_trial():
    res = run_campaign(CampaignSpec(), 50, seed=11)
    assert violations(res) == []
    for r in res:
        assert r.breakpoints <= r.transitions_all
        assert r.transitions_all <= r.bound
        assert r.overall


def test_csv_shape_and_header():
    res = run_campaign(CampaignSpec(), 5, seed=3)
    text = csv_text(res)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + 5 + 1  # header, columns, rows, trailing newline
    assert lines[-1] == ""
    for line in lines[2:-1]:
        assert len(line.split(",")) == len(CSV_COLUMNS)
        assert line.split(",")[-1] in ("pass", "fail")


def test_csv_zero_trials_header_only():
    text = csv_text(run_campaign(CampaignSpec(), 0, seed=0))
    assert text == CSV_HEADER + "\n" + ",".join(CSV_COLUMNS) + "\n"


def test_campaign_spec_from_json():
    spec = CampaignSpec.from_json({
        "n_choices": [2], "depth_max": 2, "width_max": 3,
        "segment_box": [0.0, 2.0], "activations": ["relu"],
    })
    assert spec.n_choices == (2,)
    assert spec.segment_hi == 2.0
    with pytest.raises(ValueError):
        CampaignSpec.from_json({"depht_max": 3})
    with pytest.raises(ValueError):
        CampaignSpec.from_json([1, 2, 3])


def test_campaign_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec(n_choices=())
    with pytest.raises(ValueError):
        CampaignSpec(activations=("not-an-activation",))
    with pytest.raises(ValueError):
        CampaignSpec(segment_lo=1.0, segment_hi=0.0)
    with pytest.raises(ValueError):
        run_campaign(CampaignSpec(), -1, seed=0)


@pytest.mark.parametrize("kwargs", [
    {"depth_max": 2.5}, {"depth_max": 0}, {"width_max": "3"}, {"width_max": True},
    {"skip_prob": -0.1}, {"skip_prob": 1.5}, {"skip_prob": "0.3"}, {"skip_prob": float("nan")},
    {"weight_bound": 1e-3}, {"weight_bound": 1e-4}, {"weight_bound": float("inf")},
    {"weight_bound": 1e308}, {"weight_bound": "1"}, {"weight_bound": float("nan")},
    {"n_choices": 2}, {"n_choices": [1.5]}, {"n_choices": [True]}, {"n_choices": [0]},
    {"activations": "relu"}, {"activations": [5]}, {"activations": ["sigmoid"]},
    {"segment_hi": float("inf")}, {"segment_lo": None}, {"segment_lo": -1e308, "segment_hi": 1e308},
    {"depth_max": 10**29}, {"width_max": 2**63}, {"skip_prob": True},
])
def test_campaign_spec_rejects_bad_draw_parameters(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        CampaignSpec(**kwargs)


def test_custom_spec_respected():
    spec = CampaignSpec(n_choices=(2,), depth_max=1, width_max=2,
                        activations=("hard-tanh",))
    res = run_campaign(spec, 10, seed=9)
    for r in res:
        assert r.n == 2
        assert r.depth == 1
        assert r.t == 3
        assert r.n_hidden <= 2
