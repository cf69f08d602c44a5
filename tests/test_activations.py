import numpy as np
import pytest

from expressivity_auditor import (
    ActivationGap,
    LipschitzActivation,
    PwlActivation,
    builtin_activation,
    gap,
    lipschitz_constant,
    piece_count,
    quantization_gap,
)
from expressivity_auditor.errors import UnsupportedActivationError


def test_relu_shape():
    relu = builtin_activation("relu")
    assert relu.t == 2
    assert relu.state_of(-1.0) == 1
    assert relu.state_of(2.0) == 2
    assert relu.state_of(0.0) == 2  # boundary belongs to the right interval
    assert relu.value(-3.0) == 0.0
    assert relu.value(3.0) == 3.0


def test_hard_tanh_shape():
    ht = builtin_activation("hard-tanh")
    assert ht.t == 3
    assert ht.state_of(0.0) == 2
    assert ht.value(-5.0) == -1.0
    assert ht.value(0.25) == 0.25
    assert ht.value(5.0) == 1.0


def test_step_is_discontinuous():
    step = builtin_activation("step")
    assert step.t == 2
    assert not step.is_continuous()
    assert step.value(-1e-9) == 0.0
    assert step.value(0.0) == 1.0


def test_leaky_relu_needs_slope():
    leaky = builtin_activation("leaky-relu(0.01)")
    assert leaky.value(-1.0) == pytest.approx(-0.01)
    with pytest.raises(ValueError):
        builtin_activation("leaky-relu")


def test_unknown_name():
    with pytest.raises(ValueError):
        builtin_activation("swish")


def test_sigmoid_lipschitz():
    sig = builtin_activation("sigmoid")
    assert lipschitz_constant(sig) == 0.25
    assert sig.value(0.0) == 0.5
    v = sig.value(np.array([-50.0, 50.0]))
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_lipschitz_declaration_is_checked():
    with pytest.raises(ValueError):
        LipschitzActivation("too-steep", lambda v: np.asarray(v, dtype=float), 0.5,
                            check_range=(-1.0, 1.0))


def test_gap_examples():
    sig = builtin_activation("sigmoid")
    assert gap(sig, sig).value == 0.0
    relu = builtin_activation("relu")
    leaky = builtin_activation("leaky-relu(0.01)")
    assert gap(relu, leaky, -1.0, 1.0).value == pytest.approx(0.01, abs=1e-15)
    q8 = builtin_activation("sigmoid-q(8)")
    assert gap(sig, q8).value <= 2.0**-8


def test_quantization_gap_dominates_measured():
    sig = builtin_activation("sigmoid")
    q32 = builtin_activation("sigmoid-q(32)")
    nominal = quantization_gap(32).value
    assert nominal == 2.0**-32
    measured = gap(sig, q32).value
    assert measured <= nominal  # round-to-nearest stays within half an ulp
    with pytest.raises(ValueError):
        quantization_gap(0)


def test_gap_validation():
    relu = builtin_activation("relu")
    with pytest.raises(ValueError):
        gap(relu, relu, 1.0, -1.0)
    with pytest.raises(ValueError):
        ActivationGap(-0.5)


def test_piece_count_and_lipschitz_dispatch():
    assert piece_count(builtin_activation("relu")) == 2
    assert piece_count(builtin_activation("hard-tanh")) == 3
    assert lipschitz_constant(builtin_activation("relu")) == 1.0
    assert lipschitz_constant(builtin_activation("hard-tanh")) == 1.0
    with pytest.raises(UnsupportedActivationError):
        piece_count(builtin_activation("sigmoid"))
    with pytest.raises(UnsupportedActivationError):
        lipschitz_constant(builtin_activation("step"))


def test_state_of_monotone():
    for name in ("relu", "hard-tanh", "step", "leaky-relu(0.1)"):
        act = builtin_activation(name)
        v = np.linspace(-3.0, 3.0, 601)
        states = act.state_of(v)
        assert np.all(np.diff(states) >= 0)
        assert len(np.unique(states)) <= act.t


def test_value_matches_pieces_on_grid():
    for name in ("relu", "hard-tanh", "leaky-relu(0.25)"):
        act = builtin_activation(name)
        v = np.linspace(-2.0, 2.0, 401)
        idx = act.state_of(v) - 1
        want = act.slopes[idx] * v + act.intercepts[idx]
        assert np.allclose(act.value(v), want, atol=0.0)


def test_json_round_trip():
    for name in ("relu", "hard-tanh", "step", "leaky-relu(0.01)"):
        act = builtin_activation(name)
        back = PwlActivation.from_json(act.to_json())
        assert back == act
    assert builtin_activation("relu") != builtin_activation("step")


def test_activation_constructor_validation():
    with pytest.raises(ValueError):
        PwlActivation("bad", [1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PwlActivation("bad", [0.0], [1.0], [0.0])


@pytest.mark.parametrize("name", ["leaky-relu(nan)", "leaky-relu(inf)", "leaky-relu(-inf)"])
def test_non_finite_slope_rejected(name):
    with pytest.raises(ValueError, match="non-finite activation slopes"):
        builtin_activation(name)


@pytest.mark.parametrize("field", ["boundaries", "slopes", "intercepts"])
def test_non_finite_parameters_rejected(field):
    params = {"boundaries": [0.0], "slopes": [0.0, 1.0], "intercepts": [0.0, 0.0]}
    params[field] = [float("nan")] + params[field][1:]
    with pytest.raises(ValueError, match=f"non-finite activation {field}"):
        PwlActivation("bad", **params)
