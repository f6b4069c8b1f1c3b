"""Unit tests for the (C, P) delay models."""

from __future__ import annotations

import pytest

from repro.sim import FixedDelays, PerturbedDelays, RandomDelays, limiting_model, parameterized_model


def test_fixed_delays_pin_bounds():
    model = FixedDelays(hardware=2.5, software=7.0)
    assert model.hardware_delay(("a", "b"), 1) == 2.5
    assert model.software_delay("a", 1) == 7.0
    assert model.hardware_bound == 2.5
    assert model.software_bound == 7.0


def test_fixed_delays_reject_negative():
    with pytest.raises(ValueError):
        FixedDelays(hardware=-1.0, software=1.0)
    with pytest.raises(ValueError):
        FixedDelays(hardware=0.0, software=-1.0)


def test_limiting_model_is_c0_p1():
    model = limiting_model()
    assert model.hardware_bound == 0.0
    assert model.software_bound == 1.0


def test_parameterized_model():
    model = parameterized_model(3.0, 2.0)
    assert model.hardware_bound == 3.0
    assert model.software_bound == 2.0


def test_random_delays_respect_bounds():
    model = RandomDelays(hardware=4.0, software=2.0, lo_frac=0.25, seed=1)
    for i in range(200):
        hw = model.hardware_delay(("x", "y"), i)
        sw = model.software_delay("x", i)
        assert 1.0 <= hw <= 4.0
        assert 0.5 <= sw <= 2.0


def test_random_delays_deterministic_per_seed():
    a = RandomDelays(hardware=1.0, software=1.0, seed=42)
    b = RandomDelays(hardware=1.0, software=1.0, seed=42)
    seq_a = [a.hardware_delay(None, i) for i in range(20)]
    seq_b = [b.hardware_delay(None, i) for i in range(20)]
    assert seq_a == seq_b


def test_random_delays_differ_across_seeds():
    a = RandomDelays(hardware=1.0, software=1.0, seed=1)
    b = RandomDelays(hardware=1.0, software=1.0, seed=2)
    assert [a.hardware_delay(None, i) for i in range(10)] != [
        b.hardware_delay(None, i) for i in range(10)
    ]


def test_random_delays_zero_bound_yields_zero():
    model = RandomDelays(hardware=0.0, software=1.0, seed=0)
    assert model.hardware_delay(None, 0) == 0.0


def test_random_delays_lo_frac_validation():
    with pytest.raises(ValueError):
        RandomDelays(lo_frac=1.5)


def test_perturbed_delays_fall_back_to_bounds():
    model = PerturbedDelays(hardware=3.0, software=2.0)
    assert model.hardware_delay(("a", "b"), 0) == 3.0
    assert model.software_delay("a", 0) == 2.0


def test_perturbed_delays_targeted_override():
    model = PerturbedDelays(
        hardware=3.0,
        software=2.0,
        hardware_override=lambda key, seq: 1.0 if key == ("a", "b") else None,
    )
    assert model.hardware_delay(("a", "b"), 0) == 1.0
    assert model.hardware_delay(("c", "d"), 0) == 3.0


def test_perturbed_delays_reject_over_bound_override():
    model = PerturbedDelays(hardware=3.0, hardware_override=lambda k, s: 5.0)
    with pytest.raises(ValueError):
        model.hardware_delay(("a", "b"), 0)


@pytest.mark.parametrize(
    "model, expected",
    [
        (FixedDelays(0.5, 1.0), 0.5),
        (limiting_model(), 0.0),
        (RandomDelays(hardware=0.0, software=1.0, seed=3), 0.0),
        (RandomDelays(hardware=1.0, software=1.0, seed=3), None),
        (PerturbedDelays(hardware=0.0), 0.0),
        (PerturbedDelays(hardware=1.0, hardware_override=lambda k, s: 0.5), None),
    ],
)
def test_fixed_hardware_delay_is_derived_from_the_model(model, expected):
    # Only a closed-form hop delay lets the SS fly transit hops as one
    # event; every model that may draw or override per hop says None.
    assert model.fixed_hardware_delay == expected
    with pytest.raises(AttributeError):
        model.fixed_hardware_delay = 1.0


def test_adversary_is_fixed_only_at_zero_hardware_bound():
    from repro.sim.adversary import SeededAdversary

    assert SeededAdversary(0.0, 1.0, seed=1).fixed_hardware_delay == 0.0
    assert SeededAdversary(0.5, 1.0, seed=1).fixed_hardware_delay is None
