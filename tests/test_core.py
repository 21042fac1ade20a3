import math

import pytest

from docfootprint import (
    Carbon,
    Energy,
    EnergyRate,
    FootprintProfile,
    Interval,
    Water,
    apply_pue,
    co2_from_energy,
    inference_energy,
    interval_add,
    interval_scale,
    prompt_co2,
    thinking_delta,
    water_from_energy,
)


def test_interval_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_rejects_non_finite():
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


@pytest.mark.parametrize("lo, hi, message", [
    (math.nan, 1.0, "lo: must be finite, got nan"),
    (0.0, math.nan, "hi: must be finite, got nan"),
    (math.inf, math.inf, "lo: must be finite, got inf"),
    (0.0, math.inf, "hi: must be finite, got inf"),
    (-math.inf, 0.0, "lo: must be finite, got -inf"),
    (2.0, 1.0, "invalid interval: lo 2.0 > hi 1.0"),
    (True, 1.0, "lo: expected a number, got True"),
    (0.0, False, "hi: expected a number, got False"),
    ("1", 2.0, "lo: expected a number, got '1'"),
    (0.0, None, "hi: expected a number, got None"),
    (0, 10 ** 400, "hi: must be finite, got an integer too large for a float"),
])
def test_interval_rejection_messages(lo, hi, message):
    with pytest.raises(ValueError) as info:
        Interval(lo, hi)
    assert str(info.value) == message


def test_computed_intervals_keep_the_constructor_checks():
    big = Interval(1e308, 1e308)
    for compute in (lambda: interval_add(big, big),
                    lambda: interval_scale(big, 10.0),
                    lambda: water_from_energy(big, Interval(10.0, 10.0)),
                    lambda: water_from_energy(1e308, Interval(10.0, 10.0))):
        with pytest.raises(ValueError) as info:
            compute()
        assert str(info.value) == "lo: must be finite, got inf"
    total = interval_add(Interval(1, 2), Interval(3, 4))
    assert type(total.lo) is float and total == Interval(4.0, 6.0)


def test_interval_point_and_helpers():
    p = Interval.point(3.5)
    assert p.lo == p.hi == 3.5
    iv = Interval(2.0, 6.0)
    assert iv.width() == 4.0
    assert iv.midpoint() == 4.0
    assert iv.contains(2.0) and iv.contains(6.0) and not iv.contains(6.5)
    assert iv.as_tuple() == (2.0, 6.0)


def test_interval_add_laptop_plus_cloud():
    total = interval_add(Interval(3.36, 13.44), Interval(2.725, 2.725))
    assert total == Interval(6.085, 16.165)


def test_interval_add_identity_and_endpoints():
    assert interval_add(Interval(0, 0), Interval(4.5, 9.0)) == Interval(4.5, 9.0)
    assert interval_add(Interval(1, 2), Interval(3, 5)) == Interval(4, 7)


def test_interval_scale_laptop_fleet():
    scaled = interval_scale(Interval(70, 400), 0.48)
    assert scaled == Interval(33.6, 192.0)


def test_interval_scale_identity_and_annihilator():
    iv = Interval(1.25, 8.5)
    assert interval_scale(iv, 1.0) == iv
    assert interval_scale(iv, 0.0) == Interval(0.0, 0.0)


def test_interval_scale_rejects_negative():
    with pytest.raises(ValueError):
        interval_scale(Interval(0, 1), -0.1)


def test_energy_rate_validation():
    with pytest.raises(ValueError):
        EnergyRate(0.0)
    with pytest.raises(ValueError):
        EnergyRate(-1.0)
    with pytest.raises(ValueError):
        EnergyRate(math.inf)


def test_profile_validation_messages():
    with pytest.raises(ValueError, match="pue >= 1"):
        FootprintProfile("p", EnergyRate(0.24), 0.9, Interval(0.18, 0.30), 288, 0.03)
    with pytest.raises(ValueError):
        FootprintProfile("p", EnergyRate(0.24), 1.09, Interval(0.0, 0.30), 288, 0.03)
    with pytest.raises(ValueError):
        FootprintProfile("p", EnergyRate(0.24), 1.09, Interval(0.18, 0.30), 0, 0.03)
    with pytest.raises(ValueError):
        FootprintProfile("p", EnergyRate(0.24), 1.09, Interval(0.18, 0.30), 288, -0.01)


def test_profile_json_round_trip(flash):
    obj = flash.to_json_obj()
    again = FootprintProfile.from_json_obj(flash.name, obj)
    assert again == flash


def test_profile_json_rejects_unknown_and_missing_keys(flash):
    obj = flash.to_json_obj()
    obj["extra"] = 1
    with pytest.raises(ValueError, match="unknown key"):
        FootprintProfile.from_json_obj("p", obj)
    del obj["extra"]
    del obj["pue"]
    with pytest.raises(ValueError, match="missing required key"):
        FootprintProfile.from_json_obj("p", obj)


def test_quantity_wrappers():
    for cls, negative in ((Energy, -1.0), (Carbon, -1.0), (Water, Interval(-1.0, 1.0))):
        with pytest.raises(ValueError):
            cls(negative)


def test_inference_energy_reference_points(flash, usecase_profile):
    assert inference_energy(18_000, flash.rate) == 4.32
    assert inference_energy(28_000, flash.rate) == 6.72
    assert inference_energy(0, flash.rate) == 0.0
    assert inference_energy(11_906, usecase_profile.rate) == 357.18


def test_inference_energy_rejects_negative(flash):
    with pytest.raises(ValueError):
        inference_energy(-1, flash.rate)


def test_apply_pue():
    assert apply_pue(0.50, 1.09) == pytest.approx(0.545, abs=1e-12)
    assert apply_pue(1.75, 1.0) == 1.75
    assert apply_pue(2.5, 1.09) == pytest.approx(2.725, abs=1e-12)
    assert apply_pue(Interval(1.0, 2.0), 1.5) == Interval(1.5, 3.0)
    with pytest.raises(ValueError):
        apply_pue(1.0, 0.99)


def test_apply_pue_never_decreases():
    for e in (0.0, 0.5, 3.14):
        assert apply_pue(e, 1.09) >= e


def test_co2_from_energy(flash):
    assert co2_from_energy(0.00432, 288) == pytest.approx(1.24, abs=0.01)
    assert co2_from_energy(0.3572, 288) == pytest.approx(102.87, abs=0.01)
    assert co2_from_energy(0.0, 288) == 0.0
    iv = co2_from_energy(Interval(36.3, 194.7), 288)
    assert iv.lo / 1000 == pytest.approx(10.45, abs=0.01)
    assert iv.hi / 1000 == pytest.approx(56.07, abs=0.01)
    with pytest.raises(ValueError):
        co2_from_energy(1.0, 0)


def test_water_from_energy(flash):
    wue = flash.wue
    ml = interval_scale(water_from_energy(0.00432, wue), 1000.0)
    assert ml.lo == pytest.approx(0.78, abs=0.005)
    assert ml.hi == pytest.approx(1.30, abs=0.005)
    daily = water_from_energy(Interval(6.1, 16.2), wue)
    assert daily.lo == pytest.approx(1.10, abs=0.005)
    assert daily.hi == pytest.approx(4.86, abs=0.005)
    assert water_from_energy(0.0, wue) == Interval(0.0, 0.0)
    usecase = water_from_energy(0.3572, wue)
    assert usecase.lo == pytest.approx(0.0643, abs=0.0001)
    assert usecase.hi == pytest.approx(0.1072, abs=0.0001)


def test_water_pairing_is_endpoint_matched(flash):
    # lo pairs with lo, hi with hi; not min-consumption with max-intensity.
    iv = water_from_energy(Interval(10.0, 20.0), Interval(0.18, 0.30))
    assert iv == Interval(10.0 * 0.18, 20.0 * 0.30)


def test_prompt_co2():
    assert prompt_co2(5000, 0.03) == 150.0
    assert prompt_co2(0, 0.03) == 0.0
    with pytest.raises(ValueError):
        prompt_co2(-1, 0.03)
    with pytest.raises(ValueError):
        prompt_co2(1, -0.03)


def test_thinking_delta_reference(flash):
    d = thinking_delta(18_000, 10_000, flash)
    assert d.delta_energy_wh == 2.4
    assert d.pct_increase == pytest.approx(55.556, abs=0.001)
    assert d.delta_co2_g == pytest.approx(0.69, abs=0.005)
    assert d.delta_water_ml.lo == pytest.approx(0.432, abs=1e-9)
    assert d.delta_water_ml.hi == pytest.approx(0.72, abs=1e-9)


def test_thinking_delta_zero_thinking(flash):
    d = thinking_delta(18_000, 0, flash)
    assert d.delta_energy_wh == 0.0
    assert d.pct_increase == 0.0
    assert d.delta_water_ml == Interval(0.0, 0.0)


def test_thinking_delta_undefined_ratio(flash):
    d = thinking_delta(0, 500, flash)
    assert d.pct_increase is None
    assert d.delta_energy_wh > 0
    d = thinking_delta(0, 0, flash)
    assert d.pct_increase == 0.0


def test_thinking_delta_rejects_negative(flash):
    with pytest.raises(ValueError):
        thinking_delta(-1, 0, flash)
    with pytest.raises(ValueError):
        thinking_delta(0, -1, flash)


def test_unit_chain_round_trip(flash):
    """tokens -> Wh -> kWh -> grams inverts with relative error below 1e-12."""
    tokens = 123_456
    wh = inference_energy(tokens, flash.rate)
    kwh = wh / 1000.0
    grams = co2_from_energy(kwh, flash.emission_factor_g_per_kwh)
    kwh_back = grams / flash.emission_factor_g_per_kwh
    tokens_back = kwh_back * 1000.0 * 1000.0 / flash.rate.wh_per_kilo_token
    assert abs(tokens_back - tokens) / tokens < 1e-12


def test_conversions_commute_with_scaling(flash):
    e = Interval(1.5, 4.0)
    k = 3.0
    scaled_then = co2_from_energy(interval_scale(e, k), 288)
    then_scaled = interval_scale(co2_from_energy(e, 288), k)
    assert scaled_then.lo == pytest.approx(then_scaled.lo, rel=1e-15)
    assert scaled_then.hi == pytest.approx(then_scaled.hi, rel=1e-15)
