import dataclasses

import pytest

from docfootprint import (
    DailyFootprint,
    Interval,
    PipelineStage,
    Scenario,
    WorkforceParams,
    cloud_energy_per_doc,
    compare_scenarios,
    docs_per_operator_day,
    evaluate_scenario,
    incremental_cost,
    interval_scale,
    operators_required,
    water_from_energy,
)
from docfootprint.scenarios import increase_pct


def _manual_workforce():
    return WorkforceParams(per_doc_time_s=Interval(300, 1800))


def _hitl_workforce():
    return WorkforceParams(per_doc_time_s=Interval(30, 120))


def test_docs_per_operator_day_manual():
    assert docs_per_operator_day(_manual_workforce()) == Interval(14, 84)


def test_docs_per_operator_day_assisted():
    assert docs_per_operator_day(_hitl_workforce()) == Interval(210, 840)


def test_docs_per_operator_day_degenerate():
    w = WorkforceParams(per_doc_time_s=Interval(25_200, 25_200))
    assert docs_per_operator_day(w) == Interval(1, 1)


def test_operators_required_assisted():
    assert operators_required(5000, Interval(210, 840), 1.15) == Interval(7, 28)


def test_operators_required_manual_formula():
    result = operators_required(5000, Interval(14, 84), 1.15)
    assert result == Interval(69, 411)
    # within 3% of the published 70 to 400 range
    assert abs(result.lo - 70) / 70 <= 0.03
    assert abs(result.hi - 400) / 400 <= 0.03


def test_operators_required_zero_volume():
    assert operators_required(0, Interval(210, 840), 1.15) == Interval(0, 0)


def test_operators_required_rejects_zero_throughput():
    with pytest.raises(ValueError, match="zero throughput"):
        operators_required(100, Interval(0, 10), 1.15)


def test_operators_required_monotone():
    base = operators_required(5000, Interval(210, 840), 1.15)
    more_volume = operators_required(6000, Interval(210, 840), 1.15)
    more_buffer = operators_required(5000, Interval(210, 840), 1.3)
    faster = operators_required(5000, Interval(420, 840), 1.15)
    assert more_volume.lo >= base.lo and more_volume.hi >= base.hi
    assert more_buffer.lo >= base.lo and more_buffer.hi >= base.hi
    assert faster.hi <= base.hi


def test_workforce_validation():
    with pytest.raises(ValueError):
        WorkforceParams(per_doc_time_s=Interval(0, 10))
    with pytest.raises(ValueError):
        WorkforceParams(per_doc_time_s=Interval(1, 2), buffer=0.9)
    with pytest.raises(ValueError):
        WorkforceParams(per_doc_time_s=Interval(1, 2), productive_hours=9.0)


def test_cloud_energy_per_doc():
    base = PipelineStage("base-model", 0.545)
    assert cloud_energy_per_doc([base]) == 0.000545
    stages = [base, PipelineStage("parser", 0.3), PipelineStage("verifier", 0.5)]
    assert cloud_energy_per_doc(stages) == 0.001345
    assert cloud_energy_per_doc([]) == 0.0


def test_cloud_energy_per_doc_order_independent():
    stages = [PipelineStage("a", 0.545), PipelineStage("b", 0.3), PipelineStage("c", 0.5)]
    assert cloud_energy_per_doc(stages) == cloud_energy_per_doc(list(reversed(stages)))


def _by_name(config, name):
    return next(s for s in config.scenarios if s.name == name)


def test_evaluate_manual(config, flash):
    fp = evaluate_scenario(_by_name(config, "manual"), flash)
    assert fp.operators == Interval(70, 400)
    assert fp.energy_kwh.lo == pytest.approx(36.3, abs=1e-9)
    assert fp.energy_kwh.hi == pytest.approx(194.7, abs=1e-9)
    assert fp.energy_per_doc_kwh == 0.0


def test_evaluate_hitl(config, flash):
    fp = evaluate_scenario(_by_name(config, "hitl"), flash)
    assert fp.energy_kwh.lo == pytest.approx(6.085, abs=1e-12)
    assert fp.energy_kwh.hi == pytest.approx(16.165, abs=1e-12)
    assert fp.energy_per_doc_kwh == 0.000545


def test_evaluate_agentic(config, flash):
    fp = evaluate_scenario(_by_name(config, "agentic"), flash)
    assert fp.energy_kwh.lo == pytest.approx(10.085, abs=1e-12)
    assert fp.energy_kwh.hi == pytest.approx(20.165, abs=1e-12)
    assert fp.energy_per_doc_kwh == 0.001345


def test_evaluate_zero_volume_scenario(flash):
    s = Scenario(
        name="idle",
        daily_volume=0,
        workforce=_hitl_workforce(),
        stages=(),
        overhead_kwh_per_day=0.0,
        operators_override=Interval(0, 0),
    )
    fp = evaluate_scenario(s, flash)
    assert fp.energy_kwh == Interval(0.0, 0.0)
    assert fp.co2_kg == Interval(0.0, 0.0)
    assert fp.water_l == Interval(0.0, 0.0)


def test_co2_rederivable_from_footprint(config, flash):
    for scenario in config.scenarios:
        fp = evaluate_scenario(scenario, flash)
        factor = flash.emission_factor_g_per_kwh / 1000.0
        assert fp.co2_kg.lo == fp.energy_kwh.lo * factor
        assert fp.co2_kg.hi == fp.energy_kwh.hi * factor


def test_override_agrees_with_formula(config, flash):
    hitl = _by_name(config, "hitl")
    formula = Scenario(
        name="hitl-formula",
        daily_volume=hitl.daily_volume,
        workforce=hitl.workforce,
        stages=hitl.stages,
        overhead_kwh_per_day=hitl.overhead_kwh_per_day,
        operators_override=None,
    )
    assert evaluate_scenario(formula, flash).energy_kwh == \
        evaluate_scenario(hitl, flash).energy_kwh


def _footprint_from_energy(energy, profile):
    return DailyFootprint(
        operators=Interval(1, 1),
        energy_kwh=energy,
        co2_kg=interval_scale(energy, profile.emission_factor_g_per_kwh / 1000.0),
        water_l=water_from_energy(energy, profile.wue),
        energy_per_doc_kwh=0.0,
    )


def test_compare_scenarios_hitl_vs_manual(flash):
    manual = _footprint_from_energy(Interval(36.3, 194.7), flash)
    hitl = _footprint_from_energy(Interval(6.1, 16.2), flash)
    cmp = compare_scenarios(manual, hitl)
    assert cmp.energy_reduction_pct.lo == pytest.approx(83.2, abs=0.05)
    assert cmp.energy_reduction_pct.hi == pytest.approx(91.7, abs=0.05)


def test_compare_scenarios_agentic_vs_manual(flash):
    manual = _footprint_from_energy(Interval(36.3, 194.7), flash)
    agentic = _footprint_from_energy(Interval(9.8, 20.5), flash)
    cmp = compare_scenarios(manual, agentic)
    assert cmp.energy_reduction_pct.lo == pytest.approx(73.0, abs=0.05)
    assert cmp.energy_reduction_pct.hi == pytest.approx(89.5, abs=0.05)


def test_compare_scenarios_self_is_zero(flash):
    fp = _footprint_from_energy(Interval(6.1, 16.2), flash)
    cmp = compare_scenarios(fp, fp)
    assert cmp.energy_reduction_pct == Interval(0.0, 0.0)
    assert cmp.co2_reduction_pct == Interval(0.0, 0.0)
    assert cmp.water_reduction_pct == Interval(0.0, 0.0)


def test_compare_scenarios_rejects_zero_baseline(flash):
    zero = _footprint_from_energy(Interval(0.0, 0.0), flash)
    live = _footprint_from_energy(Interval(1.0, 2.0), flash)
    with pytest.raises(ValueError, match="zero baseline"):
        compare_scenarios(zero, live)


def test_reduction_below_100_for_positive_candidate(flash):
    manual = _footprint_from_energy(Interval(36.3, 194.7), flash)
    tiny = _footprint_from_energy(Interval(0.001, 0.002), flash)
    cmp = compare_scenarios(manual, tiny)
    assert cmp.energy_reduction_pct.hi < 100.0


def test_incremental_cost(flash):
    hitl = _footprint_from_energy(Interval(6.1, 16.2), flash)
    agentic = _footprint_from_energy(Interval(9.8, 20.5), flash)
    iv = incremental_cost(hitl, agentic)
    assert iv.lo == pytest.approx(26.5, abs=0.05)
    assert iv.hi == pytest.approx(60.7, abs=0.05)


def test_incremental_cost_trivial(flash):
    fp = _footprint_from_energy(Interval(6.1, 16.2), flash)
    assert incremental_cost(fp, fp) == Interval(0.0, 0.0)
    one = _footprint_from_energy(Interval(1, 1), flash)
    two = _footprint_from_energy(Interval(2, 2), flash)
    assert incremental_cost(one, two) == Interval(100.0, 100.0)


def test_scenario_json_round_trip(config):
    for scenario in config.scenarios:
        assert Scenario.from_json_obj(scenario.to_json_obj()) == scenario


def test_scenario_json_rejects_unknown_key(config):
    obj = config.scenarios[0].to_json_obj()
    obj["surprise"] = True
    with pytest.raises(ValueError, match="unknown key"):
        Scenario.from_json_obj(obj)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="", daily_volume=1, workforce=_hitl_workforce())
    with pytest.raises(ValueError):
        Scenario(name="x", daily_volume=-1, workforce=_hitl_workforce())
    with pytest.raises(ValueError):
        Scenario(name="x", daily_volume=1, workforce=_hitl_workforce(),
                 operators_override=Interval(1.5, 2.0))


def _overflow_scenario(volume=100, laptop=0.48, override=None, stages=(), overhead=0.0):
    return Scenario(name="x", daily_volume=volume,
                    workforce=WorkforceParams(per_doc_time_s=Interval(30, 120),
                                              laptop_kwh_per_day=laptop),
                    stages=tuple(PipelineStage("s", e) for e in stages),
                    overhead_kwh_per_day=overhead, operators_override=override)


# Overflowing inputs and the exact message each one raises. The energy
# sum is (operators * laptop + cloud) + overhead, and the first partial
# result that overflows names its endpoint, even when a later one
# overflows too.
@pytest.mark.parametrize("kwargs, message", [
    (dict(laptop=1e300, override=Interval(0, 1e10)), "hi: must be finite, got inf"),
    (dict(laptop=1e300, override=Interval(1e10, 1e10)), "lo: must be finite, got inf"),
    (dict(volume=10 ** 4, stages=(1e308,)), "lo: must be finite, got inf"),
    (dict(volume=10 ** 4, laptop=1e300, override=Interval(0, 1e10), stages=(1e308,)),
     "hi: must be finite, got inf"),
    (dict(laptop=1.7e308, override=Interval(1, 1), overhead=1e308), "lo: must be finite, got inf"),
    (dict(laptop=1.7e308, override=Interval(0, 1), overhead=1e308), "hi: must be finite, got inf"),
    (dict(volume=1000, laptop=1.7e308, override=Interval(0, 1), stages=(1e308,), overhead=1e308),
     "hi: must be finite, got inf"),
], ids=["laptop-override-hi", "laptop-override-lo", "stage-volume", "laptop-and-cloud",
        "overhead-lo", "overhead-hi", "cloud-hi-before-overhead-lo"])
def test_energy_overflow_messages(flash, kwargs, message):
    with pytest.raises(ValueError) as info:
        evaluate_scenario(_overflow_scenario(**kwargs), flash)
    assert str(info.value) == message


def test_co2_and_water_overflow_messages(flash):
    scenario = _overflow_scenario(override=Interval(1, 2), overhead=1e300)
    for profile, message in [
        (dataclasses.replace(flash, emission_factor_g_per_kwh=1e300), "lo: must be finite, got inf"),
        (dataclasses.replace(flash, wue=Interval(0.3, 1e300)), "hi: must be finite, got inf"),
    ]:
        with pytest.raises(ValueError) as info:
            evaluate_scenario(scenario, profile)
        assert str(info.value) == message


def test_ratio_overflow_on_a_tiny_baseline(flash):
    tiny, big = Interval(1e-300, 1e-300), Interval(1.0, 1e10)
    with pytest.raises(ValueError) as info:
        increase_pct(tiny, big)
    assert str(info.value) == "hi: must be finite, got inf"
    with pytest.raises(ValueError) as info:
        compare_scenarios(_footprint_from_energy(tiny, flash), _footprint_from_energy(big, flash))
    assert str(info.value) == "hi: must be finite, got inf"
