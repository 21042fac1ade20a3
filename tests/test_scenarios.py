import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from docfootprint import (
    DailyFootprint,
    FootprintProfile,
    Interval,
    PipelineStage,
    Scenario,
    WorkforceParams,
    cloud_energy_per_doc,
    compare_scenarios,
    evaluate_scenario,
    incremental_cost,
    interval_scale,
    water_from_energy,
)
from docfootprint.core import _require_number
from docfootprint.scenarios import SECONDS_PER_HOUR, ScenarioComparison


def _hitl_workforce():
    return WorkforceParams(per_doc_time_s=Interval(30, 120))


def _headcount(volume, per_doc_time_s, buffer=1.15):
    """The operator interval evaluate_scenario derives, with no override."""
    scenario = Scenario(name="s", daily_volume=volume, workforce=WorkforceParams(
        per_doc_time_s=per_doc_time_s, buffer=buffer))
    return evaluate_scenario(scenario, FootprintProfile(
        "p", 0.24, 1.0, Interval(0.3, 1.0), 288.0, 0.03)).operators


def _assert_throughput(per_doc_time_s, docs_lo, docs_hi):
    """At buffer 1, one operator covers a volume up to the documents an
    operator clears per day, and two are needed one document past it."""
    assert _headcount(docs_hi, per_doc_time_s, buffer=1.0).lo == 1
    assert _headcount(docs_hi + 1, per_doc_time_s, buffer=1.0).lo == 2
    assert _headcount(docs_lo, per_doc_time_s, buffer=1.0).hi == 1
    assert _headcount(docs_lo + 1, per_doc_time_s, buffer=1.0).hi == 2
    assert (_headcount(docs_lo * docs_hi, per_doc_time_s, buffer=1.0)
            == Interval(docs_lo, docs_hi))


def test_docs_per_operator_day_manual():
    _assert_throughput(Interval(300, 1800), 14, 84)


def test_docs_per_operator_day_assisted():
    _assert_throughput(Interval(30, 120), 210, 840)


def test_operators_required_assisted():
    # 210 to 840 documents per operator-day.
    assert _headcount(5000, Interval(30, 120)) == Interval(7, 28)


def test_operators_required_manual_formula():
    # 14 to 84 documents per operator-day.
    result = _headcount(5000, Interval(300, 1800))
    assert result == Interval(69, 411)
    # within 3% of the published 70 to 400 range
    assert abs(result.lo - 70) / 70 <= 0.03
    assert abs(result.hi - 400) / 400 <= 0.03


def test_docs_per_operator_day_degenerate():
    # One document per 7-hour day: the headcount is the buffered volume, ceiled.
    assert _headcount(10, Interval(25_200, 25_200)) == Interval(12, 12)
    assert _headcount(10, Interval(25_200, 25_200), buffer=1.0) == Interval(10, 10)


def test_operators_required_zero_volume():
    assert _headcount(0, Interval(30, 120)) == Interval(0, 0)


def test_operators_required_rejects_zero_throughput():
    with pytest.raises(ValueError, match="zero throughput"):
        _headcount(100, Interval(30, 30_000))
    with pytest.raises(ValueError, match="daily_volume must be >= 0"):
        _headcount(-1, Interval(30, 120))
    with pytest.raises(ValueError, match="buffer >= 1 required"):
        _headcount(100, Interval(30, 120), buffer=0.9)


def test_operators_required_monotone():
    base = _headcount(5000, Interval(30, 120))
    more_volume = _headcount(6000, Interval(30, 120))
    more_buffer = _headcount(5000, Interval(30, 120), buffer=1.3)
    faster = _headcount(5000, Interval(30, 60))
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


@pytest.mark.parametrize("volume", [0, 10])
def test_a_stage_energy_sum_past_the_float_range_names_the_stages(flash, volume):
    """2,000 stages of 1.7e308 Wh sum to 3.4e308 kWh, past the float range;
    the error names the stages at any volume, not the inf or nan an
    energy endpoint would get from it."""
    stages = tuple(PipelineStage(f"s{i}", 1.7e308) for i in range(2000))
    scenario = Scenario(name="s", daily_volume=volume, workforce=_hitl_workforce(),
                        stages=stages)
    with pytest.raises(ValueError) as exc:
        evaluate_scenario(scenario, flash)
    assert str(exc.value) == "stages: summed energy_wh_per_doc overflows the float range"


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


def _scenario_obj(per_doc_time_s=(30.0, 120.0), operators_override=None):
    return {"name": "x", "daily_volume": 100,
            "workforce": {"per_doc_time_s": list(per_doc_time_s)},
            "operators_override": operators_override}


@pytest.mark.parametrize("obj, message", [
    (_scenario_obj(per_doc_time_s=(True, 120.0)), "per_doc_time_s[0]: expected a number, got True"),
    (_scenario_obj(per_doc_time_s=(30.0, math.nan)), "per_doc_time_s[1]: must be finite, got nan"),
    (_scenario_obj(operators_override=[3, 10 ** 400]),
     "operators_override[1]: must be finite, got an integer too large for a float"),
], ids=["bool-endpoint", "nan-endpoint", "huge-int-endpoint"])
def test_pair_endpoints_that_are_no_finite_float_are_named(obj, message):
    with pytest.raises(ValueError) as info:
        Scenario.from_json_obj(obj)
    assert str(info.value) == message


def test_integer_pair_endpoints_come_back_as_floats():
    scenario = Scenario.from_json_obj(_scenario_obj(per_doc_time_s=(30, 120.0),
                                                    operators_override=[3, 9]))
    for pair in (scenario.workforce.per_doc_time_s, scenario.operators_override):
        assert type(pair.lo) is float and type(pair.hi) is float
    assert scenario.operators_override == Interval(3.0, 9.0)
    assert scenario.workforce.per_doc_time_s == Interval(30.0, 120.0)


def _reference_fields(obj, required, optional=(), pairs=(), kinds=None):
    """_json_fields as it was before stages were built without it: every
    kind checked through a dict, every endpoint through _require_number."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{key}: missing required key")
    if len(obj) > len(required):
        unknown = set(obj).difference(required, optional)
        if unknown:
            raise ValueError(f"{min(unknown)}: unknown key")
    fields = dict(obj)
    for key, kind in (kinds or {}).items():
        if key in fields and not isinstance(fields[key], kind):
            raise ValueError(f"{key}: expected {kind.__name__}, got {type(fields[key]).__name__}")
    for key in pairs:
        span = fields.get(key)
        if span is None and key in optional:
            continue
        if not (isinstance(span, list) and len(span) == 2):
            raise ValueError(f"{key}: expected [lo, hi]")
        fields[key] = Interval(_require_number(span[0], f"{key}[0]"),
                               _require_number(span[1], f"{key}[1]"))
    return fields


def _reference_scenario(obj):
    """Scenario.from_json_obj as it was: each stage and the workforce
    through _reference_fields and their constructors' keywords."""
    fields = _reference_fields(
        obj, ("name", "daily_volume", "workforce"),
        ("stages", "overhead_kwh_per_day", "operators_override"),
        pairs=("operators_override",), kinds={"stages": list})
    fields["workforce"] = WorkforceParams(**_reference_fields(
        fields["workforce"], ("per_doc_time_s",),
        ("shift_hours", "productive_hours", "buffer", "laptop_kwh_per_day"),
        pairs=("per_doc_time_s",)))
    stages = []
    for i, raw in enumerate(fields.get("stages", ())):
        try:
            stages.append(PipelineStage(**_reference_fields(raw, ("name", "energy_wh_per_doc"))))
        except ValueError as exc:
            raise ValueError(f"stages[{i}]: {exc}") from None
    fields["stages"] = tuple(stages)
    return Scenario(**fields)


# Values each number check rejects: bools, NaN, infinities, negatives,
# integers beyond the float range and non-numbers.
_BAD_NUMBERS = (True, False, math.nan, math.inf, -math.inf, -1.0, -3, 10 ** 400, -(10 ** 400),
                "1", None)
_numbers = st.one_of(st.floats(min_value=0.001, max_value=1e4), st.integers(1, 10 ** 6))


def _rarely(draw) -> bool:
    # Two inner values of sixteen: Hypothesis favours the ends of a range.
    return draw(st.integers(0, 15)) in (5, 11)


def _sometimes(draw, good, bad):
    """Mostly a value from good, rarely one of bad, so that most objects
    get far enough to build their stages."""
    return draw(st.sampled_from(bad)) if _rarely(draw) else draw(good)


def _pair(draw):
    ends = sorted(draw(st.lists(_numbers, min_size=2, max_size=2)))
    ends = [_sometimes(draw, st.just(end), _BAD_NUMBERS) for end in ends]
    return _sometimes(draw, st.just(ends), ([1.0], [1.0, 2.0, 3.0], None, "1,2", {}))


# Keys that no record has, some sorting before and some after the real ones.
_extras = st.dictionaries(st.sampled_from(["zeta", "alpha", "Name", "energy"]),
                          st.integers(0, 3), min_size=1, max_size=2)


@st.composite
def _stage_objs(draw):
    name = _sometimes(draw, st.text(min_size=1, max_size=4), ("", None, 7, ["s"]))
    obj = {"name": name, "energy_wh_per_doc": _sometimes(draw, _numbers, _BAD_NUMBERS)}
    kind = draw(st.sampled_from(["extra", "missing", "not-a-dict"])) if _rarely(draw) else "exact"
    if kind == "extra":
        obj.update(draw(_extras))
    elif kind == "missing":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "not-a-dict":
        return draw(st.sampled_from([None, 1.5, "stage", [], list(obj.values())]))
    if draw(st.booleans()):
        # The same keys, inserted in the other order.
        obj = dict(reversed(list(obj.items())))
    return obj


@st.composite
def _scenario_objs(draw):
    workforce = {"per_doc_time_s": _pair(draw)}
    if draw(st.booleans()):
        workforce["buffer"] = _sometimes(draw, st.floats(1.0, 2.0), _BAD_NUMBERS)
    obj = {"name": _sometimes(draw, st.text(min_size=1, max_size=4), ("", None, "\ud800")),
           "daily_volume": _sometimes(draw, st.integers(0, 10 ** 6), _BAD_NUMBERS + (1.5,)),
           "workforce": workforce}
    if not _rarely(draw):
        obj["stages"] = _sometimes(draw, st.lists(_stage_objs(), min_size=1, max_size=5),
                                   ([], None, {}, "s"))
    if draw(st.booleans()):
        obj["overhead_kwh_per_day"] = _sometimes(draw, _numbers, _BAD_NUMBERS)
    if draw(st.booleans()):
        obj["operators_override"] = _sometimes(
            draw, st.builds(lambda lo, n: [lo, lo + n], st.integers(0, 500), st.integers(0, 9)),
            (None, [1.5, 2.0], [2, 1], [True, 1], [1, 10 ** 400], [math.nan, 1.0], "1,2"))
    if _rarely(draw):
        obj.update(draw(_extras))
    return obj


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(_scenario_objs())
def test_scenario_json_builds_as_through_json_fields(obj):
    """Scenario.from_json_obj gives the record, or the error text, that
    checking every object through _json_fields and building each record
    by keyword gives."""
    expected = _outcome(_reference_scenario, obj)
    assert _outcome(Scenario.from_json_obj, obj) == expected
    if not expected.startswith("ValueError: "):
        assert Scenario.from_json_obj(obj) == _reference_scenario(obj)


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


# Overflowing inputs and the exact message each one raises. Each energy
# endpoint is (operators * laptop + cloud) + overhead; the message names
# lo when the low endpoint overflows, otherwise hi.
_OVERFLOW_CASES = [
    (dict(laptop=1e300, override=Interval(0, 1e10)), "hi: must be finite, got inf"),
    (dict(laptop=1e300, override=Interval(1e10, 1e10)), "lo: must be finite, got inf"),
    (dict(volume=10 ** 4, stages=(1e308,)), "lo: must be finite, got inf"),
    (dict(volume=10 ** 4, laptop=1e300, override=Interval(0, 1e10), stages=(1e308,)),
     "lo: must be finite, got inf"),
    (dict(laptop=1.7e308, override=Interval(1, 1), overhead=1e308), "lo: must be finite, got inf"),
    (dict(laptop=1.7e308, override=Interval(0, 1), overhead=1e308), "hi: must be finite, got inf"),
    (dict(volume=1000, laptop=1.7e308, override=Interval(0, 1), stages=(1e308,), overhead=1e308),
     "lo: must be finite, got inf"),
]


@pytest.mark.parametrize("kwargs, message", _OVERFLOW_CASES, ids=[
    "laptop-override-hi", "laptop-override-lo", "stage-volume", "laptop-and-cloud",
    "overhead-lo", "overhead-hi", "cloud-hi-before-overhead-lo"])
def test_energy_overflow_messages(flash, kwargs, message):
    with pytest.raises(ValueError) as info:
        evaluate_scenario(_overflow_scenario(**kwargs), flash)
    assert str(info.value) == message


def _overflowing_profiles(flash):
    return [
        (dataclasses.replace(flash, emission_factor_g_per_kwh=1e300), "lo: must be finite, got inf"),
        (dataclasses.replace(flash, wue=Interval(0.3, 1e300)), "hi: must be finite, got inf"),
    ]


def test_co2_and_water_overflow_messages(flash):
    scenario = _overflow_scenario(override=Interval(1, 2), overhead=1e300)
    for profile, message in _overflowing_profiles(flash):
        with pytest.raises(ValueError) as info:
            evaluate_scenario(scenario, profile)
        assert str(info.value) == message


def test_ratio_overflow_on_a_tiny_baseline(flash):
    tiny, big = Interval(1e-300, 1e-300), Interval(1.0, 1e10)
    with pytest.raises(ValueError) as info:
        incremental_cost(_footprint_from_energy(tiny, flash), _footprint_from_energy(big, flash))
    assert str(info.value) == "hi: must be finite, got inf"
    with pytest.raises(ValueError) as info:
        compare_scenarios(_footprint_from_energy(tiny, flash), _footprint_from_energy(big, flash))
    assert str(info.value) == "hi: must be finite, got inf"


def _reference_footprint(s, profile):
    """evaluate_scenario spelled out: the headcount formula with floor and
    ceil, then the public energy, CO2 and water formulas."""
    w = s.workforce
    if s.operators_override is not None:
        operators = s.operators_override
    else:
        seconds = w.productive_hours * SECONDS_PER_HOUR
        try:
            docs_lo = math.floor(seconds / w.per_doc_time_s.hi)
            docs_hi = math.floor(seconds / w.per_doc_time_s.lo)
        except OverflowError:
            raise ValueError("throughput: must be finite, got inf") from None
        if docs_lo < 1:
            raise ValueError("throughput.lo must be >= 1 (zero throughput)")
        try:
            operators = Interval(math.ceil(s.daily_volume / docs_hi * w.buffer),
                                 math.ceil(s.daily_volume / docs_lo * w.buffer))
        except OverflowError:
            raise ValueError("operators: must be finite, got inf") from None
    laptop = s.workforce.laptop_kwh_per_day
    per_doc_kwh = cloud_energy_per_doc(s.stages)
    cloud = per_doc_kwh * s.daily_volume
    overhead = s.overhead_kwh_per_day
    energy = Interval((operators.lo * laptop + cloud) + overhead,
                      (operators.hi * laptop + cloud) + overhead)
    return DailyFootprint(
        operators=operators,
        energy_kwh=energy,
        co2_kg=interval_scale(energy, profile.emission_factor_g_per_kwh / 1000.0),
        water_l=water_from_energy(energy, profile.wue),
        energy_per_doc_kwh=per_doc_kwh,
    )


def _reference_increase(base, candidate):
    """incremental_cost's ratio spelled out: endpoint-matched ratios, sorted."""
    if base.lo <= 0 or base.hi <= 0:
        raise ValueError("zero baseline")
    at_hi = (candidate.hi / base.hi - 1.0) * 100.0
    at_lo = (candidate.lo / base.lo - 1.0) * 100.0
    return Interval(min(at_hi, at_lo), max(at_hi, at_lo))


def _reference_reduction(baseline, candidate):
    inc = _reference_increase(baseline, candidate)
    return Interval(0.0 - inc.hi, 0.0 - inc.lo)


def _reference_comparison(baseline, candidate):
    return ScenarioComparison(
        energy_reduction_pct=_reference_reduction(baseline.energy_kwh, candidate.energy_kwh),
        co2_reduction_pct=_reference_reduction(baseline.co2_kg, candidate.co2_kg),
        water_reduction_pct=_reference_reduction(baseline.water_l, candidate.water_l),
    )


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_evaluate_and_compare_match_the_composed_formulas(perfbench_gen, flash):
    gen = perfbench_gen
    profiles = {name: FootprintProfile.from_json_obj(name, obj)
                for name, obj in gen.PROFILES.items()}
    manual = Scenario.from_json_obj(gen.MANUAL_SCENARIO)
    cases = [(Scenario.from_json_obj(obj), profiles[name])
             for seed in (1, 2, 3) for name, obj in gen.scenario_grid(seed)]
    cases += [(_overflow_scenario(**kwargs), flash) for kwargs, _ in _OVERFLOW_CASES]
    # Zero throughput, throughput and operator overflow, and zero volume.
    cases += [(Scenario(name="edge", daily_volume=volume, workforce=WorkforceParams(
        per_doc_time_s=Interval(lo, hi), buffer=buffer)), flash) for volume, lo, hi, buffer in [
            (100, 30.0, 30000.0, 1.15), (100, 1e-320, 1.0, 1.15), (10 ** 10, 30.0, 120.0, 1e308),
            (0, 30.0, 120.0, 1.15)]]
    overflowing = _overflow_scenario(override=Interval(1, 2), overhead=1e300)
    cases += [(overflowing, profile) for profile, _ in _overflowing_profiles(flash)]
    footprints = [_footprint_from_energy(Interval(lo, hi), flash) for lo, hi in [
        (0.0, 0.0), (0.0, 1.0), (1e-300, 1e-300), (1.0, 1e10), (36.3, 194.7), (6.1, 16.2),
        (1e300, 1e308)]]
    prev = None
    for scenario, profile in cases:
        outcome = _outcome(evaluate_scenario, scenario, profile)
        assert outcome == _outcome(_reference_footprint, scenario, profile)
        if outcome.startswith("ValueError"):
            continue
        footprint = evaluate_scenario(scenario, profile)
        footprints.append(footprint)
        for base in (evaluate_scenario(manual, profile), prev or footprint):
            assert (_outcome(compare_scenarios, base, footprint)
                    == _outcome(_reference_comparison, base, footprint))
            assert (_outcome(incremental_cost, base, footprint)
                    == _outcome(_reference_increase, base.energy_kwh, footprint.energy_kwh))
        prev = footprint
    assert len(footprints) > 3000
    for base in footprints[:7]:
        for candidate in footprints[:7] + footprints[-5:]:
            assert (_outcome(compare_scenarios, base, candidate)
                    == _outcome(_reference_comparison, base, candidate))
            assert (_outcome(incremental_cost, base, candidate)
                    == _outcome(_reference_increase, base.energy_kwh, candidate.energy_kwh))
