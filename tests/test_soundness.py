"""Soundness and invariants of scenario intervals, checked with Hypothesis.

A per-doc time drawn from inside the workforce range, or an operator
count drawn from inside the override, gives one point evaluation of the
energy formula. That point must land inside the interval that
evaluate_scenario reports for the whole range, for energy and for CO2.
Energy and CO2 never fall when the volume, the per-doc time or the
laptop draw rises, and no reduction exceeds 100%. Water pairs the low
energy with the low WUE and the high with the high, so its reduction is
the energy reduction, narrower than the envelope of every WUE pairing.
The reduction table's energy, CO2 and water rows are one row. Moving
both scenarios' operator overrides by the same fraction of their ranges
gives a printed reduction between the printed endpoints; per-doc time,
which enters through a floor and a ceiling, keeps the reduction only
inside the all-combinations envelope.
Every run is derandomized, so it checks the same examples.
"""

import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from docfootprint import (
    FootprintProfile,
    Interval,
    PipelineStage,
    Scenario,
    WorkforceParams,
    build_bundle,
    compare_scenarios,
    evaluate_scenario,
)
from docfootprint.scenarios import SECONDS_PER_HOUR

# Scenario inputs. per_doc_lo * spread stays within one productive day,
# so throughput is >= 1.
SCENARIO_PARAMS = st.fixed_dictionaries({
    "volume": st.integers(0, 10 ** 6),
    "per_doc_lo": st.floats(1.0, 600.0),
    "spread": st.floats(1.0, 6.0),
    "productive_hours": st.floats(1.0, 8.0),
    "buffer": st.floats(1.0, 2.0),
    "laptop": st.floats(0.0, 5.0),
    "stages": st.lists(st.floats(0.0, 10.0), max_size=4),
    "overhead": st.floats(0.0, 100.0),
    "override": st.none() | st.tuples(st.integers(0, 500), st.integers(0, 500)),
})
EMISSION_FACTORS = st.floats(1.0, 1000.0)
# WUE ranges as (lo, hi / lo): a point, or a range at least 1% wide.
WUE_RANGES = st.tuples(st.floats(0.01, 2.0), st.just(1.0) | st.floats(1.01, 4.0))


def _scenario(volume, per_doc_lo, spread, productive_hours, buffer, laptop,
              stages, overhead, override) -> Scenario:
    if override is not None:
        override = Interval(override[0], override[0] + override[1])
    return Scenario(
        name="sample",
        daily_volume=volume,
        workforce=WorkforceParams(per_doc_time_s=Interval(per_doc_lo, per_doc_lo * spread),
                                  productive_hours=productive_hours, buffer=buffer,
                                  laptop_kwh_per_day=laptop),
        stages=tuple(PipelineStage(f"s{i}", e) for i, e in enumerate(stages)),
        overhead_kwh_per_day=overhead,
        operators_override=override,
    )


def _profile(emission_factor: float) -> FootprintProfile:
    return FootprintProfile("sample", 0.24, 1.1, Interval(0.2, 0.5),
                            emission_factor, 0.03)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data(), params=SCENARIO_PARAMS, emission_factor=EMISSION_FACTORS)
def test_point_samples_land_inside_energy_and_co2(data, params, emission_factor):
    scenario = _scenario(**params)
    fp = evaluate_scenario(scenario, _profile(emission_factor))
    workforce, override = scenario.workforce, scenario.operators_override

    if override is not None:
        operators = data.draw(st.integers(int(override.lo), int(override.hi)), label="operators")
    else:
        per_doc = workforce.per_doc_time_s
        per_doc_time = data.draw(st.floats(per_doc.lo, per_doc.hi), label="per_doc_time")
        docs_per_day = math.floor(workforce.productive_hours * SECONDS_PER_HOUR / per_doc_time)
        operators = math.ceil(scenario.daily_volume / docs_per_day * workforce.buffer)
    energy = (operators * workforce.laptop_kwh_per_day
              + fp.energy_per_doc_kwh * scenario.daily_volume) + scenario.overhead_kwh_per_day
    co2 = energy * (emission_factor / 1000.0)

    assert fp.operators.contains(operators)
    assert fp.energy_kwh.contains(energy)
    assert fp.co2_kg.contains(co2)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(params=SCENARIO_PARAMS, emission_factor=EMISSION_FACTORS,
       extra_volume=st.integers(0, 10 ** 6), slower=st.floats(1.0, 3.0),
       extra_laptop=st.floats(0.0, 5.0))
def test_energy_and_co2_never_fall_when_an_input_rises(
        params, emission_factor, extra_volume, slower, extra_laptop):
    profile = _profile(emission_factor)
    scenario = _scenario(**params)
    workforce = scenario.workforce
    # The slower per-doc time stays within one productive day.
    per_doc_hi = min(workforce.per_doc_time_s.hi * slower,
                     workforce.productive_hours * SECONDS_PER_HOUR)
    per_doc = Interval(min(workforce.per_doc_time_s.lo * slower, per_doc_hi), per_doc_hi)
    raised = [
        dataclasses.replace(scenario, daily_volume=scenario.daily_volume + extra_volume),
        dataclasses.replace(scenario, workforce=dataclasses.replace(
            workforce, per_doc_time_s=per_doc)),
        dataclasses.replace(scenario, workforce=dataclasses.replace(
            workforce, laptop_kwh_per_day=workforce.laptop_kwh_per_day + extra_laptop)),
    ]
    before = evaluate_scenario(scenario, profile)
    for variant in raised:
        after = evaluate_scenario(variant, profile)
        for field in ("energy_kwh", "co2_kg"):
            low, high = getattr(before, field), getattr(after, field)
            assert high.lo >= low.lo and high.hi >= low.hi, (variant, field)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(baseline=SCENARIO_PARAMS, candidate=SCENARIO_PARAMS, emission_factor=EMISSION_FACTORS)
def test_reductions_are_at_most_100_percent(baseline, candidate, emission_factor):
    profile = _profile(emission_factor)
    base = evaluate_scenario(_scenario(**baseline), profile)
    assume(min(base.energy_kwh.lo, base.co2_kg.lo, base.water_l.lo) > 0)
    try:
        comparison = compare_scenarios(base, evaluate_scenario(_scenario(**candidate), profile))
    except ValueError as exc:
        # A ratio over a subnormal baseline can overflow; it is rejected,
        # never reported.
        assert "must be finite, got inf" in str(exc)
        return
    for reduction in (comparison.energy_reduction_pct, comparison.co2_reduction_pct,
                      comparison.water_reduction_pct):
        assert reduction.lo <= reduction.hi <= 100.0


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(baseline=SCENARIO_PARAMS, candidate=SCENARIO_PARAMS, wue=WUE_RANGES)
def test_water_reduction_is_the_energy_reduction_inside_the_wue_envelope(
        baseline, candidate, wue):
    wue_lo, spread = wue
    w = Interval(wue_lo, wue_lo * spread)
    profile = FootprintProfile("sample", 0.24, 1.1, w, 288.0, 0.03)
    base = evaluate_scenario(_scenario(**baseline), profile)
    assume(min(base.energy_kwh.lo, base.water_l.lo) > 0)
    cand = evaluate_scenario(_scenario(**candidate), profile)
    try:
        comparison = compare_scenarios(base, cand)
    except ValueError as exc:
        assert "must be finite, got inf" in str(exc)
        return
    matched = ((base.energy_kwh.lo, cand.energy_kwh.lo), (base.energy_kwh.hi, cand.energy_kwh.hi))
    envelope = [(1.0 - (c * w_c) / (b * w_b)) * 100.0
                for b, c in matched for w_b in (w.lo, w.hi) for w_c in (w.lo, w.hi)]
    water, energy = comparison.water_reduction_pct, comparison.energy_reduction_pct

    assert min(envelope) <= water.lo <= water.hi <= max(envelope)
    assert math.isclose(water.lo, energy.lo, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(water.hi, energy.hi, rel_tol=1e-9, abs_tol=1e-9)
    # A candidate whose energy is negligible next to the baseline's
    # reduces by 100% under every pairing once rounded to a float.
    if w.lo < w.hi and max(c / b for b, c in matched) > 1e-9:
        assert max(envelope) - min(envelope) > water.hi - water.lo


def _bundle_config(config, scenarios, profile):
    """config with its scenario profile replaced by profile and its
    scenarios by the given ones, named s0, s1, ..."""
    return dataclasses.replace(
        config, profiles={**config.profiles, config.scenario_profile: profile},
        scenarios=tuple(dataclasses.replace(s, name=f"s{i}") for i, s in enumerate(scenarios)))


METRICS = ("energy", "co2", "water")
# What a reduction table rejects: a zero baseline, a ratio past the float
# range, and a percent too large to present.
_REJECTED = ("zero baseline", "must be finite, got inf", "value too large to present")


def _reduction_rows(bundle):
    """The reduction table's metric rows as (JSON maps, CSV values,
    markdown cells), in METRICS order, each without its metric name."""
    table = bundle["reduction_table"]
    rows = json.loads(table["json"])["rows"]
    csv_rows = list(csv.reader(io.StringIO(table["csv"])))[1:]
    md_rows = [row.split(" | ") for row in table["markdown"].splitlines()[2:]]
    assert [r["metric"] for r in rows] == [r[0] for r in csv_rows] == list(METRICS)
    assert [r[0] for r in md_rows] == [f"| {m}" for m in METRICS]
    return [((r["reductions"], r["increases"]), c[1:], m[1:])
            for r, c, m in zip(rows, csv_rows, md_rows)]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(scenarios=st.lists(SCENARIO_PARAMS, min_size=2, max_size=5),
       emission_factor=EMISSION_FACTORS, wue=WUE_RANGES, data=st.data())
def test_reduction_rows_are_one_row_in_every_format(config, scenarios, emission_factor, wue,
                                                    data):
    # Every CO2 and water endpoint is the energy endpoint times a factor
    # that the endpoint-matched ratio cancels, so the three rows are equal
    # exactly, not within a tolerance.
    wue_lo, spread = wue
    profile = FootprintProfile("sample", 0.24, 1.1, Interval(wue_lo, wue_lo * spread),
                               emission_factor, 0.03)
    cfg = _bundle_config(config, [_scenario(**p) for p in scenarios], profile)
    baseline = data.draw(st.sampled_from([s.name for s in cfg.scenarios]), label="baseline")
    try:
        bundle = build_bundle(cfg, baseline)
    except ValueError as exc:
        assert any(reason in str(exc) for reason in _REJECTED), exc
        return
    energy, co2, water = _reduction_rows(bundle)
    assert energy == co2 == water


def _at(scenario, operators=None, per_doc_time=None):
    """scenario at one operator count or one per-doc time."""
    if operators is not None:
        return dataclasses.replace(scenario, operators_override=Interval(operators, operators))
    return dataclasses.replace(scenario, workforce=dataclasses.replace(
        scenario.workforce, per_doc_time_s=Interval(per_doc_time, per_doc_time)))


def _printed_reduction(config, profile, baseline, candidate):
    """The reduction table's (lo, hi) cells for candidate against baseline."""
    bundle = build_bundle(_bundle_config(config, [baseline, candidate], profile), "s0")
    return tuple(json.loads(bundle["reduction_table"]["json"])["rows"][0]["reductions"]["s1"])


# An override as (low, step): with steps, the range low .. low + steps *
# step, so that each j / steps of it is a whole operator count.
_OVERRIDES = st.tuples(st.integers(0, 500), st.integers(0, 100))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(base=SCENARIO_PARAMS, cand=SCENARIO_PARAMS, overrides=st.tuples(_OVERRIDES, _OVERRIDES),
       steps=st.integers(1, 5), emission_factor=EMISSION_FACTORS, data=st.data())
def test_matched_override_reduction_lies_between_the_printed_endpoints(
        config, base, cand, overrides, steps, emission_factor, data):
    # Energy is linear in the operator count. When both overrides move by
    # the same fraction t = j / steps of their ranges, the reduction at t
    # is a ratio of two linear functions of t, which is monotone, so its
    # values at t = 0 and t = 1 bound it. Presentation is monotone too, so
    # the printed reduction at t lies between the printed endpoints.
    profile = _profile(emission_factor)
    ranged = [_scenario(**{**p, "override": (low, steps * step)})
              for p, (low, step) in zip((base, cand), overrides)]
    j = data.draw(st.integers(0, steps), label="j")
    points = [_at(s, operators=low + j * step) for s, (low, step) in zip(ranged, overrides)]
    try:
        lo, hi = _printed_reduction(config, profile, *ranged)
        at_lo, at_hi = _printed_reduction(config, profile, *points)
    except ValueError as exc:
        assert any(reason in str(exc) for reason in _REJECTED), exc
        return
    assert at_lo == at_hi
    assert lo <= at_lo <= hi


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(base=SCENARIO_PARAMS, cand=SCENARIO_PARAMS, emission_factor=EMISSION_FACTORS,
       t=st.floats(0.0, 1.0))
def test_per_doc_time_reduction_lies_inside_the_envelope(base, cand, emission_factor, t):
    # Per-doc time sets the headcount through a floor and a ceiling, so
    # energy is a step function of it, and the ratio of two such functions
    # need not be monotone: at the same fraction t of both per-doc ranges
    # the reduction can leave the endpoint-matched pair (pinned below).
    # What holds is the all-combinations envelope, since each point energy
    # lies inside its interval.
    profile = _profile(emission_factor)
    ranged = [_scenario(**{**p, "override": None}) for p in (base, cand)]
    points = []
    for s in ranged:
        r = s.workforce.per_doc_time_s
        points.append(_at(s, per_doc_time=min(r.hi, r.lo + t * (r.hi - r.lo))))
    (b, c), (b_t, c_t) = ([evaluate_scenario(s, profile).energy_kwh for s in pair]
                          for pair in (ranged, points))
    assume(b.lo > 0)
    ratio = Fraction(c_t.lo) / Fraction(b_t.lo)
    assert Fraction(c.lo) / Fraction(b.hi) <= ratio <= Fraction(c.hi) / Fraction(b.lo)


def test_per_doc_time_reduction_can_leave_the_matched_pair(config):
    # Laptop-only scenarios over a 7-hour day, one kWh per operator. The
    # baseline, 100 documents at 100-500 s each, needs 1 operator up to
    # 252 s and 2 past it; the candidate, 10 documents at 1,000-4,000 s,
    # needs 1 up to 2,520 s and 2 past it. The endpoints print 0 -- 0, but
    # halfway through both ranges (300 s and 2,500 s) the baseline needs 2
    # operators and the candidate 1, a 50% reduction.
    profile = _profile(288.0)
    ranged = [_scenario(volume, lo, spread, 7.0, 1.0, 1.0, [], 0.0, None)
              for volume, lo, spread in ((100, 100.0, 5.0), (10, 1000.0, 4.0))]
    assert _printed_reduction(config, profile, *ranged) == (0, 0)
    points = [_at(s, per_doc_time=time) for s, time in zip(ranged, (300.0, 2500.0))]
    assert _printed_reduction(config, profile, *points) == (50, 50)
