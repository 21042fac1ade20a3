"""Point-sample soundness of scenario intervals, checked with Hypothesis.

A per-doc time drawn from inside the workforce range, or an operator
count drawn from inside the override, gives one point evaluation of the
energy formula. That point must land inside the interval that
evaluate_scenario reports for the whole range, for energy and for CO2.
The run is derandomized, so every run checks the same examples.
"""

import math

from hypothesis import given, settings, strategies as st

from docfootprint import (
    EnergyRate,
    FootprintProfile,
    Interval,
    PipelineStage,
    Scenario,
    WorkforceParams,
    evaluate_scenario,
)
from docfootprint.scenarios import SECONDS_PER_HOUR


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    data=st.data(),
    volume=st.integers(0, 10 ** 6),
    per_doc_lo=st.floats(1.0, 600.0),
    spread=st.floats(1.0, 6.0),
    productive_hours=st.floats(1.0, 8.0),
    buffer=st.floats(1.0, 2.0),
    laptop=st.floats(0.0, 5.0),
    stages=st.lists(st.floats(0.0, 10.0), max_size=4),
    overhead=st.floats(0.0, 100.0),
    override=st.none() | st.tuples(st.integers(0, 500), st.integers(0, 500)),
    emission_factor=st.floats(1.0, 1000.0),
)
def test_point_samples_land_inside_energy_and_co2(
        data, volume, per_doc_lo, spread, productive_hours, buffer, laptop,
        stages, overhead, override, emission_factor):
    # per_doc_hi stays within one productive day, so throughput is >= 1.
    per_doc = Interval(per_doc_lo, per_doc_lo * spread)
    if override is not None:
        override = Interval(override[0], override[0] + override[1])
    scenario = Scenario(
        name="sample",
        daily_volume=volume,
        workforce=WorkforceParams(per_doc_time_s=per_doc, productive_hours=productive_hours,
                                  buffer=buffer, laptop_kwh_per_day=laptop),
        stages=tuple(PipelineStage(f"s{i}", e) for i, e in enumerate(stages)),
        overhead_kwh_per_day=overhead,
        operators_override=override,
    )
    profile = FootprintProfile("sample", EnergyRate(0.24), 1.1, Interval(0.2, 0.5),
                               emission_factor, 0.03)
    fp = evaluate_scenario(scenario, profile)

    if override is not None:
        operators = data.draw(st.integers(int(override.lo), int(override.hi)), label="operators")
    else:
        per_doc_time = data.draw(st.floats(per_doc.lo, per_doc.hi), label="per_doc_time")
        docs_per_day = math.floor(productive_hours * SECONDS_PER_HOUR / per_doc_time)
        operators = math.ceil(volume / docs_per_day * buffer)
    energy = (operators * laptop + fp.energy_per_doc_kwh * volume) + overhead
    co2 = energy * (emission_factor / 1000.0)

    assert fp.operators.contains(operators)
    assert fp.energy_kwh.contains(energy)
    assert fp.co2_kg.contains(co2)
