"""Workforce scenarios and daily footprint evaluation.

A Scenario bundles workforce parameters, per-document pipeline stage
energies, and a daily volume. Evaluating it against a FootprintProfile
yields a DailyFootprint; two footprints can then be compared for
reduction percentages or incremental cost.
"""

from __future__ import annotations

import math
from decimal import Decimal

from .core import (
    FootprintProfile,
    Interval,
    _json_fields,
    _json_obj,
    _Record,
    _require_number,
    _set_field,
)

SECONDS_PER_HOUR = 3600.0
_WH_PER_KWH = Decimal(1000)


class WorkforceParams(_Record):
    """Operator workday model: an 8-hour shift with 7 productive hours,
    a capacity buffer on top of raw demand, and a flat laptop draw per
    operator-day."""

    per_doc_time_s: Interval
    shift_hours: float = 8.0
    productive_hours: float = 7.0
    buffer: float = 1.15
    laptop_kwh_per_day: float = 0.48

    def __init__(self, per_doc_time_s, shift_hours=8.0, productive_hours=7.0, buffer=1.15,
                 laptop_kwh_per_day=0.48):
        shift_hours = _require_number(shift_hours, "shift_hours")
        productive_hours = _require_number(productive_hours, "productive_hours")
        buffer = _require_number(buffer, "buffer")
        laptop_kwh_per_day = _require_number(laptop_kwh_per_day, "laptop_kwh_per_day")
        if shift_hours <= 0:
            raise ValueError("shift_hours must be > 0")
        if productive_hours <= 0 or productive_hours > shift_hours:
            raise ValueError("productive_hours must be in (0, shift_hours]")
        if buffer < 1.0:
            raise ValueError(f"buffer >= 1 required, got {buffer}")
        if per_doc_time_s.lo <= 0:
            raise ValueError("per_doc_time_s.lo must be > 0")
        if laptop_kwh_per_day < 0:
            raise ValueError("laptop_kwh_per_day must be >= 0")
        _set_field(self, "per_doc_time_s", per_doc_time_s)
        _set_field(self, "shift_hours", shift_hours)
        _set_field(self, "productive_hours", productive_hours)
        _set_field(self, "buffer", buffer)
        _set_field(self, "laptop_kwh_per_day", laptop_kwh_per_day)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WorkforceParams":
        return cls(**_json_fields(
            obj, ("per_doc_time_s",),
            ("shift_hours", "productive_hours", "buffer", "laptop_kwh_per_day"),
            pairs=("per_doc_time_s",)))

    to_json_obj = _json_obj


class PipelineStage(_Record):
    """One per-document processing stage and its facility-side energy."""

    name: str
    energy_wh_per_doc: float

    def __init__(self, name, energy_wh_per_doc):
        if not isinstance(name, str) or not name:
            raise ValueError("stage name must be a non-empty string")
        energy_wh_per_doc = _require_number(energy_wh_per_doc, "energy_wh_per_doc")
        if energy_wh_per_doc < 0:
            raise ValueError("energy_wh_per_doc must be >= 0")
        _set_field(self, "name", name)
        _set_field(self, "energy_wh_per_doc", energy_wh_per_doc)


class Scenario(_Record):
    """A named workload configuration evaluating to a DailyFootprint."""

    name: str
    daily_volume: int
    workforce: WorkforceParams
    stages: tuple[PipelineStage, ...] = ()
    overhead_kwh_per_day: float = 0.0
    operators_override: Interval | None = None

    def __init__(self, name, daily_volume, workforce, stages=(), overhead_kwh_per_day=0.0,
                 operators_override=None):
        if not isinstance(name, str) or not name:
            raise ValueError("scenario name must be a non-empty string")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            # A lone surrogate, which JSON's "\ud800" escape can give, cannot be written out.
            raise ValueError(f"scenario name {name!r} does not encode as UTF-8") from None
        # Rejects bools and integers too large for the float arithmetic below.
        _require_number(daily_volume, "daily_volume")
        if not isinstance(daily_volume, int):
            raise ValueError("daily_volume must be an integer")
        if daily_volume < 0:
            raise ValueError("daily_volume must be >= 0")
        stages = tuple(stages)
        overhead_kwh_per_day = _require_number(overhead_kwh_per_day, "overhead_kwh_per_day")
        if overhead_kwh_per_day < 0:
            raise ValueError("overhead_kwh_per_day must be >= 0")
        ov = operators_override
        if ov is not None:
            if ov.lo < 0 or ov.lo != int(ov.lo) or ov.hi != int(ov.hi):
                raise ValueError("operators_override endpoints must be integers >= 0")
        _set_field(self, "name", name)
        _set_field(self, "daily_volume", daily_volume)
        _set_field(self, "workforce", workforce)
        _set_field(self, "stages", stages)
        _set_field(self, "overhead_kwh_per_day", overhead_kwh_per_day)
        _set_field(self, "operators_override", operators_override)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Scenario":
        fields = _json_fields(
            obj, ("name", "daily_volume", "workforce"),
            ("stages", "overhead_kwh_per_day", "operators_override"),
            pairs=("operators_override",), kinds={"stages": list})
        fields["workforce"] = WorkforceParams.from_json_obj(fields["workforce"])
        stages = []
        for i, raw in enumerate(fields.get("stages", ())):
            try:
                # _json_fields would return an object of exactly the two
                # keys unchanged; every other shape goes through it, so each
                # error is raised where it always was.
                if (type(raw) is dict and len(raw) == 2 and "name" in raw
                        and "energy_wh_per_doc" in raw):
                    stages.append(PipelineStage(raw["name"], raw["energy_wh_per_doc"]))
                else:
                    stages.append(PipelineStage(**_json_fields(raw, ("name", "energy_wh_per_doc"))))
            except ValueError as exc:
                raise ValueError(f"stages[{i}]: {exc}") from None
        fields["stages"] = stages
        return cls(**fields)

    to_json_obj = _json_obj


class DailyFootprint(_Record):
    """A scenario's daily operators, energy, CO2 and water, and its energy per document."""

    operators: Interval
    energy_kwh: Interval
    co2_kg: Interval
    water_l: Interval
    energy_per_doc_kwh: float

    def __init__(self, operators, energy_kwh, co2_kg, water_l, energy_per_doc_kwh):
        if operators.lo < 0:
            raise ValueError("operators must be non-negative")
        if energy_kwh.lo < 0:
            raise ValueError("energy_kwh must be non-negative")
        if co2_kg.lo < 0:
            raise ValueError("co2_kg must be non-negative")
        if water_l.lo < 0:
            raise ValueError("water_l must be non-negative")
        if energy_per_doc_kwh < 0:
            raise ValueError("energy_per_doc_kwh must be >= 0")
        _set_field(self, "operators", operators)
        _set_field(self, "energy_kwh", energy_kwh)
        _set_field(self, "co2_kg", co2_kg)
        _set_field(self, "water_l", water_l)
        _set_field(self, "energy_per_doc_kwh", energy_per_doc_kwh)


def _operators(s: Scenario) -> tuple[float, float]:
    """Operator headcount endpoints for a scenario without an override.

    Documents one operator clears per day are floored to whole
    documents; the headcount is volume / throughput * buffer, ceiled.
    The fast-throughput endpoint needs the fewest operators, so the low
    bound pairs the volume with the high throughput. Scenario and
    WorkforceParams checked the volume and buffer when they were built.
    """
    w = s.workforce
    productive_seconds = w.productive_hours * SECONDS_PER_HOUR
    # Floats: past 2**53, an int volume divided by an int throughput
    # would round differently.
    try:
        tp_lo = float(math.floor(productive_seconds / w.per_doc_time_s.hi))
        tp_hi = float(math.floor(productive_seconds / w.per_doc_time_s.lo))
    except OverflowError:
        raise ValueError("throughput: must be finite, got inf") from None
    if tp_lo < 1:
        raise ValueError("throughput.lo must be >= 1 (zero throughput)")
    try:
        lo = math.ceil(s.daily_volume / tp_hi * w.buffer)
        hi = math.ceil(s.daily_volume / tp_lo * w.buffer)
    except OverflowError:
        raise ValueError("operators: must be finite, got inf") from None
    return float(lo), float(hi)


def cloud_energy_per_doc(stages: list[PipelineStage] | tuple[PipelineStage, ...]) -> float:
    """Summed per-document stage energy, in kWh.

    Stage energies are facility-side figures and are summed as given;
    a stage defined from an IT-side number should be expanded with
    apply_pue before it is put in a stage list. Summation is done in
    decimal so that stage order can never perturb the result.
    """
    if not stages:
        return 0.0
    total_wh = sum([Decimal(repr(s.energy_wh_per_doc)) for s in stages])
    return float(total_wh / _WH_PER_KWH)


def evaluate_scenario(s: Scenario, profile: FootprintProfile) -> DailyFootprint:
    """Daily energy/CO2/water footprint of a scenario under a profile.

    energy = operators * laptop_kwh + cloud_per_doc * volume + overhead,
    with the operator interval either taken from the override or derived
    from the workforce throughput formula.
    """
    w = s.workforce
    operators = s.operators_override
    if operators is None:
        operators = Interval(*_operators(s))
    ops_lo, ops_hi = operators.lo, operators.hi
    # Every term is non-negative, so a partial sum that overflows leaves
    # its endpoint infinite and Interval() reports it; CO2 and water are
    # checked the same way, after energy, as interval_scale and
    # water_from_energy would check them.
    laptop = w.laptop_kwh_per_day
    per_doc_kwh = cloud_energy_per_doc(s.stages)
    cloud = per_doc_kwh * s.daily_volume
    overhead = s.overhead_kwh_per_day
    energy = Interval((ops_lo * laptop + cloud) + overhead, (ops_hi * laptop + cloud) + overhead)
    factor = profile.emission_factor_g_per_kwh / 1000.0
    wue = profile.wue
    return DailyFootprint(operators, energy, Interval(energy.lo * factor, energy.hi * factor),
                          Interval(energy.lo * wue.lo, energy.hi * wue.hi), per_doc_kwh)


class ScenarioComparison(_Record):
    """Percent reductions of a candidate footprint against a baseline, per metric."""

    energy_reduction_pct: Interval
    co2_reduction_pct: Interval
    water_reduction_pct: Interval

    def __init__(self, energy_reduction_pct, co2_reduction_pct, water_reduction_pct):
        _set_field(self, "energy_reduction_pct", energy_reduction_pct)
        _set_field(self, "co2_reduction_pct", co2_reduction_pct)
        _set_field(self, "water_reduction_pct", water_reduction_pct)


def _increase(base: Interval, candidate: Interval) -> tuple[float, float]:
    """Endpoint-matched percentage increase of candidate over base, as a
    checked, ordered float pair."""
    if base.lo <= 0 or base.hi <= 0:
        raise ValueError("zero baseline")
    # Endpoint-matched ratios; the pair need not arrive ordered, so sort.
    at_hi = (candidate.hi / base.hi - 1.0) * 100.0
    at_lo = (candidate.lo / base.lo - 1.0) * 100.0
    lo, hi = (at_lo, at_hi) if at_lo < at_hi else (at_hi, at_lo)
    if not -math.inf < lo <= hi < math.inf:
        Interval(lo, hi)  # raises, naming the endpoint that is not finite
    return lo, hi


def _reduction(baseline: Interval, candidate: Interval) -> tuple[float, float]:
    """Percentage reduction endpoints: the increase pair, negated and swapped."""
    # (1 - r) * 100 is bit-identical to 0.0 - (r - 1) * 100; subtracting
    # from 0.0 rather than negating keeps an equal pair at +0.0.
    lo, hi = _increase(baseline, candidate)
    return 0.0 - hi, 0.0 - lo


def compare_scenarios(baseline: DailyFootprint, candidate: DailyFootprint) -> ScenarioComparison:
    """Percentage reductions of a candidate footprint against a baseline."""
    return ScenarioComparison(Interval(*_reduction(baseline.energy_kwh, candidate.energy_kwh)),
                              Interval(*_reduction(baseline.co2_kg, candidate.co2_kg)),
                              Interval(*_reduction(baseline.water_l, candidate.water_l)))


def incremental_cost(base: DailyFootprint, candidate: DailyFootprint) -> Interval:
    """Energy cost increase of candidate over base, in percent (endpoint-matched)."""
    return Interval(*_increase(base.energy_kwh, candidate.energy_kwh))
