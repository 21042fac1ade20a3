"""Workforce scenarios and daily footprint evaluation.

A Scenario bundles workforce parameters, per-document pipeline stage
energies, and a daily volume. Evaluating it against a FootprintProfile
yields a DailyFootprint; two footprints can then be compared for
reduction percentages or incremental cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .core import (
    FootprintProfile,
    Interval,
    _interval,
    _json_fields,
    _require_number,
    interval_scale,
    water_from_energy,
)

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class WorkforceParams:
    """Operator workday model: an 8-hour shift with 7 productive hours,
    a capacity buffer on top of raw demand, and a flat laptop draw per
    operator-day."""

    per_doc_time_s: Interval
    shift_hours: float = 8.0
    productive_hours: float = 7.0
    buffer: float = 1.15
    laptop_kwh_per_day: float = 0.48

    def __post_init__(self):
        for name in ("shift_hours", "productive_hours", "buffer", "laptop_kwh_per_day"):
            object.__setattr__(self, name, _require_number(getattr(self, name), name))
        if self.shift_hours <= 0:
            raise ValueError("shift_hours must be > 0")
        if self.productive_hours <= 0 or self.productive_hours > self.shift_hours:
            raise ValueError("productive_hours must be in (0, shift_hours]")
        if self.buffer < 1.0:
            raise ValueError(f"buffer >= 1 required, got {self.buffer}")
        if self.per_doc_time_s.lo <= 0:
            raise ValueError("per_doc_time_s.lo must be > 0")
        if self.laptop_kwh_per_day < 0:
            raise ValueError("laptop_kwh_per_day must be >= 0")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WorkforceParams":
        return cls(**_json_fields(
            obj, ("per_doc_time_s",),
            ("shift_hours", "productive_hours", "buffer", "laptop_kwh_per_day"),
            pairs=("per_doc_time_s",)))

    def to_json_obj(self) -> dict:
        return {
            "shift_hours": self.shift_hours,
            "productive_hours": self.productive_hours,
            "buffer": self.buffer,
            "per_doc_time_s": [self.per_doc_time_s.lo, self.per_doc_time_s.hi],
            "laptop_kwh_per_day": self.laptop_kwh_per_day,
        }


@dataclass(frozen=True)
class PipelineStage:
    """One per-document processing stage and its facility-side energy."""

    name: str
    energy_wh_per_doc: float

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("stage name must be a non-empty string")
        energy = _require_number(self.energy_wh_per_doc, "energy_wh_per_doc")
        object.__setattr__(self, "energy_wh_per_doc", energy)
        if energy < 0:
            raise ValueError("energy_wh_per_doc must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """A named workload configuration evaluating to a DailyFootprint."""

    name: str
    daily_volume: int
    workforce: WorkforceParams
    stages: tuple[PipelineStage, ...] = ()
    overhead_kwh_per_day: float = 0.0
    operators_override: Interval | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("scenario name must be a non-empty string")
        # Rejects bools and integers too large for the float arithmetic below.
        _require_number(self.daily_volume, "daily_volume")
        if not isinstance(self.daily_volume, int):
            raise ValueError("daily_volume must be an integer")
        if self.daily_volume < 0:
            raise ValueError("daily_volume must be >= 0")
        object.__setattr__(self, "stages", tuple(self.stages))
        overhead = _require_number(self.overhead_kwh_per_day, "overhead_kwh_per_day")
        object.__setattr__(self, "overhead_kwh_per_day", overhead)
        if overhead < 0:
            raise ValueError("overhead_kwh_per_day must be >= 0")
        ov = self.operators_override
        if ov is not None:
            if ov.lo < 0 or ov.lo != int(ov.lo) or ov.hi != int(ov.hi):
                raise ValueError("operators_override endpoints must be integers >= 0")

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
                stages.append(PipelineStage(**_json_fields(raw, ("name", "energy_wh_per_doc"))))
            except ValueError as exc:
                raise ValueError(f"stages[{i}]: {exc}") from None
        fields["stages"] = tuple(stages)
        return cls(**fields)

    def to_json_obj(self) -> dict:
        override = self.operators_override
        return {
            "name": self.name,
            "daily_volume": self.daily_volume,
            "workforce": self.workforce.to_json_obj(),
            "stages": [{"name": s.name, "energy_wh_per_doc": s.energy_wh_per_doc}
                       for s in self.stages],
            "overhead_kwh_per_day": self.overhead_kwh_per_day,
            "operators_override": None if override is None else [override.lo, override.hi],
        }


@dataclass(frozen=True)
class DailyFootprint:
    operators: Interval
    energy_kwh: Interval
    co2_kg: Interval
    water_l: Interval
    energy_per_doc_kwh: float

    def __post_init__(self):
        for name in ("operators", "energy_kwh", "co2_kg", "water_l"):
            if getattr(self, name).lo < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.energy_per_doc_kwh < 0:
            raise ValueError("energy_per_doc_kwh must be >= 0")


def docs_per_operator_day(w: WorkforceParams) -> Interval:
    """Documents one operator clears per day, floored to whole documents."""
    productive_seconds = w.productive_hours * SECONDS_PER_HOUR
    lo = math.floor(productive_seconds / w.per_doc_time_s.hi)
    hi = math.floor(productive_seconds / w.per_doc_time_s.lo)
    return _interval(float(lo), float(hi))


def operators_required(volume: int, throughput: Interval, buffer: float) -> Interval:
    """Operator headcount needed for a daily volume, with capacity buffer.

    The fast-throughput endpoint needs the fewest operators, so the
    result pairs volume/throughput.hi with the low bound.
    """
    if volume < 0:
        raise ValueError("volume must be >= 0")
    buffer = _require_number(buffer, "buffer")
    if buffer < 1.0:
        raise ValueError(f"buffer >= 1 required, got {buffer}")
    if throughput.lo < 1:
        raise ValueError("throughput.lo must be >= 1 (zero throughput)")
    lo = math.ceil(volume / throughput.hi * buffer)
    hi = math.ceil(volume / throughput.lo * buffer)
    return _interval(float(lo), float(hi))


def cloud_energy_per_doc(stages: list[PipelineStage] | tuple[PipelineStage, ...]) -> float:
    """Summed per-document stage energy, in kWh.

    Stage energies are facility-side figures and are summed as given;
    a stage defined from an IT-side number should be expanded with
    apply_pue before it is put in a stage list. Summation is done in
    decimal so that stage order can never perturb the result.
    """
    if not stages:
        return 0.0
    total_wh = sum(Decimal(repr(s.energy_wh_per_doc)) for s in stages)
    return float(total_wh / Decimal(1000))


def evaluate_scenario(s: Scenario, profile: FootprintProfile) -> DailyFootprint:
    """Daily energy/CO2/water footprint of a scenario under a profile.

    energy = operators * laptop_kwh + cloud_per_doc * volume + overhead,
    with the operator interval either taken from the override or derived
    from the workforce throughput formula.
    """
    if s.operators_override is not None:
        operators = s.operators_override
    else:
        operators = operators_required(
            s.daily_volume, docs_per_operator_day(s.workforce), s.workforce.buffer)
    # Energy endpoints on floats, in the order (operators * laptop + cloud)
    # + overhead. Every partial result is checked in the order the
    # interval steps (scale, add the cloud point, add the overhead point)
    # checked it, so an overflow names the same endpoint with the same
    # message. The laptop draw and overhead were checked by their records.
    laptop = s.workforce.laptop_kwh_per_day
    lo = _require_number(operators.lo * laptop, "lo")
    hi = _require_number(operators.hi * laptop, "hi")
    per_doc_kwh = cloud_energy_per_doc(s.stages)
    cloud = _require_number(per_doc_kwh * s.daily_volume, "lo")
    lo = _require_number(lo + cloud, "lo")
    hi = _require_number(hi + cloud, "hi")
    energy = _interval(lo + s.overhead_kwh_per_day, hi + s.overhead_kwh_per_day)
    co2_kg = interval_scale(energy, profile.emission_factor_g_per_kwh / 1000.0)
    water_l = water_from_energy(energy, profile.wue)
    return DailyFootprint(
        operators=operators,
        energy_kwh=energy,
        co2_kg=co2_kg,
        water_l=water_l,
        energy_per_doc_kwh=per_doc_kwh,
    )


@dataclass(frozen=True)
class ScenarioComparison:
    energy_reduction_pct: Interval
    co2_reduction_pct: Interval
    water_reduction_pct: Interval


def increase_pct(base: Interval, candidate: Interval) -> Interval:
    """Endpoint-matched percentage increase of one interval over another."""
    if base.lo <= 0 or base.hi <= 0:
        raise ValueError("zero baseline")
    # Endpoint-matched ratios; the pair need not arrive ordered, so sort.
    at_hi = (candidate.hi / base.hi - 1.0) * 100.0
    at_lo = (candidate.lo / base.lo - 1.0) * 100.0
    return _interval(min(at_hi, at_lo), max(at_hi, at_lo))


def _reduction_pct(baseline: Interval, candidate: Interval) -> Interval:
    # (1 - r) * 100 is bit-identical to 0.0 - (r - 1) * 100; subtracting
    # from 0.0 rather than negating keeps an equal pair at +0.0.
    inc = increase_pct(baseline, candidate)
    return _interval(0.0 - inc.hi, 0.0 - inc.lo)


def compare_scenarios(baseline: DailyFootprint, candidate: DailyFootprint) -> ScenarioComparison:
    """Percentage reductions of a candidate footprint against a baseline."""
    return ScenarioComparison(
        energy_reduction_pct=_reduction_pct(baseline.energy_kwh, candidate.energy_kwh),
        co2_reduction_pct=_reduction_pct(baseline.co2_kg, candidate.co2_kg),
        water_reduction_pct=_reduction_pct(baseline.water_l, candidate.water_l),
    )


def incremental_cost(base: DailyFootprint, candidate: DailyFootprint) -> Interval:
    """Energy cost increase of candidate over base, in percent (endpoint-matched)."""
    return increase_pct(base.energy_kwh, candidate.energy_kwh)
