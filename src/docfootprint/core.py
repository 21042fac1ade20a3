"""Core quantities and conversion formulas.

Everything in this module is a pure function over immutable values.
Range-valued quantities (operator counts, kWh per day, liters per day)
travel as closed intervals. Energy flows tokens -> Wh -> kWh and fans
out to grams of CO2 and liters of water through a FootprintProfile.

Values are validated once, where they enter: Interval() and the
dataclass constructors check every field, and from_json_obj checks the
JSON form on top. Arithmetic inside the package builds its results
through _interval, which keeps the same checks but lets finite float
endpoints in order skip the slow path; any other pair goes through
Interval() and raises its usual message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WH_PER_KWH = 1000.0

# Ceiling on any token count. It keeps every figure derived from a count
# finite and within the 28 digits that presentation rounding works in.
_MAX_TOKENS = 10 ** 15


def _require_number(value, name: str) -> float:
    # Fast path: a finite float (x - x is 0.0 only for finite x) is
    # returned as is, exactly as the checks below would return it.
    if type(value) is float and value - value == 0.0:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name}: must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{name}: must be finite, got {value!r}")
    return value


def _require_tokens(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    if value > _MAX_TOKENS:
        raise ValueError(f"{name} must be <= 10**15")


@dataclass(frozen=True)
class Interval:
    """Closed numeric range [lo, hi]. A point value has lo == hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = _require_number(self.lo, "lo")
        hi = _require_number(self.hi, "hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"invalid interval: lo {lo} > hi {hi}")

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    def width(self) -> float:
        return self.hi - self.lo

    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def as_tuple(self) -> tuple[float, float]:
        return (self.lo, self.hi)


# Looked up once rather than on each of the many _interval calls.
_new_object = object.__new__
_set_field = object.__setattr__


def _interval(lo, hi) -> Interval:
    """An Interval from endpoints the package computed itself.

    Finite float endpoints with lo <= hi pass every check Interval()
    makes, so they are stored without running them again. Anything
    else (NaN, an infinity, a reversed pair, a non-float) goes through
    Interval(lo, hi), which raises the message it always has.
    """
    if type(lo) is float and type(hi) is float and -math.inf < lo <= hi < math.inf:
        # What the generated __init__ does, without __post_init__.
        iv = _new_object(Interval)
        _set_field(iv, "lo", lo)
        _set_field(iv, "hi", hi)
        return iv
    return Interval(lo, hi)


def _json_fields(obj, required: tuple[str, ...], optional: tuple[str, ...] = (),
                 pairs: tuple[str, ...] = (), kinds: dict[str, type] | None = None) -> dict:
    """Check the keys of a JSON object and return a copy of its fields.

    Checks run in a fixed order, so the reported key never depends on
    hashing: the object type, then the first missing required key in
    declared order, then the first unknown key in sorted order. Keys in
    kinds must hold values of the given type when present. Keys in
    pairs must hold a [lo, hi] number pair (or null, when optional) and
    come back as an Interval.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{key}: missing required key")
    unknown = sorted(set(obj).difference(required, optional))
    if unknown:
        raise ValueError(f"{unknown[0]}: unknown key")
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


def interval_add(a: Interval, b: Interval) -> Interval:
    """Endpoint-wise sum of two intervals."""
    return _interval(a.lo + b.lo, a.hi + b.hi)


def interval_scale(a: Interval, k: float) -> Interval:
    """Scale an interval by a non-negative factor.

    Every scaled quantity here (energy, emissions, water) is sign
    preserving, so negative factors are rejected rather than handled
    by endpoint swapping.
    """
    k = _require_number(k, "k")
    if k < 0:
        raise ValueError(f"scale factor must be >= 0, got {k}")
    return _interval(a.lo * k, a.hi * k)


@dataclass(frozen=True)
class EnergyRate:
    """Per-token inference energy, expressed in Wh per 1,000 tokens."""

    wh_per_kilo_token: float

    def __post_init__(self):
        rate = _require_number(self.wh_per_kilo_token, "wh_per_kilo_token")
        object.__setattr__(self, "wh_per_kilo_token", rate)
        if rate <= 0:
            raise ValueError(f"wh_per_kilo_token must be > 0, got {rate}")


@dataclass(frozen=True)
class FootprintProfile:
    """Physical conversion constants for one modeled deployment.

    pue is the facility-to-IT energy ratio (1.0 is ideal), wue the
    water draw per kWh, emission_factor the grid carbon intensity,
    and co2_per_prompt_g a published per-prompt emission shortcut.
    """

    name: str
    rate: EnergyRate
    pue: float
    wue: Interval
    emission_factor_g_per_kwh: float
    co2_per_prompt_g: float

    def __post_init__(self):
        pue = _require_number(self.pue, "pue")
        factor = _require_number(self.emission_factor_g_per_kwh, "emission_factor_g_per_kwh")
        per_prompt = _require_number(self.co2_per_prompt_g, "co2_per_prompt_g")
        object.__setattr__(self, "pue", pue)
        object.__setattr__(self, "emission_factor_g_per_kwh", factor)
        object.__setattr__(self, "co2_per_prompt_g", per_prompt)
        if pue < 1.0:
            raise ValueError(f"pue >= 1 required, got {pue}")
        if self.wue.lo <= 0:
            raise ValueError(f"wue.lo must be > 0, got {self.wue.lo}")
        if factor <= 0:
            raise ValueError(f"emission_factor_g_per_kwh must be > 0, got {factor}")
        if per_prompt < 0:
            raise ValueError(f"co2_per_prompt_g must be >= 0, got {per_prompt}")

    @classmethod
    def from_json_obj(cls, name: str, obj: dict) -> "FootprintProfile":
        """Build a profile from its JSON object form; unknown keys are rejected."""
        fields = _json_fields(obj, ("rate_wh_per_ktok", "pue", "wue_l_per_kwh",
                                    "emission_factor_g_per_kwh", "co2_per_prompt_g"),
                              pairs=("wue_l_per_kwh",))
        return cls(
            name=name,
            rate=EnergyRate(_require_number(fields["rate_wh_per_ktok"], "rate_wh_per_ktok")),
            pue=fields["pue"],
            wue=fields["wue_l_per_kwh"],
            emission_factor_g_per_kwh=fields["emission_factor_g_per_kwh"],
            co2_per_prompt_g=fields["co2_per_prompt_g"],
        )

    def to_json_obj(self) -> dict:
        return {
            "rate_wh_per_ktok": self.rate.wh_per_kilo_token,
            "pue": self.pue,
            "wue_l_per_kwh": [self.wue.lo, self.wue.hi],
            "emission_factor_g_per_kwh": self.emission_factor_g_per_kwh,
            "co2_per_prompt_g": self.co2_per_prompt_g,
        }


@dataclass(frozen=True)
class Energy:
    """An amount of energy in kilowatt-hours."""

    kwh: float

    def __post_init__(self):
        if self.kwh < 0:
            raise ValueError("energy must be non-negative")


@dataclass(frozen=True)
class Carbon:
    """A mass of CO2 in grams."""

    grams: float

    def __post_init__(self):
        if self.grams < 0:
            raise ValueError("carbon must be non-negative")


@dataclass(frozen=True)
class Water:
    """A volume of water in liters, as a range."""

    liters: Interval

    def __post_init__(self):
        if self.liters.lo < 0:
            raise ValueError("water must be non-negative")


def inference_energy(tokens: int, rate: EnergyRate) -> float:
    """IT-side inference energy in Wh for a token count.

    The evaluation order tokens * rate / 1000 keeps the reference
    workloads exact in binary floating point (18,000 tokens at
    0.24 Wh/kTok is exactly 4.32 Wh); do not refactor to a
    pre-divided rate.
    """
    if tokens < 0:
        raise ValueError(f"tokens must be >= 0, got {tokens}")
    return tokens * rate.wh_per_kilo_token / 1000.0


def apply_pue(it_energy: float | Interval, pue: float) -> float | Interval:
    """Expand IT-side energy to facility energy by the PUE factor."""
    pue = _require_number(pue, "pue")
    if pue < 1.0:
        raise ValueError(f"pue >= 1 required, got {pue}")
    if isinstance(it_energy, Interval):
        return interval_scale(it_energy, pue)
    if it_energy < 0:
        raise ValueError("energy must be >= 0")
    return it_energy * pue


def co2_from_energy(energy_kwh: float | Interval, factor_g_per_kwh: float) -> float | Interval:
    """Grid CO2 in grams for an energy amount in kWh; endpoint-wise on intervals."""
    factor = _require_number(factor_g_per_kwh, "factor_g_per_kwh")
    if factor <= 0:
        raise ValueError(f"emission factor must be > 0, got {factor}")
    if isinstance(energy_kwh, Interval):
        return interval_scale(energy_kwh, factor)
    if energy_kwh < 0:
        raise ValueError("energy must be >= 0")
    return energy_kwh * factor


def water_from_energy(energy_kwh: float | Interval, wue: Interval) -> Interval:
    """Water draw in liters for an energy amount in kWh.

    Point energies span the full WUE range. Interval energies use the
    endpoint-matched pairing [e.lo * wue.lo, e.hi * wue.hi]: the low
    consumption case is taken together with the low water intensity,
    and likewise for the high case.
    """
    if isinstance(energy_kwh, Interval):
        return _interval(energy_kwh.lo * wue.lo, energy_kwh.hi * wue.hi)
    if energy_kwh < 0:
        raise ValueError("energy must be >= 0")
    return _interval(energy_kwh * wue.lo, energy_kwh * wue.hi)


def prompt_co2(prompts: int, co2_per_prompt_g: float) -> float:
    """Total CO2 in grams for a prompt count under a per-prompt factor."""
    if prompts < 0:
        raise ValueError(f"prompts must be >= 0, got {prompts}")
    per_prompt = _require_number(co2_per_prompt_g, "co2_per_prompt_g")
    if per_prompt < 0:
        raise ValueError(f"co2_per_prompt_g must be >= 0, got {per_prompt}")
    return prompts * per_prompt


@dataclass(frozen=True)
class ThinkingDelta:
    """Marginal cost of extended reasoning tokens on top of a base run.

    pct_increase is None when the base token count is zero and the
    ratio is undefined; it is never reported as infinity.
    """

    delta_energy_wh: float
    pct_increase: float | None
    delta_co2_g: float
    delta_water_ml: Interval


def thinking_delta(base_tokens: int, thinking_tokens: int,
                   profile: FootprintProfile) -> ThinkingDelta:
    """Energy, CO2, and water added by thinking tokens.

    The percentage convention is token-ratio based
    (thinking / base * 100), which equals the energy ratio under a
    linear rate.
    """
    _require_tokens(base_tokens, "base_tokens")
    _require_tokens(thinking_tokens, "thinking_tokens")
    delta_wh = inference_energy(thinking_tokens, profile.rate)
    delta_kwh = delta_wh / WH_PER_KWH
    if base_tokens == 0:
        pct = 0.0 if thinking_tokens == 0 else None
    else:
        pct = thinking_tokens / base_tokens * 100.0
    delta_co2 = co2_from_energy(delta_kwh, profile.emission_factor_g_per_kwh)
    water_l = water_from_energy(delta_kwh, profile.wue)
    return ThinkingDelta(
        delta_energy_wh=delta_wh,
        pct_increase=pct,
        delta_co2_g=delta_co2,
        delta_water_ml=interval_scale(water_l, 1000.0),
    )
