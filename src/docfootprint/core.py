"""Core quantities and conversion formulas.

Everything in this module is a pure function over immutable values.
Range-valued quantities (operator counts, kWh per day, liters per day)
travel as closed intervals. Energy flows tokens -> Wh -> kWh and fans
out to grams of CO2 and liters of water through a FootprintProfile.

Values are validated where they are built. Every record has a
hand-written __init__. Most check their fields, and from_json_obj checks
the JSON form on top. Eight only store theirs: VerificationRecord,
Footprint, ExtractionResult, ThinkingDelta, DailyFootprint,
ScenarioComparison, Config and Deviation; the package builds them only
from values it has already checked. DailyFootprint, for one, is built
only by scenarios.evaluate_scenario, from sums and products of fields
checked to be non-negative where their records were built, so none of
its figures is negative; Interval() reports any that overflows.
Two constructors skip __init__: pipeline._line_item, for the
fields the invoice parser's row grammar has already proved, and
reporting.Config._hashed_on_read, which also keeps the canonical text
that the config hash is taken over.

A record is a _Record subclass: _Record makes the instance frozen and
gives it field-wise ==, hash and repr over its annotated fields. The
record is registered as a dataclass, for dataclasses.fields and
replace, on first use, so importing the package never imports
dataclasses. An __init__ stores its fields with _Record._store, which
sets its values as the record's first fields in declaration order. The
records built once per scenario, grid point or invoice keep one
_set_field line per field instead: Interval, scenarios' WorkforceParams,
PipelineStage, Scenario, DailyFootprint and ScenarioComparison,
pipeline's TokenLedger, VerificationRecord, Footprint, ExtractionResult
and _line_item, and the one-field Energy, Carbon and Water. _store's
loop costs about 0.4 us more per record (CPython 3.11), which those
paths would pay for every record they build.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

WH_PER_KWH = 1000.0

# Ceiling on any token count. It keeps every figure derived from a count
# finite and within the 28 digits that presentation rounding works in.
_MAX_TOKENS = 10 ** 15


# float(n) of an int n is finite exactly when |n| < 2**1024 - 2**970: that
# bound lies halfway between the largest float and 2**1024 and rounds up.
_FLOAT_INT_BOUND = 2 ** 1024 - 2 ** 970


def _require_number(value, name: str) -> float:
    # Fast paths: a finite float (x - x is 0.0 only for finite x) is
    # returned as is, and an int (not a bool) within the float range is
    # converted, exactly as the checks below would return them.
    if type(value) is float and value - value == 0.0:
        return value
    if type(value) is int and -_FLOAT_INT_BOUND < value < _FLOAT_INT_BOUND:
        return float(value)
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


_ONE = Decimal(1)


def _half_up(x, places: int = 1) -> int:
    """x rounded half-up to places decimals, as a whole number of 10**-places.

    The presentation rounding rule: a float is rounded as Decimal(repr(x)),
    a Decimal as it is. For one place the float is rounded directly when
    that gives the same digit. Below 2**20 repr(x) is within half an ulp
    (5.8e-11) of x, and the tenths remainder r is off by about 1e-15, so
    the two round alike unless r is within 1e-6 of the tie at 0.5. Ties,
    large values, other places, non-floats and non-finite values take the
    Decimal expression, which is also where every error comes from.
    """
    if type(x) is float and places == 1:
        a = -x if x < 0.0 else x
        if a < 1048576.0:
            n = int(a)
            g = (a - n) * 10.0
            d = int(g)
            r = g - d
            if not 0.499999 <= r <= 0.500001:
                t = 10 * n + d + (r > 0.5)
                return -t if x < 0.0 else t
    value = x if isinstance(x, Decimal) else Decimal(repr(x))
    try:
        return int(value.quantize(_ONE.scaleb(-places), ROUND_HALF_UP).scaleb(places))
    except InvalidOperation:
        # quantize fails only when the rounded value needs more digits
        # than the decimal context's 28. A float formats as its repr.
        raise ValueError(f"value too large to present: {x}") from None


# How a record's __init__ stores a field past the frozen __setattr__.
_set_field = object.__setattr__


class _Registration:
    """A name @dataclass(init=False, repr=False, eq=False) sets on a record
    class, set when first looked up.

    The first lookup from a record class or instance applies that
    decorator to the class, as a decorator line would at import, and
    the lookup then finds what it set in the class's own dict, as every
    later lookup does. On _Record itself the name is missing, so
    _Record is not a dataclass.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner):
        if owner is not _Record:
            if "__dataclass_fields__" not in owner.__dict__:
                from dataclasses import dataclass
                dataclass(init=False, repr=False, eq=False)(owner)
            if self.name in owner.__dict__:
                return getattr(owner if instance is None else instance, self.name)
        raise AttributeError(self.name)


class _Record:
    """Frozen, with field-wise ==, hash and repr over the annotated fields.

    Each behaves as the method @dataclass(frozen=True) would generate:
    == compares the field tuples of two instances of the same class
    (NotImplemented otherwise), hash is that tuple's hash, and repr is
    QualName(field=value, ...). A subclass keeps its field names, in
    declaration order, in _names, and is registered as a dataclass on
    the first lookup of a name the decorator sets (__replace__ from
    Python 3.13), so dataclasses.fields, replace and is_dataclass work
    without dataclasses being imported before they are called.
    """

    __dataclass_fields__ = _Registration()
    __dataclass_params__ = _Registration()
    __match_args__ = _Registration()
    __replace__ = _Registration()

    def __init_subclass__(cls):
        cls._names = tuple(cls.__annotations__)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _store(self, *values) -> None:
        """Store values as the record's first fields, in declaration order."""
        for name, value in zip(self._names, values):
            _set_field(self, name, value)

    def _values(self) -> tuple:
        # Not self.__dict__: reading it gives the instance a dict object
        # of its own (88 bytes for an Interval on CPython 3.11), kept for
        # the instance's lifetime.
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({fields})"


# Bound once: Interval() compares every pair of endpoints against it.
_INF = math.inf


class Interval(_Record):
    """Closed numeric range [lo, hi]. A point value has lo == hi."""

    lo: float
    hi: float

    def __init__(self, lo, hi):
        _set_field(self, "lo", lo)
        _set_field(self, "hi", hi)
        # Finite float endpoints in order pass every check of
        # __post_init__ unchanged, so only other pairs run it.
        if not (type(lo) is float and type(hi) is float and -_INF < lo <= hi < _INF):
            self.__post_init__()

    def __post_init__(self):
        _set_field(self, "lo", _require_number(self.lo, "lo"))
        _set_field(self, "hi", _require_number(self.hi, "hi"))
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo {self.lo} > hi {self.hi}")

    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


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
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise ValueError(f"{min(unknown)}: unknown key")
    fields = dict(obj)
    if kinds:
        for key, kind in kinds.items():
            if key in fields and not isinstance(fields[key], kind):
                raise ValueError(
                    f"{key}: expected {kind.__name__}, got {type(fields[key]).__name__}")
    for key in pairs:
        span = fields.get(key)
        if span is None and key in optional:
            continue
        if not (isinstance(span, list) and len(span) == 2):
            raise ValueError(f"{key}: expected [lo, hi]")
        fields[key] = Interval(_require_number(span[0], f"{key}[0]"),
                               _require_number(span[1], f"{key}[1]"))
    return fields


def _json_obj(value):
    """The JSON form of a record: each field by name, an Interval as
    [lo, hi], a nested record as its object and a tuple as a list."""
    if isinstance(value, Interval):
        return [value.lo, value.hi]
    if isinstance(value, tuple):
        return [_json_obj(item) for item in value]
    if isinstance(value, _Record):
        return {name: _json_obj(getattr(value, name)) for name in value._names}
    return value


def interval_scale(a: Interval, k: float) -> Interval:
    """Scale an interval by a non-negative factor.

    Every scaled quantity here (energy, emissions, water) is sign
    preserving, so negative factors are rejected rather than handled
    by endpoint swapping.
    """
    k = _require_number(k, "k")
    if k < 0:
        raise ValueError(f"scale factor must be >= 0, got {k}")
    return Interval(a.lo * k, a.hi * k)


def _require_rate(rate) -> float:
    """Check a per-token rate in Wh per 1,000 tokens and return it as a float."""
    rate = _require_number(rate, "rate_wh_per_ktok")
    if rate <= 0:
        raise ValueError(f"rate_wh_per_ktok must be > 0, got {rate}")
    return rate


# A profile's JSON keys, in the order of the fields after its name.
_PROFILE_KEYS = ("rate_wh_per_ktok", "pue", "wue_l_per_kwh", "emission_factor_g_per_kwh",
                 "co2_per_prompt_g")


class FootprintProfile(_Record):
    """Physical conversion constants for one modeled deployment.

    rate is the IT-side inference energy in Wh per 1,000 tokens, pue
    the facility-to-IT energy ratio (1.0 is ideal), wue the water draw
    per kWh, emission_factor the grid carbon intensity, and
    co2_per_prompt_g a published per-prompt emission shortcut.
    """

    name: str
    rate: float
    pue: float
    wue: Interval
    emission_factor_g_per_kwh: float
    co2_per_prompt_g: float

    def __init__(self, name, rate, pue, wue, emission_factor_g_per_kwh, co2_per_prompt_g):
        rate = _require_rate(rate)
        pue = _require_number(pue, "pue")
        factor = _require_number(emission_factor_g_per_kwh, "emission_factor_g_per_kwh")
        per_prompt = _require_number(co2_per_prompt_g, "co2_per_prompt_g")
        if pue < 1.0:
            raise ValueError(f"pue >= 1 required, got {pue}")
        if wue.lo <= 0:
            raise ValueError(f"wue.lo must be > 0, got {wue.lo}")
        if factor <= 0:
            raise ValueError(f"emission_factor_g_per_kwh must be > 0, got {factor}")
        if per_prompt < 0:
            raise ValueError(f"co2_per_prompt_g must be >= 0, got {per_prompt}")
        self._store(name, rate, pue, wue, factor, per_prompt)

    @classmethod
    def from_json_obj(cls, name: str, obj: dict) -> "FootprintProfile":
        """Build a profile from its JSON object form; unknown keys are rejected."""
        fields = _json_fields(obj, _PROFILE_KEYS, pairs=("wue_l_per_kwh",))
        return cls(name, *[fields[key] for key in _PROFILE_KEYS])

    def to_json_obj(self) -> dict:
        return {key: _json_obj(getattr(self, name))
                for key, name in zip(_PROFILE_KEYS, self._names[1:])}


class Energy(_Record):
    """An amount of energy in kilowatt-hours."""

    kwh: float

    def __init__(self, kwh):
        if kwh < 0:
            raise ValueError("energy must be non-negative")
        _set_field(self, "kwh", kwh)


class Carbon(_Record):
    """A mass of CO2 in grams."""

    grams: float

    def __init__(self, grams):
        if grams < 0:
            raise ValueError("carbon must be non-negative")
        _set_field(self, "grams", grams)


class Water(_Record):
    """A volume of water in liters, as a range."""

    liters: Interval

    def __init__(self, liters):
        if liters.lo < 0:
            raise ValueError("water must be non-negative")
        _set_field(self, "liters", liters)


def inference_energy(tokens: int, rate: float) -> float:
    """IT-side inference energy in Wh for a token count.

    The evaluation order tokens * rate / 1000 keeps the reference
    workloads exact in binary floating point (18,000 tokens at
    0.24 Wh/kTok is exactly 4.32 Wh); do not refactor to a
    pre-divided rate.
    """
    rate = _require_rate(rate)
    if tokens < 0:
        raise ValueError(f"tokens must be >= 0, got {tokens}")
    return tokens * rate / 1000.0


def apply_pue(it_energy: float, pue: float) -> float:
    """Expand IT-side energy to facility energy by the PUE factor."""
    pue = _require_number(pue, "pue")
    if pue < 1.0:
        raise ValueError(f"pue >= 1 required, got {pue}")
    if it_energy < 0:
        raise ValueError("energy must be >= 0")
    return it_energy * pue


def co2_from_energy(energy_kwh: float, factor_g_per_kwh: float) -> float:
    """Grid CO2 in grams for an energy amount in kWh; interval_scale is the interval form."""
    factor = _require_number(factor_g_per_kwh, "factor_g_per_kwh")
    if factor <= 0:
        raise ValueError(f"emission factor must be > 0, got {factor}")
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
        lo, hi = energy_kwh.lo, energy_kwh.hi
    else:
        lo = hi = energy_kwh
    if lo < 0:
        raise ValueError("energy must be >= 0")
    return Interval(lo * wue.lo, hi * wue.hi)


def prompt_co2(prompts: int, co2_per_prompt_g: float) -> float:
    """Total CO2 in grams for a prompt count under a per-prompt factor."""
    if prompts < 0:
        raise ValueError(f"prompts must be >= 0, got {prompts}")
    per_prompt = _require_number(co2_per_prompt_g, "co2_per_prompt_g")
    if per_prompt < 0:
        raise ValueError(f"co2_per_prompt_g must be >= 0, got {per_prompt}")
    return prompts * per_prompt


class ThinkingDelta(_Record):
    """Marginal cost of extended reasoning tokens on top of a base run.

    pct_increase is None when the base token count is zero and the
    ratio is undefined; it is never reported as infinity.
    """

    delta_energy_wh: float
    pct_increase: float | None
    delta_co2_g: float
    delta_water_ml: Interval

    def __init__(self, delta_energy_wh, pct_increase, delta_co2_g, delta_water_ml):
        self._store(delta_energy_wh, pct_increase, delta_co2_g, delta_water_ml)


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
