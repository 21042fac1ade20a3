import ast
import copy
import dataclasses
import hashlib
import importlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import docfootprint
from docfootprint import (
    Carbon,
    Energy,
    FootprintProfile,
    Interval,
    Scenario,
    TokenLedger,
    Water,
    WorkforceParams,
    apply_pue,
    co2_from_energy,
    compare_scenarios,
    evaluate_scenario,
    inference_energy,
    interval_add,
    interval_scale,
    prompt_co2,
    run_pipeline,
    thinking_delta,
    water_from_energy,
)
from docfootprint.reference import DEVIATIONS
from docfootprint.core import _Record, _require_number


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


class _Float(float):
    pass


_MAX = sys.float_info.max
_endpoints = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, _MAX, -_MAX,
                     math.nan, math.inf, -math.inf]),
    st.floats().map(_Float),
    st.integers(),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024, 2 ** 1024 - 2 ** 970]),
    st.booleans(),
    st.sampled_from([None, "1"]),
)


def _reference_interval(lo, hi):
    """The stored endpoints Interval(lo, hi) must have, or the message it must raise."""
    try:
        lo = _require_number(lo, "lo")
        hi = _require_number(hi, "hi")
    except ValueError as exc:
        return str(exc)
    if lo > hi:
        return f"invalid interval: lo {lo} > hi {hi}"
    return lo, hi


def _built(make):
    try:
        iv = make()
    except ValueError as exc:
        return str(exc)
    assert type(iv.lo) is float and type(iv.hi) is float
    return iv.lo, iv.hi


def _same(got, expected):
    # repr tells -0.0 from 0.0, which == does not.
    return repr(got) == repr(expected)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(lo=_endpoints, hi=_endpoints, new=_endpoints)
def test_interval_constructor_matches_the_checks(lo, hi, new):
    expected = _reference_interval(lo, hi)
    assert _same(_built(lambda: Interval(lo, hi)), expected)
    assert _same(_built(lambda: Interval(lo=lo, hi=hi)), expected)
    if isinstance(expected, tuple):
        iv = Interval(lo, hi)
        assert _same(_built(lambda: dataclasses.replace(iv, hi=new)),
                     _reference_interval(iv.lo, new))
        assert _same(_built(lambda: dataclasses.replace(iv, lo=new)),
                     _reference_interval(new, iv.hi))


def test_interval_point_and_helpers():
    iv = Interval(2.0, 6.0)
    assert iv.midpoint() == 4.0
    assert iv.contains(2.0) and iv.contains(6.0) and not iv.contains(6.5)


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
    cases = ((0.0, " must be > 0, got 0.0"), (-1.0, " must be > 0, got -1.0"),
             (math.inf, ": must be finite"), (True, ": expected a number"),
             ("1", ": expected a number"))
    for rate, message in cases:
        with pytest.raises(ValueError, match=f"^rate_wh_per_ktok{message}"):
            FootprintProfile("p", rate, 1.09, Interval(0.18, 0.30), 288, 0.03)
        with pytest.raises(ValueError, match=f"^rate_wh_per_ktok{message}"):
            inference_energy(1, rate)


def test_profile_validation_messages():
    with pytest.raises(ValueError, match="pue >= 1"):
        FootprintProfile("p", 0.24, 0.9, Interval(0.18, 0.30), 288, 0.03)
    with pytest.raises(ValueError):
        FootprintProfile("p", 0.24, 1.09, Interval(0.0, 0.30), 288, 0.03)
    with pytest.raises(ValueError):
        FootprintProfile("p", 0.24, 1.09, Interval(0.18, 0.30), 0, 0.03)
    with pytest.raises(ValueError):
        FootprintProfile("p", 0.24, 1.09, Interval(0.18, 0.30), 288, -0.01)


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
    with pytest.raises(ValueError):
        apply_pue(1.0, 0.99)
    with pytest.raises(ValueError, match="energy must be >= 0"):
        apply_pue(-0.5, 1.09)


def test_apply_pue_never_decreases():
    for e in (0.0, 0.5, 3.14):
        assert apply_pue(e, 1.09) >= e


def test_co2_from_energy(flash):
    assert co2_from_energy(0.00432, 288) == pytest.approx(1.24, abs=0.01)
    assert co2_from_energy(0.3572, 288) == pytest.approx(102.87, abs=0.01)
    assert co2_from_energy(0.0, 288) == 0.0
    with pytest.raises(ValueError):
        co2_from_energy(1.0, 0)
    with pytest.raises(ValueError, match="energy must be >= 0"):
        co2_from_energy(-1.0, 288)


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


def test_water_from_energy_rejects_negative_energy(flash):
    for energy in (-1.0, Interval(-1.0, 1.0)):
        with pytest.raises(ValueError, match="energy must be >= 0"):
            water_from_energy(energy, flash.wue)


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
    tokens_back = kwh_back * 1000.0 * 1000.0 / flash.rate
    assert abs(tokens_back - tokens) / tokens < 1e-12


def test_conversions_commute_with_scaling(flash):
    k = 3.0
    for e in (1.5, 4.0):
        scaled_then = co2_from_energy(e * k, 288)
        then_scaled = co2_from_energy(e, 288) * k
        assert scaled_then == pytest.approx(then_scaled, rel=1e-15)


def _is_record_base(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "_Record"


def test_every_dataclass_has_a_written_docstring():
    # Without one, @dataclass builds __doc__ from inspect.signature when
    # the record is registered.
    package = Path(docfootprint.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_record_base, node.bases)):
                found[node.name] = ast.get_docstring(node)
    assert {"Interval", "LineItem", "Config", "DailyFootprint", "Deviation"} <= set(found)
    assert [name for name, doc in found.items() if not doc] == []
    assert set(found) == {cls.__name__ for cls in RECORD_CLASSES}


def _record_classes():
    """Every dataclass the package defines, found by walking its modules."""
    package = Path(docfootprint.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"docfootprint.{path.stem}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__]
    return found


RECORD_CLASSES = _record_classes()


def _collect(value, into):
    """Every record reachable from value, grouped by class."""
    if dataclasses.is_dataclass(value):
        into.setdefault(type(value), []).append(value)
        for field in dataclasses.fields(value):
            _collect(getattr(value, field.name), into)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _collect(item, into)
    elif isinstance(value, dict):
        for item in value.values():
            _collect(item, into)


@pytest.fixture(scope="module")
def record_samples(config, invoice_text):
    """Up to a few instances of every record class, from real runs."""
    profile = config.profiles[config.scenario_profile]
    footprints = [evaluate_scenario(s, profile) for s in config.scenarios]
    ledger = TokenLedger(document=10, prompt=20, output=30, thinking=40)
    roots = [config, dataclasses.replace(config, config_hash="0" * 64), footprints,
             [compare_scenarios(footprints[0], f) for f in footprints],
             run_pipeline(invoice_text, "prompt", profile),
             run_pipeline(invoice_text, "prompt", profile, ledger_override=ledger),
             thinking_delta(18000, 10000, profile), thinking_delta(0, 5, profile),
             DEVIATIONS]
    samples = {}
    _collect(roots, samples)
    return samples


def _reference_class(cls):
    """What @dataclass(frozen=True) generates for cls's fields and defaults."""
    spec = [(f.name, f.type) if f.default is dataclasses.MISSING
            else (f.name, f.type, dataclasses.field(default=f.default))
            for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def _outcome(action):
    try:
        return action()
    except Exception as exc:
        return type(exc), str(exc)


def test_records_are_found(record_samples):
    names = {cls.__name__ for cls in RECORD_CLASSES}
    assert {"Interval", "FootprintProfile", "LineItem", "Scenario", "DailyFootprint",
            "Config", "Deviation"} <= names
    assert set(record_samples) == set(RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_protocol_matches_a_generated_frozen_dataclass(cls, record_samples):
    reference = _reference_class(cls)
    samples = record_samples[cls][:3]
    names = [f.name for f in dataclasses.fields(cls)]
    as_reference = {}
    for obj in samples:
        values = {name: getattr(obj, name) for name in names}
        as_reference[id(obj)] = ref = reference(**values)
        for action in (lambda o: setattr(o, names[0], None), lambda o: delattr(o, names[-1]),
                       lambda o: setattr(o, "other", 1)):
            assert _outcome(lambda: action(obj)) == _outcome(lambda: action(ref))
        assert repr(obj) == repr(ref)
        assert _outcome(lambda: hash(obj)) == _outcome(lambda: hash(ref))
        copy = dataclasses.replace(obj)
        assert copy == obj and copy is not obj and type(copy) is cls
        assert obj.__eq__(ref) is NotImplemented and obj != ref
    for a in samples:
        for b in samples:
            assert (a == b) == (as_reference[id(a)] == as_reference[id(b)])
            assert (a != b) == (as_reference[id(a)] != as_reference[id(b)])
    # Missing, all missing and unexpected arguments give the same TypeError.
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    values = {name: getattr(samples[0], name) for name in names}
    for kwargs in ({}, {k: v for k, v in values.items() if k != required[-1]},
                   {**values, "unknown": 1}):
        got, want = _outcome(lambda: cls(**kwargs)), _outcome(lambda: reference(**kwargs))
        assert got[0] is TypeError and got == want


def test_records_generate_no_dataclass_methods():
    # @dataclass only registers the fields; _Record supplies the protocol.
    for cls in RECORD_CLASSES:
        params = cls.__dataclass_params__
        assert (params.init, params.repr, params.eq, params.frozen) == (False,) * 4, cls
        assert issubclass(cls, _Record)


def test_records_register_as_dataclasses_on_first_use():
    # A fresh interpreter, where no record has been registered yet.
    script = Path(__file__).with_name("record_registration.py")
    src_root = str(Path(docfootprint.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src_root})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


# Replacement values for the validation digest: wrong types, bools,
# non-finite floats, integers at and past the edge of the float range
# (2**1024 - 2**970 - 1 rounds to the largest float, 2**1024 - 2**970
# overflows), and pair-shaped values of the wrong length or order.
_EDGE_INTS = (2 ** 1023, 2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970)
_REPLACEMENTS = (
    "8", "", None, [], {}, True, False, math.nan, math.inf, -math.inf, 0, -1, 1.5, 8,
    *_EDGE_INTS, *(-n for n in _EDGE_INTS),
    [1], [1, 2, 3], [2, 1], ["1", 2], [math.nan, 1], [1, math.inf], [True, 2],
    [0, _EDGE_INTS[2]], [1, _EDGE_INTS[1]], {"name": "s", "energy_wh_per_doc": 1},
)
_UNKNOWN_KEYS = ("zeta", "alpha", "mu", "Beta", "_x", "shift")


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _json_paths(item, path + (index,))


def _mutate(rng, value):
    """One mutation at a random place in a JSON value: a key dropped,
    unknown keys added in unsorted order, or a value replaced."""
    path = rng.choice(list(_json_paths(value)))
    target = value
    for key in path:
        target = target[key]
    roll = rng.random()
    if isinstance(target, dict) and target and roll < 0.3:
        del target[rng.choice(list(target))]
        return value
    if isinstance(target, dict) and roll < 0.55:
        for key in rng.sample(_UNKNOWN_KEYS, rng.randint(1, 4)):
            target[key] = 1
        return value
    new = copy.deepcopy(rng.choice(_REPLACEMENTS))
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


def _validation_outcomes(gen, n=1500):
    """The repr of each built record or the text of each rejection, over
    a seeded corpus of generated scenario, workforce, profile and ledger
    objects with zero to three mutations each."""
    rng = random.Random("validation-digest:1")
    profiles = sorted(gen.PROFILES.items())
    for i in range(n):
        point = gen.scenario_point(rng, f"p{i}")
        name, profile = rng.choice(profiles)
        ledger = {key: rng.randint(0, 10 ** 6) for key in ("document", "prompt", "output",
                                                           "thinking")}
        if rng.random() < 0.5:
            ledger["source"] = rng.choice(("measured", "estimated"))
        for build, base in ((Scenario.from_json_obj, point),
                            (WorkforceParams.from_json_obj, point["workforce"]),
                            (lambda obj: FootprintProfile.from_json_obj(name, obj), profile),
                            (TokenLedger.from_json_obj, ledger)):
            obj = copy.deepcopy(base)
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                obj = _mutate(rng, obj)
            try:
                yield repr(build(obj))
            except Exception as exc:
                yield f"{type(exc).__name__}: {exc}"


def test_validation_outcomes_match_the_pinned_digest(perfbench_gen):
    outcomes = list(_validation_outcomes(perfbench_gen))
    errors = [text for text in outcomes if text.startswith("ValueError: ")]
    assert 0.3 < len(errors) / len(outcomes) < 0.8
    assert all(text.startswith(("ValueError: ", "Scenario(", "WorkforceParams(",
                                "FootprintProfile(", "TokenLedger(")) for text in outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()
    assert digest == "e737712bd497d7244891d7ecf0f1f1240ffcf426c4c34b138fb13141c62f2dff"
