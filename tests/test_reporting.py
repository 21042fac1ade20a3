import collections
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import shutil
import threading
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from docfootprint import (
    ConfigError,
    FootprintProfile,
    Interval,
    Scenario,
    TokenLedger,
    build_bundle,
    emit_bundle_json,
    emit_plot_data,
    emit_table,
    evaluate_scenario,
    ledger_shares,
    load_config,
    reporting,
    run_pipeline,
    thinking_delta,
)
from docfootprint.core import _half_up
from docfootprint.reporting import _read_regular, present, present_pct


@pytest.fixture(scope="module")
def bundle(config):
    return build_bundle(config, "manual")


@pytest.fixture(scope="module")
def full_bundle(config, invoice_text, prompt_text, measured_ledger):
    result = run_pipeline(invoice_text, prompt_text,
                          config.profiles[config.usecase_profile],
                          ledger_override=measured_ledger)
    return build_bundle(config, "manual", usecase=result)


def test_present_half_up():
    assert str(present(16.165, 1)) == "16.2"
    assert str(present(6.085, 1)) == "6.1"
    assert str(present(4.86, 1)) == "4.9"
    assert present_pct(89.4709810) == 90
    assert present_pct(83.1955922) == 83
    assert present_pct(26.5432098) == 27


# The presentation rule spelled out in Decimal arithmetic, as the cells
# were computed before the core._half_up kernel: the shortest repr of the
# float, or a Decimal as it is, half-up to ndigits decimals, and for a
# percent cell half-up again to a whole number.
_TENTH, _ONE = Decimal("0.1"), Decimal(1)


def _reference_present(x, ndigits: int = 1) -> Decimal:
    value = x if isinstance(x, Decimal) else Decimal(repr(x))
    try:
        return value.quantize(_ONE.scaleb(-ndigits), rounding=ROUND_HALF_UP)
    except InvalidOperation:
        raise ValueError(f"value too large to present: {x}") from None


def _reference_tenths(x) -> int:
    return int(_reference_present(x).scaleb(1))


def _reference_pct(x) -> int:
    return int(_reference_present(x).quantize(_ONE, rounding=ROUND_HALF_UP))


def _outcome(f, x):
    try:
        return f(x)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _assert_rule(x):
    assert _outcome(_half_up, x) == _outcome(_reference_tenths, x), x
    assert _outcome(present_pct, x) == _outcome(_reference_pct, x), x


def _around(x: float, ulps: int = 3) -> list[float]:
    """x and its nearest floats, ulps of them on either side."""
    out = [x]
    down = up = x
    for _ in range(ulps):
        down = math.nextafter(down, -math.inf)
        up = math.nextafter(up, math.inf)
        out += [down, up]
    return out


def test_tenths_and_percent_cells_follow_the_decimal_rule_near_every_hundredth():
    # Every tie of both roundings is some k/100 in [-1000, 1000]: x.x5 for
    # the tenth, x.50 for the whole number. The rule rounds ties away from
    # zero and repr(-x) is "-" + repr(x), so -x has the negated cells of x.
    mismatches = []
    for k in range(100_001):
        for x in _around(k / 100):
            tenth = _reference_present(x)
            tenths = int(tenth.scaleb(1))
            pct = int(tenth.quantize(_ONE, rounding=ROUND_HALF_UP))
            if ((_half_up(x), present_pct(x), _half_up(-x), present_pct(-x))
                    != (tenths, pct, -tenths, -pct)):
                mismatches.append(x)
    assert mismatches == []


# Tenths remainders at the edge of the tie window (0.5 -+ 1e-6) and just
# inside and outside it, over integer parts up to the float path's end.
_WINDOW_EDGES = [n + (d + 0.5 + side * delta) / 10
                 for n in (0, 1, 83, 2 ** 19, 2 ** 20 - 1) for d in (0, 4, 9)
                 for side in (-1, 1) for delta in (0.99e-6, 1e-6, 1.01e-6)]
_EDGES = [
    # The end of the float path at 2**20, with and without a tie.
    2.0 ** 20, 2.0 ** 20 - 0.05, 2.0 ** 20 - 0.25, 2.0 ** 20 + 0.05, 2.0 ** 20 + 0.25,
    1048575.45, 1048575.5, 1048575.55, 1048576.45,
    # Signed zero, subnormals, the smallest normal and exact ties.
    0.0, 5e-324, 2.2250738585072014e-308, 0.05, 0.5, 1.45, 83.45, 99.95,
    # Values too large to present, and values that are not finite.
    1e26, 9.999999999999999e26, 1e27, 1e28, 3.63e298, 3.705234159779614e+37,
    1.7976931348623157e308, math.inf, math.nan,
]
_INT_EDGES = [0, 1, 15, 2 ** 20, 10 ** 26, 10 ** 27, 10 ** 30]


def test_tenths_and_percent_cells_follow_the_decimal_rule_at_the_edges():
    floats = [x for edge in _WINDOW_EDGES + _EDGES for x in _around(edge)]
    for x in floats + _INT_EDGES:
        _assert_rule(x)
        _assert_rule(-x)


# .x5 ties above 2**31 and below 1e12. There the float (a - n) * 10.0 is
# off by more than the tie window, so rounding on the float would give the
# lower tenth where the rule gives the upper one: 4194114468113 instead
# of 4194114468114 for 419411446811.35.
_LARGE_TIES = [2418525393.45, 16474485682.65, 63914412761.35, 218838223607.05,
               419411446811.35, 929919568425.95]


def test_ties_above_2_31_follow_the_decimal_rule():
    assert _half_up(419411446811.35) == 4194114468114
    for x in _LARGE_TIES:
        _assert_rule(x)
        _assert_rule(-x)
        _assert_present(x, 1)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@example(x=1.45)
@example(x=-83.45)
@given(x=st.floats() | st.floats(-2.0 ** 21, 2.0 ** 21) | st.floats(-1000, 1000, width=32))
def test_tenths_and_percent_cells_follow_the_decimal_rule_on_any_float(x):
    _assert_rule(x)


def _assert_present(x, ndigits: int):
    # str() pins the digits and the exponent. No presented figure is
    # negative; present would drop the sign of a negative value that
    # rounds to zero.
    assert (_outcome(lambda v: str(present(v, ndigits)), x)
            == _outcome(lambda v: str(_reference_present(v, ndigits)), x)), (x, ndigits)


def test_present_follows_the_decimal_rule_near_every_tie():
    # Every tie at one place is some x.x5, at two places some x.xx5.
    for k in range(10_001):
        for x in _around(k / 200, 2):
            if x >= 0:
                _assert_present(x, 2)
    for k in range(5_001):
        for x in _around(k / 20, 2):
            if x >= 0:
                _assert_present(x, 1)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@example(x=0.125)
@given(x=st.floats(min_value=0.0, allow_nan=False) | st.floats(0.0, 1e6))
def test_present_follows_the_decimal_rule_on_any_float(x):
    _assert_present(x, 1)
    _assert_present(x, 2)


def _profiles(config, perfbench_gen):
    """The bundled profiles and every profile perfbench generates configs from."""
    return [*config.profiles.values(),
            *(FootprintProfile.from_json_obj(name, obj)
              for name, obj in perfbench_gen.PROFILES.items())]


def test_present_follows_the_decimal_rule_on_the_thinking_delta_figures(config, perfbench_gen):
    rng = random.Random(1)
    for profile in _profiles(config, perfbench_gen):
        for _ in range(500):
            base, thinking = (rng.randrange(10 ** rng.randint(1, 15)) for _ in range(2))
            delta = thinking_delta(base, thinking, profile)
            if delta.pct_increase is not None:
                _assert_present(delta.pct_increase, 1)
            for x in (delta.delta_co2_g, delta.delta_water_ml.lo, delta.delta_water_ml.hi):
                _assert_present(x, 2)


def test_present_follows_the_decimal_rule_on_the_scenario_products(config, perfbench_gen):
    """The CO2 and water cells of the scenario table: each presented
    energy cell times the profile's factors, in Decimal, for the energies
    of the bundled scenarios and of seeded scenario-grid points, and for
    every energy cell up to 200.0 kWh."""
    points = [Scenario.from_json_obj(obj) for _, obj in perfbench_gen.scenario_grid(1, 200)]
    for profile in _profiles(config, perfbench_gen):
        factors = [Decimal(repr(profile.emission_factor_g_per_kwh)) / Decimal(1000),
                   Decimal(repr(profile.wue.lo)), Decimal(repr(profile.wue.hi))]
        energies = [Decimal(t).scaleb(-1) for t in range(2_001)]
        for s in (*config.scenarios, *points):
            fp = evaluate_scenario(s, profile)
            energies += [_reference_present(fp.energy_kwh.lo), _reference_present(fp.energy_kwh.hi)]
        for energy in energies:
            for factor in factors:
                _assert_present(energy * factor, 1)


# An energy interval of Decimal endpoints at whole tenths, which _half_up
# takes as they are, so a row of any tenths can be presented.
_Energy = collections.namedtuple("_Energy", "lo hi")


def _cell_outcome(profile, e0, e1):
    """The row tenths reporting._cell_tenths gives for energy tenths e0 <= e1."""
    energy = _Energy(Decimal(e0).scaleb(-1), Decimal(e1).scaleb(-1))
    return _outcome(reporting._cell_tenths(profile), energy)


def _factors(profile):
    """The emission factor in kg per kWh, wue.lo and wue.hi, as Decimals."""
    return (Decimal(repr(profile.emission_factor_g_per_kwh)) / Decimal(1000),
            Decimal(repr(profile.wue.lo)), Decimal(repr(profile.wue.hi)))


def _reference_cells(profile, e0, e1):
    """The row tenths by the Decimal rule: each presented energy cell times
    its factor (the emission factor, wue.lo for e0 and wue.hi for e1)."""
    ef, lo, hi = _factors(profile)
    d0, d1 = Decimal(e0).scaleb(-1), Decimal(e1).scaleb(-1)
    return _outcome(lambda _: (e0, e1, *(_reference_tenths(d * f) for d, f in
                                         ((d0, ef), (d1, ef), (d0, lo), (d1, hi)))), None)


def _exact_bound(profile):
    """10**28 // the largest coefficient of the profile's three Decimal
    factors, or 0 if one has an exponent >= 0."""
    parts = [f.as_tuple() for f in _factors(profile)]
    if any(part.exponent >= 0 for part in parts):
        return 0
    return 10**28 // max(int("".join(map(str, part.digits))) for part in parts)


def _cell_profile(emission, wue_lo, wue_hi):
    return FootprintProfile("cells", 0.24, 1.0, Interval(wue_lo, wue_hi), emission, 0.0)


# Positive finite floats, and ones with as few digits as real factors.
_FACTORS = (st.floats(min_value=5e-324, max_value=1e300)
            | st.floats(1e-3, 1e4).map(lambda x: float(f"{x:.2g}")))


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(emission=_FACTORS, wue=st.lists(_FACTORS, min_size=2, max_size=2).map(sorted),
       data=st.data())
def test_scenario_cells_are_the_decimal_products_of_the_energy_cells(emission, wue, data):
    """Below the bound, where the cells are computed in integers, and from
    it, where the Decimal expression computes them, a row's CO2 and water
    tenths are those of the Decimal products of its energy cells."""
    profile = _cell_profile(emission, *wue)
    bound = _exact_bound(profile)
    rows = [(0, 0), (0, 1), (15, 15)]
    for lo, hi in ((0, bound - 1), (bound, 10**28 - 1)):
        if lo <= hi:
            e1 = data.draw(st.integers(lo, hi))
            rows.append((data.draw(st.integers(0, e1)), e1))
    for e0, e1 in rows:
        assert _cell_outcome(profile, e0, e1) == _reference_cells(profile, e0, e1), (e0, e1)


def test_scenario_cells_are_integer_below_the_bound_and_decimal_from_it(config, perfbench_gen,
                                                                        monkeypatch):
    """A row is presented in integers while its high energy tenths are below
    10**28 // the largest factor coefficient, and by the Decimal expression
    (four more _half_up calls) from there, or always where a factor has an
    exponent >= 0. Either way its cells are the Decimal products'."""
    calls = []
    monkeypatch.setattr(reporting, "_half_up", lambda x, places=1: calls.append(x) or
                        _half_up(x, places))

    def assert_row(profile, e0, e1, half_ups):
        calls.clear()
        assert _cell_outcome(profile, e0, e1) == _reference_cells(profile, e0, e1), (e0, e1)
        assert len(calls) == half_ups, (e0, e1)

    for profile in _profiles(config, perfbench_gen):
        bound = _exact_bound(profile)
        assert 0 < bound < 10**28
        for e0, e1, half_ups in ((0, bound - 1, 2), (bound - 1, bound - 1, 2), (0, bound, 6),
                                 (bound, bound, 6), (bound, 10**28 - 1, 6)):
            assert_row(profile, e0, e1, half_ups)
    # A factor whose repr has a non-negative exponent: 1E+22 kg per kWh.
    for profile in (_cell_profile(1e25, 0.18, 0.3), _cell_profile(288.0, 0.18, 1e22)):
        assert _exact_bound(profile) == 0
        for e0, e1 in ((0, 0), (0, 5), (12345, 678901)):
            assert_row(profile, e0, e1, 6)
    # Just past the bound of a 0.3 factor, 3e * 10**-2 has 29 digits and
    # the 28-digit product rounds its last 5 to even: the Decimal cell is
    # one tenth below the exact product's half-up, and the row keeps it.
    profile = _cell_profile(300.0, 0.3, 0.3)
    e = 34 * 10**26 + 15
    assert _exact_bound(profile) == 10**28 // 3 < e
    assert _reference_cells(profile, e, e)[2] == (e * 3 + 5) // 10 - 1
    assert_row(profile, e, e, 6)
    # A row past what the Decimal context can present still names the value.
    profile = _cell_profile(288.0, 0.18, 1234567.8)
    assert_row(profile, 10**26, 10**26, 6)
    assert _cell_outcome(profile, 10**26, 10**26) == (
        ValueError, "value too large to present: 1.234567800000000000000000000E+31")


def test_values_too_large_to_present_are_named_in_one_message():
    # A float is named by its repr, a Decimal by its str.
    floats = [9.999999999999999e25, 1e26, 9.999999999999999e26, 1e27, 1e28,
              1.7976931348623157e308, math.inf]
    decimals = [Decimal("1E+26"), Decimal("1E+27"), Decimal("9999999999999999999999999999"),
                Decimal("123456789012345678901234567.8"), Decimal(10 ** 27).scaleb(-1) * 288,
                Decimal("Infinity")]
    for x in floats + decimals:
        _assert_present(x, 1)
        _assert_present(x, 2)
    with pytest.raises(ValueError, match=r"^value too large to present: 1e\+27$"):
        present(1e27, 1)
    with pytest.raises(ValueError, match=r"^value too large to present: 1E\+27$"):
        present(Decimal("1E+27"), 1)
    with pytest.raises(ValueError, match=r"^value too large to present: 1e\+26$"):
        present(1e26, 2)


_COMPONENTS = ("document", "prompt", "output", "thinking")


def _assert_shares(ledger):
    total = ledger.total()
    expected = {name: repr(float(Decimal(repr(getattr(ledger, name) / total * 100.0)).quantize(
                    _TENTH, rounding=ROUND_HALF_UP))) for name in _COMPONENTS}
    assert {name: repr(share) for name, share in ledger_shares(ledger).items()} == expected, ledger


def test_ledger_shares_follow_the_decimal_rule_on_generated_ledgers(perfbench_gen, config,
                                                                   prompt_text):
    """The estimated ledgers of the invoice-batch corpus, and each again
    with a seeded count of thinking tokens."""
    rng = random.Random(1)
    profile = config.profiles[config.usecase_profile]
    for invoice in perfbench_gen.invoice_corpus(1):
        if invoice.error_line is None:
            ledger = run_pipeline(invoice.text, prompt_text, profile).ledger
            _assert_shares(ledger)
            _assert_shares(dataclasses.replace(ledger, thinking=rng.randrange(4 * ledger.total())))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@example(counts=[29, 371, 0, 0])  # 7.25% exactly; its float is 7.249999999999999
@given(counts=st.lists(st.integers(0, 10 ** 15) | st.integers(0, 1000), min_size=4, max_size=4)
       .filter(any))
def test_ledger_shares_follow_the_decimal_rule_on_any_counts(counts):
    _assert_shares(TokenLedger(*counts))


def test_load_config_bundled(config):
    assert sorted(config.profiles) == ["flash-prompt-2025", "usecase-2025"]
    assert [s.name for s in config.scenarios] == ["manual", "hitl", "agentic"]
    assert config.scenario_profile == "flash-prompt-2025"
    assert config.usecase_profile == "usecase-2025"
    assert len(config.config_hash) == 64


def test_config_hash_stable(data_dir):
    first = load_config(data_dir / "config.json")
    second = load_config(data_dir / "config.json")
    assert first.config_hash == second.config_hash


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="file not found"):
        load_config(tmp_path / "absent.json")


def test_load_config_empty_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    with pytest.raises(ConfigError, match=r"/profiles: missing required key"):
        load_config(path)


def test_load_config_rejects_low_pue(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["profiles"]["flash-prompt-2025"]["pue"] = 0.9
    raw["scenarios"] = []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="pue >= 1") as exc:
        load_config(path)
    assert "/profiles/flash-prompt-2025" in str(exc.value)


def test_load_config_rejects_unknown_key(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["surprise"] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="/surprise: unknown key"):
        load_config(path)


def test_load_config_rejects_unknown_profile_binding(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenario_profile"] = "nope"
    raw["scenarios"] = []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="unknown profile"):
        load_config(path)


def test_load_config_missing_scenario_file(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenarios"] = ["gone.json"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=r"/scenarios/0: file not found"):
        load_config(path)


@pytest.mark.parametrize("ref, message", [
    ("loop", "file not found: LOOP"),
    ("a\0b", "expected a file path string"),
    ("\ud800x", "'utf-8' codec can't encode character '\\ud800' in position POS: "
                "surrogates not allowed"),
], ids=["symlink-loop", "nul", "lone-surrogate"])
def test_a_scenario_ref_with_no_file_is_named_by_its_pointer(tmp_path, data_dir, ref, message):
    """A symlink loop is named by its absolute path; a NUL, which no
    path can hold, by the package's own message; a name the file system
    encoding cannot hold, by the error it gives; each after the pointer.
    POS is where the name starts in the absolute path."""
    (tmp_path / "loop").symlink_to(tmp_path / "loop2")
    (tmp_path / "loop2").symlink_to(tmp_path / "loop")
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenarios"] = [ref]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    loop = os.path.join(os.path.realpath(tmp_path), "loop")
    message = message.replace("LOOP", loop).replace("POS", str(len(loop) - len("loop")))
    assert str(exc.value) == "/scenarios/0: " + message


def test_scenario_refs_resolve_as_before(tmp_path, data_dir):
    # conf/link points at real/sub, so link/.. is real/ (the kernel walks
    # .. from the link's target), not conf/ where a decoy set lives.
    real, conf = tmp_path / "real", tmp_path / "conf"
    (real / "sub").mkdir(parents=True)
    shutil.copytree(data_dir / "scenarios", real / "scenarios")
    shutil.copytree(data_dir / "scenarios", conf / "scenarios")
    decoy = conf / "scenarios" / "manual.json"
    decoy.write_text(decoy.read_text().replace('"manual"', '"decoy"'))
    (conf / "link").symlink_to(real / "sub", target_is_directory=True)
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenarios"] = [f"link/../{ref}" for ref in raw["scenarios"]]
    path = conf / "config.json"
    path.write_text(json.dumps(raw))
    bundled = load_config(data_dir / "config.json")
    assert load_config(path).scenarios == bundled.scenarios

    raw["scenarios"][1] = "link/../scenarios/missing.json"
    path.write_text(json.dumps(raw))
    missing = tmp_path.resolve() / "real" / "scenarios" / "missing.json"
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"/scenarios/1: file not found: {missing}"


@pytest.mark.parametrize("ref", [
    "scenarios/hitl.json/", "scenarios/hitl.json/.", "scenarios/hitl.json/./",
    "./scenarios/hitl.json", "scenarios//hitl.json", "", ".", "ABSOLUTE", "BARE",
], ids=["trailing-slash", "trailing-dot", "trailing-dot-slash", "leading-dot",
        "double-slash", "empty", "dot", "absolute", "bare-config-name"])
def test_scenario_refs_name_the_file_pathlib_joins(tmp_path, data_dir, monkeypatch, ref):
    """A ref names the file that pathlib's join of the config's directory
    and the ref names: the scenario loads from it, or the error line gives
    that join's real path. ABSOLUTE is the absolute path of a scenario
    file; BARE loads the config by its bare name from its own directory."""
    shutil.copytree(data_dir / "scenarios", tmp_path / "scenarios")
    raw = json.loads((data_dir / "config.json").read_text())
    path = tmp_path / "config.json"
    if ref == "ABSOLUTE":
        ref = str(tmp_path / "scenarios" / "hitl.json")
    elif ref == "BARE":
        monkeypatch.chdir(tmp_path)
        path, ref = Path(path.name), raw["scenarios"][1]
    raw["scenarios"][1] = ref
    path.write_text(json.dumps(raw))
    joined = path.parent / ref
    if not joined.is_file():
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"/scenarios/1: file not found: {os.path.realpath(joined)}"
        return
    scenario = Scenario.from_json_obj(json.loads(joined.read_text()))
    assert scenario.name == "hitl"
    assert load_config(path).scenarios[1] == scenario


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [
    '{"a": x, "b": ' + "[" * 600,
    "[" * 512 + "1[" + "]" * 513,
    '["' + "[" * 600,
    '["' + "[" * 600 + '"]',
    '["\\"' + "[" * 600 + '"]',
    '{"a":' * 512 + "1" + "}" * 512,
    "[" * 300 + '"' + "[" * 300 + '"' + "]" * 300,
], ids=["error-before-the-bound", "error-at-the-bound", "unterminated-string",
        "brackets-in-a-string", "brackets-after-an-escaped-quote", "objects-at-the-bound",
        "string-between-brackets"])
def test_json_within_the_nesting_bound_parses_as_json_parses_it(text):
    """Where no bracket outside a string is past 512 levels, or json finds
    an error before the first that is, the outcome is json's own."""
    assert _parse_outcome(reporting._parse_json, text) == _parse_outcome(json.loads, text)


def test_json_past_the_nesting_bound_is_an_error_at_its_first_bracket():
    text = '{"a": [' + '{"b":' * 510 + "{}" + "}" * 510 + "]}"
    at = text.index("{}")
    assert _parse_outcome(reporting._parse_json, text) == (
        json.JSONDecodeError,
        f"Nesting deeper than 512 levels: line 1 column {at + 1} (char {at})")


def _read_outcome(read, path):
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)


def _pathlib_read(path):
    return path.read_text(encoding="utf-8") if path.is_file() else None


_READ_CASES = {
    "empty": b"",
    "crlf": b'{\r\n  "a": 1\r\n}\r\n',
    "lone-cr": b"a\rb\r\nc\n",
    "cr-last": b"abc\r",
    "bom": b"\xef\xbb\xbf{}",
    "bad-utf8-start": b"\xff{}",
    "bad-utf8-middle": b"ab\r\ncd\xc3(ef",
    "bad-utf8-after-cr": b"ab\r\xff",
    "large": b"x\r\n" * 40000,
}


def test_read_regular_matches_is_file_and_read_text(tmp_path):
    """The reader gives the text read_text gives, or None where is_file
    is False, or the same exception type and message; a stat error
    other than ENOENT, ENOTDIR, EBADF and ELOOP propagates."""
    paths = []
    for name, data in _READ_CASES.items():
        (tmp_path / name).write_bytes(data)
        paths.append(tmp_path / name)
    (tmp_path / "dir").mkdir()
    (tmp_path / "dangling").symlink_to(tmp_path / "absent")
    (tmp_path / "loop-a").symlink_to(tmp_path / "loop-b")
    (tmp_path / "loop-b").symlink_to(tmp_path / "loop-a")
    paths += [tmp_path / name for name in ("absent", "dir", "dangling", "loop-a")]
    # Through a regular file (ENOTDIR), a NUL in the name.
    paths += [tmp_path / "empty" / "x", tmp_path / "a\0b"]
    for path in paths:
        expected = _read_outcome(_pathlib_read, path)
        assert _read_outcome(_read_regular, path) == expected, path
    assert _read_outcome(_read_regular, tmp_path / "crlf") == '{\n  "a": 1\n}\n'
    # ENAMETOOLONG, as is_file() lets it through up to Python 3.12; from
    # 3.13 is_file() reads it as "no such file".
    too_long = _read_outcome(_read_regular, tmp_path / ("x" * 300))
    assert too_long[0] is OSError and "File name too long" in too_long[1]
    if not hasattr(os, "mkfifo"):
        return
    # Opening a FIFO with no writer blocks, so the reader must stat it
    # first; a reader still blocked after 10 s is released by a writer.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    outcome = []
    reader = threading.Thread(target=lambda: outcome.append(_read_outcome(_read_regular, fifo)))
    reader.start()
    reader.join(10)
    blocked = reader.is_alive()
    if blocked:
        os.close(os.open(fifo, os.O_WRONLY))
        reader.join(10)
    assert not blocked
    assert outcome == [_pathlib_read(fifo)] == [None]


def test_read_regular_reads_past_the_size_its_stat_gave(tmp_path, monkeypatch):
    """A file that has grown since its stat, here one whose stat says
    1 byte, is read to its end, as read_text reads it."""
    path = tmp_path / "grown"
    path.write_bytes(b'{\r\n  "a": "x"\r\n}\r\n' * 100)
    expected = path.read_text(encoding="utf-8")
    real_stat = os.stat

    def understated_stat(p, *args, **kwargs):
        st = real_stat(p, *args, **kwargs)
        if p != path:
            return st
        fields = list(st)
        fields[6] = 1  # st_size
        return os.stat_result(fields)

    monkeypatch.setattr(reporting.os, "stat", understated_stat)
    assert _read_regular(path) == expected


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_load_config_reads_scenario_files_as_before(tmp_path, data_dir):
    """A CRLF file's JSON error gives the line and column of the text with
    its line endings translated; a reference with a trailing slash still
    loads; a file that fails to decode or parse leaves no descriptor open."""
    raw = json.loads((data_dir / "config.json").read_text())
    shutil.copytree(data_dir / "scenarios", tmp_path / "scenarios")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, "scenarios": [f"{ref}/" for ref in raw["scenarios"]]}))
    assert load_config(path).scenarios == load_config(data_dir / "config.json").scenarios

    path.write_text(json.dumps({**raw, "scenarios": ["s0.json"]}))
    scenario = tmp_path / "s0.json"
    scenario.write_bytes(b'{\r\n  "name": "x",\r\n  "daily_volume": 1,,\r\n'
                         b'  "workforce": {}\r\n}\r\n')
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == ("/scenarios/0: invalid JSON: Expecting property name enclosed "
                              "in double quotes: line 3 column 21 (char 37)")

    has_fds = os.path.isdir("/proc/self/fd")
    before = _open_fds() if has_fds else None
    for data in (b'{"name": "\xff"}', b'{"name": '):
        scenario.write_bytes(data)
        with pytest.raises(ConfigError, match="^/scenarios/0: invalid JSON: "):
            load_config(path)
    if has_fds:
        assert _open_fds() == before


def test_load_config_scenario_pointer(tmp_path, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    raw["scenarios"] = ["bad.json"]
    (tmp_path / "bad.json").write_text(json.dumps({"name": "x"}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=r"/scenarios/0: daily_volume"):
        load_config(path)


def test_negative_operators_override_is_rejected_where_it_is_read(tmp_path, data_dir):
    obj = json.loads((data_dir / "scenarios" / "hitl.json").read_text())
    obj["operators_override"] = [-1, 5]
    with pytest.raises(ValueError) as info:
        Scenario.from_json_obj(obj)
    assert str(info.value) == "operators_override endpoints must be integers >= 0"
    shutil.copytree(data_dir / "scenarios", tmp_path / "scenarios")
    (tmp_path / "scenarios" / "hitl.json").write_text(json.dumps(obj))
    shutil.copy(data_dir / "config.json", tmp_path / "config.json")
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path / "config.json")
    assert str(info.value) == "/scenarios/1: operators_override endpoints must be integers >= 0"


def test_config_round_trip_matches_raw(config, data_dir):
    raw = json.loads((data_dir / "config.json").read_text())
    for name, profile in config.profiles.items():
        assert profile.to_json_obj() == raw["profiles"][name]
    for scenario, ref in zip(config.scenarios, raw["scenarios"]):
        scenario_raw = json.loads((data_dir / ref).read_text())
        assert scenario.to_json_obj() == scenario_raw


def test_build_bundle_unknown_baseline(config):
    with pytest.raises(ValueError, match="unknown scenario"):
        build_bundle(config, "nope")


def test_increase_overflow_names_candidate_and_metric(config):
    # A subnormal manual footprint overflows the hitl-over-manual increase.
    obj = config.scenarios[0].to_json_obj()
    obj.update(operators_override=[0, 0], overhead_kwh_per_day=1e-308)
    tiny = dataclasses.replace(config, scenarios=(Scenario.from_json_obj(obj),
                                                  *config.scenarios[1:]))
    with pytest.raises(ConfigError) as exc:
        build_bundle(tiny, "agentic")
    assert str(exc.value) == "/scenarios/1: energy increase vs manual: lo: must be finite, got inf"


def _with_laptops(config, laptops):
    """The config with each scenario whose laptop draw is given run by one
    operator at that draw, with no stages and no overhead."""
    scenarios = []
    for scenario, laptop in zip(config.scenarios, laptops):
        if laptop is not None:
            obj = scenario.to_json_obj()
            obj["workforce"]["laptop_kwh_per_day"] = laptop
            obj.update(stages=[], overhead_kwh_per_day=0, operators_override=[1, 1])
            scenario = Scenario.from_json_obj(obj)
        scenarios.append(scenario)
    return dataclasses.replace(config, scenarios=tuple(scenarios))


# At 5e-324 kWh the CO2 (* 0.288) and water (* 0.18, * 0.3) underflow to
# 0.0; at 1e-323 kWh only the low water endpoint does. Energy ratios of
# one such scenario to another stay finite.
@pytest.mark.parametrize("laptops, baseline, message", [
    ((5e-324, 5e-324, 5e-324), "manual", "/scenarios/1: co2 reduction vs manual: zero baseline"),
    ((1e-323, 1e-323, 1e-323), "manual",
     "/scenarios/1: water reduction vs manual: zero baseline"),
    ((5e-324, 5e-324, 5e-324), "hitl", "/scenarios/0: co2 reduction vs hitl: zero baseline"),
    ((None, 5e-324, 5e-324), "manual", "/scenarios/2: co2 increase vs hitl: zero baseline"),
    ((None, 1e-323, 1e-323), "manual", "/scenarios/2: water increase vs hitl: zero baseline"),
    ((5e-324, None, 5e-324), "hitl", "/scenarios/2: co2 increase vs manual: zero baseline"),
], ids=["co2-reduction", "water-reduction", "reduction-baseline-second", "co2-increase",
        "water-increase", "increase-across-the-baseline"])
def test_reduction_table_errors_name_the_scenario_metric_and_ratio(config, laptops, baseline,
                                                                   message):
    with pytest.raises(ConfigError) as exc:
        build_bundle(_with_laptops(config, laptops), baseline)
    assert str(exc.value) == message


def test_subnormal_footprints_print_the_energy_row_for_every_metric(config):
    # Subnormal CO2 and water products lose digits (CO2 59 -- 59, water
    # 60 -- 61 for the first column if taken from their own ratios); the
    # energy ratio, which every metric's row is, keeps them.
    b = build_bundle(_with_laptops(config, (5e-322, 2e-322, 3e-322)), "manual")
    rows = emit_table(b, "reduction_table", "markdown").splitlines()[2:]
    assert rows == [f"| {metric} | 60 -- 60 | 40 -- 40 | +53 -- +53 |"
                    for metric in ("energy", "co2", "water")]


@pytest.mark.parametrize("names, message", [
    (["x_vs_y", "p", "manual", "y", "p_vs_x"],
     "/scenarios/4: increase column 'p_vs_x_vs_y' repeats an earlier one"),
    (["r", "manual", "p vs q", "q vs r", "p"],
     "/scenarios/4: markdown header 'p vs q vs r (increase %)' repeats an earlier one"),
], ids=["increase-key", "markdown-header"])
def test_repeated_columns_name_the_later_scenario_past_the_baseline(config, names, message):
    cfg = dataclasses.replace(config, scenarios=tuple(
        dataclasses.replace(config.scenarios[i % 3], name=n) for i, n in enumerate(names)))
    with pytest.raises(ConfigError) as exc:
        build_bundle(cfg, "manual")
    assert str(exc.value) == message


def test_scenario_table_markdown(bundle):
    text = emit_table(bundle, "scenario_table", "markdown")
    assert "| manual | 70 -- 400 | 36.3 -- 194.7 | 10.5 -- 56.1 | 6.5 -- 58.4 | 0.000000 |" in text
    assert "| hitl | 7 -- 28 | 6.1 -- 16.2 | 1.8 -- 4.7 | 1.1 -- 4.9 | 0.000545 |" in text
    assert "| agentic | 7 -- 28 | 10.1 -- 20.2 | 2.9 -- 5.8 | 1.8 -- 6.1 | 0.001345 |" in text


def test_scenario_table_json_digits(bundle):
    obj = json.loads(emit_table(bundle, "scenario_table", "json"))
    rows = {r["scenario"]: r for r in obj["rows"]}
    assert rows["manual"]["energy_kwh_per_day"] == [36.3, 194.7]
    assert rows["manual"]["co2_kg_per_day"] == [10.5, 56.1]
    assert rows["manual"]["water_l_per_day"] == [6.5, 58.4]
    assert rows["hitl"]["energy_kwh_per_day"] == [6.1, 16.2]
    assert rows["hitl"]["co2_kg_per_day"] == [1.8, 4.7]
    assert rows["hitl"]["water_l_per_day"] == [1.1, 4.9]
    assert rows["agentic"]["energy_kwh_per_day"] == [10.1, 20.2]
    assert rows["agentic"]["energy_per_doc_kwh"] == 0.001345


def test_reduction_table_csv_shape(bundle):
    text = emit_table(bundle, "reduction_table", "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header + 3 metric rows
    assert lines[0].startswith("metric,")
    assert lines[1].split(",")[0] == "energy"


def test_reduction_table_values(bundle):
    obj = json.loads(emit_table(bundle, "reduction_table", "json"))
    energy = next(r for r in obj["rows"] if r["metric"] == "energy")
    assert energy["reductions"]["hitl"] == [83, 92]
    assert energy["reductions"]["agentic"] == [72, 90]
    assert energy["increases"]["agentic_vs_hitl"] == [25, 66]


def test_token_table(full_bundle):
    obj = json.loads(emit_table(full_bundle, "token_table", "json"))
    shares = {r["component"]: r["share_pct"] for r in obj["rows"]}
    assert shares == {"document": 75.8, "prompt": 10.6, "output": 1.8, "thinking": 11.8}
    assert obj["total_tokens"] == 11_906
    assert obj["total_share_pct"] == 100.0
    assert obj["source"] == "measured"


def test_token_table_requires_usecase(bundle):
    with pytest.raises(ValueError, match="no usecase data"):
        emit_table(bundle, "token_table", "markdown")


def test_emit_rejects_unknown_table_and_format(bundle):
    with pytest.raises(ValueError, match="unknown table"):
        emit_table(bundle, "mystery", "markdown")
    with pytest.raises(ValueError, match="unknown format"):
        emit_table(bundle, "scenario_table", "yaml")


def _md_range(cell):
    lo, hi = cell.split(" -- ")
    return [float(lo), float(hi)]


def test_formats_encode_identical_numbers(bundle):
    obj = json.loads(emit_table(bundle, "scenario_table", "json"))
    json_rows = {r["scenario"]: r for r in obj["rows"]}

    csv_lines = emit_table(bundle, "scenario_table", "csv").strip().split("\n")
    header = csv_lines[0].split(",")
    for line in csv_lines[1:]:
        cells = dict(zip(header, line.split(",")))
        row = json_rows[cells["scenario"]]
        assert [float(cells["energy_kwh_lo"]), float(cells["energy_kwh_hi"])] == \
            row["energy_kwh_per_day"]
        assert [float(cells["water_l_lo"]), float(cells["water_l_hi"])] == \
            row["water_l_per_day"]
        assert float(cells["energy_per_doc_kwh"]) == row["energy_per_doc_kwh"]

    md_lines = [l for l in emit_table(bundle, "scenario_table", "markdown").splitlines()
                if l.startswith("|") and "---" not in l][1:]
    for line in md_lines:
        cells = [c.strip() for c in line.strip("|").split("|")]
        row = json_rows[cells[0]]
        assert _md_range(cells[2]) == row["energy_kwh_per_day"]
        assert _md_range(cells[3]) == row["co2_kg_per_day"]
        assert _md_range(cells[4]) == row["water_l_per_day"]


def test_plot_data(bundle):
    records = json.loads(emit_plot_data(bundle))
    assert len(records) == 9  # 3 scenarios x 3 metrics
    table = json.loads(emit_table(bundle, "scenario_table", "json"))
    rows = {r["scenario"]: r for r in table["rows"]}
    for record in records:
        lo, hi = rows[record["scenario"]][record["metric"]]
        assert record["lo"] == lo
        assert record["hi"] == hi
        assert record["mid"] == pytest.approx((lo + hi) / 2, abs=1e-9)


def test_plot_data_single_scenario(config):
    single = build_bundle(dataclasses.replace(config, scenarios=config.scenarios[:1]), "manual")
    assert len(json.loads(emit_plot_data(single))) == 3


def test_emission_is_pure(bundle):
    for which in ("scenario_table", "reduction_table"):
        for fmt in ("markdown", "csv", "json"):
            assert emit_table(bundle, which, fmt) == emit_table(bundle, which, fmt)
    assert emit_plot_data(bundle) == emit_plot_data(bundle)


def test_bundle_json_has_hash_but_no_timestamp(full_bundle, config):
    text = emit_bundle_json(full_bundle)
    obj = json.loads(text)
    assert obj["metadata"]["config_hash"] == config.config_hash
    assert "generated_at" not in text
    assert "token_table" in obj


def test_bundle_json_is_one_whole_dump(config, invoice_text, prompt_text, perfbench_gen,
                                       tmp_path):
    """bundle.json reads as json.dumps(indent=2) of its members in order."""
    usecase = run_pipeline(invoice_text, prompt_text, config.profiles[config.usecase_profile])
    odd = 'hitl ü ✓ "q" \\ \n'
    renamed = dataclasses.replace(config, scenarios=(
        config.scenarios[0], dataclasses.replace(config.scenarios[1], name=odd),
        config.scenarios[2]))
    cases = [(config, "manual"), (renamed, "manual"), (renamed, odd),
             (dataclasses.replace(config, scenarios=config.scenarios[:1]), "manual")]
    cases += [(load_config(d.path / "config.json"), d.baseline)
              for d in perfbench_gen.config_dirs(1, tmp_path)]
    for cfg, baseline in cases:
        for result in (None, usecase):
            b = build_bundle(cfg, baseline, usecase=result)
            whole = {"metadata": {"profile": cfg.scenario_profile,
                                  "config_hash": cfg.config_hash},
                     "scenario_table": json.loads(emit_table(b, "scenario_table", "json")),
                     "reduction_table": json.loads(emit_table(b, "reduction_table", "json")),
                     "plot_data": json.loads(emit_plot_data(b))}
            if result is not None:
                whole["token_table"] = json.loads(emit_table(b, "token_table", "json"))
            assert emit_bundle_json(b) == json.dumps(whole, indent=2) + "\n"


_SCENARIO_KEYS = ["scenario", "operators", "energy_kwh_per_day", "co2_kg_per_day",
                  "water_l_per_day", "energy_per_doc_kwh"]
_SERIES = ["energy_kwh_per_day", "co2_kg_per_day", "water_l_per_day"]


def _canonical(text):
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2) + "\n"
    return obj


def test_json_texts_are_canonical_indent_2(config, invoice_text, prompt_text, perfbench_gen,
                                           tmp_path):
    """Every table's JSON and the plot data read back as the same indent-2
    dump, with their keys in the documented order."""
    usecase = run_pipeline(invoice_text, prompt_text, config.profiles[config.usecase_profile])
    odd = ['q"uote', "back\\slash", "new\nline", "ü", "sep\u2028arator", "</script>"]
    renamed = dataclasses.replace(config, scenarios=tuple(
        dataclasses.replace(config.scenarios[i % 3], name=name) for i, name in enumerate(odd)))
    cases = [(config, "manual"), (config, "agentic"), (renamed, odd[0]), (renamed, odd[4]),
             (dataclasses.replace(config, scenarios=config.scenarios[:1]), "manual"),
             (dataclasses.replace(config, scenarios=config.scenarios[1:]), "agentic")]
    cases += [(load_config(d.path / "config.json"), d.baseline)
              for d in perfbench_gen.config_dirs(1, tmp_path)]
    for cfg, baseline in cases:
        names = [s.name for s in cfg.scenarios]
        others = [n for n in names if n != baseline]
        for result in (None, usecase):
            b = build_bundle(cfg, baseline, usecase=result)
            table = _canonical(emit_table(b, "scenario_table", "json"))
            assert list(table) == ["table", "rows"] and table["table"] == "scenario_table"
            assert [r["scenario"] for r in table["rows"]] == names
            for row in table["rows"]:
                assert list(row) == _SCENARIO_KEYS
                assert all(type(v) is int for v in row["operators"])
                assert all(type(v) is float for key in _SERIES for v in row[key])
                assert type(row["energy_per_doc_kwh"]) is float
            table = _canonical(emit_table(b, "reduction_table", "json"))
            assert list(table) == ["table", "baseline", "rows"]
            assert table["baseline"] == baseline
            assert [r["metric"] for r in table["rows"]] == ["energy", "co2", "water"]
            for row in table["rows"]:
                assert list(row) == ["metric", "reductions", "increases"]
                assert list(row["reductions"]) == others
                assert list(row["increases"]) == [f"{y}_vs_{x}"
                                                  for x, y in zip(others, others[1:])]
                assert all(type(v) is int for pairs in (row["reductions"], row["increases"])
                           for pair in pairs.values() for v in pair)
            records = _canonical(emit_plot_data(b))
            assert [(r["scenario"], r["metric"]) for r in records] == \
                [(n, m) for n in names for m in _SERIES]
            assert all(list(r) == ["scenario", "metric", "lo", "hi", "mid"] for r in records)
            if result is not None:
                table = _canonical(emit_table(b, "token_table", "json"))
                assert list(table) == ["table", "source", "rows", "total_tokens",
                                       "total_share_pct"]


# Name pieces that can break a markdown row or make two headers alike.
_NAME_PIECES = st.sampled_from(["p", "q", "r", "|", "\\", "\\|", "\n", "\r\n", "\u2028", "\x85",
                                "<br>", "_vs_", " vs "])
_NAMES = st.lists(st.lists(_NAME_PIECES, min_size=1, max_size=4).map("".join),
                  min_size=1, max_size=5, unique=True)


def _md_cells(row):
    return re.split(r"(?<!\\)\|", row)


def _expected_md_header(names, baseline):
    """The reduction table's markdown header by the README's rule."""
    def cell(name):
        return re.sub(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]", "<br>",
                      name.replace("|", "\\|"))
    others = [n for n in names if n != baseline]
    return (["Metric"] + [f"{cell(n)} vs {cell(baseline)} (reduction %)" for n in others]
            + [f"{cell(f'{b}_vs_{a}'.replace('_vs_', ' vs '))} (increase %)"
               for a, b in zip(others, others[1:])])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@example(names=["manual", "r", "p vs q", "q vs r", "p"], baseline_index=0)
@example(names=["m", "a|b", "a\\|b", "c\nd", "c<br>d"], baseline_index=0)
@given(names=_NAMES, baseline_index=st.integers(0, 4))
def test_markdown_rows_have_their_header_cells_and_headers_differ(config, names,
                                                                  baseline_index):
    """Whatever a scenario is named, each markdown row, split at | not
    preceded by \\, has as many cells as its header, the table has one
    line per row, and no two headers are alike; a name set that would
    repeat an increase key or a header is a ConfigError instead."""
    baseline = names[baseline_index % len(names)]
    cfg = dataclasses.replace(config, scenarios=tuple(
        dataclasses.replace(config.scenarios[i % 3], name=n) for i, n in enumerate(names)))
    others = [n for n in names if n != baseline]
    keys = [f"{b}_vs_{a}" for a, b in zip(others, others[1:])]
    header = _expected_md_header(names, baseline)
    try:
        bundle = build_bundle(cfg, baseline)
    except ConfigError as exc:
        assert len(set(keys)) < len(keys) or len(set(header)) < len(header)
        assert re.fullmatch(r"/scenarios/\d+: (increase column|markdown header) .* repeats "
                            r"an earlier one", str(exc), re.DOTALL)
        return
    assert len(set(header)) == len(header)
    for table, lines in (("scenario_table", 2 + len(names)), ("reduction_table", 5)):
        rows = emit_table(bundle, table, "markdown").splitlines()
        assert len(rows) == lines
        assert {len(_md_cells(row)) for row in rows} == {len(_md_cells(rows[0]))}
    assert rows[0] == "| " + " | ".join(header) + " |"


def test_repeated_markdown_header_names_the_later_scenario(config):
    # Distinct keys p vs q_vs_r and p_vs_q vs r both read "p vs q vs r".
    names = ["manual", "r", "p vs q", "q vs r", "p"]
    cfg = dataclasses.replace(config, scenarios=tuple(
        dataclasses.replace(config.scenarios[i % 3], name=n) for i, n in enumerate(names)))
    with pytest.raises(ConfigError) as info:
        build_bundle(cfg, "manual")
    assert str(info.value) == ("/scenarios/4: markdown header 'p vs q vs r (increase %)' "
                               "repeats an earlier one")


def test_markdown_escapes_pipes_and_line_breaks_in_names(config):
    names = ["manual", "a|b", "c\nd"]
    cfg = dataclasses.replace(config, scenarios=tuple(
        dataclasses.replace(config.scenarios[i], name=n) for i, n in enumerate(names)))
    bundle = build_bundle(cfg, "manual")
    assert emit_table(bundle, "reduction_table", "markdown").splitlines()[0] == (
        "| Metric | a\\|b vs manual (reduction %) | c<br>d vs manual (reduction %) "
        "| c<br>d vs a\\|b (increase %) |")
    rows = emit_table(bundle, "scenario_table", "markdown").splitlines()
    assert [row.split(" | ")[0] for row in rows[3:]] == ["| a\\|b", "| c<br>d"]
    # CSV and JSON keep the names as they are.
    assert "a|b" in emit_table(bundle, "scenario_table", "csv")
    assert json.loads(emit_table(bundle, "scenario_table", "json"))["rows"][2]["scenario"] == "c\nd"


# Names that a % or str.format template, a CSV cell, a markdown cell or a
# JSON string could each mistake for their own syntax.
_TEMPLATE_NAMES = ["manual", "m%s", "100%% {0}", '{}, "q"', "a|b\nc\u2028d ü ✓"]

# Scenarios at 0.1 kWh per operator whose cells reach past float and
# Decimal limits. "huge-both" has both energy endpoints in [1e26, 1e27)
# kWh, so the Decimal sum of its endpoints has more than 28 digits.
# "huge-mixed" pairs a 2.05e10 kWh low endpoint with a 2.5e26 kWh high
# one; the 28-digit halving of their sum lands on a float tie that the
# exact midpoint does not. "past-2**49" uses 2e15 kWh, whose CO2 and
# water cells 576000000000000.3 and 600000000000000.3 read .2 as floats.
_HUGE = [("huge-both", {"operators_override": [6 * 10**27, 9 * 10**27]}),
         ("huge-mixed", {"operators_override": [205017579521, 25 * 10**26]}),
         ("past-2**49", {"operators_override": [0, 0], "overhead_kwh_per_day": 2 * 10**15 + 1})]

# SHA-256 over every case's emitted texts, per group; see _report_digests.
_REPORT_DIGESTS = {
    "seed-1": "67e027c9be8df84903be0449e0aed89799111c0955eb6025a30887d78db6cb5c",
    "seed-2": "8812679077a2b387c2593a703b121671b9a9a7a0c31560952f251461d378a235",
    "seed-3": "6152862df763e9cc0d77ff7e185b3ce8f65047cbcda321f4945b4c45047d8553",
    "template-names": "c66353ff47501ee2e0203ea5bfdfeee1886d2065c4bc1b72136e14fa4cafd5f3",
    "huge-energy": "3d114bef2019f52415389c0e878ac35fa1b4317769553731cdd317c428fddc52",
}


def _report_digests(groups, usecase):
    """Each group's SHA-256 over one line per case and emitted text: the
    case, the text's name and the SHA-256 of its UTF-8 bytes."""
    out = {}
    for group, cases in groups.items():
        lines = []
        for label, (cfg, baseline) in cases:
            for result in (None, usecase):
                b = build_bundle(cfg, baseline, usecase=result)
                texts = {f"{table}.{fmt}": emit_table(b, table, fmt)
                         for table in ("scenario_table", "reduction_table", "token_table")
                         if table in b for fmt in ("markdown", "csv", "json")}
                texts["plot_data"] = emit_plot_data(b)
                texts["bundle.json"] = emit_bundle_json(b)
                for name, text in texts.items():
                    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                    lines.append(f"{label} {result is not None} {name} {digest}\n")
        out[group] = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    return out


def test_emitted_texts_match_their_pinned_digests(config, invoice_text, prompt_text,
                                                  perfbench_gen, tmp_path):
    """Every table in every format, the plot data and bundle.json, with and
    without a usecase, hash to the pinned digests: for the generated
    configs of seeds 1-3, for scenario names holding template, CSV,
    markdown and JSON syntax, and for cells past float and Decimal
    limits."""
    usecase = run_pipeline(invoice_text, prompt_text, config.profiles[config.usecase_profile])
    groups = {}
    for seed in (1, 2, 3):
        dirs = perfbench_gen.config_dirs(seed, tmp_path / f"seed-{seed}")
        groups[f"seed-{seed}"] = [(d.path.name, (load_config(d.path / "config.json"), d.baseline))
                                  for d in dirs]
    renamed = dataclasses.replace(config, scenarios=tuple(
        dataclasses.replace(config.scenarios[i % 3], name=name)
        for i, name in enumerate(_TEMPLATE_NAMES)))
    groups["template-names"] = [(repr(baseline), (renamed, baseline))
                                for baseline in (_TEMPLATE_NAMES[0], _TEMPLATE_NAMES[3])]
    huge = [Scenario.from_json_obj({"name": name, "daily_volume": 1, **fields,
                                    "workforce": {"per_doc_time_s": [30, 120],
                                                  "laptop_kwh_per_day": 0.1}})
            for name, fields in _HUGE]
    profile = config.profiles[config.scenario_profile]
    both, mixed, _ = (evaluate_scenario(s, profile).energy_kwh for s in huge)
    assert 10**26 <= both.lo <= both.hi < 10**27 and both.lo + both.hi > 10**27
    lo, hi = _half_up(mixed.lo), _half_up(mixed.hi)
    assert float((Decimal(lo).scaleb(-1) + Decimal(hi).scaleb(-1)) / 2) != (lo + hi) / 20
    groups["huge-energy"] = [("huge", (dataclasses.replace(
        config, scenarios=(*huge, *config.scenarios)), "huge-both"))]
    assert _report_digests(groups, usecase) == _REPORT_DIGESTS
