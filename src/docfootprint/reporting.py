"""Config ingestion and report emission.

Numeric presentation rounding is half-up of the float's repr, or of a
Decimal as it is. core._half_up rounds a presented figure to a whole
number of tenths (or hundredths). The energy and percent cells here and
the token shares of pipeline.ledger_shares use that number; present()
turns it into a Decimal for the thinking-delta figures. Internal values
stay at full precision until a table or plot series is rendered.
Published table digits are reproduced by rounding energy to one decimal
first and deriving the CO2 and water cells from those presented figures
in decimal arithmetic, exactly as the reference tables were produced:
each is the half-up of the product of an energy cell and a factor in
the 28-digit decimal context. _cell_tenths computes that product's
tenths in integers below a bound at which the context still multiplies
exactly, and as _half_up of the Decimal product from there.

The scenario and reduction tables format each row from one set of
presented cells, once per output. Module-level % templates give a
scenario row's JSON object, its plot records and its markdown row, and
each entry of a reduction row's JSON maps; csv.writer writes the CSV
rows, quoting where needed. The JSON templates are derived at import
from json.dumps(indent=2), with placeholders where the cells go, and
_block joins laid-out members into the objects and arrays around them.
Each table object is one more such template, around its rows array, so
a table's JSON text is written once.
So json states the layout once, and the report holds the bytes
json.dumps(indent=2) would write, without calling it per row: with
indent set, json falls back to its pure-Python encoder.
A reduction column's percent pair is computed and presented once and
written into all three metric rows, since under one profile the CO2
and water ratios are the energy ratio.

Every input file (config, scenario, document, prompt, token-count file
or ledger) is read by _read_input, the one reader, which words each
failure as a bad file, a file too large or a file not found. It reads
through _read_regular: one stat, and only for a regular file one open
and one read of the size the stat gave. The stat comes first because
opening a FIFO blocks until a writer comes, and opening a device can
act; a directory or a device is "file not found", as Path.is_file()
has it.
On every Python, a stat error reads as "file not found" only for
ENOENT, ENOTDIR, EBADF and ELOOP, the errnos is_file() ignores up to
3.12; any other, such as a name too long, propagates with the OS's text.
Line endings are translated as Path.read_text() translates them, since
the line and column of a JSON error message count the translated text.
Every JSON input is parsed by _parse_json, which bounds nesting at 512
levels, so a deeper file gets one message on every Python rather than a
RecursionError on some and a parse on others.

A scenario file's path is the config's directory and the reference
joined as strings, which saves a pathlib parse for every scenario; a
message that prints the path shows it as Path does. pathlib drops a
last component that is empty or ".", so it reads scenarios/manual.json
for scenarios/manual.json/ and scenarios/manual.json/., where the
kernel would ask for a directory; a reference ending so, or absolute,
is joined by pathlib and names the file it always has, and so is every
reference where the path separator is not "/". The join folds no "..",
which after a symlink leads elsewhere than the text says.

The config hash is the SHA-256 of the canonical JSON text of a config
and its scenario files. load_config keeps that text, and the hash is
computed the first time Config.config_hash is read, which only bundle
JSON does; so commands that print no bundle never import hashlib.
"""

from __future__ import annotations

import errno
import io
import json
import os
import re
from decimal import Decimal
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from stat import S_ISREG

from .core import FootprintProfile, _half_up, _json_fields, _Record, _set_field
from .pipeline import ExtractionResult, TokenLedger, ledger_shares
from .scenarios import (
    DailyFootprint,
    Scenario,
    _increase,
    _reduction,
    evaluate_scenario,
)

TABLES = ("scenario_table", "reduction_table", "token_table")
FORMATS = ("markdown", "csv", "json")

# Every line break str.splitlines() splits at.
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


class ConfigError(ValueError):
    """Configuration file problem; message starts with a JSON-pointer path."""


def _dec(x: float) -> Decimal:
    return Decimal(repr(x))


def present(x: float | Decimal, ndigits: int = 1) -> Decimal:
    """Half-up presentation rounding of a float or Decimal, returned as a Decimal."""
    return Decimal(_half_up(x, ndigits)).scaleb(-ndigits)


def present_pct(x: float) -> int:
    """Integer percent presentation: half-up to one decimal, then to whole."""
    t = _half_up(x)
    return (t + 5) // 10 if t >= 0 else -((5 - t) // 10)


class Config(_Record):
    """A validated config: profiles, their bindings, scenarios and content hash.

    A Config from load_config holds the canonical JSON text its hash is
    taken over, as UTF-8 bytes, and computes config_hash from it on
    first read, dropping the text.
    """

    profiles: dict[str, FootprintProfile]
    scenario_profile: str
    usecase_profile: str
    scenarios: tuple[Scenario, ...]
    config_hash: str

    def __init__(self, profiles, scenario_profile, usecase_profile, scenarios, config_hash):
        self._store(profiles, scenario_profile, usecase_profile, scenarios, config_hash)

    @classmethod
    def _hashed_on_read(cls, canonical: bytes, *fields) -> Config:
        """A Config of the fields before config_hash, hashing canonical on first read."""
        config = cls.__new__(cls)
        config._store(*fields)
        _set_field(config, "_canonical", canonical)
        return config

    def __getattr__(self, name):
        # Normal lookup fails for config_hash only on a Config from
        # _hashed_on_read whose hash has not been read yet.
        if name != "config_hash":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        import hashlib

        digest = hashlib.sha256(self._canonical).hexdigest()
        _set_field(self, "config_hash", digest)
        object.__delattr__(self, "_canonical")
        return digest


# The stat errnos that read as "no such file".
_MISSING_ERRNOS = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _read_regular(path) -> str | None:
    """Path(path).read_text(encoding="utf-8"), or None where the path is
    no regular file, or its stat fails with one of _MISSING_ERRNOS or
    with a ValueError.

    After the stat, the first read asks for the size it gave plus a
    byte, and reads go on to the end of the file.
    """
    try:
        st = os.stat(path)
    except OSError as exc:
        if exc.errno not in _MISSING_ERRNOS:
            raise
        return None
    except ValueError:
        # A NUL in the name, or a name the file system encoding cannot hold.
        return None
    if not S_ISREG(st.st_mode):
        return None
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, st.st_size + 1)]
        # Small enough that the last, empty read takes its buffer from the
        # small-object allocator rather than growing the heap.
        while chunk := os.read(fd, 256):
            chunks.append(chunk)
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_input(path, parse=str, bad="bad text file {path}", name="file", absolute=False):
    """parse() of the text of the regular file at path, or one ValueError.

    Bad bytes, or a ValueError or RecursionError from parse, read as bad
    (its {path} filled in) and the error's text; MemoryError as name too
    large to read. A path that is no regular file is name not found,
    shown by its absolute path if absolute is true. Otherwise a message
    shows path, a str or a Path, as Path shows it; a path that
    os.path.realpath cannot take gives realpath's error.
    """
    try:
        text = _read_regular(path)
        if text is not None:
            return parse(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bytes that are not UTF-8 and integers too long
        # to convert, as well as JSON syntax errors.
        raise ValueError(f"{bad.format(path=Path(path))}: {exc}") from None
    except MemoryError:
        raise ValueError(f"{name} too large to read: {Path(path)}") from None
    raise ValueError(f"{name} not found: {os.path.realpath(path) if absolute else Path(path)}")


# The deepest nesting of arrays and objects a JSON input may have. json
# recurses once a level, and how deep it gets before a RecursionError
# differs by Python version; 3.11 parses this depth with room to spare.
_JSON_DEPTH = 512
# A JSON string, or one bracket outside strings. re compiles it on first
# use, so a process that reads no deep file does not.
_JSON_TOKEN = r'(?s)"[^"\\]*(?:\\.[^"\\]*)*"|[][{}]'


def _parse_json(text: str):
    """json.loads(text), where nesting deeper than _JSON_DEPTH is a
    JSONDecodeError at its first bracket past the bound, unless json
    finds an error before that bracket, which it then raises.

    Only a text with more brackets than the bound is scanned for them.
    """
    if len(text) > _JSON_DEPTH and text.count("[") + text.count("{") > _JSON_DEPTH:
        depth = 0
        for token in re.finditer(_JSON_TOKEN, text):
            # A string token holds a quote, so it is in neither.
            bracket = token.group()
            depth += (bracket in "[{") - (bracket in "]}")
            if depth > _JSON_DEPTH:
                at = token.start()
                try:
                    json.loads(text[:at])
                except json.JSONDecodeError as exc:
                    # Cut where a value begins, the text ends where json
                    # expects that value, unless it has an error before.
                    if exc.pos < at or exc.msg != "Expecting value":
                        raise
                raise json.JSONDecodeError(f"Nesting deeper than {_JSON_DEPTH} levels", text, at)
    return json.loads(text)


def _pointed(pointer, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError re-raised as a ConfigError
    whose message is the JSON pointer and the error's text. pointer is
    the pointer, or a function that gives it, so that a loop formats its
    pointer only for an error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{pointer() if callable(pointer) else pointer}{exc}") from None


def load_config(path: str | Path) -> Config:
    """Load and validate a config file plus the scenario files it references.

    Unknown keys are rejected everywhere; error messages carry the
    JSON-pointer of the offending element.
    """
    path = Path(path)
    raw = _pointed("/: ", _read_input, path, _parse_json, "invalid JSON")
    if not isinstance(raw, dict):
        raise ConfigError("/: expected a JSON object")
    _pointed("/", _json_fields, raw, ("profiles", "scenario_profile", "usecase_profile",
                                      "scenarios"),
             kinds={"scenario_profile": str, "usecase_profile": str, "scenarios": list})

    if not isinstance(raw["profiles"], dict) or not raw["profiles"]:
        raise ConfigError("/profiles: expected a non-empty object")
    profiles = {}
    for name, obj in raw["profiles"].items():
        profiles[name] = _pointed(f"/profiles/{name}: ", FootprintProfile.from_json_obj, name, obj)

    for key in ("scenario_profile", "usecase_profile"):
        if raw[key] not in profiles:
            raise ConfigError(f"/{key}: references unknown profile {raw[key]!r}")

    scenarios, scenario_raws = {}, []
    parent = path.parent
    base = os.path.join(parent, "")
    for i, ref in enumerate(raw["scenarios"]):
        scenario_raw, scenario = _pointed(lambda: f"/scenarios/{i}: ", _scenario_file, parent,
                                          base, ref)
        scenario_raws.append(scenario_raw)
        if scenario.name in scenarios:
            raise ConfigError(f"/scenarios/{i}: duplicate scenario name {scenario.name!r}")
        scenarios[scenario.name] = scenario

    # json.loads builds a new object for every value it reads, so no list
    # or dict here is inside itself, and skipping json's check for one
    # writes the same text.
    canonical = json.dumps({"config": raw, "scenario_files": scenario_raws}, sort_keys=True,
                           separators=(",", ":"), check_circular=False).encode("utf-8")
    return Config._hashed_on_read(canonical, profiles, raw["scenario_profile"],
                                  raw["usecase_profile"], tuple(scenarios.values()))


def _scenario_file(parent: Path, base: str, ref) -> tuple:
    """The JSON object in the scenario file ref names, and its Scenario.

    ref is joined to base, the parent's text ending in a separator, as a
    string, or by pathlib to parent where the module docstring says.
    """
    if not isinstance(ref, str) or "\0" in ref:
        # os.path.realpath words a NUL's error differently by version.
        raise ValueError("expected a file path string")
    if os.sep != "/" or ref[:1] == "/" or ref.rpartition("/")[2] in ("", "."):
        file = parent / ref
    else:
        file = base + ref
    obj = _read_input(file, _parse_json, "invalid JSON", "file", True)
    return obj, Scenario.from_json_obj(obj)


def build_bundle(config: Config, baseline: str,
                 usecase: ExtractionResult | None = None) -> dict:
    """Evaluate every scenario and render each presented table once.

    The bundle maps "config" to the config, whose scenario profile and
    hash emit_bundle_json writes as metadata, each table name to its
    final text in every format ({"markdown", "csv", "json"} to str),
    and "plot_data" to the plot series' JSON text. The token table is
    present only when a usecase result is given. The emitters only look
    texts up.
    """
    names = [s.name for s in config.scenarios]
    if baseline not in names:
        raise ValueError(f"unknown scenario {baseline!r}; choices: {', '.join(names)}")
    profile = config.profiles[config.scenario_profile]
    footprints = {}
    for i, s in enumerate(config.scenarios):
        footprints[s.name] = _pointed(lambda: f"/scenarios/{i}: ", evaluate_scenario, s, profile)
    # Reductions first, so a zero baseline is reported before any
    # presentation step runs.
    bundle = {"config": config,
              "reduction_table": _reduction_table(footprints, baseline)}
    bundle["scenario_table"], bundle["plot_data"] = _scenario_table(footprints, profile)
    if usecase is not None:
        bundle["token_table"] = _token_table(usecase.ledger)
    return bundle


def _md(name: str) -> str:
    """A scenario name as markdown cell text: | as \\| and each line break as <br>."""
    return _LINE_BREAK.sub("<br>", name.replace("|", "\\|"))


def _template(obj, depth: int) -> str:
    """json.dumps(obj, indent=2) with every line indented depth levels,
    and each string value "%s" or "%r" written bare, as a placeholder."""
    text = json.dumps(obj, indent=2).replace('"%s"', "%s").replace('"%r"', "%r")
    return "  " * depth + text.replace("\n", "\n" + "  " * depth)


def _block(items, depth: int, brackets: str = "{}") -> str:
    """The object or array json.dumps(indent=2) writes at depth, from its
    members' texts already laid out one level deeper; {} or [] if none."""
    text = ",\n".join(items)
    return f"{brackets[0]}\n{text}\n{'  ' * depth}{brackets[1]}" if text else brackets


# Each JSON template is the text json.dumps(indent=2) writes for its row
# at its place in the table. Its %s are JSON strings from _quote or the
# JSON text of numbers or maps, and its %r ints or finite floats, whose
# repr is what json writes.
_SERIES = ("energy_kwh_per_day", "co2_kg_per_day", "water_l_per_day")
_SCENARIO_ROW = _template({"scenario": "%s", "operators": ["%r", "%r"],
                           **{series: ["%s", "%s"] for series in _SERIES},
                           "energy_per_doc_kwh": "%r"}, 2)
# A row's plot records, one per series, as one template.
_PLOT_RECORDS = ",\n".join(_template({"scenario": "%s", "metric": series, "lo": "%s",
                                      "hi": "%s", "mid": "%r"}, 1) for series in _SERIES)
_SCENARIO_MD = "| %s | %s -- %s | %s -- %s | %s -- %s | %s -- %s | %s |\n"
_REDUCTION_ROW = _template({"metric": "%s", "reductions": "%s", "increases": "%s"}, 2)
_MAP_ENTRY = "        %s: " + _template(["%r", "%r"], 4).lstrip()
# Each table object, around the text of its rows array.
_SCENARIO_TABLE = _template({"table": "scenario_table", "rows": "%s"}, 0) + "\n"
_REDUCTION_TABLE = _template({"table": "reduction_table", "baseline": "%s", "rows": "%s"}, 0) + "\n"

# Below this many tenths (1e14 kWh, under 2**47) a cell's float t / 10
# is within 1/128 of it, so no other decimal of as few digits rounds to
# that float, and its repr is the cell's own text. The Decimal sum of two
# such cells and its half are exact, so float((lo + hi) / 2) is the
# correctly rounded (lo + hi) / 20 that int / int gives. From 2 * 10**27
# tenths on, the 28-digit context can round that half. Skipping the six
# reprs and the Decimal midpoints of a row gives report-bundle about 6%
# more scenarios per second (CPython 3.11, 2 vCPU).
_SMALL_TENTHS = 10**15


def _cell_tenths(profile: FootprintProfile):
    """The function of an energy interval that gives a scenario row's
    tenths (e0, e1, c0, c1, w0, w1): e0 and e1 are _half_up of the energy
    endpoints, and each CO2 and water cell is _half_up(Decimal(e).scaleb(-1)
    * f), for e0 and e1 with f the emission factor in kg per kWh, e0 with
    wue.lo and e1 with wue.hi.

    Each f is m * 10**x for a whole m, so its product is e * m * 10**(x - 1),
    which the 28-digit context holds exactly while e * m < 10**28, and for
    x < 0 the product's half-up tenths are (e * m + div // 2) // div, where
    div = 10**-x. So a row whose e1 is below 10**28 // max(m), and no row
    if some x >= 0, is presented in integers. Any other row takes the
    Decimal expression, which is where a cell too large to present raises.
    """
    ef = _dec(profile.emission_factor_g_per_kwh) / Decimal(1000)
    wue_lo, wue_hi = _dec(profile.wue.lo), _dec(profile.wue.hi)
    factors = (ef, wue_lo, wue_hi)
    exps = [f.as_tuple().exponent for f in factors]
    # Where some x >= 0, div is a float that no row reads.
    (mc, dc), (ml, dl), (mh, dh) = [(int(f.scaleb(-x)), 10**-x) for f, x in zip(factors, exps)]
    hc, hl, hh = dc // 2, dl // 2, dh // 2
    # Every factor is > 0, so each m is at least 1.
    bound = 10**28 // max(mc, ml, mh) if max(exps) < 0 else 0

    def tenths(energy) -> tuple:
        e0, e1 = _half_up(energy.lo), _half_up(energy.hi)
        # Floor division rounds half up only for e * m >= 0; energy is
        # never negative, and e0 <= e1.
        if e1 < bound:
            return (e0, e1, (e0 * mc + hc) // dc, (e1 * mc + hc) // dc, (e0 * ml + hl) // dl,
                    (e1 * mh + hh) // dh)
        d0, d1 = Decimal(e0).scaleb(-1), Decimal(e1).scaleb(-1)
        return (e0, e1, _half_up(d0 * ef), _half_up(d1 * ef), _half_up(d0 * wue_lo),
                _half_up(d1 * wue_hi))

    return tenths


def _scenario_table(footprints: dict[str, DailyFootprint], profile: FootprintProfile) -> tuple:
    """Presented scenario rows, and the plot series' JSON text.

    CO2 and water cells are derived from the one-decimal energy cell
    rather than from the full-precision chain; this matches how the
    published tables were rounded (e.g. a 16.2 energy bound gives
    16.2 * 0.30 = 4.86 -> 4.9 L, where the exact chain would show 4.8).
    A row's cells are whole tenths from _cell_tenths: half-up of the
    exact product, in integers unless the product is past what the
    decimal context holds exactly. A cell's text, from // and %, is str
    of the Decimal cell; its JSON number is the repr of t / 10, float of
    the Decimal cell. In a row whose cells are all below _SMALL_TENTHS the
    two are the same text, and the plot midpoints come from the tenths.
    The row's JSON object and plot records are written by templates
    derived from json.dumps, and its markdown row by one more, from the
    same cells as its CSV row.
    """
    cell_tenths = _cell_tenths(profile)
    rows, csv_rows, md_rows, records = [], [], [], []
    for name, fp in footprints.items():
        tenths = cell_tenths(fp.energy_kwh)
        e0, e1, c0, c1, w0, w1 = tenths
        text = [f"{t // 10}.{t % 10}" for t in tenths]
        # Each high endpoint is at least its low one.
        if max(e1, c1, w1) < _SMALL_TENTHS:
            nums, mids = text, ((e0 + e1) / 20, (c0 + c1) / 20, (w0 + w1) / 20)
        else:
            nums = [repr(t / 10) for t in tenths]
            dec = [Decimal(t).scaleb(-1) for t in tenths]
            mids = [float((lo + hi) / 2) for lo, hi in zip(dec[::2], dec[1::2])]
        o0, o1 = int(fp.operators.lo), int(fp.operators.hi)
        per_doc = fp.energy_per_doc_kwh
        key = _quote(name)
        rows.append(_SCENARIO_ROW % (key, o0, o1, *nums, per_doc))
        records.append(_PLOT_RECORDS % (key, nums[0], nums[1], mids[0], key, nums[2], nums[3],
                                        mids[1], key, nums[4], nums[5], mids[2]))
        cells = (o0, o1, *text, f"{per_doc:.6f}")
        csv_rows.append((name, *cells))
        md_rows.append(_SCENARIO_MD % (_md(name), *cells))
    csv_header = ["scenario", "operators_lo", "operators_hi", "energy_kwh_lo", "energy_kwh_hi",
                  "co2_kg_lo", "co2_kg_hi", "water_l_lo", "water_l_hi", "energy_per_doc_kwh"]
    md_header = ["Scenario", "Operators", "Energy (kWh/day)", "CO2 (kg/day)",
                 "Water (L/day)", "Energy per doc (kWh)"]
    table = _render(_SCENARIO_TABLE % _block(rows, 1, "[]"), [csv_header, *csv_rows],
                    md_header, md_rows)
    return table, _block(records, 0, "[]") + "\n"


_METRICS = ("energy", "co2", "water")


def _ratios(ratio, i: int, kind: str, other: str, base, candidate) -> tuple:
    """ratio's (lo, hi) for energy, which is the CO2 and water pair too:
    each of their endpoints is the energy endpoint times a factor that
    the endpoint-matched ratio cancels. A product can still underflow to
    zero, so after energy's errors a CO2 and then a water baseline with
    a zero endpoint is a zero baseline. A failure is a ConfigError
    naming the candidate, /scenarios/<i>, the metric, and kind vs
    other; its text is built only then."""
    metric = "energy"
    try:
        pair = ratio(base.energy_kwh, candidate.energy_kwh)
        # Every Interval has lo <= hi, so a zero endpoint is a zero lo.
        for metric, low in (("co2", base.co2_kg.lo), ("water", base.water_l.lo)):
            if low <= 0:
                raise ValueError("zero baseline")
        return pair
    except ValueError as exc:
        raise ConfigError(f"/scenarios/{i}: {metric} {kind} vs {other}: {exc}") from None


def _reduction_table(footprints: dict[str, DailyFootprint], baseline: str) -> dict:
    """Reductions of every other scenario against the baseline, and the
    increase of each of those scenarios over the one before it.

    The table is one list of columns, reductions then increases. Each
    column holds the index of the scenario it belongs to (an increase
    column belongs to the later scenario of its pair), its JSON key, the
    suffix that makes that key the stem of its CSV keys, its markdown
    header and its ratio pair; the JSON maps, the CSV and markdown
    headers and the repeated-header check all read that list. The suffix
    is one string per kind of column, so no stem is held while the rows
    are written.

    Every ratio is computed before any is presented, so a zero baseline
    is reported ahead of a presentation failure. A column's percent pair
    is computed and presented once and written into all three metric
    rows: under one profile the CO2 and water ratios are the energy
    ratio (see _ratios), so the JSON maps, the CSV values and the
    markdown cells are built once, and the rows differ only in their
    metric name; a map with no pair is {}. A repeated increase key or
    markdown header is a ConfigError naming the later scenario, since a
    reader could not tell the columns apart.
    An error's pointer is formatted only when it is raised.
    """
    others = [(i, n) for i, n in enumerate(footprints) if n != baseline]
    # Each name's markdown text, escaped once for every header it is in,
    # and the suffix of every reduction column.
    md, reduction = {name: _md(name) for name in footprints}, f"_vs_{baseline}_reduction"
    base = footprints[baseline]
    columns = [(i, n, reduction, f"{md[n]} vs {md[baseline]} (reduction %)",
                _ratios(_reduction, i, "reduction", baseline, base, footprints[n]))
               for i, n in others]
    n, keys = len(columns), set()
    for (_, a), (i, b) in zip(others, others[1:]):
        key = f"{b}_vs_{a}"
        if key in keys:
            raise ConfigError(f"/scenarios/{i}: increase column {key!r} repeats an earlier one")
        keys.add(key)
        # _md leaves every _vs_ as it is, so replacing them after it gives
        # the same text; the replace runs over the whole key because a _vs_
        # can straddle the join.
        header = f"{md[b]}_vs_{md[a]}".replace("_vs_", " vs ") + " (increase %)"
        columns.append((i, key, "_increase", header,
                        _ratios(_increase, i, "increase", a, footprints[a], footprints[b])))
    seen = set()
    for owner, _, _, header, _ in columns:
        if header in seen:
            raise ConfigError(f"/scenarios/{owner}: markdown header {header!r} repeats an earlier one")
        seen.add(header)
    pcts = [(present_pct(lo), present_pct(hi)) for _, _, _, _, (lo, hi) in columns]
    entries = [_MAP_ENTRY % (_quote(key), *pair) for (_, key, _, _, _), pair in zip(columns, pcts)]
    red, inc = _block(entries[:n], 3), _block(entries[n:], 3)
    values = [v for pair in pcts for v in pair]
    cells = ["", *[f"{lo} -- {hi}" for lo, hi in pcts[:n]]]
    cells += [f"+{lo} -- +{hi}" if lo >= 0 else f"{lo} -- {hi}" for lo, hi in pcts[n:]]
    tail = " | ".join(cells) + " |\n"
    rows = [_REDUCTION_ROW % (_quote(m), red, inc) for m in _METRICS]
    csv_rows = [[m, *values] for m in _METRICS]
    md_rows = ["| " + m + tail for m in _METRICS]
    csv_header = ["metric", *[f"{key}{suffix}_{end}" for _, key, suffix, _, _ in columns
                              for end in ("lo", "hi")]]
    return _render(_REDUCTION_TABLE % (_quote(baseline), _block(rows, 1, "[]")),
                   [csv_header, *csv_rows], ["Metric", *[h for _, _, _, h, _ in columns]], md_rows)


def _token_table(ledger: TokenLedger) -> dict:
    """The token table. Each (component, tokens, share) row is built once,
    and its JSON object, CSV row and markdown line are written from it;
    csv.writer writes an int or float as str() of it."""
    shares = ledger_shares(ledger)
    rows = [(name, getattr(ledger, name), share) for name, share in shares.items()]
    total = ledger.total()
    total_share = float(sum(_dec(share) for share in shares.values()))
    obj = {"table": "token_table", "source": ledger.source,
           "rows": [{"component": c, "tokens": t, "share_pct": s} for c, t, s in rows],
           "total_tokens": total, "total_share_pct": total_share}
    md_rows = [f"| {c} | {t:,} | {s} |\n" for c, t, s in rows]
    return _render(_json_text(obj),
                   [["component", "tokens", "share_pct"], *rows, ["total", total, total_share]],
                   ["Component", "Tokens", "Share (%)"],
                   md_rows + [f"| TOTAL | {total:,} | {total_share} |\n"])


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _render(json_text, csv_rows, md_header, md_rows) -> dict[str, str]:
    """One table's final text in every format, given its JSON text, its CSV
    rows (header first), and its markdown header cells and row lines."""
    import csv  # only here, so commands that emit no table never import it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv_rows)
    markdown = "| " + " | ".join(md_header) + " |\n|" + " --- |" * len(md_header) + "\n"
    return {"markdown": markdown + "".join(md_rows), "csv": buf.getvalue(), "json": json_text}


def emit_table(bundle: dict, which: str, fmt: str = "markdown") -> str:
    """One of the bundle's tables as markdown, CSV, or JSON text.

    All three formats encode the same presented numbers; emission is a
    pure function of the bundle.
    """
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r}; choices: {', '.join(TABLES)}")
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choices: {', '.join(FORMATS)}")
    table = bundle.get(which)
    if table is None:
        raise ValueError("no usecase data in bundle")
    return table[fmt]


def emit_plot_data(bundle: dict) -> str:
    """Series records (scenario x metric) carrying the presented bounds."""
    return bundle["plot_data"]


def emit_bundle_json(bundle: dict) -> str:
    """Machine-readable bundle: metadata plus every table it carries.

    The metadata is the config's scenario profile and hash; reading the
    hash here is what computes it. The members' texts are spliced in at
    one more level of indent. The result is the bytes json.dumps(indent=2)
    gives for the whole object, because a JSON text holds newlines only
    between tokens.
    """
    config = bundle["config"]
    metadata = {"profile": config.scenario_profile, "config_hash": config.config_hash}
    members = [("metadata", _json_text(metadata)),
               ("scenario_table", bundle["scenario_table"]["json"]),
               ("reduction_table", bundle["reduction_table"]["json"]),
               ("plot_data", bundle["plot_data"])]
    if "token_table" in bundle:
        members.append(("token_table", bundle["token_table"]["json"]))
    # From a generator, _block's join drops its copies of the member
    # texts before the whole text is built.
    return _block((f'  "{key}": ' + text[:-1].replace("\n", "\n  ")
                   for key, text in members), 0) + "\n"
