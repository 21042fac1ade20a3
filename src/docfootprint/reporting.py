"""Config ingestion and report emission.

All numeric presentation rounding lives here: internal values stay at
full precision until a table or plot series is rendered. Published
table digits are reproduced by rounding energy to one decimal first
and deriving the CO2 and water cells from those presented figures in
decimal arithmetic, exactly as the reference tables were produced.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_HALF_UP
from pathlib import Path

from .core import FootprintProfile, Interval, _json_fields
from .pipeline import ExtractionResult, TokenLedger, ledger_shares
from .scenarios import (
    DailyFootprint,
    Scenario,
    compare_scenarios,
    evaluate_scenario,
    increase_pct,
)

TABLES = ("scenario_table", "reduction_table", "token_table")
FORMATS = ("markdown", "csv", "json")

_TENTH = Decimal("0.1")
_ONE = Decimal("1")


class ConfigError(ValueError):
    """Configuration file problem; message starts with a JSON-pointer path."""


def _dec(x: float) -> Decimal:
    return Decimal(repr(x))


def _too_large(value) -> ValueError:
    # quantize fails only when the rounded value needs more digits than
    # the decimal context's 28.
    return ValueError(f"value too large to present: {value}")


def present(x: float, ndigits: int = 1) -> Decimal:
    """Half-up presentation rounding of a float, returned as a Decimal."""
    quantum = _ONE.scaleb(-ndigits) if ndigits > 0 else _ONE
    try:
        return _dec(x).quantize(quantum, rounding=ROUND_HALF_UP)
    except InvalidOperation:
        raise _too_large(repr(x)) from None


def present_pct(x: float) -> int:
    """Integer percent presentation: half-up to one decimal, then to whole."""
    return int(present(x, 1).quantize(_ONE, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class Config:
    profiles: dict[str, FootprintProfile]
    scenario_profile: str
    usecase_profile: str
    scenarios: tuple[Scenario, ...]
    config_hash: str


def _load_json(path: Path, pointer: str) -> object:
    if not path.is_file():
        raise ConfigError(f"{pointer}: file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{pointer}: invalid JSON: {exc}") from None


def load_config(path: str | Path) -> Config:
    """Load and validate a config file plus the scenario files it references.

    Unknown keys are rejected everywhere; error messages carry the
    JSON-pointer of the offending element.
    """
    path = Path(path)
    raw = _load_json(path, "/")
    if not isinstance(raw, dict):
        raise ConfigError("/: expected a JSON object")
    try:
        _json_fields(raw, ("profiles", "scenario_profile", "usecase_profile", "scenarios"),
                     kinds={"scenario_profile": str, "usecase_profile": str, "scenarios": list})
    except ValueError as exc:
        raise ConfigError(f"/{exc}") from None

    if not isinstance(raw["profiles"], dict) or not raw["profiles"]:
        raise ConfigError("/profiles: expected a non-empty object")
    profiles = {}
    for name, obj in raw["profiles"].items():
        try:
            profiles[name] = FootprintProfile.from_json_obj(name, obj)
        except ValueError as exc:
            raise ConfigError(f"/profiles/{name}: {exc}") from None

    for key in ("scenario_profile", "usecase_profile"):
        if raw[key] not in profiles:
            raise ConfigError(f"/{key}: references unknown profile {raw[key]!r}")

    scenarios = []
    scenario_raws = []
    seen = set()
    for i, ref in enumerate(raw["scenarios"]):
        if not isinstance(ref, str):
            raise ConfigError(f"/scenarios/{i}: expected a file path string")
        scenario_path = (path.parent / ref).resolve()
        scenario_raw = _load_json(scenario_path, f"/scenarios/{i}")
        scenario_raws.append(scenario_raw)
        try:
            scenario = Scenario.from_json_obj(scenario_raw)
        except ValueError as exc:
            raise ConfigError(f"/scenarios/{i}: {exc}") from None
        if scenario.name in seen:
            raise ConfigError(f"/scenarios/{i}: duplicate scenario name {scenario.name!r}")
        seen.add(scenario.name)
        scenarios.append(scenario)

    digest = hashlib.sha256(json.dumps(
        {"config": raw, "scenario_files": scenario_raws},
        sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()

    return Config(
        profiles=profiles,
        scenario_profile=raw["scenario_profile"],
        usecase_profile=raw["usecase_profile"],
        scenarios=tuple(scenarios),
        config_hash=digest,
    )


@dataclass(frozen=True)
class _Table:
    """One presented table in every output form.

    obj is the JSON form; presented Decimal cells in it are written as
    floats. csv and markdown are (header, rows) pairs of string cells.
    """

    obj: dict
    csv: tuple[list[str], list[list[str]]]
    markdown: tuple[list[str], list[list[str]]]


@dataclass(frozen=True)
class ReportBundle:
    """The presented tables of one report, keyed by table name."""

    profile_name: str
    config_hash: str
    tables: dict[str, _Table]


def build_bundle(config: Config, baseline: str,
                 usecase: ExtractionResult | None = None) -> ReportBundle:
    """Evaluate every scenario and build each presented table once.

    The token table is present only when a usecase result is given.
    """
    names = [s.name for s in config.scenarios]
    if baseline not in names:
        raise ValueError(f"unknown scenario {baseline!r}; choices: {', '.join(names)}")
    profile = config.profiles[config.scenario_profile]
    footprints = {s.name: evaluate_scenario(s, profile) for s in config.scenarios}
    # Reductions first, so a zero baseline is reported before any
    # presentation step runs.
    tables = {"reduction_table": _reduction_table(footprints, baseline),
              "scenario_table": _scenario_table(footprints, profile)}
    if usecase is not None:
        tables["token_table"] = _token_table(usecase.ledger)
    return ReportBundle(config.scenario_profile, config.config_hash, tables)


def _tenth(x: Decimal) -> Decimal:
    try:
        return x.quantize(_TENTH, rounding=ROUND_HALF_UP)
    except InvalidOperation:
        raise _too_large(x) from None


def _range_cell(lo, hi) -> str:
    return f"{lo} -- {hi}"


def _scenario_table(footprints: dict[str, DailyFootprint], profile: FootprintProfile) -> _Table:
    """Presented scenario rows.

    CO2 and water cells are derived from the one-decimal energy cell
    in decimal arithmetic rather than from the full-precision chain;
    this matches how the published tables were rounded (e.g. a 16.2
    energy bound gives 16.2 * 0.30 = 4.86 -> 4.9 L, where the exact
    chain would show 4.8).
    """
    ef = _dec(profile.emission_factor_g_per_kwh) / Decimal(1000)
    wue_lo = _dec(profile.wue.lo)
    wue_hi = _dec(profile.wue.hi)
    rows, csv_rows, md_rows = [], [], []
    for name, fp in footprints.items():
        operators = [int(fp.operators.lo), int(fp.operators.hi)]
        energy = [present(fp.energy_kwh.lo, 1), present(fp.energy_kwh.hi, 1)]
        co2 = [_tenth(energy[0] * ef), _tenth(energy[1] * ef)]
        water = [_tenth(energy[0] * wue_lo), _tenth(energy[1] * wue_hi)]
        per_doc = f"{fp.energy_per_doc_kwh:.6f}"
        rows.append({
            "scenario": name,
            "operators": operators,
            "energy_kwh_per_day": energy,
            "co2_kg_per_day": co2,
            "water_l_per_day": water,
            "energy_per_doc_kwh": fp.energy_per_doc_kwh,
        })
        cells = (operators, energy, co2, water)
        csv_rows.append([name, *(str(v) for pair in cells for v in pair), per_doc])
        md_rows.append([name, *(_range_cell(*pair) for pair in cells), per_doc])
    csv_header = ["scenario", "operators_lo", "operators_hi",
                  "energy_kwh_lo", "energy_kwh_hi", "co2_kg_lo", "co2_kg_hi",
                  "water_l_lo", "water_l_hi", "energy_per_doc_kwh"]
    md_header = ["Scenario", "Operators", "Energy (kWh/day)", "CO2 (kg/day)",
                 "Water (L/day)", "Energy per doc (kWh)"]
    return _Table({"table": "scenario_table", "rows": rows},
                  (csv_header, csv_rows), (md_header, md_rows))


def _pct_pair(iv: Interval) -> list[int]:
    return [present_pct(iv.lo), present_pct(iv.hi)]


def _increase_cell(lo: int, hi: int) -> str:
    return f"+{lo} -- +{hi}" if lo >= 0 else _range_cell(lo, hi)


_METRICS = (("energy", "energy_kwh"), ("co2", "co2_kg"), ("water", "water_l"))


def _reduction_table(footprints: dict[str, DailyFootprint], baseline: str) -> _Table:
    """Reductions of every other scenario against the baseline, and the
    increase of each of those scenarios over the one before it.

    Every ratio is computed before any is presented, so a zero baseline
    is reported ahead of a presentation failure.
    """
    reduction_keys = [n for n in footprints if n != baseline]
    comparisons = [compare_scenarios(footprints[baseline], footprints[n]) for n in reduction_keys]
    steps = [(f"{b}_vs_{a}", {metric: increase_pct(getattr(footprints[a], field),
                                                   getattr(footprints[b], field))
                              for metric, field in _METRICS})
             for a, b in zip(reduction_keys, reduction_keys[1:])]
    increase_keys = [key for key, _ in steps]
    rows, csv_rows, md_rows = [], [], []
    for metric, _ in _METRICS:
        reductions = {n: _pct_pair(getattr(c, f"{metric}_reduction_pct"))
                      for n, c in zip(reduction_keys, comparisons)}
        increases = {key: _pct_pair(pcts[metric]) for key, pcts in steps}
        rows.append({"metric": metric, "reductions": reductions, "increases": increases})
        pairs = [reductions[k] for k in reduction_keys] + [increases[k] for k in increase_keys]
        csv_rows.append([metric, *(str(v) for pair in pairs for v in pair)])
        md_rows.append([metric, *(_range_cell(*reductions[k]) for k in reduction_keys),
                        *(_increase_cell(*increases[k]) for k in increase_keys)])
    csv_header = ["metric"]
    for key in reduction_keys:
        csv_header += [f"{key}_vs_{baseline}_reduction_lo", f"{key}_vs_{baseline}_reduction_hi"]
    for key in increase_keys:
        csv_header += [f"{key}_increase_lo", f"{key}_increase_hi"]
    md_header = ["Metric"]
    md_header += [f"{key} vs {baseline} (reduction %)" for key in reduction_keys]
    md_header += [f"{key.replace('_vs_', ' vs ')} (increase %)" for key in increase_keys]
    return _Table({"table": "reduction_table", "baseline": baseline, "rows": rows},
                  (csv_header, csv_rows), (md_header, md_rows))


def _token_table(ledger: TokenLedger) -> _Table:
    shares = ledger_shares(ledger)
    rows = [{"component": name, "tokens": getattr(ledger, name), "share_pct": share}
            for name, share in shares.items()]
    total = ledger.total()
    total_share = float(sum(_dec(share) for share in shares.values()))
    obj = {"table": "token_table", "source": ledger.source, "rows": rows,
           "total_tokens": total, "total_share_pct": total_share}
    csv_rows = [[r["component"], str(r["tokens"]), str(r["share_pct"])] for r in rows]
    md_rows = [[r["component"], f"{r['tokens']:,}", str(r["share_pct"])] for r in rows]
    return _Table(obj, (["component", "tokens", "share_pct"],
                        csv_rows + [["total", str(total), str(total_share)]]),
                  (["Component", "Tokens", "Share (%)"],
                   md_rows + [["TOTAL", f"{total:,}", str(total_share)]]))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, default=float) + "\n"


def _markdown_text(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emit_table(bundle: ReportBundle, which: str, fmt: str = "markdown") -> str:
    """Render one of the bundle's tables as markdown, CSV, or JSON text.

    All three formats encode the same presented numbers; emission is a
    pure function of the bundle.
    """
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r}; choices: {', '.join(TABLES)}")
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choices: {', '.join(FORMATS)}")
    table = bundle.tables.get(which)
    if table is None:
        raise ValueError("no usecase data in bundle")
    if fmt == "json":
        return _json_text(table.obj)
    if fmt == "csv":
        return _csv_text(*table.csv)
    return _markdown_text(*table.markdown)


def plot_data_obj(bundle: ReportBundle) -> list[dict]:
    """Series records (scenario x metric) carrying the presented bounds."""
    records = []
    for row in bundle.tables["scenario_table"].obj["rows"]:
        for metric in ("energy_kwh_per_day", "co2_kg_per_day", "water_l_per_day"):
            lo, hi = row[metric]
            records.append({
                "scenario": row["scenario"],
                "metric": metric,
                "lo": float(lo),
                "hi": float(hi),
                "mid": float((lo + hi) / 2),
            })
    return records


def emit_plot_data(bundle: ReportBundle) -> str:
    return _json_text(plot_data_obj(bundle))


def emit_bundle_json(bundle: ReportBundle) -> str:
    """Machine-readable bundle: metadata plus every table it carries."""
    tables = bundle.tables
    obj = {
        "metadata": {
            "profile": bundle.profile_name,
            "config_hash": bundle.config_hash,
        },
        "scenario_table": tables["scenario_table"].obj,
        "reduction_table": tables["reduction_table"].obj,
        "plot_data": plot_data_obj(bundle),
    }
    if "token_table" in tables:
        obj["token_table"] = tables["token_table"].obj
    return _json_text(obj)
