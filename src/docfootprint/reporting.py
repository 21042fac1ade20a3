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
    _reduction_pct,
    evaluate_scenario,
    increase_pct,
)

TABLES = ("scenario_table", "reduction_table", "token_table")
FORMATS = ("markdown", "csv", "json")

_ONE = Decimal("1")


class ConfigError(ValueError):
    """Configuration file problem; message starts with a JSON-pointer path."""


def _dec(x: float) -> Decimal:
    return Decimal(repr(x))


def present(x: float | Decimal, ndigits: int = 1) -> Decimal:
    """Half-up presentation rounding of a float or Decimal, returned as a Decimal."""
    quantum = _ONE.scaleb(-ndigits)
    value = x if isinstance(x, Decimal) else _dec(x)
    try:
        return value.quantize(quantum, rounding=ROUND_HALF_UP)
    except InvalidOperation:
        # quantize fails only when the rounded value needs more digits
        # than the decimal context's 28. A float formats as its repr.
        raise ValueError(f"value too large to present: {x}") from None


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
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bytes that are not UTF-8 and integers too long
        # to convert, as well as JSON syntax errors.
        raise ConfigError(f"{pointer}: invalid JSON: {exc}") from None


def load_config(path: str | Path) -> Config:
    """Load and validate a config file plus the scenario files it references.

    Unknown keys are rejected everywhere; error messages carry the
    JSON-pointer of the offending element.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"/: file not found: {path}")
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
        scenario_path = path.parent / ref
        if not scenario_path.is_file():
            raise ConfigError(f"/scenarios/{i}: file not found: {scenario_path.resolve()}")
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


def build_bundle(config: Config, baseline: str,
                 usecase: ExtractionResult | None = None) -> dict:
    """Evaluate every scenario and render each presented table once.

    The bundle maps "metadata" to the profile name and config hash,
    each table name to its final text in every format ({"markdown",
    "csv", "json"} to str), and "plot_data" to the plot series' JSON
    text. The token table is present only when a usecase result is
    given. The emitters only look texts up.
    """
    names = [s.name for s in config.scenarios]
    if baseline not in names:
        raise ValueError(f"unknown scenario {baseline!r}; choices: {', '.join(names)}")
    profile = config.profiles[config.scenario_profile]
    footprints = {}
    for i, s in enumerate(config.scenarios):
        try:
            footprints[s.name] = evaluate_scenario(s, profile)
        except ValueError as exc:
            raise ConfigError(f"/scenarios/{i}: {exc}") from None
    # Reductions first, so a zero baseline is reported before any
    # presentation step runs.
    bundle = {"metadata": {"profile": config.scenario_profile,
                           "config_hash": config.config_hash},
              "reduction_table": _reduction_table(footprints, baseline)}
    bundle["scenario_table"], bundle["plot_data"] = _scenario_table(footprints, profile)
    if usecase is not None:
        bundle["token_table"] = _token_table(usecase.ledger)
    return bundle


def _range_cell(lo, hi) -> str:
    return f"{lo} -- {hi}"


def _scenario_table(footprints: dict[str, DailyFootprint], profile: FootprintProfile) -> tuple:
    """Presented scenario rows, and the plot series' JSON text.

    CO2 and water cells are derived from the one-decimal energy cell
    in decimal arithmetic rather than from the full-precision chain;
    this matches how the published tables were rounded (e.g. a 16.2
    energy bound gives 16.2 * 0.30 = 4.86 -> 4.9 L, where the exact
    chain would show 4.8).
    """
    ef = _dec(profile.emission_factor_g_per_kwh) / Decimal(1000)
    wue_lo = _dec(profile.wue.lo)
    wue_hi = _dec(profile.wue.hi)
    rows, csv_rows, md_rows, records = [], [], [], []
    for name, fp in footprints.items():
        operators = [int(fp.operators.lo), int(fp.operators.hi)]
        energy = [present(fp.energy_kwh.lo, 1), present(fp.energy_kwh.hi, 1)]
        co2 = [present(energy[0] * ef, 1), present(energy[1] * ef, 1)]
        water = [present(energy[0] * wue_lo, 1), present(energy[1] * wue_hi, 1)]
        per_doc = f"{fp.energy_per_doc_kwh:.6f}"
        row = {"scenario": name, "operators": operators}
        for metric, (lo, hi) in zip(("energy_kwh_per_day", "co2_kg_per_day", "water_l_per_day"),
                                    (energy, co2, water)):
            row[metric] = [float(lo), float(hi)]
            records.append({"scenario": name, "metric": metric, "lo": float(lo),
                            "hi": float(hi), "mid": float((lo + hi) / 2)})
        row["energy_per_doc_kwh"] = fp.energy_per_doc_kwh
        rows.append(row)
        cells = (operators, energy, co2, water)
        csv_rows.append([name, *(str(v) for pair in cells for v in pair), per_doc])
        md_rows.append([name, *(_range_cell(*pair) for pair in cells), per_doc])
    csv_header = ["scenario", "operators_lo", "operators_hi",
                  "energy_kwh_lo", "energy_kwh_hi", "co2_kg_lo", "co2_kg_hi",
                  "water_l_lo", "water_l_hi", "energy_per_doc_kwh"]
    md_header = ["Scenario", "Operators", "Energy (kWh/day)", "CO2 (kg/day)",
                 "Water (L/day)", "Energy per doc (kWh)"]
    table = _render({"table": "scenario_table", "rows": rows}, csv_header, csv_rows,
                    md_header, md_rows)
    return table, _json_text(records)


def _pct_pair(iv: Interval) -> list[int]:
    return [present_pct(iv.lo), present_pct(iv.hi)]


def _increase_cell(lo: int, hi: int) -> str:
    return f"+{lo} -- +{hi}" if lo >= 0 else _range_cell(lo, hi)


_METRICS = (("energy", "energy_kwh"), ("co2", "co2_kg"), ("water", "water_l"))


def _ratios(ratio, pointer: str, label: str, base, candidate) -> dict[str, Interval]:
    """ratio of each metric's intervals; a failure names the candidate and metric."""
    out = {}
    for metric, field in _METRICS:
        try:
            out[metric] = ratio(getattr(base, field), getattr(candidate, field))
        except ValueError as exc:
            raise ConfigError(f"{pointer}: {metric} {label}: {exc}") from None
    return out


def _reduction_table(footprints: dict[str, DailyFootprint], baseline: str) -> dict:
    """Reductions of every other scenario against the baseline, and the
    increase of each of those scenarios over the one before it.

    Every ratio is computed before any is presented, so a zero baseline
    is reported ahead of a presentation failure.
    """
    pointers = {name: f"/scenarios/{i}" for i, name in enumerate(footprints)}
    reduction_keys = [n for n in footprints if n != baseline]
    comparisons = {n: _ratios(_reduction_pct, pointers[n], f"reduction vs {baseline}",
                              footprints[baseline], footprints[n])
                   for n in reduction_keys}
    steps = {f"{b}_vs_{a}": _ratios(increase_pct, pointers[b], f"increase vs {a}",
                                    footprints[a], footprints[b])
             for a, b in zip(reduction_keys, reduction_keys[1:])}
    rows, csv_rows, md_rows = [], [], []
    for metric, _ in _METRICS:
        reductions = {n: _pct_pair(c[metric]) for n, c in comparisons.items()}
        increases = {key: _pct_pair(pcts[metric]) for key, pcts in steps.items()}
        rows.append({"metric": metric, "reductions": reductions, "increases": increases})
        pairs = [*reductions.values(), *increases.values()]
        csv_rows.append([metric, *(str(v) for pair in pairs for v in pair)])
        md_rows.append([metric, *(_range_cell(*pair) for pair in reductions.values()),
                        *(_increase_cell(*pair) for pair in increases.values())])
    csv_header = ["metric"]
    for key in reduction_keys:
        csv_header += [f"{key}_vs_{baseline}_reduction_lo", f"{key}_vs_{baseline}_reduction_hi"]
    for key in steps:
        csv_header += [f"{key}_increase_lo", f"{key}_increase_hi"]
    md_header = ["Metric"]
    md_header += [f"{key} vs {baseline} (reduction %)" for key in reduction_keys]
    md_header += [f"{key.replace('_vs_', ' vs ')} (increase %)" for key in steps]
    return _render({"table": "reduction_table", "baseline": baseline, "rows": rows},
                   csv_header, csv_rows, md_header, md_rows)


def _token_table(ledger: TokenLedger) -> dict:
    shares = ledger_shares(ledger)
    rows = [{"component": name, "tokens": getattr(ledger, name), "share_pct": share}
            for name, share in shares.items()]
    total = ledger.total()
    total_share = float(sum(_dec(share) for share in shares.values()))
    obj = {"table": "token_table", "source": ledger.source, "rows": rows,
           "total_tokens": total, "total_share_pct": total_share}
    csv_rows = [[r["component"], str(r["tokens"]), str(r["share_pct"])] for r in rows]
    md_rows = [[r["component"], f"{r['tokens']:,}", str(r["share_pct"])] for r in rows]
    return _render(obj, ["component", "tokens", "share_pct"],
                   csv_rows + [["total", str(total), str(total_share)]],
                   ["Component", "Tokens", "Share (%)"],
                   md_rows + [["TOTAL", f"{total:,}", str(total_share)]])


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _render(obj, csv_header, csv_rows, md_header, md_rows) -> dict[str, str]:
    """One table's final text in every format."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows((csv_header, *csv_rows))
    markdown = "".join("| " + " | ".join(row) + " |\n"
                       for row in (md_header, ["---"] * len(md_header), *md_rows))
    return {"markdown": markdown, "csv": buf.getvalue(), "json": _json_text(obj)}


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

    The members' texts are spliced in at one more level of indent. The
    result is the bytes json.dumps(indent=2) gives for the whole
    object, because a JSON text holds newlines only between tokens.
    """
    members = [("metadata", _json_text(bundle["metadata"])),
               ("scenario_table", bundle["scenario_table"]["json"]),
               ("reduction_table", bundle["reduction_table"]["json"]),
               ("plot_data", bundle["plot_data"])]
    if "token_table" in bundle:
        members.append(("token_table", bundle["token_table"]["json"]))
    return "{\n" + ",\n".join(f'  "{key}": ' + text[:-1].replace("\n", "\n  ")
                               for key, text in members) + "\n}\n"
