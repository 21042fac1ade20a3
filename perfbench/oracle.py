"""Independent oracles for the benchmark workloads.

Expected values come from the generators' ground truth, from closed-form
float arithmetic written here without calling docfootprint, and from the
rows the README publishes. Every check returns a list of mismatch
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from gen import Invoice

SECONDS_PER_HOUR = 3600.0
REL = 1e-9
TENTH = Decimal("0.1")
ONE = Decimal("1")

# The scenario table the README publishes for the bundled configuration.
PUBLISHED_SCENARIO_TABLE_MD = (
    "| Scenario | Operators | Energy (kWh/day) | CO2 (kg/day) | Water (L/day) | Energy per doc (kWh) |\n"
    "| --- | --- | --- | --- | --- | --- |\n"
    "| manual | 70 -- 400 | 36.3 -- 194.7 | 10.5 -- 56.1 | 6.5 -- 58.4 | 0.000000 |\n"
    "| hitl | 7 -- 28 | 6.1 -- 16.2 | 1.8 -- 4.7 | 1.1 -- 4.9 | 0.000545 |\n"
    "| agentic | 7 -- 28 | 10.1 -- 20.2 | 2.9 -- 5.8 | 1.8 -- 6.1 | 0.001345 |\n"
)

# The README's `thinking-delta 18000 10000` output.
PUBLISHED_THINKING_DELTA = (
    "delta_energy_wh: 2.4\n"
    "pct_increase: 55.6\n"
    "delta_co2_g: 0.69\n"
    "delta_water_ml: 0.43 -- 0.72\n"
)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL)


def tokens(text: str) -> int:
    """The documented token estimate: ceil(characters / 4)."""
    return math.ceil(len(text) / 4)


# ---------------------------------------------------------------- scenarios

def footprint(obj: dict, profile: dict) -> dict:
    """Closed-form daily footprint of a scenario JSON object under a profile."""
    w = obj["workforce"]
    volume = obj["daily_volume"]
    override = obj.get("operators_override")
    if override is not None:
        ops = (int(override[0]), int(override[1]))
    else:
        productive_s = w.get("productive_hours", 7.0) * SECONDS_PER_HOUR
        t_lo, t_hi = w["per_doc_time_s"]
        buffer = w.get("buffer", 1.15)
        thr_fast = math.floor(productive_s / t_lo)
        thr_slow = math.floor(productive_s / t_hi)
        ops = (math.ceil(volume / thr_fast * buffer), math.ceil(volume / thr_slow * buffer))
    laptop = w.get("laptop_kwh_per_day", 0.48)
    per_doc = math.fsum(s["energy_wh_per_doc"] for s in obj.get("stages", ())) / 1000.0
    fixed = per_doc * volume + obj.get("overhead_kwh_per_day", 0.0)
    energy = (ops[0] * laptop + fixed, ops[1] * laptop + fixed)
    ef = profile["emission_factor_g_per_kwh"] / 1000.0
    wue = profile["wue_l_per_kwh"]
    return {
        "operators": ops,
        "energy": energy,
        "co2": (energy[0] * ef, energy[1] * ef),
        "water": (energy[0] * wue[0], energy[1] * wue[1]),
        "per_doc": per_doc,
    }


def _sorted_pair(a: float, b: float) -> tuple[float, float]:
    return (min(a, b), max(a, b))


def reduction(base: tuple[float, float], cand: tuple[float, float]) -> tuple[float, float]:
    """Endpoint-matched percentage reduction of cand against base."""
    return _sorted_pair((1 - cand[0] / base[0]) * 100, (1 - cand[1] / base[1]) * 100)


def increase(base: tuple[float, float], cand: tuple[float, float]) -> tuple[float, float]:
    """Endpoint-matched percentage increase of cand over base."""
    return _sorted_pair((cand[0] / base[0] - 1) * 100, (cand[1] / base[1] - 1) * 100)


def _pair_mismatch(label: str, got, want) -> list[str]:
    if close(got.lo, want[0]) and close(got.hi, want[1]):
        return []
    return [f"{label}: got [{got.lo!r}, {got.hi!r}], expected [{want[0]!r}, {want[1]!r}]"]


def check_footprint(fp, ref: dict) -> list[str]:
    """Compare a DailyFootprint with the closed-form reference."""
    errors = []
    if (fp.operators.lo, fp.operators.hi) != ref["operators"]:
        errors.append(f"operators: got [{fp.operators.lo}, {fp.operators.hi}],"
                      f" expected {list(ref['operators'])}")
    errors += _pair_mismatch("energy_kwh", fp.energy_kwh, ref["energy"])
    errors += _pair_mismatch("co2_kg", fp.co2_kg, ref["co2"])
    errors += _pair_mismatch("water_l", fp.water_l, ref["water"])
    if not close(fp.energy_per_doc_kwh, ref["per_doc"]):
        errors.append(f"energy_per_doc_kwh: got {fp.energy_per_doc_kwh!r},"
                      f" expected {ref['per_doc']!r}")
    return errors


def check_point(result, ref: dict, base_ref: dict, prev_ref: dict) -> list[str]:
    """One scenario-grid operation: footprint, comparison, incremental cost."""
    fp, cmp, inc = result
    errors = check_footprint(fp, ref)
    for key, attr in (("energy", "energy_reduction_pct"), ("co2", "co2_reduction_pct"),
                      ("water", "water_reduction_pct")):
        errors += _pair_mismatch(attr, getattr(cmp, attr), reduction(base_ref[key], ref[key]))
    errors += _pair_mismatch("incremental_cost", inc, increase(prev_ref["energy"], ref["energy"]))
    return errors


# ------------------------------------------------------------- presentation

def present(x: float) -> Decimal:
    """The published rule: half-up to one decimal on the shortest repr of the float."""
    return Decimal(repr(x)).quantize(TENTH, rounding=ROUND_HALF_UP)


def present_pct(x: float) -> int:
    """Published percent rule: half-up to one decimal, then to a whole number."""
    return int(present(x).quantize(ONE, rounding=ROUND_HALF_UP))


def _near(x: float) -> tuple[float, float, float]:
    eps = REL * max(1.0, abs(x))
    return (x - eps, x, x + eps)


def presented_choices(x: float) -> set[Decimal]:
    """Cells the rule can give for a reference value that is exact only to
    about 1e-9: the reference may sit on the other side of a rounding tie."""
    return {present(v) for v in _near(x)}


def pct_choices(x: float) -> set[int]:
    return {present_pct(v) for v in _near(x)}


def scenario_cells(ref: dict, profile: dict, energy_cells: tuple) -> dict:
    """Presented scenario-table cells. CO2 and water derive from the
    one-decimal energy cells (already checked against the reference) in
    decimal arithmetic."""
    ef = Decimal(repr(profile["emission_factor_g_per_kwh"])) / 1000
    wue = [Decimal(repr(v)) for v in profile["wue_l_per_kwh"]]
    e_lo, e_hi = energy_cells
    return {
        "operators": ref["operators"],
        "energy": (e_lo, e_hi),
        "co2": ((e_lo * ef).quantize(TENTH, rounding=ROUND_HALF_UP),
                (e_hi * ef).quantize(TENTH, rounding=ROUND_HALF_UP)),
        "water": ((e_lo * wue[0]).quantize(TENTH, rounding=ROUND_HALF_UP),
                  (e_hi * wue[1]).quantize(TENTH, rounding=ROUND_HALF_UP)),
        "per_doc": ref["per_doc"],
    }


# ----------------------------------------------------------------- invoices

def extraction_output(inv: Invoice) -> str:
    """The documented extraction output for an invoice's ground-truth rows."""
    if not inv.rows:
        return "[]\n"
    rows = [f'  {{"item_id": "{r.item_id}", "quantity": {r.quantity_literal},'
            f' "unit_price": {r.unit_price:.2f}, "total_price": {r.total_price:.2f},'
            f' "currency": "{r.currency}"}}' for r in inv.rows]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def check_shares(shares: dict, counts: dict) -> list[str]:
    """Shares are percentages at one decimal within half a tenth of exact."""
    total = sum(counts.values())
    errors = []
    for name, count in counts.items():
        got = shares.get(name)
        exact = Fraction(count * 100, total)
        if (got is None or Decimal(repr(got)) != Decimal(repr(got)).quantize(TENTH)
                or abs(Fraction(got) - exact) > Fraction(1, 20) + Fraction(1, 10**9)):
            errors.append(f"share {name}: got {got!r}, exact {float(exact)!r}")
    return errors


def check_footprint_chain(footprint_obj, total_tokens: int, profile: dict) -> list[str]:
    kwh = total_tokens * profile["rate_wh_per_ktok"] / 1000.0 / 1000.0
    wue = profile["wue_l_per_kwh"]
    errors = []
    if not close(footprint_obj.energy.kwh, kwh):
        errors.append(f"energy kwh: got {footprint_obj.energy.kwh!r}, expected {kwh!r}")
    if not close(footprint_obj.co2.grams, kwh * profile["emission_factor_g_per_kwh"]):
        errors.append(f"co2 g: got {footprint_obj.co2.grams!r}")
    errors += _pair_mismatch("water l", footprint_obj.water.liters, (kwh * wue[0], kwh * wue[1]))
    return errors


def check_invoice(inv: Invoice, outcome, prompt_tokens: int, profile: dict) -> list[str]:
    """One invoice-batch operation against the generator's ground truth.

    outcome is the raised InvoiceParseError for a malformed document, else
    (ExtractionResult, ledger_shares(...), normalize_energy(...)).
    """
    if inv.error_line is not None:
        if type(outcome).__name__ != "InvoiceParseError":
            return [f"expected a parse error at line {inv.error_line} ({inv.error_kind}),"
                    f" got {type(outcome).__name__}"]
        if outcome.line_number != inv.error_line:
            return [f"parse error at line {outcome.line_number}, expected {inv.error_line}"]
        return []
    if isinstance(outcome, BaseException):
        return [f"unexpected {type(outcome).__name__}: {outcome}"]
    result, shares, normalized = outcome
    errors = []
    if len(result.items) != len(inv.rows):
        return [f"{len(result.items)} items, expected {len(inv.rows)}"]
    for item, row in zip(result.items, inv.rows):
        if (item.item_id, item.quantity, item.unit_price, item.total_price, item.currency) != (
                row.item_id, row.quantity, row.unit_price, row.total_price, row.currency):
            errors.append(f"{row.item_id}: parsed {item!r}")
    for record, row in zip(result.verification, inv.rows):
        target = row.planted_delta
        if record.item_id != row.item_id or record.ok != row.total_ok or abs(
                record.delta - target) > Decimal("0.01"):
            errors.append(f"{row.item_id}: verification {record!r}, planted delta {target}")
    if len(result.verification) != len(inv.rows):
        errors.append(f"{len(result.verification)} verification records")
    ledger = result.ledger
    counts = {"document": tokens(inv.text), "prompt": prompt_tokens,
              "output": tokens(extraction_output(inv)), "thinking": 0}
    got = {name: getattr(ledger, name) for name in counts}
    if got != counts or ledger.source != "estimated":
        errors.append(f"ledger {got} ({ledger.source}), expected {counts} (estimated)")
    errors += check_footprint_chain(result.footprint, sum(counts.values()), profile)
    errors += check_shares(shares, counts)
    if not close(normalized, result.footprint.energy.kwh / (1.15 * 1.5)):
        errors.append(f"normalized energy {normalized!r}")
    return errors


# ------------------------------------------------------------------ reports

def _parse_markdown(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    cells = [[c.strip() for c in line.strip().strip("|").split("|")] for line in lines]
    return cells[0], cells[2:]


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _range(lo, hi) -> str:
    return f"{lo} -- {hi}"


class ReportCase:
    """Expected report content for one config: scenario objects, profile,
    baseline and the usecase invoice with its ledger counts."""

    def __init__(self, scenarios, profile: dict, profile_name: str, baseline: str,
                 token_counts: dict):
        self.names = [s["name"] for s in scenarios]
        self.profile = profile
        self.profile_name = profile_name
        self.baseline = baseline
        self.refs = {s["name"]: footprint(s, profile) for s in scenarios}
        self.candidates = [n for n in self.names if n != baseline]
        self.token_counts = token_counts

    def check(self, outputs: dict) -> list[str]:
        """outputs maps (table, format) and "plot_data" / "bundle" to text."""
        errors: list[str] = []
        bundle = json.loads(outputs["bundle"])
        if bundle["metadata"]["profile"] != self.profile_name:
            errors.append(f"bundle profile {bundle['metadata']['profile']!r}")
        if len(bundle["metadata"]["config_hash"]) != 64:
            errors.append("bundle config_hash is not a sha256 hex digest")
        cells = self.check_scenario_json(bundle["scenario_table"], errors)
        if cells is None:
            return errors
        self.check_reductions_json(bundle["reduction_table"], errors)
        self._check_plot(bundle["plot_data"], cells, errors)
        self.check_tokens_json(bundle["token_table"], errors)
        for table in ("scenario_table", "reduction_table", "token_table"):
            if json.loads(outputs[(table, "json")]) != bundle[table]:
                errors.append(f"{table}.json differs from the bundle's copy")
        if json.loads(outputs["plot_data"]) != bundle["plot_data"]:
            errors.append("plot_data differs from the bundle's copy")
        self._check_scenario_text(outputs, cells, errors)
        self._check_reduction_text(outputs, bundle["reduction_table"], errors)
        self._check_token_text(outputs, bundle["token_table"], errors)
        return errors

    def check_scenario_json(self, table: dict, errors: list[str]):
        rows = table["rows"]
        if [r["scenario"] for r in rows] != self.names:
            errors.append("scenario_table: scenario order differs")
            return None
        cells = {}
        for row in rows:
            ref = self.refs[row["scenario"]]
            energy = tuple(Decimal(repr(v)) for v in row["energy_kwh_per_day"])
            for got, want in zip(energy, ref["energy"]):
                if got not in presented_choices(want):
                    errors.append(f"{row['scenario']}: energy cell {got}, reference {want!r}")
            want = scenario_cells(ref, self.profile, energy)
            cells[row["scenario"]] = want
            if tuple(row["operators"]) != want["operators"]:
                errors.append(f"{row['scenario']}: operators {row['operators']}")
            for key, col in (("co2", "co2_kg_per_day"), ("water", "water_l_per_day")):
                if tuple(row[col]) != tuple(float(v) for v in want[key]):
                    errors.append(f"{row['scenario']}: {col} {row[col]}, expected"
                                  f" {[str(v) for v in want[key]]}")
            if not close(row["energy_per_doc_kwh"], want["per_doc"]):
                errors.append(f"{row['scenario']}: energy_per_doc {row['energy_per_doc_kwh']!r}")
        return cells

    def reduction_refs(self):
        for metric in ("energy", "co2", "water"):
            base = self.refs[self.baseline][metric]
            reductions = {n: reduction(base, self.refs[n][metric]) for n in self.candidates}
            increases = {f"{b}_vs_{a}": increase(self.refs[a][metric], self.refs[b][metric])
                         for a, b in zip(self.candidates, self.candidates[1:])}
            yield metric, reductions, increases

    def check_reductions_json(self, table: dict, errors: list[str]) -> None:
        if table["baseline"] != self.baseline:
            errors.append(f"reduction_table baseline {table['baseline']!r}")
        for row, (metric, reductions, increases) in zip(table["rows"], self.reduction_refs()):
            if row["metric"] != metric:
                errors.append(f"reduction_table metric {row['metric']!r}, expected {metric!r}")
            for kind, refs in (("reductions", reductions), ("increases", increases)):
                if list(row[kind]) != list(refs):
                    errors.append(f"reduction_table {metric} {kind}: keys differ")
                    continue
                for key, (lo, hi) in refs.items():
                    got = row[kind][key]
                    if got[0] not in pct_choices(lo) or got[1] not in pct_choices(hi):
                        errors.append(f"{metric} {kind} {key}: {got}, reference [{lo!r}, {hi!r}]")

    def _check_plot(self, records: list, cells: dict, errors: list[str]) -> None:
        expected = []
        for name in self.names:
            c = cells[name]
            for metric, key in (("energy_kwh_per_day", "energy"), ("co2_kg_per_day", "co2"),
                                ("water_l_per_day", "water")):
                lo, hi = c[key]
                expected.append({"scenario": name, "metric": metric, "lo": float(lo),
                                 "hi": float(hi), "mid": float((lo + hi) / 2)})
        if records != expected:
            errors.append("plot_data records differ from the presented scenario cells")

    def check_tokens_json(self, table: dict, errors: list[str]) -> None:
        counts = self.token_counts
        rows = table["rows"]
        if [(r["component"], r["tokens"]) for r in rows] != list(counts.items()):
            errors.append(f"token_table rows {rows}, expected counts {counts}")
            return
        errors += check_shares({r["component"]: r["share_pct"] for r in rows}, counts)
        if table["total_tokens"] != sum(counts.values()) or table["source"] != "estimated":
            errors.append(f"token_table total {table['total_tokens']} ({table['source']})")
        share_sum = float(sum(Decimal(repr(r["share_pct"])) for r in rows))
        if table["total_share_pct"] != share_sum:
            errors.append(f"token_table total share {table['total_share_pct']!r}")

    def _check_scenario_text(self, outputs: dict, cells: dict, errors: list[str]) -> None:
        md, csv_rows = [], []
        for name in self.names:
            c = cells[name]
            per_doc = f"{c['per_doc']:.6f}"
            md.append([name, _range(*c["operators"]), _range(*c["energy"]), _range(*c["co2"]),
                       _range(*c["water"]), per_doc])
            csv_rows.append([name, *map(str, c["operators"]), *map(str, c["energy"]),
                             *map(str, c["co2"]), *map(str, c["water"]), per_doc])
        for fmt, parse, want in (("markdown", _parse_markdown, md), ("csv", _parse_csv, csv_rows)):
            _header, got = parse(outputs[("scenario_table", fmt)])
            if got != want:
                errors.append(f"scenario_table.{fmt} cells differ from the presented values")

    def _check_reduction_text(self, outputs: dict, table: dict, errors: list[str]) -> None:
        md, csv_rows = [], []
        for row in table["rows"]:
            md_cells, csv_cells = [row["metric"]], [row["metric"]]
            for lo, hi in row["reductions"].values():
                md_cells.append(_range(lo, hi))
                csv_cells += [str(lo), str(hi)]
            for lo, hi in row["increases"].values():
                md_cells.append(f"+{lo} -- +{hi}" if lo >= 0 else _range(lo, hi))
                csv_cells += [str(lo), str(hi)]
            md.append(md_cells)
            csv_rows.append(csv_cells)
        for fmt, parse, want in (("markdown", _parse_markdown, md), ("csv", _parse_csv, csv_rows)):
            _header, got = parse(outputs[("reduction_table", fmt)])
            if got != want:
                errors.append(f"reduction_table.{fmt} cells differ from its JSON form")

    def _check_token_text(self, outputs: dict, table: dict, errors: list[str]) -> None:
        rows = table["rows"]
        md = [[r["component"], f"{r['tokens']:,}", str(r["share_pct"])] for r in rows]
        md.append(["TOTAL", f"{table['total_tokens']:,}", str(table["total_share_pct"])])
        csv_rows = [[r["component"], str(r["tokens"]), str(r["share_pct"])] for r in rows]
        csv_rows.append(["total", str(table["total_tokens"]), str(table["total_share_pct"])])
        for fmt, parse, want in (("markdown", _parse_markdown, md), ("csv", _parse_csv, csv_rows)):
            _header, got = parse(outputs[("token_table", fmt)])
            if got != want:
                errors.append(f"token_table.{fmt} cells differ from the ledger")
