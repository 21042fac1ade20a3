"""Seeded input generators for the benchmark workloads.

Each generator takes the seed (or a random.Random built from it) and
returns the generated inputs together with the ground truth the oracles
check them against. Nothing here imports docfootprint, so property or
fuzz suites can reuse the generators without the benchmark harness.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

CENT = Decimal("0.01")
CURRENCIES = ("EUR", "USD", "GBP", "CHF", "JPY", "SEK")

# Invoice-batch corpus shape: most documents are small, a fixed share is
# large so that document size, not chance, sets the latency tail, and a
# small share carries one grammar-level malformed row.
INVOICE_DOCS = 1000
INVOICE_LARGE = 30
INVOICE_MALFORMED = 20
SMALL_ITEMS = (5, 40)
LARGE_ITEMS = (450, 550)
WRONG_TOTAL_SHARE = 0.03

# Report-bundle config sizes: fixed strata from a few scenarios to a few
# hundred (the bundled three-scenario config joins them), so small configs
# (reads: validation and hashing) and large ones (writes: Decimal
# presentation and emitting) both weigh in every pass.
REPORT_SCENARIO_COUNTS = (4, 8, 16, 32, 64, 128, 256, 384)

_ADJECTIVES = ("Industrial", "Stainless", "Modular", "Thermal", "Compact", "Rugged",
               "Precision", "Spare", "Extended", "Digital", "Hydraulic", "Sealed")
_NOUNS = ("control module", "steel housing", "sensor array", "mounting bracket",
          "power supply", "signal converter", "cable harness", "fuse pack",
          "printer", "valve block", "pump assembly", "relay board")
_SUFFIXES = ("", "", "", ", type K", ", 5m", " 24V", ", 3 years", " (refurbished)")
_PROSE = (
    "Prices are quoted per unit and exclude VAT.",
    "Delivery in partial shipments is permitted.",
    "Subtotal carried forward: {amount} {currency}",
    "Page {page} of the line items continues below.",
    "Items 1 to 4 ship from the Dortmund warehouse.",
    "ITEMS marked with an asterisk are made to order.",
    "Note: serial numbers are listed on the packing slip.",
)
_CONTINUATIONS = (
    "        - includes mounting hardware and documentation",
    "          continued: calibration certificate on request",
    "        (replaces item withdrawn from the previous offer)",
)
_HEADER = (
    "{company}\n"
    "Industriestrasse {street}, {zip} Dortmund, Germany\n"
    "\n"
    "                         PROFORMA INVOICE\n"
    "\n"
    "Proforma No:      PI-{year}-{number:04d}\n"
    "Customer ref:     PO-{ref:05d}\n"
    "Payment terms:    30% advance, balance before shipment\n"
    "\n"
    "LINE ITEMS\n"
    "Each row lists: item id | description | quantity | unit price | line total | currency\n"
    "\n"
)
_FOOTER = (
    "\n"
    "TOTAL (excl. VAT):                 {total} {currency}\n"
    "\n"
    "Remarks: quantities and unit prices are binding for 60 days.\n"
)


@dataclass(frozen=True)
class InvoiceRow:
    """Ground truth for one well-formed line-item row."""

    item_id: str
    quantity: Decimal
    unit_price: Decimal
    total_price: Decimal
    currency: str
    quantity_literal: str       # as the extraction output must print it
    planted_delta: Decimal      # offset added to the correct total; 0 if none

    @property
    def total_ok(self) -> bool:
        return self.planted_delta == 0


@dataclass(frozen=True)
class Invoice:
    text: str
    rows: tuple[InvoiceRow, ...]
    error_line: int | None      # line of the malformed row, if one was planted
    error_kind: str | None


def _grouped(value: Decimal, places: int) -> str:
    """Render a non-negative decimal with comma thousands grouping."""
    return f"{value:,.{places}f}"


def _quantity(rng: random.Random) -> tuple[Decimal, str, str]:
    """A quantity, its document text and its extraction-output literal."""
    if rng.random() < 0.2:
        quarters = rng.randint(1, 400)
        q = (Decimal(quarters) / 4).normalize()
        literal = str(q) if q != q.to_integral_value() else str(int(q))
        return q, literal, literal
    q = Decimal(int(10 ** rng.uniform(0, 3.7)))
    text = _grouped(q, 0) if q >= 1000 and rng.random() < 0.7 else str(q)
    return q, text, str(q)


def _price(rng: random.Random) -> Decimal:
    return Decimal(int(10 ** rng.uniform(0.5, 5.7))) / 100


def _price_text(rng: random.Random, p: Decimal) -> str:
    return _grouped(p, 2) if p >= 1000 and rng.random() < 0.7 else f"{p:.2f}"


def _description(rng: random.Random) -> str:
    return f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}{rng.choice(_SUFFIXES)}"


def _malformed_row(rng: random.Random, item_id: str, currency: str) -> tuple[str, str]:
    kind = rng.choice(("field-count", "currency", "non-numeric", "negative"))
    desc = _description(rng)
    qty, unit = rng.randint(1, 90), _price(rng)
    total = f"{qty * unit:.2f}"
    if kind == "field-count":
        row = (f"{item_id} | {desc} | {qty} | {unit:.2f} | {total} | {currency} | extra"
               if rng.random() < 0.5 else f"{item_id} | {desc} | {qty} | {unit:.2f} | {currency}")
    elif kind == "currency":
        bad = rng.choice((currency.lower(), currency + "O", currency[:2], "E1R"))
        row = f"{item_id} | {desc} | {qty} | {unit:.2f} | {total} | {bad}"
    elif kind == "non-numeric":
        row = rng.choice((f"{item_id} | {desc} | {qty}x | {unit:.2f} | {total} | {currency}",
                          f"{item_id} | {desc} | {qty} | n/a | {total} | {currency}",
                          f"{item_id} | {desc} | {qty} | {unit:.2f} | 1.2.3 | {currency}"))
    else:
        row = rng.choice((f"{item_id} | {desc} | -{qty} | {unit:.2f} | {total} | {currency}",
                          f"{item_id} | {desc} | {qty} | {unit:.2f} | -{total} | {currency}"))
    return row, kind


def invoice(rng: random.Random, n_items: int, malformed: bool = False,
            wrong_total_share: float = WRONG_TOTAL_SHARE) -> Invoice:
    """One synthetic invoice in the bundled fixture's pipe grammar.

    Rows are interleaved with prose and indented continuation lines that
    the parser must skip. Quantities are integers, sometimes with comma
    grouping, or quarter fractions; prices carry two decimals. A share of
    rows get a wrong line total. With malformed=True exactly one row is
    broken at the grammar level and the document must fail to parse.
    """
    currency = rng.choice(CURRENCIES)
    lines = _HEADER.format(
        company=f"{rng.choice(_ADJECTIVES).upper()} SYSTEMS GmbH",
        street=rng.randint(1, 99), zip=rng.randint(10000, 99999),
        year=rng.randint(2020, 2026), number=rng.randint(1, 9999),
        ref=rng.randint(0, 99999)).split("\n")[:-1]
    width = max(2, len(str(n_items)))
    bad_index = rng.randrange(n_items) if malformed else None
    rows: list[InvoiceRow] = []
    error_line = error_kind = None
    grand = Decimal(0)
    for index in range(n_items):
        item_id = f"ITEM {index + 1:0{width}d}"
        if index == bad_index:
            text, error_kind = _malformed_row(rng, item_id, currency)
            lines.append(text)
            error_line = len(lines)
            continue
        qty, qty_text, qty_literal = _quantity(rng)
        unit = _price(rng)
        total = (qty * unit).quantize(CENT, rounding=ROUND_HALF_UP)
        delta = Decimal(0)
        if rng.random() < wrong_total_share:
            delta = Decimal(rng.randint(100, 99999)) / 100
            total += delta
        grand += total
        pad = " " * rng.choice((1, 1, 1, 2))
        lines.append(f"{item_id}{pad}| {_description(rng)} | {qty_text} |"
                     f" {_price_text(rng, unit)} |{pad}{_price_text(rng, total)} | {currency}")
        rows.append(InvoiceRow(item_id, qty, unit, total, currency, qty_literal, delta))
        roll = rng.random()
        if roll < 0.08:
            lines.append(rng.choice(_CONTINUATIONS))
        elif roll < 0.12:
            lines.append(rng.choice(_PROSE).format(
                amount=_grouped(grand, 2), currency=currency, page=index // 20 + 1))
        elif roll < 0.14:
            lines.append("")
    lines.extend(_FOOTER.format(total=_grouped(grand, 2), currency=currency).split("\n"))
    return Invoice("\n".join(lines), tuple(rows), error_line, error_kind)


def invoice_corpus(seed: int) -> list[Invoice]:
    """The invoice-batch corpus: a fixed size mix in a seeded order."""
    rng = random.Random(f"invoice-batch:{seed}")
    small = INVOICE_DOCS - INVOICE_LARGE
    kinds = (["large"] * INVOICE_LARGE + ["malformed"] * INVOICE_MALFORMED
             + ["small"] * (small - INVOICE_MALFORMED))
    rng.shuffle(kinds)
    docs = []
    for kind in kinds:
        if kind == "large":
            docs.append(invoice(rng, rng.randint(*LARGE_ITEMS)))
        else:
            docs.append(invoice(rng, rng.randint(*SMALL_ITEMS), malformed=kind == "malformed"))
    return docs


# Profiles as config JSON objects: the two bundled ones plus WUE and
# emission-factor variants, so the grid spans water and carbon settings.
PROFILES = {
    "flash-prompt-2025": {"rate_wh_per_ktok": 0.24, "pue": 1.09, "wue_l_per_kwh": [0.18, 0.3],
                          "emission_factor_g_per_kwh": 288, "co2_per_prompt_g": 0.03},
    "usecase-2025": {"rate_wh_per_ktok": 30, "pue": 1.09, "wue_l_per_kwh": [0.18, 0.3],
                     "emission_factor_g_per_kwh": 288, "co2_per_prompt_g": 0.03},
    "dry-wue": {"rate_wh_per_ktok": 0.24, "pue": 1.1, "wue_l_per_kwh": [0.05, 0.12],
                "emission_factor_g_per_kwh": 288, "co2_per_prompt_g": 0.03},
    "wet-wue": {"rate_wh_per_ktok": 0.24, "pue": 1.2, "wue_l_per_kwh": [1.1, 1.9],
                "emission_factor_g_per_kwh": 288, "co2_per_prompt_g": 0.03},
    "low-carbon": {"rate_wh_per_ktok": 0.3, "pue": 1.05, "wue_l_per_kwh": [0.18, 0.3],
                   "emission_factor_g_per_kwh": 35, "co2_per_prompt_g": 0.01},
    "coal-grid": {"rate_wh_per_ktok": 0.5, "pue": 1.4, "wue_l_per_kwh": [0.2, 0.6],
                  "emission_factor_g_per_kwh": 820, "co2_per_prompt_g": 0.08},
}

# The bundled manual scenario, the baseline every grid point is compared to.
MANUAL_SCENARIO = {
    "name": "manual", "daily_volume": 5000,
    "workforce": {"shift_hours": 8, "productive_hours": 7, "buffer": 1.15,
                  "per_doc_time_s": [300, 1800], "laptop_kwh_per_day": 0.48},
    "stages": [], "overhead_kwh_per_day": 2.7, "operators_override": [70, 400],
}


def scenario_point(rng: random.Random, name: str) -> dict:
    """One scenario as its JSON object.

    Volume is log-uniform over 100..10^6 docs/day; per-doc time, laptop
    draw, buffer, 0-5 stages and overhead vary, and about a third of the
    points carry operators_override so both operator paths run.
    """
    t_lo = round(10 ** rng.uniform(math.log10(5), math.log10(1800)), 1)
    t_hi = round(min(3600.0, t_lo * rng.uniform(1.0, 6.0)), 1)
    workforce = {"per_doc_time_s": [t_lo, t_hi],
                 "laptop_kwh_per_day": round(rng.uniform(0.05, 1.2), 3),
                 "buffer": round(rng.uniform(1.0, 1.5), 2)}
    if rng.random() < 0.5:
        workforce["shift_hours"] = 8
        workforce["productive_hours"] = round(rng.uniform(6.0, 7.5), 1)
    stages = [{"name": f"stage-{j}", "energy_wh_per_doc": round(rng.uniform(0.01, 3.0), 3)}
              for j in range(rng.randint(0, 5))]
    override = None
    if rng.random() < 0.33:
        lo = rng.randint(1, 500)
        override = [lo, lo + rng.randint(0, 2000)]
    return {
        "name": name,
        "daily_volume": int(10 ** rng.uniform(2, 6)),
        "workforce": workforce,
        "stages": stages,
        "overhead_kwh_per_day": 0 if rng.random() < 0.4 else round(rng.uniform(0, 20), 2),
        "operators_override": override,
    }


def scenario_grid(seed: int, n: int = 1000) -> list[tuple[str, dict]]:
    """Scenario-grid points as (profile name, scenario JSON object) pairs."""
    rng = random.Random(f"scenario-grid:{seed}")
    names = sorted(PROFILES)
    return [(rng.choice(names), scenario_point(rng, f"p{i}")) for i in range(n)]


@dataclass(frozen=True)
class ConfigDir:
    path: Path
    config: dict                 # the config.json object
    scenarios: tuple[dict, ...]  # scenario objects in config order
    baseline: str
    n_bytes: int                 # config plus scenario file bytes


def config_dirs(seed: int, root: Path) -> list[ConfigDir]:
    """Write one config directory per REPORT_SCENARIO_COUNTS entry under root.

    Each holds config.json with 1-4 profiles and K scenario files; the
    first scenario is the baseline of the report.
    """
    rng = random.Random(f"report-bundle:{seed}")
    out = []
    names = sorted(PROFILES)
    for d, k in enumerate(REPORT_SCENARIO_COUNTS):
        path = root / f"config-{d}"
        (path / "scenarios").mkdir(parents=True)
        chosen = rng.sample(names, rng.randint(1, 4))
        scenarios = tuple(scenario_point(rng, f"s{i}") for i in range(k))
        config = {
            "profiles": {name: PROFILES[name] for name in chosen},
            "scenario_profile": rng.choice(chosen),
            "usecase_profile": rng.choice(chosen),
            "scenarios": [f"scenarios/s{i}.json" for i in range(k)],
        }
        n_bytes = 0
        for i, obj in enumerate(scenarios):
            text = json.dumps(obj, indent=2) + "\n"
            (path / "scenarios" / f"s{i}.json").write_text(text, encoding="utf-8")
            n_bytes += len(text)
        text = json.dumps(config, indent=2) + "\n"
        (path / "config.json").write_text(text, encoding="utf-8")
        out.append(ConfigDir(path, config, scenarios, scenarios[0]["name"], n_bytes + len(text)))
    return out
