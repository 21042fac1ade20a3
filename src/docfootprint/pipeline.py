"""Deterministic invoice extraction pipeline with token and energy accounting.

The generative stage of the original workflow is replaced by a
rule-based extractor over a fixed line-item grammar, so every run is
reproducible offline. Real token counts can be injected through a
measured TokenLedger; otherwise counts are estimated with a character
heuristic and labeled as such.

Stage order: parser (row extraction) -> generator (output rendering)
-> verifier (arithmetic check) -> human review. The human stage has no
offline behavior to model; its cost enters through the ledger.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_HALF_UP,
    Context,
    Decimal,
    DecimalException,
    InvalidOperation,
)

from .core import (
    Carbon,
    Energy,
    FootprintProfile,
    Interval,
    Water,
    WH_PER_KWH,
    _json_fields,
    _require_tokens,
    co2_from_energy,
    inference_energy,
    water_from_energy,
)

LEDGER_SOURCES = ("measured", "estimated")

# Normalization constants for cross-setup energy comparison: extended
# reasoning overhead and document complexity relative to a typical load.
THINKING_NORMALIZATION_FACTOR = 1.15
COMPLEXITY_NORMALIZATION_FACTOR = 1.5

_ITEM_ROW = re.compile(r"^ITEM\s+\d+\s*\|")
_CURRENCY = re.compile(r"^[A-Z]{3}$")
_CENT = Decimal("0.01")
# Parsed amounts stay below this magnitude after abs() rounds them to 28
# digits (abs() past the exponent range raises Overflow, also rejected), so
# quantity * unit_price stays below 10**26 - 0.01 and the cent rounding in
# verify_items fits Decimal's default 28 digits.
_MAX_AMOUNT = Decimal(10) ** 13
# A context that never rounds, so normalize() only strips trailing zeros.
_EXACT = Context(prec=MAX_PREC, Emin=MIN_EMIN, Emax=MAX_EMAX)


class InvoiceParseError(ValueError):
    """Raised for a malformed line-item row; carries the line number."""

    stage = "parser"

    def __init__(self, line_number: int, message: str):
        super().__init__(f"{self.stage}: line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class TokenLedger:
    """Itemized token counts for one pipeline execution."""

    document: int
    prompt: int
    output: int
    thinking: int
    source: str = "measured"

    def __post_init__(self):
        for name in ("document", "prompt", "output", "thinking"):
            _require_tokens(getattr(self, name), name)
        if self.source not in LEDGER_SOURCES:
            raise ValueError(f"source must be one of {LEDGER_SOURCES}")

    def total(self) -> int:
        return self.document + self.prompt + self.output + self.thinking

    def thinking_to_output_ratio(self) -> float | None:
        if self.output == 0:
            return None
        return self.thinking / self.output

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TokenLedger":
        return cls(**_json_fields(obj, ("document", "prompt", "output", "thinking"), ("source",)))

    def to_json_obj(self) -> dict:
        return {
            "document": self.document,
            "prompt": self.prompt,
            "output": self.output,
            "thinking": self.thinking,
            "source": self.source,
        }


@dataclass(frozen=True)
class LineItem:
    item_id: str
    quantity: Decimal
    unit_price: Decimal
    total_price: Decimal
    currency: str

    def __post_init__(self):
        if not self.item_id:
            raise ValueError("item_id must be non-empty")
        for name in ("quantity", "unit_price", "total_price"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not _CURRENCY.match(self.currency):
            raise ValueError(f"currency must be a 3-letter code, got {self.currency!r}")


@dataclass(frozen=True)
class VerificationRecord:
    item_id: str
    ok: bool
    delta: Decimal


@dataclass(frozen=True)
class Footprint:
    energy: Energy
    co2: Carbon
    water: Water


@dataclass(frozen=True)
class ExtractionResult:
    items: tuple[LineItem, ...]
    ledger: TokenLedger
    footprint: Footprint
    verification: tuple[VerificationRecord, ...]


def count_tokens(text: str) -> int:
    """Estimate a token count as ceil(len / 4).

    A crude, deterministic stand-in for a real tokenizer; results from
    it are always labeled source="estimated" and are never used where
    measured counts matter.
    """
    return (len(text) + 3) // 4


def _parse_decimal(raw: str, line_number: int, what: str) -> Decimal:
    cleaned = raw.strip().replace(",", "")
    try:
        value = Decimal(cleaned)
        if not value.is_finite() or abs(value) >= _MAX_AMOUNT:
            raise InvalidOperation
    except DecimalException:
        raise InvoiceParseError(line_number, f"bad {what}: {raw.strip()!r}") from None
    if value < 0:
        raise InvoiceParseError(line_number, f"negative {what}: {raw.strip()!r}")
    return value


def parse_invoice(document: str) -> list[LineItem]:
    """Extract line items from a pipe-delimited invoice document.

    Rows look like:
        ITEM 03 | Integration service | 40 | 85.00 | 3400.00 | EUR
    Non-matching lines are treated as surrounding prose and skipped.
    Numbers may use comma grouping ("1,234.56").
    """
    items: list[LineItem] = []
    for line_number, line in enumerate(document.splitlines(), start=1):
        if not _ITEM_ROW.match(line.strip()):
            continue
        fields = [f.strip() for f in line.strip().split("|")]
        if len(fields) != 6:
            raise InvoiceParseError(
                line_number,
                f"expected 6 pipe-delimited fields, got {len(fields)}")
        item_id, _description, qty_raw, unit_raw, total_raw, currency = fields
        if not _CURRENCY.match(currency):
            raise InvoiceParseError(line_number, f"bad currency code: {currency!r}")
        items.append(LineItem(
            item_id=item_id,
            quantity=_parse_decimal(qty_raw, line_number, "quantity"),
            unit_price=_parse_decimal(unit_raw, line_number, "unit price"),
            total_price=_parse_decimal(total_raw, line_number, "total price"),
            currency=currency,
        ))
    if not items:
        import logging  # only here, so runs that match items never import it

        logging.getLogger(__name__).warning(
            "no invoice line items matched; returning empty result")
    return items


def verify_items(items: list[LineItem] | tuple[LineItem, ...]) -> list[VerificationRecord]:
    """Check quantity * unit_price == total_price per item, to within a cent.

    delta is signed as total_price minus the recomputed product, so an
    overstated total reports a positive delta. Failures are data, not
    exceptions.
    """
    records = []
    for item in items:
        delta = item.total_price - item.quantity * item.unit_price
        records.append(VerificationRecord(
            item_id=item.item_id,
            ok=abs(delta) <= _CENT,
            delta=delta.quantize(_CENT, rounding=ROUND_HALF_UP),
        ))
    return records


def _qty_literal(q: Decimal) -> str:
    if q == q.to_integral_value():
        return str(int(q))
    # Under the default 28-digit context normalize() would round a longer
    # quantity, and the output would differ from the value verified.
    return str(q.normalize(_EXACT))


def _price_literal(p: Decimal) -> str:
    return str(p.quantize(_CENT, rounding=ROUND_HALF_UP))


def render_output_json(items: list[LineItem] | tuple[LineItem, ...]) -> str:
    """Serialize items to the fixed-field-order extraction output format.

    Prices always carry two decimals, which json.dumps cannot emit for
    float values, so rows are rendered by hand.
    """
    if not items:
        return "[]\n"
    rows = []
    for item in items:
        rows.append(
            '  {"item_id": %s, "quantity": %s, "unit_price": %s,'
            ' "total_price": %s, "currency": %s}' % (
                json.dumps(item.item_id),
                _qty_literal(item.quantity),
                _price_literal(item.unit_price),
                _price_literal(item.total_price),
                json.dumps(item.currency),
            ))
    return "[\n" + ",\n".join(rows) + "\n]\n"


def footprint_from_ledger(ledger: TokenLedger, profile: FootprintProfile) -> Footprint:
    """Full conversion chain over the ledger total: tokens -> kWh -> {g, L}."""
    wh = inference_energy(ledger.total(), profile.rate)
    kwh = wh / WH_PER_KWH
    return Footprint(
        energy=Energy(kwh),
        co2=Carbon(co2_from_energy(kwh, profile.emission_factor_g_per_kwh)),
        water=Water(water_from_energy(kwh, profile.wue)),
    )


def run_pipeline(document: str, prompt: str, profile: FootprintProfile,
                 ledger_override: TokenLedger | None = None) -> ExtractionResult:
    """Run the extraction stages in order and account their cost.

    With a ledger_override the footprint reflects measured counts;
    otherwise the ledger is estimated from the texts with zero thinking
    tokens (the heuristic cannot see hidden reasoning).
    """
    items = tuple(parse_invoice(document))
    output_text = render_output_json(items)
    verification = tuple(verify_items(items))
    if ledger_override is not None:
        ledger = ledger_override
    else:
        ledger = TokenLedger(
            document=count_tokens(document),
            prompt=count_tokens(prompt),
            output=count_tokens(output_text),
            thinking=0,
            source="estimated",
        )
    return ExtractionResult(
        items=items,
        ledger=ledger,
        footprint=footprint_from_ledger(ledger, profile),
        verification=verification,
    )


def ledger_shares(ledger: TokenLedger) -> dict[str, float]:
    """Component shares of the ledger total, in percent at one decimal."""
    total = ledger.total()
    if total == 0:
        raise ValueError("zero total: shares undefined")
    shares = {}
    for name in ("document", "prompt", "output", "thinking"):
        pct = getattr(ledger, name) / total * 100.0
        shares[name] = float(Decimal(repr(pct)).quantize(
            Decimal("0.1"), rounding=ROUND_HALF_UP))
    return shares


def normalize_energy(energy_kwh: float, thinking_factor: float,
                     complexity_factor: float) -> float:
    """Divide out workload factors to compare against a reference setup."""
    if thinking_factor < 1 or complexity_factor < 1:
        raise ValueError("normalization factors must be >= 1")
    if energy_kwh < 0:
        raise ValueError("energy must be >= 0")
    return energy_kwh / (thinking_factor * complexity_factor)
