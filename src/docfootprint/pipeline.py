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

import re
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
from json.encoder import encode_basestring_ascii as _quote

from .core import (
    Carbon,
    Energy,
    FootprintProfile,
    Interval,
    Water,
    WH_PER_KWH,
    _half_up,
    _json_fields,
    _json_obj,
    _Record,
    _require_number,
    _require_tokens,
    _set_field,
    co2_from_energy,
    inference_energy,
    water_from_energy,
)

LEDGER_SOURCES = ("measured", "estimated")

# Normalization constants for cross-setup energy comparison: extended
# reasoning overhead and document complexity relative to a typical load.
THINKING_NORMALIZATION_FACTOR = 1.15
COMPLEXITY_NORMALIZATION_FACTOR = 1.5

_ITEM_ROW = re.compile(r"^\s*ITEM\s+\d+\s*\|")
# A well-formed row: id, description, three plain amounts, currency. A str
# pattern's \s matches exactly what str.strip() removes, so the groups are
# the fields _parse_row reads. Compiled on first use, not at import.
_AMOUNT = r"\s*([0-9][0-9,]*(?:\.[0-9]+)?)\s*"
_ROW = rf"\s*(ITEM\s+\d+)\s*\|[^|]*\|{_AMOUNT}\|{_AMOUNT}\|{_AMOUNT}\|\s*([A-Z]{{3}})\s*"
_CURRENCY = re.compile(r"[A-Z]{3}")
# How many characters of a bad field an error message quotes.
_QUOTE_LIMIT = 40
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


class TokenLedger(_Record):
    """Itemized token counts for one pipeline execution."""

    document: int
    prompt: int
    output: int
    thinking: int
    source: str = "measured"

    def __init__(self, document, prompt, output, thinking, source="measured"):
        _require_tokens(document, "document")
        _require_tokens(prompt, "prompt")
        _require_tokens(output, "output")
        _require_tokens(thinking, "thinking")
        if source not in LEDGER_SOURCES:
            raise ValueError(f"source must be one of {LEDGER_SOURCES}")
        _set_field(self, "document", document)
        _set_field(self, "prompt", prompt)
        _set_field(self, "output", output)
        _set_field(self, "thinking", thinking)
        _set_field(self, "source", source)

    def total(self) -> int:
        return self.document + self.prompt + self.output + self.thinking

    def thinking_to_output_ratio(self) -> float | None:
        if self.output == 0:
            return None
        return self.thinking / self.output

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TokenLedger":
        return cls(**_json_fields(obj, ("document", "prompt", "output", "thinking"), ("source",)))

    to_json_obj = _json_obj


class LineItem(_Record):
    """One extracted invoice row; amounts are exact decimals."""

    item_id: str
    quantity: Decimal
    unit_price: Decimal
    total_price: Decimal
    currency: str

    def __init__(self, item_id, quantity, unit_price, total_price, currency):
        if not item_id:
            raise ValueError("item_id must be non-empty")
        if quantity < 0:
            raise ValueError("quantity must be >= 0")
        if unit_price < 0:
            raise ValueError("unit_price must be >= 0")
        if total_price < 0:
            raise ValueError("total_price must be >= 0")
        if not _CURRENCY.fullmatch(currency):
            raise ValueError(f"currency must be a 3-letter code, got {currency!r}")
        self._store(item_id, quantity, unit_price, total_price, currency)


class VerificationRecord(_Record):
    """One item's arithmetic check: ok within a cent, and the signed delta."""

    item_id: str
    ok: bool
    delta: Decimal

    def __init__(self, item_id, ok, delta):
        _set_field(self, "item_id", item_id)
        _set_field(self, "ok", ok)
        _set_field(self, "delta", delta)


class Footprint(_Record):
    """Energy, CO2 and water of one pipeline run."""

    energy: Energy
    co2: Carbon
    water: Water

    def __init__(self, energy, co2, water):
        _set_field(self, "energy", energy)
        _set_field(self, "co2", co2)
        _set_field(self, "water", water)


class ExtractionResult(_Record):
    """One pipeline run: its items, ledger, footprint and verification records."""

    items: tuple[LineItem, ...]
    ledger: TokenLedger
    footprint: Footprint
    verification: tuple[VerificationRecord, ...]

    def __init__(self, items, ledger, footprint, verification):
        _set_field(self, "items", items)
        _set_field(self, "ledger", ledger)
        _set_field(self, "footprint", footprint)
        _set_field(self, "verification", verification)


def count_tokens(text: str) -> int:
    """Estimate a token count as ceil(len / 4).

    A crude, deterministic stand-in for a real tokenizer; results from
    it are always labeled source="estimated" and are never used where
    measured counts matter.
    """
    return (len(text) + 3) // 4


def _quoted(field: str) -> str:
    """A field as an error message quotes it: its repr, cut to the first
    _QUOTE_LIMIT characters and followed by its length when longer."""
    if len(field) <= _QUOTE_LIMIT:
        return repr(field)
    return f"{field[:_QUOTE_LIMIT]!r}... ({len(field)} characters)"


def _parse_decimal(raw: str, line_number: int, what: str) -> Decimal:
    cleaned = raw.strip().replace(",", "")
    try:
        value = Decimal(cleaned)
        if not value.is_finite() or abs(value) >= _MAX_AMOUNT:
            raise InvalidOperation
    except DecimalException:
        raise InvoiceParseError(line_number, f"bad {what}: {_quoted(raw.strip())}") from None
    if value < 0:
        raise InvoiceParseError(line_number, f"negative {what}: {_quoted(raw.strip())}")
    return value


def _line_item(item_id, quantity, unit_price, total_price, currency) -> LineItem:
    """A LineItem of fields the parser has already proved, built without
    re-running LineItem's checks.

    Both parser paths, the row pattern in parse_invoice and _parse_row,
    call it only with fields that pass those checks:
    - item_id starts with ITEM;
    - every amount is a finite Decimal in [0, 10**13) after abs() rounding;
    - currency fully matches [A-Z]{3}.
    Every other caller builds items with LineItem(...). It stores each
    field by name rather than through _Record._store, whose loop would
    add about 0.4 us to every parsed row.
    """
    item = object.__new__(LineItem)
    _set_field(item, "item_id", item_id)
    _set_field(item, "quantity", quantity)
    _set_field(item, "unit_price", unit_price)
    _set_field(item, "total_price", total_price)
    _set_field(item, "currency", currency)
    return item


def _parse_row(line: str, line_number: int) -> LineItem:
    # Stripping each field also strips the line's two ends.
    fields = [f.strip() for f in line.split("|")]
    if len(fields) != 6:
        raise InvoiceParseError(
            line_number,
            f"expected 6 pipe-delimited fields, got {len(fields)}")
    item_id, _description, qty_raw, unit_raw, total_raw, currency = fields
    if not _CURRENCY.fullmatch(currency):
        raise InvoiceParseError(line_number, f"bad currency code: {_quoted(currency)}")
    return _line_item(
        item_id=item_id,
        quantity=_parse_decimal(qty_raw, line_number, "quantity"),
        unit_price=_parse_decimal(unit_raw, line_number, "unit price"),
        total_price=_parse_decimal(total_raw, line_number, "total price"),
        currency=currency,
    )


def _has_item_rows(document: str) -> bool:
    """Whether some line of document is an item row.

    parse_invoice turns each such line into an item or raises, so it
    returns [] and logs its warning exactly when this is False.
    """
    return any(map(_ITEM_ROW.match, document.splitlines()))


def parse_invoice(document: str) -> list[LineItem]:
    """Extract line items from a pipe-delimited invoice document.

    Rows look like:
        ITEM 03 | Integration service | 40 | 85.00 | 3400.00 | EUR
    Non-matching lines are treated as surrounding prose and skipped.
    Numbers may use comma grouping ("1,234.56").

    A row of plain in-range amounts is read from one pattern match; any
    other row goes field by field through _parse_row, which gives the
    same item and is the only source of error messages.
    """
    row = re.compile(_ROW).fullmatch
    items: list[LineItem] = []
    for line_number, line in enumerate(document.splitlines(), start=1):
        match = row(line)
        if match is not None:
            item_id, qty, unit, total, currency = match.groups()
            quantity = Decimal(qty.replace(",", ""))
            unit_price = Decimal(unit.replace(",", ""))
            total_price = Decimal(total.replace(",", ""))
            try:
                in_range = (abs(quantity) < _MAX_AMOUNT and abs(unit_price) < _MAX_AMOUNT
                            and abs(total_price) < _MAX_AMOUNT)
            except DecimalException:
                in_range = False
            if in_range:
                items.append(_line_item(item_id, quantity, unit_price, total_price, currency))
                continue
        elif not _ITEM_ROW.match(line):
            continue
        items.append(_parse_row(line, line_number))
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
    return [VerificationRecord(item.item_id, abs(delta) <= _CENT,
                               delta.quantize(_CENT, ROUND_HALF_UP))
            for item in items
            for delta in [item.total_price - item.quantity * item.unit_price]]


def render_output_json(items: list[LineItem] | tuple[LineItem, ...]) -> str:
    """Serialize items to the fixed-field-order extraction output format.

    Prices always carry two decimals, which json.dumps cannot emit for
    float values, so rows are rendered by hand. A whole quantity renders
    as an integer; any other is normalized in a context that never
    rounds, since the default 28 digits would round a longer quantity
    and the output would differ from the value verified.
    """
    if not items:
        return "[]\n"
    rows = [
        '  {"item_id": %s, "quantity": %s, "unit_price": %s,'
        ' "total_price": %s, "currency": %s}' % (
            _quote(item.item_id),
            int(q) if q == q.to_integral_value() else q.normalize(_EXACT),
            item.unit_price.quantize(_CENT, ROUND_HALF_UP),
            item.total_price.quantize(_CENT, ROUND_HALF_UP),
            _quote(item.currency),
        )
        for item in items
        for q in [item.quantity]]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def footprint_from_ledger(ledger: TokenLedger, profile: FootprintProfile) -> Footprint:
    """Full conversion chain over the ledger total: tokens -> kWh -> {g, L}."""
    wh = inference_energy(ledger.total(), profile.rate)
    kwh = wh / WH_PER_KWH
    # Water past the float range fails Interval's check; the bare CO2 float is checked here.
    co2 = _require_number(co2_from_energy(kwh, profile.emission_factor_g_per_kwh), "co2_g")
    return Footprint(
        energy=Energy(kwh),
        co2=Carbon(co2),
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
        # t / 10 is the float nearest the rounded decimal, as float() of it is.
        shares[name] = _half_up(pct) / 10
    return shares


def normalize_energy(energy_kwh: float, thinking_factor: float,
                     complexity_factor: float) -> float:
    """Divide out workload factors to compare against a reference setup."""
    if thinking_factor < 1 or complexity_factor < 1:
        raise ValueError("normalization factors must be >= 1")
    if energy_kwh < 0:
        raise ValueError("energy must be >= 0")
    return energy_kwh / (thinking_factor * complexity_factor)
