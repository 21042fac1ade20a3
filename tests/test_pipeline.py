import dataclasses
import logging
import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from docfootprint import (
    InvoiceParseError,
    LineItem,
    TokenLedger,
    count_tokens,
    footprint_from_ledger,
    ledger_shares,
    normalize_energy,
    parse_invoice,
    render_output_json,
    run_pipeline,
    verify_items,
)
from docfootprint.pipeline import _ITEM_ROW, _ROW, _has_item_rows, _parse_row

SPEC_ROW = "ITEM 03 | Integration service | 40 | 85.00 | 3400.00 | EUR"


def test_count_tokens_basics():
    assert count_tokens("") == 0
    assert count_tokens("12345678") == 2
    assert count_tokens("123456789") == 3


def test_count_tokens_monotone_and_subadditive():
    a, b = "alpha beta", "gamma delta epsilon"
    assert count_tokens(a) <= count_tokens(a + b)
    assert count_tokens(a + b) <= count_tokens(a) + count_tokens(b)


def test_fixture_token_counts_frozen(invoice_text, prompt_text):
    # golden values for the bundled fixtures under the ceil(len/4) heuristic
    assert count_tokens(invoice_text) == 569
    assert count_tokens(prompt_text) == 220


def test_parse_single_row():
    items = parse_invoice(SPEC_ROW)
    assert len(items) == 1
    item = items[0]
    assert item.item_id == "ITEM 03"
    assert item.quantity == Decimal("40")
    assert item.unit_price == Decimal("85.00")
    assert item.total_price == Decimal("3400.00")
    assert item.currency == "EUR"


def test_parse_bundled_fixture(invoice_text):
    items = parse_invoice(invoice_text)
    assert len(items) == 15
    assert [item.item_id for item in items] == [f"ITEM {n:02d}" for n in range(1, 16)]
    assert all(item.currency == "EUR" for item in items)


def test_parse_accepts_comma_grouping():
    items = parse_invoice("ITEM 01 | Bulk widgets | 1,000 | 1,234.56 | 1,234,560.00 | USD")
    assert items[0].quantity == Decimal("1000")
    assert items[0].unit_price == Decimal("1234.56")


def test_parse_ignores_whitespace_around_a_row():
    # Whatever str.strip() removes may pad a row, non-ASCII spaces included.
    padded = f"\t\u00a0 {SPEC_ROW} \u3000\n \u2003 \nx {SPEC_ROW}"
    assert parse_invoice(padded) == parse_invoice(SPEC_ROW)


def test_parse_empty_document_warns(caplog):
    with caplog.at_level(logging.WARNING):
        items = parse_invoice("")
    assert items == []
    assert any("no invoice line items" in r.message for r in caplog.records)


def test_parse_skips_prose(invoice_text, caplog):
    # prose lines around the item block never produce items
    prose_only = "\n".join(line for line in invoice_text.splitlines()
                           if not line.startswith("ITEM "))
    with caplog.at_level(logging.WARNING):
        assert parse_invoice(prose_only) == []


def _returns_empty(document: str) -> bool:
    """Whether parse_invoice returns [] without raising: when it warns."""
    try:
        return parse_invoice(document) == []
    except InvoiceParseError:
        return False


# Every line break below is one str.splitlines() splits at.
_BREAKS = ("\r\n", "\x0b", "\x1c", "\u2028")


def test_warn_condition_is_an_empty_parse(invoice_text, perfbench_gen):
    """_has_item_rows, which decides when the CLI sets up logging, is
    False exactly when parse_invoice returns [] without raising."""
    with pytest.raises(InvoiceParseError):
        parse_invoice("ITEM 7 | bad fields")
    documents = [invoice_text, "", "ITEM 7 | bad fields",
                 "ITEM 7 ships separately.\nITEMS marked * are made to order.\n"]
    for br in _BREAKS:
        documents += [f"Notes{br}{SPEC_ROW}{br}", f"Notes{br}ITEM 7 | bad{br}",
                      f"Notes{br}ITEM 7 ships separately{br}"]
    documents += [invoice.text for invoice in perfbench_gen.invoice_corpus(1)]
    empty = [_returns_empty(doc) for doc in documents]
    assert empty == [not _has_item_rows(doc) for doc in documents]
    assert True in empty and False in empty


_PIECES = ("ITEM", "ITEM 7", " ", "\t", "7", "|", "x", "\n", "\r", *_BREAKS, "\x85",
           SPEC_ROW)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.text() | st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_warn_condition_is_an_empty_parse_on_generated_text(document):
    assert _returns_empty(document) == (not _has_item_rows(document))


def test_malformed_row_reports_line_number():
    doc = "header\nITEM 01 | Widget | 5 | 2.00 | EUR\n"
    with pytest.raises(InvoiceParseError, match="line 2") as exc:
        parse_invoice(doc)
    assert exc.value.line_number == 2
    assert exc.value.stage == "parser"


def test_bad_number_and_currency_rejected():
    with pytest.raises(InvoiceParseError, match="quantity"):
        parse_invoice("ITEM 01 | Widget | five | 2.00 | 10.00 | EUR")
    with pytest.raises(InvoiceParseError, match="currency"):
        parse_invoice("ITEM 01 | Widget | 5 | 2.00 | 10.00 | eu")
    with pytest.raises(InvoiceParseError, match="negative"):
        parse_invoice("ITEM 01 | Widget | -5 | 2.00 | 10.00 | EUR")


@pytest.mark.parametrize("row, field, message", [
    ("ITEM 01 | W | {} | 2.00 | 10.00 | EUR", lambda n: "x" * n, "bad quantity"),
    ("ITEM 01 | W | {} | 2.00 | 10.00 | EUR", lambda n: "-0." + "0" * (n - 4) + "1",
     "negative quantity"),
    ("ITEM 01 | W | 5 | 2.00 | {} | EUR", lambda n: "9" * n, "bad total price"),
    ("ITEM 01 | W | 5 | 2.00 | 10.00 | {}", lambda n: "e" * n, "bad currency code"),
], ids=["bad-quantity", "negative-quantity", "bad-total", "bad-currency"])
def test_error_messages_quote_at_most_40_characters_of_a_field(row, field, message):
    # Fields of up to 40 characters are quoted whole, as before; a longer
    # one by its first 40 characters and its length.
    for n in (14, 39, 40):
        with pytest.raises(InvoiceParseError) as exc:
            parse_invoice(row.format(field(n)))
        assert str(exc.value) == f"parser: line 1: {message}: {field(n)!r}"
    for n in (41, 1_000_001):
        with pytest.raises(InvoiceParseError) as exc:
            parse_invoice(row.format(field(n)))
        assert str(exc.value) == (f"parser: line 1: {message}: {field(n)[:40]!r}..."
                                  f" ({n} characters)")


def test_line_item_validation():
    LineItem("ITEM 1", Decimal(1), Decimal(2), Decimal(2), "EUR")
    for fields, message in [
        (("", Decimal(1), Decimal(2), Decimal(2), "EUR"), "item_id must be non-empty"),
        (("ITEM 1", Decimal(-1), Decimal(2), Decimal(2), "EUR"), "quantity must be >= 0"),
        (("ITEM 1", Decimal(1), Decimal(-2), Decimal(2), "EUR"), "unit_price must be >= 0"),
        (("ITEM 1", Decimal(1), Decimal(2), Decimal(-2), "EUR"), "total_price must be >= 0"),
        (("ITEM 1", Decimal(1), Decimal(2), Decimal(2), "eur"), "currency must be"),
        (("ITEM 1", Decimal(1), Decimal(2), Decimal(2), "EURO"), "currency must be"),
        (("ITEM 1", Decimal(1), Decimal(2), Decimal(2), "EUR\n"), "currency must be"),
    ]:
        with pytest.raises(ValueError, match=message):
            LineItem(*fields)


def test_row_pattern_whitespace_is_what_strip_removes():
    # The pattern path and _parse_row agree only if this holds.
    space = re.compile(r"\s").fullmatch
    assert [hex(c) for c in range(0x110000)
            if (space(chr(c)) is not None) != (chr(c).strip() == "")] == []


# Row lines built from the grammar's pieces and from near misses. A line
# built only from grammar pieces is a plain row, which the pattern must take.
_DIGITS = "0123456789"
_SPACE = st.text("\t\x1f\xa0 \u3000", max_size=2)
_FIELDS = [  # (grammar piece, near misses) per field
    (st.text(_DIGITS + "\u0663", min_size=1, max_size=3), st.sampled_from(["12a", "1 2", "3."])),
    (st.text("Widget 24\xa0\u0663-,.", max_size=8), st.text("ab|", max_size=4)),
    *[(st.tuples(st.sampled_from(_DIGITS), st.text(_DIGITS + ",", max_size=6),
                 st.text(_DIGITS, max_size=3).map(lambda f: "." + f if f else "")).map("".join),
       st.text(_DIGITS + ",._e+-\u0663xE|", max_size=8) | st.sampled_from(
           ["1e3", "1_000", "+5", "-0", "1,2,3", "\u0663", "1.", ".5", "NaN", "9999999999999.99",
            "10,000,000,000,000", "9999999999999.999999999999999999"]))] * 3,
    (st.text("EURSDABC", min_size=3, max_size=3), st.sampled_from(["eur", "EU", "EURO", "E1R", ""])),
    (st.just([]), st.sampled_from([["x"], ["x", "y"]])),  # fields past the sixth
]


@st.composite
def _row_lines(draw):
    plain, pieces = True, []
    for grammar, near in _FIELDS:
        if draw(st.integers(0, 7)):
            pieces.append(draw(grammar))
        else:
            plain = False
            pieces.append(draw(near))
    number, description, *amounts, currency, extra = pieces
    if not plain and not draw(st.integers(0, 7)):
        amounts.pop()  # five fields
    fields = [f"ITEM{draw(_SPACE.filter(bool))}{number}", description, *amounts, currency]
    pad = [draw(_SPACE) + f + draw(_SPACE) if i != 1 else f for i, f in enumerate(fields)]
    return "|".join(pad + extra), plain


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@example(("ITEM 01 | Widget | 9999999999999.999999999999999999 | 2.00 | 0.00 | EUR", False))
@example(("ITEM 01 | Widget | 1e3 | 2.00 | 2000.00 | EUR", False))
@example((f"ITEM 01 | Widget | {'9' * 1_000_001} | 2.00 | 0.00 | EUR", False))  # abs() overflows
@given(_row_lines())
def test_pattern_rows_parse_as_field_by_field(line_and_plain):
    """Every row line parses to the item, or fails with the error, that
    _parse_row gives it, every plain row matches the row pattern, and a
    line that is no row is skipped."""
    line, plain = line_and_plain
    if plain:
        assert re.fullmatch(_ROW, line)
    if not _ITEM_ROW.match(line):
        assert parse_invoice(line) == []
        return
    try:
        expected = repr([_parse_row(line, 1)])
    except InvoiceParseError as exc:
        with pytest.raises(InvoiceParseError) as got:
            parse_invoice(line)
        assert str(got.value) == str(exc)
    else:
        items = parse_invoice(line)
        assert repr(items) == expected
        assert [_checked(item) for item in items] == items


def _checked(item):
    """The item LineItem(...) builds, with every check, from item's fields."""
    return LineItem(item.item_id, item.quantity, item.unit_price, item.total_price,
                    item.currency)


def test_parsed_items_pass_line_item_checks(invoice_text, perfbench_gen):
    """parse_invoice builds its items without LineItem's checks; each is
    still the item that LineItem(...) builds from its fields."""
    documents = [invoice_text] + [invoice.text for invoice in perfbench_gen.invoice_corpus(1)
                                  if invoice.error_kind is None]
    items = [item for doc in documents for item in parse_invoice(doc)]
    assert len(items) > len(documents)
    assert [_checked(item) for item in items] == items


def test_a_parsed_item_behaves_as_a_checked_one():
    # The first row takes the row pattern, the second _parse_row.
    items = parse_invoice(f"{SPEC_ROW}\nITEM 04 | Widget | 1e3 | 2.00 | 2000.00 | EUR")
    assert len(items) == 2
    for item in items:
        checked = _checked(item)
        assert type(item) is LineItem
        with pytest.raises(dataclasses.FrozenInstanceError):
            item.quantity = Decimal(1)
        assert item == checked and checked == item
        assert hash(item) == hash(checked)
        assert repr(item) == repr(checked)
        with pytest.raises(ValueError, match="^quantity must be >= 0$"):
            dataclasses.replace(item, quantity=Decimal(-1))


def test_verify_items_ok_and_delta_sign():
    ok_item = LineItem("ITEM 03", Decimal("40"), Decimal("85.00"),
                       Decimal("3400.00"), "EUR")
    bad_item = LineItem("ITEM 03", Decimal("40"), Decimal("85.00"),
                        Decimal("3401.00"), "EUR")
    records = verify_items([ok_item, bad_item])
    assert records[0].ok and records[0].delta == Decimal("0.00")
    assert not records[1].ok and records[1].delta == Decimal("1.00")


def test_verify_items_tolerance_boundary():
    at_tolerance = LineItem("ITEM 01", Decimal("1"), Decimal("1.00"),
                            Decimal("1.01"), "EUR")
    assert verify_items([at_tolerance])[0].ok


def test_largest_amounts_verify_and_render():
    big = "9999999999999.99"
    items = parse_invoice(f"ITEM 01 | Widget | {big} | {big} | 0.00 | EUR")
    assert verify_items(items)[0].delta == Decimal("-99999999999999800000000000.00")
    assert f'"quantity": {big}, "unit_price": {big}, "total_price": 0.00' in \
        render_output_json(items)


def test_verify_items_empty():
    assert verify_items([]) == []


def test_corrupting_one_total_flips_exactly_that_item(invoice_text):
    items = parse_invoice(invoice_text)
    for i in range(len(items)):
        mutated = list(items)
        mutated[i] = dataclasses.replace(
            mutated[i], total_price=mutated[i].total_price + Decimal("0.02"))
        records = verify_items(mutated)
        assert [not r.ok for r in records] == [j == i for j in range(len(items))]


def test_render_output_two_decimal_prices(invoice_text):
    out = render_output_json(parse_invoice(invoice_text))
    assert '"unit_price": 85.00' in out
    assert '"total_price": 3400.00' in out
    assert out.startswith("[\n")
    assert out.endswith("\n]\n")


def test_render_output_matches_reference_fixture(invoice_text, fixtures_dir):
    reference = (fixtures_dir / "extraction_output.json").read_text(encoding="utf-8")
    assert render_output_json(parse_invoice(invoice_text)) == reference


def _quantity_texts(quantities: list[Decimal]) -> list[str]:
    """The quantities as render_output_json writes them."""
    out = render_output_json([LineItem("ITEM 1", q, Decimal(0), Decimal(0), "EUR")
                              for q in quantities])
    return re.findall(r'"quantity": ([^,]*),', out)


def test_quantities_render_as_before_up_to_28_digits(invoice_text, perfbench_gen):
    documents = [invoice_text] + [invoice.text for invoice in
                                  perfbench_gen.invoice_corpus(1)
                                  if invoice.error_kind is None]
    quantities = [item.quantity for doc in documents for item in parse_invoice(doc)]
    quantities += [Decimal(raw) for raw in ("0.0000001", "1E-7", "1.50", "120.500", "0.10",
                                            "1.234567890123456789012345678")]
    assert any(q != q.to_integral_value() for q in quantities)
    # The rendering of a 28-digit context: exact at these lengths.
    assert _quantity_texts(quantities) == [
        str(int(q)) if q == q.to_integral_value() else str(q.normalize()) for q in quantities]
    assert _quantity_texts([Decimal("0.0000001")]) == ["1E-7"]


def test_long_quantity_renders_as_verified():
    raw = "1.00000000000000000000000000001"
    items = parse_invoice(f"ITEM 01 | x | {raw} | 1.00 | 1.00 | EUR")
    assert items[0].quantity == Decimal(raw)
    assert f'"quantity": {raw},' in render_output_json(items)


def test_render_output_empty():
    assert render_output_json([]) == "[]\n"


def test_ledger_validation():
    with pytest.raises(ValueError):
        TokenLedger(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        TokenLedger(1, 0, 0, 0, source="guessed")
    with pytest.raises(ValueError, match="unknown key"):
        TokenLedger.from_json_obj({"document": 1, "prompt": 0, "output": 0,
                                   "thinking": 0, "extra": 2})


def test_ledger_total_and_ratio(measured_ledger):
    assert measured_ledger.total() == 11_906
    assert measured_ledger.thinking_to_output_ratio() == pytest.approx(6.45, abs=0.005)
    assert TokenLedger(1, 1, 0, 1).thinking_to_output_ratio() is None


def test_run_pipeline_measured(invoice_text, prompt_text, measured_ledger, usecase_profile):
    result = run_pipeline(invoice_text, prompt_text, usecase_profile,
                          ledger_override=measured_ledger)
    assert len(result.items) == 15
    assert all(r.ok for r in result.verification)
    assert result.ledger.source == "measured"
    assert result.footprint.energy.kwh == pytest.approx(0.35718, abs=1e-12)
    assert result.footprint.co2.grams == pytest.approx(102.87, abs=0.01)
    assert result.footprint.water.liters.lo == pytest.approx(0.0643, abs=0.0001)
    assert result.footprint.water.liters.hi == pytest.approx(0.1072, abs=0.0001)


def test_run_pipeline_estimated_golden(invoice_text, prompt_text, usecase_profile):
    result = run_pipeline(invoice_text, prompt_text, usecase_profile)
    assert result.ledger == TokenLedger(document=569, prompt=220, output=402,
                                        thinking=0, source="estimated")
    assert result.footprint.energy.kwh == pytest.approx(0.03573, abs=1e-12)
    assert result.footprint.energy.kwh > 0
    assert len(result.items) == 15


def test_run_pipeline_empty_document(prompt_text, usecase_profile, caplog):
    with caplog.at_level(logging.WARNING):
        result = run_pipeline("", prompt_text, usecase_profile)
    assert result.items == ()
    assert result.ledger.document == 0
    assert result.verification == ()


def test_run_pipeline_deterministic(invoice_text, prompt_text, usecase_profile,
                                    measured_ledger):
    a = run_pipeline(invoice_text, prompt_text, usecase_profile,
                     ledger_override=measured_ledger)
    b = run_pipeline(invoice_text, prompt_text, usecase_profile,
                     ledger_override=measured_ledger)
    assert a == b
    assert render_output_json(a.items) == render_output_json(b.items)


def test_footprint_matches_recomputed_chain(measured_ledger, usecase_profile):
    result_fp = footprint_from_ledger(measured_ledger, usecase_profile)
    again = footprint_from_ledger(measured_ledger, usecase_profile)
    assert result_fp == again


def test_ledger_shares_reference(measured_ledger):
    assert ledger_shares(measured_ledger) == {
        "document": 75.8, "prompt": 10.6, "output": 1.8, "thinking": 11.8}


def test_ledger_shares_point_mass():
    assert ledger_shares(TokenLedger(1, 0, 0, 0)) == {
        "document": 100.0, "prompt": 0.0, "output": 0.0, "thinking": 0.0}


def test_ledger_shares_zero_total():
    with pytest.raises(ValueError, match="zero total"):
        ledger_shares(TokenLedger(0, 0, 0, 0))


def test_ledger_shares_sum_close_to_100(measured_ledger):
    assert abs(sum(ledger_shares(measured_ledger).values()) - 100.0) <= 0.2


def test_normalize_energy():
    assert normalize_energy(0.3572, 1.15, 1.5) == pytest.approx(0.2071, abs=0.0005)
    assert normalize_energy(2.0, 1.0, 1.0) == 2.0
    restored = normalize_energy(0.3572, 1.15, 1.5) * 1.15 * 1.5
    assert abs(restored - 0.3572) < 1e-12
    with pytest.raises(ValueError):
        normalize_energy(1.0, 0.99, 1.5)
    with pytest.raises(ValueError):
        normalize_energy(-1.0, 1.15, 1.5)
