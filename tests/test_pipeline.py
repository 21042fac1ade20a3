import dataclasses
import logging
from decimal import Decimal

import pytest

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
from docfootprint.pipeline import _qty_literal

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


def test_quantities_render_as_before_up_to_28_digits(invoice_text, perfbench_gen):
    documents = [invoice_text] + [invoice.text for invoice in
                                  perfbench_gen.invoice_corpus(1)
                                  if invoice.error_kind is None]
    quantities = [item.quantity for doc in documents for item in parse_invoice(doc)]
    quantities += [Decimal(raw) for raw in ("0.0000001", "1E-7", "1.50", "120.500", "0.10",
                                            "1.234567890123456789012345678")]
    assert any(q != q.to_integral_value() for q in quantities)
    for q in quantities:
        # The rendering of a 28-digit context: exact at these lengths.
        expected = str(int(q)) if q == q.to_integral_value() else str(q.normalize())
        assert _qty_literal(q) == expected
    assert _qty_literal(Decimal("0.0000001")) == "1E-7"


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
