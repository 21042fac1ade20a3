import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import docfootprint
from docfootprint.cli import DEFAULT_CONFIG, FIXTURES_DIR, main


def _read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_scenario_compare_markdown(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["scenario-compare", "--out", str(out)]) == 0
    table = (out / "scenario_table.md").read_text()
    assert "| hitl | 7 -- 28 | 6.1 -- 16.2 | 1.8 -- 4.7 | 1.1 -- 4.9 | 0.000545 |" in table
    reductions = (out / "reduction_table.md").read_text()
    assert "| energy | 83 -- 92 | 72 -- 90 | +25 -- +66 |" in reductions
    stdout = capsys.readouterr().out
    assert "scenario_table.md" in stdout and "reduction_table.md" in stdout


def test_scenario_compare_json_bundle(tmp_path, config):
    out = tmp_path / "reports"
    assert main(["scenario-compare", "--out", str(out), "--format", "json"]) == 0
    bundle = json.loads((out / "bundle.json").read_text())
    assert bundle["metadata"]["config_hash"] == config.config_hash
    assert len(bundle["plot_data"]) == 9


def test_scenario_compare_csv(tmp_path):
    out = tmp_path / "reports"
    assert main(["scenario-compare", "--out", str(out), "--format", "csv"]) == 0
    lines = (out / "reduction_table.csv").read_text().strip().split("\n")
    assert len(lines) == 4


def test_scenario_compare_unknown_baseline(tmp_path, capsys):
    code = main(["scenario-compare", "--baseline", "robotic", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenario_compare_bad_config(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text("{}")
    code = main(["scenario-compare", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "/profiles" in capsys.readouterr().err


def test_usecase_run_measured(tmp_path, fixtures_dir):
    out = tmp_path / "reports"
    assert main(["usecase-run", "--ledger", "bundled", "--out", str(out)]) == 0
    produced = (out / "extraction_output.json").read_bytes()
    reference = (fixtures_dir / "extraction_output.json").read_bytes()
    assert produced == reference
    report = json.loads((out / "usecase_report.json").read_text())
    assert report["ledger"]["total"] == 11_906
    assert report["footprint"]["energy_kwh"] == pytest.approx(0.35718, abs=1e-12)
    assert report["footprint"]["co2_g"] == pytest.approx(102.87, abs=0.01)
    assert report["verification"] == {"items": 15, "failures": []}


def test_usecase_run_estimated(tmp_path):
    out = tmp_path / "reports"
    assert main(["usecase-run", "--out", str(out)]) == 0
    report = json.loads((out / "usecase_report.json").read_text())
    assert report["ledger"]["source"] == "estimated"
    assert report["ledger"]["thinking"] == 0


def test_usecase_run_verification_failure(tmp_path, invoice_text, capsys):
    corrupted = invoice_text.replace(
        "ITEM 03 | Integration service | 40 | 85.00 | 3400.00 | EUR",
        "ITEM 03 | Integration service | 40 | 85.00 | 3402.00 | EUR")
    doc = tmp_path / "invoice.txt"
    doc.write_text(corrupted)
    code = main(["usecase-run", "--document", str(doc), "--ledger", "bundled",
                 "--out", str(tmp_path / "reports")])
    assert code == 3
    err = capsys.readouterr().err
    assert "ITEM 03" in err and "verification failed" in err


def test_usecase_run_parse_failure(tmp_path, capsys):
    doc = tmp_path / "invoice.txt"
    doc.write_text("ITEM 01 | Widget | 5 | 2.00 | EUR\n")
    code = main(["usecase-run", "--document", str(doc),
                 "--out", str(tmp_path / "reports")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_usecase_run_missing_ledger_file(tmp_path, capsys):
    code = main(["usecase-run", "--ledger", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "reports")])
    assert code == 2
    assert "ledger file not found" in capsys.readouterr().err


def test_thinking_delta_reference_output(capsys):
    assert main(["thinking-delta", "18000", "10000"]) == 0
    out = capsys.readouterr().out
    assert out == ("delta_energy_wh: 2.4\n"
                   "pct_increase: 55.6\n"
                   "delta_co2_g: 0.69\n"
                   "delta_water_ml: 0.43 -- 0.72\n")


def test_thinking_delta_zero(capsys):
    assert main(["thinking-delta", "18000", "0"]) == 0
    out = capsys.readouterr().out
    assert "delta_energy_wh: 0.0" in out
    assert "pct_increase: 0.0" in out


def test_thinking_delta_undefined_ratio(capsys):
    assert main(["thinking-delta", "0", "100"]) == 0
    assert "undefined" in capsys.readouterr().out


def test_thinking_delta_negative_rejected(capsys):
    assert main(["thinking-delta", "-1", "100"]) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_thinking_delta_unknown_profile(capsys):
    assert main(["thinking-delta", "1", "1", "--profile", "nope"]) == 2
    assert "unknown profile" in capsys.readouterr().err


def test_tokens_count(tmp_path, capsys, fixtures_dir):
    assert main(["tokens-count", str(fixtures_dir / "proforma_invoice.txt")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("569\t")


def test_tokens_count_missing_file(tmp_path, capsys):
    assert main(["tokens-count", str(tmp_path / "absent.txt")]) == 2
    assert "file not found" in capsys.readouterr().err


def test_report_emit_writes_everything(tmp_path):
    out = tmp_path / "reports"
    assert main(["report-emit", "--ledger", "bundled", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"scenario_table.md", "reduction_table.md", "token_table.md",
                     "plot_data.json", "bundle.json"}


def test_outputs_byte_identical_across_runs(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for target in (first, second):
        assert main(["report-emit", "--ledger", "bundled", "--format", "json",
                     "--out", str(target)]) == 0
        assert main(["scenario-compare", "--out", str(target / "cmp")]) == 0
        assert main(["usecase-run", "--ledger", "bundled",
                     "--out", str(target / "uc")]) == 0
    assert _read_tree(first) == _read_tree(second)
    assert _read_tree(first / "cmp") == _read_tree(second / "cmp")
    assert _read_tree(first / "uc") == _read_tree(second / "uc")


def test_no_subcommand_shows_help(capsys):
    assert main([]) == 2
    assert "COMMAND" in capsys.readouterr().err


@pytest.mark.parametrize("argv, extra", [
    (["thinking-delta", "1", "2", "3"], "3"),
    (["scenario-compare", "x"], "x"),
    # A -- among the counts is a count too, never argparse's separator.
    (["thinking-delta", "1", "2", "--"], "--"),
    (["thinking-delta", "--", "1", "2"], "2"),
    (["thinking-delta", "1", "--", "2"], "2"),
    (["thinking-delta", "1", "--", "2", "--config", "X"], "2"),
])
def test_extra_arguments_are_reported_by_their_command(tmp_path, monkeypatch, capsys,
                                                       argv, extra):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: docfootprint {argv[0]} [-h]")
    assert captured.err.endswith(
        f"\ndocfootprint {argv[0]}: error: unrecognized arguments: {extra}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, extras", [
    (["--bogus", "scenario-compare"], "--bogus"),
    (["--bogus=1", "thinking-delta", "1", "2"], "--bogus=1"),
    (["--bogus", "scenario-compare", "x"], "--bogus x"),
])
def test_options_before_the_command_are_reported_by_the_top_level_parser(
        tmp_path, monkeypatch, capsys, argv, extras):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: docfootprint [-h]")
    assert captured.err.endswith(f"\ndocfootprint: error: unrecognized arguments: {extras}\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_csv_logging_dataclasses_and_inspect_unloaded():
    # A fresh interpreter: the tests running here have imported all five.
    src_root = str(Path(docfootprint.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, docfootprint.cli; print(sorted("
         "{'csv', 'logging', 'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src_root},
        check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["thinking-delta", "18000", "10000"],
    ["tokens-count", str(FIXTURES_DIR / "proforma_invoice.txt")],
    ["usecase-run", "--ledger", "bundled", "--out", "reports"],
    ["scenario-compare", "--out", "reports"],
], ids=lambda argv: argv[0])
def test_commands_that_print_no_warning_or_hash_leave_logging_and_hashlib_unloaded(
        argv, tmp_path):
    # A fresh interpreter, as for the import above.
    src_root = str(Path(docfootprint.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from docfootprint.cli import main; "
         "code = main(sys.argv[1:]); "
         "print(code, sorted({'logging', 'hashlib'} & set(sys.modules)))", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src_root},
        cwd=tmp_path, check=True)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 []"


_ZERO_LEDGER = {"document": 0, "prompt": 0, "output": 0, "thinking": 0}
_NINES = int("9" * 400)


@pytest.mark.parametrize("argv, ledger, message", [
    (["usecase-run"], _ZERO_LEDGER, "zero total: shares undefined"),
    (["report-emit"], _ZERO_LEDGER, "zero total: shares undefined"),
    (["usecase-run"], dict(_ZERO_LEDGER, document=_NINES), "document must be <= 10**15"),
    (["report-emit"], dict(_ZERO_LEDGER, document=_NINES), "document must be <= 10**15"),
    (["thinking-delta", "1", str(10 ** 28)], None, "thinking_tokens must be <= 10**15"),
    (["thinking-delta", "1", str(_NINES)], None, "thinking_tokens must be <= 10**15"),
    # More digits than int() converts by default.
    (["thinking-delta", "1", "1" * 5000], None, "thinking_tokens must be <= 10**15"),
    (["thinking-delta", "1", "-" + "1" * 5000], None, "thinking_tokens must be >= 0"),
    (["thinking-delta", "x", "1"], None, "base_tokens must be an integer"),
    # Counts that argparse alone would read as options.
    (["thinking-delta", "1", "-1e5"], None, "thinking_tokens must be an integer"),
    (["thinking-delta", "--", "1"], None, "base_tokens must be an integer"),
    (["thinking-delta", "1", "--conf", "--config", str(DEFAULT_CONFIG)],
     None, "thinking_tokens must be an integer"),
], ids=["usecase-zero-total", "report-zero-total", "usecase-huge-count",
        "report-huge-count", "thinking-1e28", "thinking-400-digits", "thinking-5000-digits",
        "thinking-negative-5000-digits", "thinking-not-an-integer", "thinking-dash-exponent",
        "thinking-double-dash", "thinking-option-prefix"])
def test_bad_token_counts_are_input_errors(tmp_path, capsys, argv, ledger, message):
    out = tmp_path / "reports"
    if ledger is not None:
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(ledger))
        argv = [*argv, "--ledger", str(path), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and err.endswith(message + "\n") and err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_counts_at_the_token_ceiling_run(tmp_path):
    ceiling = 10 ** 15
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({name: ceiling for name in _ZERO_LEDGER}))
    assert main(["thinking-delta", str(ceiling), str(ceiling)]) == 0
    for command in ("usecase-run", "report-emit"):
        assert main([command, "--ledger", str(ledger), "--out", str(tmp_path / command)]) == 0


@pytest.mark.parametrize("column, raw", [
    ("quantity", "NaN"), ("quantity", "sNaN"), ("quantity", "Infinity"),
    ("total price", "-Infinity"), ("quantity", "1e26"), ("quantity", "1E+5000"),
    ("total price", "1E+5000"), ("quantity", "1e1000000"),
    ("quantity", "9999999999999.999999999999999999"),
])
def test_out_of_range_invoice_numbers_are_input_errors(tmp_path, capsys, column, raw):
    quantity, total = (raw, "0.00") if column == "quantity" else ("1", raw)
    doc = tmp_path / "invoice.txt"
    doc.write_text(f"ITEM 01 | Widget | {quantity} | 2.00 | {total} | EUR\n")
    out = tmp_path / "reports"
    assert main(["usecase-run", "--document", str(doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: parser: line 1: bad {column}: {raw!r}\n"
    assert not out.exists()


def test_a_huge_invoice_number_gets_one_short_error_line(tmp_path, capsys):
    doc = tmp_path / "invoice.txt"
    doc.write_text(f"ITEM 01 | Widget | {'9' * 1_000_001} | 2.00 | 0.00 | EUR\n")
    out = tmp_path / "reports"
    assert main(["usecase-run", "--document", str(doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: parser: line 1: bad quantity: "
                            f"{'9' * 40!r}... (1000001 characters)\n")
    assert not out.exists()


def _config_copy(tmp_path, data_dir, edit_config=None, edit_manual=None):
    """Copy the bundled config and scenarios into tmp_path, editing two of the files."""
    shutil.copytree(data_dir / "scenarios", tmp_path / "scenarios")
    config = json.loads((data_dir / "config.json").read_text())
    manual = json.loads((data_dir / "scenarios" / "manual.json").read_text())
    # An edit changes its object in place or returns a replacement.
    if edit_config:
        config = edit_config(config) or config
    if edit_manual:
        manual = edit_manual(manual) or manual
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "scenarios" / "manual.json").write_text(json.dumps(manual))
    return tmp_path / "config.json"


def _manual_edit(workforce, **fields):
    """An edit of manual.json that updates its workforce and top-level fields."""
    def edit(scenario):
        scenario["workforce"].update(workforce)
        scenario.update(fields)
    return edit


@pytest.mark.parametrize("edit_config, edit_manual, message", [
    (lambda c: c.update(scenario_profile=[]), None,
     "/scenario_profile: expected str, got list"),
    (None, lambda s: s.update(stages=5), "/scenarios/0: stages: expected list, got int"),
    (None, lambda s: s.update(stages=None),
     "/scenarios/0: stages: expected list, got NoneType"),
    (None, lambda s: s.update(daily_volume=10 ** 400),
     "/scenarios/0: daily_volume: must be finite, got an integer too large for a float"),
    (lambda c: c["profiles"]["flash-prompt-2025"].update(pue=10 ** 400), None,
     "/profiles/flash-prompt-2025: pue: must be finite, got an integer too large for a float"),
    (None, _manual_edit({"per_doc_time_s": [1e-320, 1800]}, operators_override=None),
     "/scenarios/0: throughput: must be finite, got inf"),
    (None, _manual_edit({"buffer": 1e308}, daily_volume=10 ** 10, operators_override=None),
     "/scenarios/0: operators: must be finite, got inf"),
    (None, _manual_edit({"laptop_kwh_per_day": 1e300}, operators_override=[0, 1e10]),
     "/scenarios/0: hi: must be finite, got inf"),
    (None, _manual_edit({"per_doc_time_s": [30000, 40000]}, operators_override=None),
     "/scenarios/0: throughput.lo must be >= 1 (zero throughput)"),
    (lambda c: [c], None, "/: expected a JSON object"),
    (lambda c: c.update(profiles={}), None, "/profiles: expected a non-empty object"),
    (lambda c: c["scenarios"].__setitem__(1, 7), None,
     "/scenarios/1: expected a file path string"),
    (lambda c: c["scenarios"].append(c["scenarios"][0]), None,
     "/scenarios/3: duplicate scenario name 'manual'"),
    (None, _manual_edit({}, daily_volume=1.5), "/scenarios/0: daily_volume must be an integer"),
    (None, _manual_edit({}, stages=[{"name": "", "energy_wh_per_doc": 0.5}]),
     "/scenarios/0: stages[0]: stage name must be a non-empty string"),
    (None, _manual_edit({}, stages=[{"name": "ocr", "energy_wh_per_doc": -0.5}]),
     "/scenarios/0: stages[0]: energy_wh_per_doc must be >= 0"),
    (None, _manual_edit({"shift_hours": 0}), "/scenarios/0: shift_hours must be > 0"),
    (None, _manual_edit({"laptop_kwh_per_day": -0.48}),
     "/scenarios/0: laptop_kwh_per_day must be >= 0"),
    (None, _manual_edit({}, overhead_kwh_per_day=-2.7),
     "/scenarios/0: overhead_kwh_per_day must be >= 0"),
    (None, _manual_edit({}, operators_override=[0, 0], overhead_kwh_per_day=1e-308),
     "/scenarios/1: energy reduction vs manual: lo: must be finite, got inf"),
    (None, _manual_edit({}, name="h\ud800"),
     "/scenarios/0: scenario name 'h\\ud800' does not encode as UTF-8"),
    (lambda c: c["profiles"]["flash-prompt-2025"].update(rate_wh_per_ktok=0), None,
     "/profiles/flash-prompt-2025: rate_wh_per_ktok must be > 0, got 0.0"),
], ids=["profile-binding-list", "stages-int", "stages-null", "huge-volume", "huge-pue",
        "tiny-per-doc-time", "huge-buffer", "energy-overflow", "zero-throughput",
        "config-array", "no-profiles", "scenario-ref-int", "duplicate-scenario",
        "fractional-volume", "empty-stage-name", "negative-stage-energy", "zero-shift",
        "negative-laptop", "negative-overhead", "reduction-overflow", "lone-surrogate-name",
        "zero-rate"])
def test_malformed_config_is_an_input_error(tmp_path, data_dir, capsys,
                                            edit_config, edit_manual, message):
    config = _config_copy(tmp_path, data_dir, edit_config, edit_manual)
    out = tmp_path / "out"
    code = main(["scenario-compare", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_lone_surrogate_scenario_name_writes_nothing(tmp_path, data_dir, capsys, fmt):
    # JSON's "\ud800" escape loads as a lone surrogate, which no output can encode.
    config = _config_copy(tmp_path, data_dir)
    hitl = tmp_path / "scenarios" / "hitl.json"
    hitl.write_text(hitl.read_text().replace('"hitl"', '"h\\ud800"'))
    out = tmp_path / "out"
    argv = ["scenario-compare", "--config", str(config), "--out", str(out), "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: /scenarios/1: scenario name 'h\\ud800' does not encode as UTF-8\n"
    assert captured.out == ""
    assert not out.exists()
    # A surrogate pair escape is one character, and it is written out.
    hitl.write_text(hitl.read_text().replace('"h\\ud800"', '"h\\ud83d\\ude00"'))
    assert main(argv) == 0
    written = "".join(p.read_text(encoding="utf-8") for p in sorted(out.iterdir()))
    assert ("h\\ud83d\\ude00" if fmt == "json" else "h\U0001f600") in written


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_repeated_increase_column_writes_nothing(tmp_path, data_dir, capsys, fmt):
    # Consecutive pairs (z, x_vs_y) and (y_vs_z, x) both name the column "x_vs_y_vs_z".
    def insert_copies(config):
        config["scenarios"][1:1] = [f"scenarios/{name}.json"
                                    for name in ("z", "x_vs_y", "y_vs_z", "x")]
    config = _config_copy(tmp_path, data_dir, insert_copies)
    hitl = json.loads((tmp_path / "scenarios" / "hitl.json").read_text())
    for name in ("z", "x_vs_y", "y_vs_z", "x"):
        (tmp_path / "scenarios" / f"{name}.json").write_text(json.dumps({**hitl, "name": name}))
    out = tmp_path / "out"
    argv = ["scenario-compare", "--config", str(config), "--out", str(out), "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: /scenarios/4: increase column 'x_vs_y_vs_z' "
                            "repeats an earlier one\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("ref, message", [
    ("loop", "file not found: LOOP"),
    ("a\0b", "expected a file path string"),
    ("\ud800x", "'utf-8' codec can't encode character '\\ud800' in position POS: "
                "surrogates not allowed"),
], ids=["symlink-loop", "nul", "lone-surrogate"])
def test_a_scenario_ref_with_no_file_is_an_input_error(tmp_path, data_dir, capsys, ref,
                                                       message):
    """A symlink loop, or a name the file system cannot hold, as the one
    scenario file: one error line after the pointer, exit 2, nothing
    written. POS is where the name starts in the absolute path."""
    (tmp_path / "loop").symlink_to(tmp_path / "loop2")
    (tmp_path / "loop2").symlink_to(tmp_path / "loop")
    config = json.loads((data_dir / "config.json").read_text())
    config["scenarios"] = [ref]
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["scenario-compare", "--config", str(tmp_path / "config.json"),
                 "--out", str(out)]) == 2
    loop = os.path.join(os.path.realpath(tmp_path), "loop")
    message = message.replace("LOOP", loop).replace("POS", str(len(loop) - len("loop")))
    captured = capsys.readouterr()
    assert captured.err == f"error: /scenarios/0: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, prefix", [
    (["scenario-compare", "--config"], "error: /: invalid JSON: "),
    (["usecase-run", "--ledger"], "error: bad ledger file "),
], ids=["config", "ledger"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, argv, prefix):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out"
    assert main([*argv, str(deep), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not out.exists()


# Bytes that do not decode as UTF-8 (a UTF-16 byte-order mark).
_NOT_UTF8 = b"\xff\xfe{\x00}\x00"


def _unreadable_config(tmp_path, data_dir):
    config = tmp_path / "config.json"
    config.write_bytes(_NOT_UTF8)
    return ["scenario-compare", "--config", str(config)], "error: /: invalid JSON: "


def _long_int_config(tmp_path, data_dir):
    # json.dumps cannot write the 5,000-digit integer, so splice it in as text.
    config = _config_copy(tmp_path, data_dir,
                          lambda c: c["profiles"]["flash-prompt-2025"].update(pue="PUE"))
    config.write_text(config.read_text().replace('"PUE"', "1" * 5000))
    return ["scenario-compare", "--config", str(config)], "error: /: invalid JSON: "


def _unreadable_scenario(tmp_path, data_dir):
    config = _config_copy(tmp_path, data_dir)
    (tmp_path / "scenarios" / "manual.json").write_bytes(_NOT_UTF8)
    return (["scenario-compare", "--config", str(config)],
            "error: /scenarios/0: invalid JSON: ")


def _unreadable_text(option):
    def setup(tmp_path, data_dir):
        text = tmp_path / "input.txt"
        text.write_bytes(_NOT_UTF8)
        argv = ["usecase-run", option, str(text)] if option else ["tokens-count", str(text)]
        return argv, f"error: bad text file {text}: 'utf-8' codec can't decode"
    return setup


def _readable_then(setup):
    """tokens-count of a readable file followed by the file setup gives."""
    def setup_both(tmp_path, data_dir):
        good = tmp_path / "good.txt"
        good.write_text("one readable line\n")
        argv, prefix = setup(tmp_path, data_dir)
        return [argv[0], str(good), *argv[1:]], prefix
    return setup_both


def _missing_text(tmp_path, data_dir):
    missing = tmp_path / "missing.txt"
    return ["tokens-count", str(missing)], f"error: file not found: {missing}"


def _not_a_file(command, option, make_dir):
    """command reading a missing path, or a directory, as its option's text."""
    def setup(tmp_path, data_dir):
        path = tmp_path / "input"
        if make_dir:
            path.mkdir()
        return [command, option, str(path)], f"error: file not found: {path}"
    return setup


_NOT_A_FILE = {f"{command}{option}-{kind}": _not_a_file(command, option, kind == "dir")
               for command in ("usecase-run", "report-emit")
               for option in ("--document", "--prompt")
               for kind in ("missing", "dir")}


@pytest.mark.parametrize("setup", [
    _unreadable_config, _long_int_config, _unreadable_scenario,
    _unreadable_text("--document"), _unreadable_text("--prompt"), _unreadable_text(None),
    _readable_then(_unreadable_text(None)), _readable_then(_missing_text),
    *_NOT_A_FILE.values(),
], ids=["config-not-utf8", "config-long-int", "scenario-not-utf8",
        "document-not-utf8", "prompt-not-utf8", "tokens-count-not-utf8",
        "tokens-count-good-then-not-utf8", "tokens-count-good-then-missing", *_NOT_A_FILE])
def test_unreadable_inputs_name_their_source(tmp_path, data_dir, capsys, setup):
    argv, prefix = setup(tmp_path, data_dir)
    out = tmp_path / "out"
    if argv[0] != "tokens-count":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def _run_capped(argv):
    """The CLI run in a child interpreter capped at 256 MB of address
    space, so that reading a huge input ends in a MemoryError at once."""
    resource = pytest.importorskip("resource")
    cap = 256 << 20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {hard}))\n"
             "from docfootprint.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src_root = str(Path(docfootprint.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src_root},
        timeout=60, check=False)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero device")
@pytest.mark.parametrize("option", ["--document", "--prompt"])
def test_an_endless_device_as_text_input_is_an_input_error(tmp_path, option):
    """Reading /dev/zero never ends; under a 256 MB address-space cap it
    ends in a MemoryError, so the run must refuse it before reading.
    Opening a FIFO with no writer blocks, so the run must refuse one
    before opening it."""
    inputs = ["/dev/zero"]
    if hasattr(os, "mkfifo"):
        os.mkfifo(tmp_path / "fifo")
        inputs.append(str(tmp_path / "fifo"))
    out = tmp_path / "out"
    for path in inputs:
        proc = _run_capped(["usecase-run", option, path, "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: file not found: {path}\n"
        assert not out.exists()


@pytest.mark.parametrize("kind", ["dir", "dev-zero", "fifo"])
@pytest.mark.parametrize("argv, message", [
    (["scenario-compare", "--config", "PATH"], "/: file not found: PATH"),
    (["scenario-compare", "--config", "CONFIG"], "/scenarios/0: file not found: PATH"),
    (["usecase-run", "--ledger", "PATH"], "ledger file not found: PATH"),
], ids=["config", "scenario-file", "ledger"])
def test_a_json_input_that_is_no_regular_file_is_an_input_error(tmp_path, data_dir, kind,
                                                                argv, message):
    """PATH is a directory, /dev/zero or a FIFO, and CONFIG names it as
    its one scenario file. The run refuses it before reading, which for
    the device would never end, and before opening, which for the FIFO
    would block; it names it on one line with exit 2."""
    if kind == "dev-zero":
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero device")
        path = Path("/dev/zero")
    elif kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        path = (tmp_path / "input").resolve()
        os.mkfifo(path)
    else:
        path = (tmp_path / "input").resolve()
        path.mkdir()
    config = json.loads((data_dir / "config.json").read_text())
    config["scenarios"] = [str(path)]
    (tmp_path / "config.json").write_text(json.dumps(config))
    names = {"PATH": str(path), "CONFIG": str(tmp_path / "config.json")}
    argv = [names.get(arg, arg) for arg in argv]
    out = tmp_path / "out"
    proc = _run_capped([*argv, "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message.replace('PATH', str(path))}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["usecase-run", "--document", "HUGE"], "file too large to read: HUGE"),
    (["tokens-count", "HUGE"], "file too large to read: HUGE"),
    (["scenario-compare", "--config", "HUGE"], "/: file too large to read: HUGE"),
    (["scenario-compare", "--config", "CONFIG"], "/scenarios/0: file too large to read: HUGE"),
    (["usecase-run", "--ledger", "HUGE"], "ledger file too large to read: HUGE"),
], ids=["usecase-document", "tokens-count", "config", "scenario-file", "ledger"])
def test_a_file_too_large_to_hold_is_an_input_error(tmp_path, data_dir, argv, message):
    """HUGE is a 1 GiB sparse file, which takes no disk space and cannot
    be read under the 256 MB cap; CONFIG names it as its one scenario
    file. The run names the file on one line and exits 2."""
    huge = tmp_path / "huge.json"
    huge.touch()
    os.truncate(huge, 1 << 30)
    config = json.loads((data_dir / "config.json").read_text())
    config["scenarios"] = [huge.name]
    (tmp_path / "config.json").write_text(json.dumps(config))
    names = {"HUGE": str(huge), "CONFIG": str(tmp_path / "config.json")}
    argv = [names.get(arg, arg) for arg in argv]
    out = tmp_path / "out"
    if argv[0] != "tokens-count":
        argv += ["--out", str(out)]
    proc = _run_capped(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message.replace('HUGE', str(huge))}\n"
    assert not out.exists()


def _huge_agentic_volume(config_path):
    agentic = config_path.parent / "scenarios" / "agentic.json"
    obj = json.loads(agentic.read_text())
    obj["daily_volume"] = 10 ** 40
    agentic.write_text(json.dumps(obj))


def _huge_emission_factor(config_path):
    config = json.loads(config_path.read_text())
    config["profiles"]["flash-prompt-2025"]["emission_factor_g_per_kwh"] = 1e300
    config_path.write_text(json.dumps(config))


@pytest.mark.parametrize("edit, argv, value", [
    (_huge_agentic_volume, ["scenario-compare"], "-3.705234159779614e+37"),
    (_huge_emission_factor, ["thinking-delta", "1", "1000"], "2.4e+296"),
    (_huge_emission_factor, ["scenario-compare"], "3.63E+298"),
], ids=["scenario-compare-huge-volume", "thinking-delta-huge-emission-factor",
        "scenario-compare-huge-emission-factor"])
def test_values_too_large_to_present_are_input_errors(tmp_path, data_dir, capsys,
                                                      edit, argv, value):
    config = _config_copy(tmp_path, data_dir)
    edit(config)
    out = tmp_path / "out"
    argv = [*argv, "--config", str(config)]
    if argv[0] == "scenario-compare":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: value too large to present: {value}\n"
    assert captured.out == ""
    assert not out.exists()


def _overflowing_co2(config):
    config["profiles"]["usecase-2025"].update(rate_wh_per_ktok=1000,
                                             emission_factor_g_per_kwh=1e308)


@pytest.mark.parametrize("command", ["usecase-run", "report-emit"])
def test_a_co2_figure_past_the_float_range_is_an_input_error(tmp_path, data_dir, capsys,
                                                              command):
    """1e308 g/kWh times the bundled ledger's energy overflows to inf,
    which JSON cannot hold, so nothing is written."""
    config = _config_copy(tmp_path, data_dir, edit_config=_overflowing_co2)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--ledger", "bundled",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: co2_g: must be finite, got inf\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("volume", [0, 10])
def test_a_stage_energy_sum_past_the_float_range_is_an_input_error(tmp_path, data_dir, capsys,
                                                                    volume):
    def overflowing_stages(manual):
        manual.update(daily_volume=volume, stages=[
            {"name": f"s{i}", "energy_wh_per_doc": 1.7e308} for i in range(2000)])

    config = _config_copy(tmp_path, data_dir, edit_manual=overflowing_stages)
    out = tmp_path / "out"
    assert main(["scenario-compare", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: /scenarios/0: stages: summed energy_wh_per_doc "
                            "overflows the float range\n")
    assert captured.out == ""
    assert not out.exists()


def test_missing_key_error_independent_of_hash_seed(tmp_path, data_dir):
    def drop_two(config):
        profile = config["profiles"]["flash-prompt-2025"]
        del profile["pue"], profile["co2_per_prompt_g"]
    config = _config_copy(tmp_path, data_dir, edit_config=drop_two)
    src_root = str(Path(docfootprint.__file__).resolve().parents[1])
    errors = set()
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src_root}
        proc = subprocess.run(
            [sys.executable, "-m", "docfootprint.cli", "scenario-compare",
             "--config", str(config), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 2
        errors.add(proc.stderr)
    assert errors == {"error: /profiles/flash-prompt-2025: pue: missing required key\n"}


def test_document_without_items_warns_on_stderr(tmp_path):
    # A fresh process: in-process, pytest's log capture owns the root logger.
    doc = tmp_path / "notes.txt"
    doc.write_text("Just prose, no ITEM rows.\n")
    src_root = str(Path(docfootprint.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "docfootprint.cli", "usecase-run",
         "--document", str(doc), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src_root},
        check=False)
    assert proc.returncode == 0
    assert proc.stderr == "WARNING no invoice line items matched; returning empty result\n"
