"""Byte-for-byte pins of every CLI output.

Each case runs `cli.main` in-process from an empty working directory
with `--out reports`, then compares stdout and every written file with
the copies under tests/golden/<case>/. The `--help` text of the top
level and of each subcommand, wrapped at 80 columns, is pinned under
tests/golden/help/. The golden files are the reference outputs; a
refactor must leave all of them unchanged.
"""

import shutil
from pathlib import Path

import pytest

from docfootprint.cli import FIXTURES_DIR, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_LEDGERS = {"bundled": ["--ledger", "bundled"], "estimated": []}

CASES = {
    **{f"scenario-compare-{fmt}": ["scenario-compare", "--out", "reports", "--format", fmt]
       for fmt in ("markdown", "csv", "json")},
    **{f"report-emit-{fmt}-{ledger}": ["report-emit", *flags, "--out", "reports",
                                       "--format", fmt]
       for fmt in ("markdown", "csv", "json") for ledger, flags in _LEDGERS.items()},
    **{f"usecase-run-{ledger}": ["usecase-run", *flags, "--out", "reports"]
       for ledger, flags in _LEDGERS.items()},
    "thinking-delta-18000-10000": ["thinking-delta", "18000", "10000"],
    "thinking-delta-0-5": ["thinking-delta", "0", "5"],
    "tokens-count": ["tokens-count", "proforma_invoice.txt", "extraction_prompt.txt"],
}


def run_case(argv, workdir: Path, monkeypatch, capsys) -> dict[str, bytes]:
    """Run one CLI case in workdir; return stdout and written files by relative path."""
    for name in ("proforma_invoice.txt", "extraction_prompt.txt"):
        shutil.copyfile(FIXTURES_DIR / name, workdir / name)
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    outputs = {"stdout.txt": captured.out.encode("utf-8")}
    reports = workdir / "reports"
    if reports.is_dir():
        for path in sorted(reports.rglob("*")):
            outputs[path.relative_to(workdir).as_posix()] = path.read_bytes()
    return outputs


def _golden(case: str) -> dict[str, bytes]:
    root = GOLDEN_DIR / case
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    produced = run_case(CASES[case], tmp_path, monkeypatch, capsys)
    expected = _golden(case)
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, f"{case}: {name} differs from its golden copy"


HELP_CASES = ["docfootprint", "scenario-compare", "usecase-run", "thinking-delta",
              "tokens-count", "report-emit"]


@pytest.mark.parametrize("command", HELP_CASES)
def test_help_matches_golden(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [] if command == "docfootprint" else [command]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN_DIR / "help" / f"{command}.txt").read_bytes()
