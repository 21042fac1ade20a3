"""Byte-for-byte pins of every CLI output.

Each case runs `cli.main` in-process from a working directory holding
only the bundled fixtures and the input documents and configs under
tests/golden/inputs/, with `--out reports`. It then compares stdout,
every written file, stderr (stderr.txt, present only when not empty)
and the exit code (exit_code.txt, present only when not 0) with the
copies under tests/golden/<case>/. A case that writes no file must
leave no reports directory either. The `--help` text of the top
level and of each subcommand, wrapped at 80 columns, is pinned under
tests/golden/help/. The golden files are the reference outputs; a
refactor must leave all of them unchanged. tests/installed_goldens.py
checks the same cases and help texts against the installed console
script.
"""

import shutil
from pathlib import Path

import pytest

from docfootprint.cli import FIXTURES_DIR, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
INPUTS_DIR = GOLDEN_DIR / "inputs"

_LEDGERS = {"bundled": ["--ledger", "bundled"], "estimated": []}

CASES = {
    **{f"scenario-compare-{fmt}": ["scenario-compare", "--out", "reports", "--format", fmt]
       for fmt in ("markdown", "csv", "json")},
    # Scenarios without operators_override: the operator counts come
    # from the throughput formula, not from the config.
    **{f"scenario-compare-config-{fmt}": ["scenario-compare", "--config",
                                          "no_override_config.json", "--out", "reports",
                                          "--format", fmt]
       for fmt in ("markdown", "csv", "json")},
    **{f"report-emit-{fmt}-{ledger}": ["report-emit", *flags, "--out", "reports",
                                       "--format", fmt]
       for fmt in ("markdown", "csv", "json") for ledger, flags in _LEDGERS.items()},
    **{f"usecase-run-{ledger}": ["usecase-run", *flags, "--out", "reports"]
       for ledger, flags in _LEDGERS.items()},
    "thinking-delta-18000-10000": ["thinking-delta", "18000", "10000"],
    "thinking-delta-0-5": ["thinking-delta", "0", "5"],
    "thinking-delta-0-0": ["thinking-delta", "0", "0"],
    "usecase-run-malformed": ["usecase-run", "--document", "malformed_invoice.txt",
                              "--out", "reports"],
    "usecase-run-wrong-total": ["usecase-run", "--document", "wrong_total_invoice.txt",
                                "--out", "reports"],
    "tokens-count": ["tokens-count", "proforma_invoice.txt", "extraction_prompt.txt"],
}


def copy_inputs(workdir: Path) -> None:
    """Put the bundled fixtures and every file under inputs/ in workdir."""
    for name in ("proforma_invoice.txt", "extraction_prompt.txt"):
        shutil.copyfile(FIXTURES_DIR / name, workdir / name)
    for path in INPUTS_DIR.iterdir():
        shutil.copyfile(path, workdir / path.name)


def outputs(workdir: Path, stdout: bytes, stderr: bytes, code: int) -> dict[str, bytes]:
    """A case's outputs by golden file name, given what its run in workdir printed."""
    produced = {"stdout.txt": stdout}
    if stderr:
        produced["stderr.txt"] = stderr
    if code != 0:
        produced["exit_code.txt"] = f"{code}\n".encode("utf-8")
    reports = workdir / "reports"
    if reports.is_dir():
        written = sorted(reports.rglob("*"))
        for path in written:
            produced[path.relative_to(workdir).as_posix()] = path.read_bytes()
        if not written:
            # An empty reports directory; no golden case has one.
            produced["reports/"] = b""
    return produced


def run_case(argv, workdir: Path, monkeypatch, capsys) -> dict[str, bytes]:
    """Run one CLI case in workdir; return its outputs by golden file name."""
    copy_inputs(workdir)
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return outputs(workdir, captured.out.encode("utf-8"), captured.err.encode("utf-8"), code)


def golden(case: str) -> dict[str, bytes]:
    """The golden files of a case, by their path under its directory."""
    root = GOLDEN_DIR / case
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    produced = run_case(CASES[case], tmp_path, monkeypatch, capsys)
    expected = golden(case)
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
