"""Mutation catalogue: small changes to the source that the tests must notice.

Each entry names a module under src/docfootprint, a source fragment that
must occur there exactly once, its replacement, and a witness test that
fails on the mutant, which shows the mutant is not equivalent. For each
entry, one at a time, the script copies the checkout into a temporary
directory, applies the replacement and runs

    python -m pytest -x -q -p no:cacheprovider

there, first on the witness and, if the witness passes, on the whole
suite. It reports every mutant as killed, with the test that killed it,
or as survived.

Usage: python tests/mutants.py

It exits 1 if a fragment does not occur exactly once, if a mutant
survives, or if a test other than its witness killed it; a refactor
that moves a fragment or a witness updates the entry.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# What the suite reads: the package, the tests, perfbench/gen.py and the README.
COPIED = ("pyproject.toml", "README.md", "src", "tests", "perfbench")


class Mutant(NamedTuple):
    name: str
    module: str
    fragment: str
    replacement: str
    witness: str


CATALOGUE = [
    Mutant("half-up-bound-1e12", "core",
           "if a < 1048576.0:", "if a < 1e12:",
           "tests/test_reporting.py::test_ties_above_2_31_follow_the_decimal_rule"),
    Mutant("half-up-narrow-tie-window", "core",
           "0.499999 <= r <= 0.500001", "0.49999999999 <= r <= 0.50000000001",
           "tests/test_reporting.py::"
           "test_tenths_and_percent_cells_follow_the_decimal_rule_at_the_edges"),
    Mutant("half-up-rounds-half-even", "core",
           "value.quantize(_ONE.scaleb(-places), ROUND_HALF_UP)",
           'value.quantize(_ONE.scaleb(-places), "ROUND_HALF_EVEN")',
           "tests/test_reporting.py::"
           "test_tenths_and_percent_cells_follow_the_decimal_rule_near_every_hundredth"),
    Mutant("half-up-ignores-places", "core",
           "value.quantize(_ONE.scaleb(-places), ROUND_HALF_UP).scaleb(places)",
           "value.quantize(_ONE.scaleb(-1), ROUND_HALF_UP).scaleb(1)",
           "tests/test_cli.py::test_thinking_delta_reference_output"),
    Mutant("half-up-decimal-through-float", "core",
           "value = x if isinstance(x, Decimal) else Decimal(repr(x))",
           "value = Decimal(repr(float(x)))",
           "tests/test_reporting.py::test_values_too_large_to_present_are_named_in_one_message"),
    Mutant("json-endpoint-lets-nan-through", "core",
           "if type(value) is float and value - value == 0.0:",
           "if type(value) is float:",
           "tests/test_core.py::test_validation_outcomes_match_the_pinned_digest"),
    Mutant("energy-low-subtracts-cloud", "scenarios",
           "(ops_lo * laptop + cloud) + overhead", "(ops_lo * laptop - cloud) + overhead",
           "tests/test_properties.py::test_computed_intervals_are_trusted"),
    Mutant("operators-low-floored", "scenarios",
           "lo = math.ceil(s.daily_volume / tp_hi * w.buffer)",
           "lo = math.floor(s.daily_volume / tp_hi * w.buffer)",
           "tests/test_scenarios.py::test_evaluate_and_compare_match_the_composed_formulas"),
    Mutant("stage-sum-in-floats", "scenarios",
           "total = float(total_wh / _WH_PER_KWH)",
           "total = sum(s.energy_wh_per_doc for s in stages) / 1000.0",
           "tests/test_scenarios.py::test_cloud_energy_per_doc_sums_in_decimal"),
    Mutant("stage-fast-path-any-size", "scenarios",
           "type(raw) is dict and len(raw) == 2 and", "type(raw) is dict and",
           "tests/test_scenarios.py::test_scenario_json_builds_as_through_json_fields"),
    Mutant("override-allows-minus-one", "scenarios",
           "if ov.lo < 0 or", "if ov.lo < -1 or",
           "tests/test_reporting.py::"
           "test_negative_operators_override_is_rejected_where_it_is_read"),
    Mutant("lines-split-at-newline-only", "pipeline",
           "enumerate(document.splitlines(), start=1)",
           'enumerate(document.split("\\n"), start=1)',
           "tests/test_pipeline.py::test_warn_condition_is_an_empty_parse"),
    Mutant("field-parse-skips-currency", "pipeline",
           "    if not _CURRENCY.fullmatch(currency):\n"
           '        raise InvoiceParseError(line_number, f"bad currency code: '
           '{_quoted(currency)}")\n', "",
           "tests/test_pipeline.py::test_pattern_rows_parse_as_field_by_field"),
    Mutant("cent-tolerance-strict", "pipeline",
           "abs(delta) <= _CENT", "abs(delta) < _CENT",
           "tests/test_pipeline.py::test_verify_items_tolerance_boundary"),
    Mutant("quantity-normalized-in-default-context", "pipeline",
           "q.normalize(_EXACT)", "q.normalize()",
           "tests/test_pipeline.py::test_long_quantity_renders_as_verified"),
    Mutant("ledger-shares-truncated", "pipeline",
           "shares[name] = _half_up(pct) / 10", "shares[name] = int(pct * 10) / 10",
           "tests/test_pipeline.py::test_ledger_shares_reference"),
    Mutant("co2-left-unchecked", "pipeline",
           'co2 = _require_number(co2_from_energy(kwh, profile.emission_factor_g_per_kwh), "co2_g")',
           "co2 = co2_from_energy(kwh, profile.emission_factor_g_per_kwh)",
           "tests/test_cli.py::test_a_co2_figure_past_the_float_range_is_an_input_error"),
    Mutant("ledger-named-as-file", "cli",
           '"ledger file", "bad ledger file"', '"file", "bad ledger file"',
           "tests/test_cli.py::test_a_file_too_large_to_hold_is_an_input_error"),
    Mutant("scenario-file-read-unchecked", "reporting",
           "if not S_ISREG(st.st_mode):", "if False:",
           "tests/test_cli.py::test_a_json_input_that_is_no_regular_file_is_an_input_error"),
    Mutant("reader-skips-newline-translation", "reporting",
           '    if "\\r" in text:\n'
           '        text = text.replace("\\r\\n", "\\n").replace("\\r", "\\n")\n', "",
           "tests/test_reporting.py::test_load_config_reads_scenario_files_as_before"),
    Mutant("reader-swallows-every-stat-error", "reporting",
           "if exc.errno not in _MISSING_ERRNOS:", "if False:",
           "tests/test_reporting.py::test_read_regular_matches_is_file_and_read_text"),
    Mutant("reader-stops-at-stat-size", "reporting",
           "        while chunk := os.read(fd, 256):\n"
           "            chunks.append(chunk)\n", "",
           "tests/test_reporting.py::test_read_regular_reads_past_the_size_its_stat_gave"),
    Mutant("pointer-dropped", "reporting",
           'raise ConfigError(f"{prefix}{exc}") from None', "raise ConfigError(str(exc)) from None",
           "tests/test_reporting.py::test_load_config_rejects_low_pue"),
    Mutant("negative-percent-rounds-up", "reporting",
           "(t + 5) // 10 if t >= 0 else -((5 - t) // 10)", "(t + 5) // 10",
           "tests/test_reporting.py::"
           "test_tenths_and_percent_cells_follow_the_decimal_rule_near_every_hundredth"),
    Mutant("markdown-keeps-line-breaks", "reporting",
           'return _LINE_BREAK.sub("<br>", name.replace("|", "\\\\|"))',
           'return name.replace("|", "\\\\|")',
           "tests/test_reporting.py::test_markdown_escapes_pipes_and_line_breaks_in_names"),
    Mutant("co2-from-unrounded-energy", "reporting",
           "c0, c1 = _half_up(d0 * ef), _half_up(d1 * ef)",
           "c0, c1 = _half_up(_dec(fp.energy_kwh.lo) * ef), _half_up(_dec(fp.energy_kwh.hi) * ef)",
           "tests/test_reporting.py::test_emitted_texts_match_their_pinned_digests"),
    Mutant("small-cells-up-to-1e17", "reporting",
           "_SMALL_TENTHS = 10**15", "_SMALL_TENTHS = 10**17",
           "tests/test_reporting.py::test_emitted_texts_match_their_pinned_digests"),
    Mutant("midpoint-always-from-tenths", "reporting",
           "mids = [float((lo + hi) / 2) for lo, hi in zip(dec[::2], dec[1::2])]",
           "mids = [(lo + hi) / 20 for lo, hi in zip(tenths[::2], tenths[1::2])]",
           "tests/test_reporting.py::test_emitted_texts_match_their_pinned_digests"),
    Mutant("empty-map-as-array", "reporting",
           "if text else brackets", 'if text else "[]"',
           "tests/test_reporting.py::test_json_texts_are_canonical_indent_2"),
    Mutant("increase-column-owned-by-earlier-scenario", "reporting",
           'columns.append((b, key, "_increase"', 'columns.append((a, key, "_increase"',
           "tests/test_reporting.py::test_repeated_markdown_header_names_the_later_scenario"),
    Mutant("template-one-level-shallow", "reporting",
           'return "  " * depth + text.replace("\\n", "\\n" + "  " * depth)',
           'return "  " * (depth - 1) + text.replace("\\n", "\\n" + "  " * (depth - 1))',
           "tests/test_reporting.py::test_emitted_texts_match_their_pinned_digests"),
]


def _source(mutant: Mutant) -> Path:
    return Path("src") / "docfootprint" / f"{mutant.module}.py"


def _first_failure(output: str) -> str | None:
    """The node id of the first failed or erroring test in pytest's summary."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else None


def _pytest(workdir: Path, *args: str) -> str | None:
    """The test that failed first in a run in workdir, or None if all passed."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *args], cwd=workdir, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode == 0:
        return None
    return _first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def run(mutant: Mutant) -> str | None:
    """The test that killed mutant, witness first, or None if it survived."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        workdir = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, workdir / name)
        path = workdir / _source(mutant)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
        return _pytest(workdir, mutant.witness) or _pytest(workdir)


def main() -> int:
    stale = [m for m in CATALOGUE
             if (ROOT / _source(m)).read_text(encoding="utf-8").count(m.fragment) != 1]
    for m in stale:
        print(f"stale    {m.name}: its fragment does not occur exactly once in {_source(m)}")
    if stale:
        return 1
    bad = 0
    for m in CATALOGUE:
        start = time.perf_counter()
        killer = run(m)
        seconds = time.perf_counter() - start
        if killer is None:
            print(f"survived {m.name} ({seconds:.1f} s)")
            bad += 1
        elif killer.split("[")[0] != m.witness:
            print(f"killed   {m.name} by {killer}, not by its witness ({seconds:.1f} s)")
            bad += 1
        else:
            print(f"killed   {m.name} by {killer} ({seconds:.1f} s)")
        sys.stdout.flush()
    print(f"{len(CATALOGUE) - bad} of {len(CATALOGUE)} mutants killed by their witness")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
