"""Command line interface.

Subcommands map onto the three modeled experiments: scenario-compare
(workforce footprints and reductions), usecase-run (the extraction
pipeline with token accounting), and thinking-delta (marginal cost of
reasoning tokens), plus tokens-count and report-emit utilities.

Exit codes are a stable contract: 0 success, 2 input error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .core import _MAX_TOKENS, thinking_delta
from .pipeline import (
    COMPLEXITY_NORMALIZATION_FACTOR,
    THINKING_NORMALIZATION_FACTOR,
    TokenLedger,
    _has_item_rows,
    count_tokens,
    normalize_energy,
    ledger_shares,
    render_output_json,
    run_pipeline,
)
from .reporting import (
    FORMATS,
    TABLES,
    _parse_json,
    _read_input,
    build_bundle,
    emit_bundle_json,
    emit_plot_data,
    emit_table,
    load_config,
    present,
)

DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_CONFIG = DATA_DIR / "config.json"
FIXTURES_DIR = DATA_DIR / "fixtures"

_TABLE_EXT = {"markdown": "md", "csv": "csv", "json": "json"}


def _print(text: str) -> None:
    """print(text), with what stdout cannot encode, such as an undecodable
    byte of a file name, escaped as stderr escapes it (backslashreplace)."""
    try:
        print(text)
    except UnicodeEncodeError as exc:
        print(text.encode(exc.encoding, "backslashreplace").decode(exc.encoding))


def _write(out_dir: Path, filename: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / filename
    target.write_text(text, encoding="utf-8")
    _print(f"wrote {target}")


def _token_arg(text: str) -> int | str:
    """A command-line token count: its int, or the text when it is not one.

    thinking_delta checks the value, so every bad count gets its
    one-line message there. int() refuses more than 4,300 digits; a
    count that long is out of range, so it comes back as the nearest
    value outside the range on its side.
    """
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?\d+\s*", text):
            return text
        return -1 if text.strip().startswith("-") else _MAX_TOKENS + 1


def _count_positions(argv: list[str]) -> list[int]:
    """Where thinking-delta's counts stand in its argv (argv[0] names it).

    argparse reads an argument that starts with "-" and is no plain
    negative number (-1e5, -x) as an option, and -- as the end of the
    options. Here only the subcommand's own options, spelled in full,
    are options, the argument after --config or --profile is its value,
    and every other argument is a count, whatever its first character.
    """
    positions, i = [], 1
    while i < len(argv):
        if argv[i] in ("--config", "--profile"):
            i += 1
        elif argv[i] not in ("-h", "--help") and not argv[i].startswith(("--config=",
                                                                          "--profile=")):
            positions.append(i)
        i += 1
    return positions


def _profile_from(config, name: str | None, default_binding: str):
    chosen = name if name is not None else default_binding
    if chosen not in config.profiles:
        raise ValueError(
            f"unknown profile {chosen!r}; choices: {', '.join(sorted(config.profiles))}")
    return config.profiles[chosen]


def _cmd_scenario_compare(args) -> int:
    config = load_config(args.config)
    bundle = build_bundle(config, args.baseline)
    out_dir = Path(args.out)
    if args.format == "json":
        _write(out_dir, "bundle.json", emit_bundle_json(bundle))
    else:
        ext = _TABLE_EXT[args.format]
        _write(out_dir, f"scenario_table.{ext}", emit_table(bundle, "scenario_table", args.format))
        _write(out_dir, f"reduction_table.{ext}", emit_table(bundle, "reduction_table", args.format))
    return 0


def _run_usecase(args):
    config = load_config(args.config)
    profile = _profile_from(config, args.profile, config.usecase_profile)
    document = _read_input(Path(args.document))
    if not _has_item_rows(document):
        # The pipeline logs only for a document with no item rows, so
        # only then is logging imported and its stderr handler set up.
        import logging

        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    prompt = _read_input(Path(args.prompt))
    ledger = None
    if args.ledger is not None:
        path = FIXTURES_DIR / "ledger.json" if args.ledger == "bundled" else Path(args.ledger)
        ledger = _read_input(path, lambda text: TokenLedger.from_json_obj(_parse_json(text)),
                             "bad ledger file {path}", "ledger file")
    result = run_pipeline(document, prompt, profile, ledger_override=ledger)
    return config, profile, result


def _usecase_report_obj(profile, result) -> dict:
    energy_kwh = result.footprint.energy.kwh
    water = result.footprint.water.liters
    failures = [r.item_id for r in result.verification if not r.ok]
    return {
        "profile": profile.name,
        "ledger": {**result.ledger.to_json_obj(), "total": result.ledger.total()},
        "shares_pct": ledger_shares(result.ledger),
        "thinking_to_output_ratio": result.ledger.thinking_to_output_ratio(),
        "footprint": {
            "energy_kwh": energy_kwh,
            "co2_g": result.footprint.co2.grams,
            "water_l": [water.lo, water.hi],
        },
        "normalized_energy_kwh": normalize_energy(
            energy_kwh, THINKING_NORMALIZATION_FACTOR, COMPLEXITY_NORMALIZATION_FACTOR),
        "normalization_factors": {
            "thinking": THINKING_NORMALIZATION_FACTOR,
            "complexity": COMPLEXITY_NORMALIZATION_FACTOR,
        },
        "verification": {"items": len(result.verification), "failures": failures},
    }


def _cmd_usecase_run(args) -> int:
    config, profile, result = _run_usecase(args)
    report = json.dumps(_usecase_report_obj(profile, result), indent=2) + "\n"
    out_dir = Path(args.out)
    _write(out_dir, "extraction_output.json", render_output_json(result.items))
    _write(out_dir, "usecase_report.json", report)
    failures = [r for r in result.verification if not r.ok]
    for record in failures:
        print(f"verification failed: {record.item_id} (delta {record.delta})", file=sys.stderr)
    return 3 if failures else 0


def _cmd_thinking_delta(args) -> int:
    config = load_config(args.config)
    profile = _profile_from(config, args.profile, config.scenario_profile)
    delta = thinking_delta(args.base_tokens, args.thinking_tokens, profile)
    pct = ("undefined (base tokens = 0)" if delta.pct_increase is None
           else str(present(delta.pct_increase, 1)))
    # Present every figure before printing any, so a value too large to
    # present leaves stdout empty.
    lines = [f"delta_energy_wh: {delta.delta_energy_wh}",
             f"pct_increase: {pct}",
             f"delta_co2_g: {present(delta.delta_co2_g, 2)}",
             f"delta_water_ml: {present(delta.delta_water_ml.lo, 2)}"
             f" -- {present(delta.delta_water_ml.hi, 2)}"]
    print("\n".join(lines))
    return 0


def _cmd_tokens_count(args) -> int:
    # Count every file before printing any, so a bad file leaves stdout empty.
    lines = [f"{count_tokens(_read_input(Path(name)))}\t{name}" for name in args.files]
    _print("\n".join(lines))
    return 0


def _cmd_report_emit(args) -> int:
    config, profile, result = _run_usecase(args)
    bundle = build_bundle(config, args.baseline, usecase=result)
    out_dir = Path(args.out)
    ext = _TABLE_EXT[args.format]
    for table in TABLES:
        _write(out_dir, f"{table}.{ext}", emit_table(bundle, table, args.format))
    _write(out_dir, "plot_data.json", emit_plot_data(bundle))
    _write(out_dir, "bundle.json", emit_bundle_json(bundle))
    return 0


def _add_common_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=str(DEFAULT_CONFIG),
                        help="config file (default: bundled reproduction config)")


def _add_usecase_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--document", default=str(FIXTURES_DIR / "proforma_invoice.txt"),
                        help="invoice document (default: bundled fixture)")
    parser.add_argument("--prompt", default=str(FIXTURES_DIR / "extraction_prompt.txt"),
                        help="extraction prompt (default: bundled fixture)")
    parser.add_argument("--ledger", default=None,
                        help="measured token ledger JSON; 'bundled' selects the "
                             "packaged ledger; omit to estimate counts")
    parser.add_argument("--profile", default=None,
                        help="profile name (default: the config's usecase binding)")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="docfootprint",
        # 3.13 would put each command's help beside its name; this keeps
        # the 3.10-3.12 layout on every version.
        formatter_class=lambda prog: argparse.HelpFormatter(prog, max_help_position=20),
        description="Energy, CO2, and water footprint modeling for "
                    "document-processing workflows.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("scenario-compare",
                       help="evaluate scenarios and compare against a baseline")
    _add_common_config(p)
    p.add_argument("--baseline", default="manual", help="baseline scenario name")
    p.add_argument("--out", default="reports", help="output directory")
    p.add_argument("--format", default="markdown", choices=FORMATS)
    p.set_defaults(func=_cmd_scenario_compare)

    p = sub.add_parser("usecase-run",
                       help="run the extraction pipeline and report its footprint")
    _add_common_config(p)
    _add_usecase_inputs(p)
    p.add_argument("--out", default="reports", help="output directory")
    p.set_defaults(func=_cmd_usecase_run)

    p = sub.add_parser("thinking-delta", allow_abbrev=False,
                       help="marginal energy/CO2/water of reasoning tokens")
    p.add_argument("base_tokens")
    p.add_argument("thinking_tokens")
    _add_common_config(p)
    p.add_argument("--profile", default=None,
                   help="profile name (default: the config's scenario binding)")
    p.set_defaults(func=_cmd_thinking_delta)

    p = sub.add_parser("tokens-count", help="estimate token counts for text files")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=_cmd_tokens_count)

    p = sub.add_parser("report-emit", help="emit every table plus plot data")
    _add_common_config(p)
    _add_usecase_inputs(p)
    p.add_argument("--baseline", default="manual", help="baseline scenario name")
    p.add_argument("--out", default="reports", help="output directory")
    p.add_argument("--format", default="markdown", choices=FORMATS)
    p.set_defaults(func=_cmd_report_emit)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    counts = []
    if argv[:1] == ["thinking-delta"]:
        # argparse checks the command's shape with stand-ins for the
        # counts, and the counts themselves are read below. Its only
        # extras are then the stand-ins past the second, named as typed.
        positions = _count_positions(argv)
        counts = [argv[i] for i in positions]
        for i in positions:
            argv[i] = "0"
    args, extras = parser.parse_known_args(argv)
    if extras:
        extras = counts[2:] or extras
        # Extras before the command (only unknown options can stand there)
        # were left by the top-level parser, which then reports them all,
        # as parse_args would. Otherwise the chosen command reports its
        # own, with its own usage. Either exits 2.
        leading = argv[:argv.index(args.command)] if args.command in argv else argv
        (parser if leading else commands[args.command]).error(
            f"unrecognized arguments: {' '.join(extras)}")
    if counts:
        args.base_tokens, args.thinking_tokens = map(_token_arg, counts)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ConfigError and InvoiceParseError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
