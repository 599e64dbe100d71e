"""Command-line front end: parse, validate, analyze, report.

Exit codes are part of the interface and stay stable:

    0  success
    1  validation or analysis errors in the inputs
    2  usage error (bad flags or arguments)
    3  I/O or data-format error (unreadable file, bad catalog)

Machine-readable output goes to standard output; diagnostics and error
messages go to standard error. Commands never write to any file except
the ledger path given to ``ledger``. The STPA_LOC_CATALOG environment
variable points ``prompts`` at a replacement catalog file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import analysis, catalog as catalog_mod, report
from .dsl import parse_model, parse_scenarios
from .model import (
    AiCharacteristic,
    ControlStructureModel,
    Diagnostic,
    format_diagnostic,
    has_errors,
    validate_model,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3

_DIRECTIONS = {
    "effect-to-cause": report.TableDirection.EFFECT_TO_CAUSE,
    "cause-to-effect": report.TableDirection.CAUSE_TO_EFFECT,
}


def _fail(message: str, code: int) -> int:
    print(f"stpa-loc: error: {message}", file=sys.stderr)
    return code


def _print_diagnostics(diagnostics: list[Diagnostic], file: str) -> None:
    for diag in diagnostics:
        print(format_diagnostic(diag, default_file=file), file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # undecodable input is an unreadable file: exit 3, not a traceback
        raise OSError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_valid_model(path: str) -> tuple[ControlStructureModel | None, int]:
    """Parse and validate; on failure report and return the exit code."""
    try:
        source = _read_text(path)
    except OSError as exc:
        return None, _fail(str(exc), EXIT_IO)
    model, diagnostics = parse_model(source, file=path)
    diagnostics = diagnostics + validate_model(model)
    _print_diagnostics(diagnostics, path)
    if has_errors(diagnostics):
        return None, EXIT_INVALID
    return model, EXIT_OK


def _timestamp(text: str) -> datetime:
    try:
        value = datetime.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an ISO-8601 timestamp"
        ) from None
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value


def _characteristic(text: str) -> AiCharacteristic:
    try:
        return AiCharacteristic(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an AI characteristic token"
        ) from None


def _load_catalog() -> catalog_mod.Catalog:
    override = os.environ.get("STPA_LOC_CATALOG")
    return catalog_mod.load_catalog(override if override else None)


# --------------------------------------------------------------------------
# Commands


def cmd_validate(args: argparse.Namespace) -> int:
    _, code = _load_valid_model(args.model)
    return code


def cmd_ucas(args: argparse.Namespace) -> int:
    model, code = _load_valid_model(args.model)
    if model is None:
        return code
    ucas = analysis.enumerate_ucas(model)
    if args.confirmed_only:
        ucas = [uca for uca in ucas if uca.is_confirmed]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(["id", "control_action", "uca_type", "context", "hazards", "status"])
    for uca in ucas:
        writer.writerow(
            [
                uca.id,
                uca.control_action,
                uca.uca_type.token,
                uca.context,
                ";".join(sorted(uca.hazards)),
                uca.status,
            ]
        )
    sys.stdout.write(out.getvalue())
    return EXIT_OK


def cmd_prompts(args: argparse.Namespace) -> int:
    model, code = _load_valid_model(args.model)
    if model is None:
        return code
    try:
        cat = _load_catalog()
    except catalog_mod.CatalogFormatError as exc:
        return _fail(f"bad catalog: {exc}", EXIT_IO)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    prompts = catalog_mod.generate_prompts(cat, model)
    if args.component is not None:
        prompts = [p for p in prompts if p.component_id == args.component]
    if args.characteristic is not None:
        prompts = [
            p
            for p in prompts
            if args.characteristic in cat[p.catalog_ref].ai_characteristics
        ]
    for prompt in prompts:
        sys.stdout.write(f"{prompt.catalog_ref}\t{prompt.component_id}\t{prompt.question}\n")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    model, code = _load_valid_model(args.model)
    if model is None:
        return code
    try:
        source = _read_text(args.scenarios)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    scenarios, diagnostics = parse_scenarios(source, model, file=args.scenarios)
    _print_diagnostics(diagnostics, args.scenarios)
    if has_errors(diagnostics):
        return EXIT_INVALID
    direction = _DIRECTIONS[args.direction]
    try:
        rows = report.build_table(
            scenarios, model, direction, include_loss=args.include_loss
        )
    except analysis.DanglingReference as exc:
        return _fail(str(exc), EXIT_INVALID)
    if args.format == "csv":
        sys.stdout.write(report.render_csv(rows, direction))
    elif args.format == "md":
        sys.stdout.write(report.render_markdown(rows, direction))
    else:
        sys.stdout.write(report.render_json(rows, direction, model))
    return EXIT_OK


def _load_ledger(path: str, model: ControlStructureModel) -> analysis.Ledger:
    if Path(path).exists():
        return analysis.ledger_load(path, model)
    return analysis.Ledger.for_model(model)


def cmd_ledger(args: argparse.Namespace) -> int:
    model, code = _load_valid_model(args.model)
    if model is None:
        return code
    try:
        ledger = _load_ledger(args.ledger, model)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(f"bad ledger file: {exc}", EXIT_IO)
    except analysis.AnalysisError as exc:
        return _fail(str(exc), EXIT_INVALID)

    if args.ledger_cmd == "add":
        record = analysis.VulnerabilityRecord(
            id=args.id,
            description=args.description,
            component=args.component,
            severity=analysis.RecordSeverity(args.severity),
            opened_at=args.opened_at or datetime.now(timezone.utc),
            source=analysis.LedgerSource(args.source),
        )
        try:
            ledger = analysis.ledger_register(ledger, record)
        except analysis.AnalysisError as exc:
            return _fail(str(exc), EXIT_INVALID)
        analysis.ledger_save(ledger, args.ledger)
        return EXIT_OK

    if args.ledger_cmd == "resolve":
        try:
            ledger = analysis.ledger_resolve(
                ledger, args.id, args.closed_at or datetime.now(timezone.utc)
            )
        except (analysis.AnalysisError, ValueError) as exc:
            return _fail(str(exc), EXIT_INVALID)
        analysis.ledger_save(ledger, args.ledger)
        return EXIT_OK

    summary = analysis.ledger_exposure(
        ledger, args.as_of or datetime.now(timezone.utc)
    )
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stpa-loc",
        description="Hazard analysis for control structures with AI components.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model file")
    p_validate.add_argument("model")
    p_validate.set_defaults(func=cmd_validate)

    p_ucas = sub.add_parser("ucas", help="print the UCA worksheet as CSV")
    p_ucas.add_argument("model")
    p_ucas.add_argument("--confirmed-only", action="store_true")
    p_ucas.set_defaults(func=cmd_ucas)

    p_prompts = sub.add_parser("prompts", help="print catalog guideword prompts")
    p_prompts.add_argument("model")
    p_prompts.add_argument("--component", help="only prompts for this component id")
    p_prompts.add_argument(
        "--characteristic",
        type=_characteristic,
        help="only prompts whose catalog entry has this AI characteristic token",
    )
    p_prompts.set_defaults(func=cmd_prompts)

    p_report = sub.add_parser("report", help="render the characterization table")
    p_report.add_argument("model")
    p_report.add_argument("scenarios")
    p_report.add_argument(
        "--direction",
        choices=sorted(_DIRECTIONS),
        default="effect-to-cause",
    )
    p_report.add_argument("--format", choices=["csv", "md", "json"], default="csv")
    p_report.add_argument(
        "--include-loss",
        action="store_true",
        help="add the resolved-loss column",
    )
    p_report.set_defaults(func=cmd_report)

    p_ledger = sub.add_parser("ledger", help="track control-structure degradation")
    ledger_sub = p_ledger.add_subparsers(dest="ledger_cmd", required=True)

    p_add = ledger_sub.add_parser("add", help="register a vulnerability record")
    p_add.add_argument("ledger")
    p_add.add_argument("--model", required=True)
    p_add.add_argument("--id", required=True)
    p_add.add_argument("--description", required=True)
    p_add.add_argument("--component", required=True)
    p_add.add_argument(
        "--severity", required=True, choices=analysis.RecordSeverity.tokens()
    )
    p_add.add_argument("--source", required=True, choices=analysis.LedgerSource.tokens())
    p_add.add_argument("--opened-at", type=_timestamp, default=None)
    p_add.set_defaults(func=cmd_ledger)

    p_resolve = ledger_sub.add_parser("resolve", help="close an open record")
    p_resolve.add_argument("ledger")
    p_resolve.add_argument("--model", required=True)
    p_resolve.add_argument("--id", required=True)
    p_resolve.add_argument("--closed-at", type=_timestamp, default=None)
    p_resolve.set_defaults(func=cmd_ledger)

    p_exposure = ledger_sub.add_parser("exposure", help="summarize open records")
    p_exposure.add_argument("ledger")
    p_exposure.add_argument("--model", required=True)
    p_exposure.add_argument("--as-of", type=_timestamp, default=None)
    p_exposure.set_defaults(func=cmd_ledger)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # Flush inside the guard: with a block-buffered pipe the first
        # real write can happen at interpreter exit, too late to catch.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The consumer of stdout went away (for example the command was
        # piped into head).  Point the descriptor at devnull so the
        # interpreter's exit-time flush cannot raise a second time, then
        # report the shell convention for a pipe death, 128 + SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
