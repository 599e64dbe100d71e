"""Command-line front end: parse, validate, analyze, report.

Exit codes are part of the interface and stay stable:

      0  success
      1  validation or analysis errors in the inputs
      2  usage error (bad flags or arguments)
      3  I/O or data-format error (unreadable file, one too large to hold, bad
         catalog, a closed standard output or a failed write to it, e.g. a full disk)
    141  the consumer of standard output closed the pipe early (128 + SIGPIPE)

Machine-readable output goes to standard output, as UTF-8 whatever the
locale; diagnostics and error messages go to standard error, or nowhere if
it is closed or cannot take them. Commands write no file except the ledger of ``ledger add`` and
``ledger resolve``, their ``.<name>.lock`` beside it and the
``.<name>.<pid>.tmp`` file a save renames over it. The STPA_LOC_CATALOG
environment variable points ``prompts`` at a replacement catalog file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import ExitStack
from datetime import datetime, timezone
from pathlib import Path

from .dsl import parse_model, parse_scenarios
from .model import (
    AiCharacteristic,
    ControlStructureModel,
    Diagnostic,
    LedgerSource,
    RecordSeverity,
    TableDirection,
    format_diagnostic,
    has_errors,
)

# analysis, catalog and report are imported inside the commands that use
# them, so that each command loads only what it runs.

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3

_DIRECTIONS = {
    "effect-to-cause": TableDirection.EFFECT_TO_CAUSE,
    "cause-to-effect": TableDirection.CAUSE_TO_EFFECT,
}


def _print_stderr(*lines: str) -> None:
    try:
        for line in lines:
            print(line, file=sys.stderr)
        sys.stderr.flush()
    except OSError:  # a full disk or closed pipe; its unwritten bytes would make the exit-time flush exit 120
        sys.stderr = io.StringIO()


def _fail(message: str, code: int) -> int:
    _print_stderr(f"stpa-loc: error: {message}")
    return code


def _print_diagnostics(diagnostics: list[Diagnostic], file: str) -> None:
    _print_stderr(*(format_diagnostic(diag, default_file=file) for diag in diagnostics))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # undecodable input is an unreadable file: exit 3, not a traceback
        raise OSError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_valid_model(path: str) -> ControlStructureModel:
    """Parse, validate and print the diagnostics; exit 1 if one is an error."""
    model, diagnostics = parse_model(_read_text(path), file=path)
    diagnostics = [*diagnostics, *model.diagnostics]
    _print_diagnostics(diagnostics, path)
    if has_errors(diagnostics):
        raise SystemExit(EXIT_INVALID)
    return model


def _timestamp(text: str) -> datetime:
    try:
        value = datetime.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an ISO-8601 timestamp"
        ) from None
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    try:
        value.astimezone(timezone.utc)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"{text!r} is out of range in UTC") from None
    return value


def _utf8(text: str) -> str:
    # argv bytes that are not UTF-8 arrive as lone surrogates, which the
    # ledger could never write back
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"{text!r} is not UTF-8 text") from None
    return text


def _characteristic(text: str) -> AiCharacteristic:
    try:
        return AiCharacteristic(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an AI characteristic token"
        ) from None


# --------------------------------------------------------------------------
# Commands


def cmd_validate(args: argparse.Namespace) -> int:
    _load_valid_model(args.model)
    return EXIT_OK


def cmd_ucas(args: argparse.Namespace) -> int:
    import csv

    from . import analysis

    model = _load_valid_model(args.model)
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
    from . import catalog as catalog_mod

    model = _load_valid_model(args.model)
    override = os.environ.get("STPA_LOC_CATALOG")
    try:
        cat = catalog_mod.load_catalog(override if override else None)
    except catalog_mod.CatalogFormatError as exc:
        return _fail(f"bad catalog: {exc}", EXIT_IO)
    if args.characteristic is not None:
        cat = catalog_mod.filter_entries(cat, ai_characteristic=args.characteristic)
    prompts = catalog_mod.generate_prompts(cat, model)
    if args.component is not None:
        prompts = [p for p in prompts if p.component_id == args.component]
    for prompt in prompts:
        sys.stdout.write(f"{prompt.catalog_ref}\t{prompt.component_id}\t{prompt.question}\n")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from . import analysis, report

    model = _load_valid_model(args.model)
    scenarios, diagnostics = parse_scenarios(_read_text(args.scenarios), model, file=args.scenarios)
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


def cmd_ledger(args: argparse.Namespace) -> int:
    from . import analysis

    model = _load_valid_model(args.model)
    with ExitStack() as stack:
        if args.ledger_cmd != "exposure":
            import fcntl  # POSIX only

            # Writers take turns on a lock file beside the ledger, held from load to
            # save. Not on the ledger itself: the save replaces its inode.
            target = Path(os.path.realpath(args.ledger))
            try:
                lock = stack.enter_context(open(target.with_name(f".{target.name}.lock"), "ab"))
                fcntl.flock(lock, fcntl.LOCK_EX)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, args.ledger) from None
        try:
            if Path(args.ledger).exists():
                ledger = analysis.ledger_load(args.ledger, model)
            else:
                ledger = analysis.Ledger.for_model(model)
        except analysis.LedgerFormatError as exc:
            return _fail(f"bad ledger file: line {exc.line}: {exc}", EXIT_IO)
        except analysis.AnalysisError as exc:
            return _fail(str(exc), EXIT_INVALID)

        if args.ledger_cmd == "exposure":
            summary = analysis.ledger_exposure(
                ledger, args.as_of or datetime.now(timezone.utc)
            )
            sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            return EXIT_OK

        try:
            if args.ledger_cmd == "add":
                record = analysis.VulnerabilityRecord(
                    id=args.id,
                    description=args.description,
                    component=args.component,
                    severity=RecordSeverity(args.severity),
                    opened_at=args.opened_at or datetime.now(timezone.utc),
                    source=LedgerSource(args.source),
                )
                ledger = analysis.ledger_register(ledger, record)
            else:
                ledger = analysis.ledger_resolve(
                    ledger, args.id, args.closed_at or datetime.now(timezone.utc)
                )
        except (analysis.AnalysisError, ValueError) as exc:
            return _fail(str(exc), EXIT_INVALID)
        analysis.ledger_save(ledger, args.ledger)
        return EXIT_OK


# --------------------------------------------------------------------------
# Argument wiring


class _ArgumentParser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:  # argparse drops a failed write; this one reaches main
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    ledger_args = argparse.ArgumentParser(add_help=False)  # what every ledger command takes first
    ledger_args.add_argument("ledger")
    ledger_args.add_argument("--model", required=True)
    ledger_args.set_defaults(func=cmd_ledger)

    p_add = ledger_sub.add_parser("add", parents=[ledger_args], help="register a vulnerability record")
    p_add.add_argument("--id", required=True, type=_utf8)
    p_add.add_argument("--description", required=True, type=_utf8)
    p_add.add_argument("--component", required=True, type=_utf8)
    p_add.add_argument("--severity", required=True, choices=RecordSeverity.tokens())
    p_add.add_argument("--source", required=True, choices=LedgerSource.tokens())
    p_add.add_argument("--opened-at", type=_timestamp, default=None)

    p_resolve = ledger_sub.add_parser("resolve", parents=[ledger_args], help="close an open record")
    p_resolve.add_argument("--id", required=True, type=_utf8)
    p_resolve.add_argument("--closed-at", type=_timestamp, default=None)

    p_exposure = ledger_sub.add_parser("exposure", parents=[ledger_args], help="summarize open records")
    p_exposure.add_argument("--as-of", type=_timestamp, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:  # descriptor 2 is closed: messages, argparse's too, go nowhere, not to stdout
        sys.stderr = io.StringIO()
    if sys.stdout is None:  # descriptor 1 is closed
        return _fail("standard output is closed", EXIT_IO)
    if isinstance(sys.stdout, io.TextIOWrapper):  # the tables are UTF-8 whatever the locale
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:
            # 2 for bad usage and 0 for --help from argparse, 1 for an invalid model
            code = int(exc.code or 0)
        # Flush inside the guard: with a block-buffered stdout the first
        # real write can happen at interpreter exit, too late to catch.
        sys.stdout.flush()
        _print_stderr()  # argparse drops a failed write to stderr, but not its bytes
        return code
    except MemoryError:  # an input too large to hold: exit 3 like an unreadable file, not a traceback
        return _fail("out of memory", EXIT_IO)
    except OSError as exc:
        try:
            sys.stdout.flush()
        except OSError:
            # Stdout failed (a closed pipe, a full disk) and still holds the
            # bytes: point it at devnull, or the exit-time flush raises again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # the shell convention for a pipe death, 128 + SIGPIPE
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
