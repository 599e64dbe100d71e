"""Self-tests of the benchmark: the generator and the output checks.

    python3 perfbench/selftest.py

Run from the root of a checkout. It generates small inputs twice to show
the bytes depend only on the seed, takes correct outputs from stpa-loc
run in-process, and shows that each check accepts them and rejects a
corrupted copy: a dropped row, a changed hazard cell, rows out of order,
a wrong exposure count, and so on. Exits 1 if any expectation fails.
"""

from __future__ import annotations

import contextlib
import filecmp
import json
import shutil
import sys
from pathlib import Path

import checks
import gen
import run
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def accepts(problems: list[str], what: str) -> None:
    expect(not problems, f"accepts {what}" + (f": {problems[0]}" if problems else ""))


def rejects(problems: list[str], what: str) -> None:
    expect(bool(problems), f"rejects {what}")


def same_tree(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)


def test_generator(work: Path) -> None:
    for name in WORKLOADS:
        gen.write_inputs(name, 5, work / f"{name}-a", scale=4)
        gen.write_inputs(name, 5, work / f"{name}-b", scale=4)
        gen.write_inputs(name, 6, work / f"{name}-c", scale=4)
        expect(same_tree(work / f"{name}-a", work / f"{name}-b"), f"{name}: same seed gives identical bytes")
        expect(not filecmp.cmp(work / f"{name}-a" / "model.stpa", work / f"{name}-c" / "model.stpa", shallow=False),
               f"{name}: another seed gives another model")


def corrupt_csv_row(text: str, index: int, column: int, value: str) -> str:
    import csv
    import io

    rows = list(csv.reader(io.StringIO(text)))
    rows[index][column] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_checks(work: Path) -> None:
    inputs = run.load_inputs("edit-small", 5, work / "edit", 4)
    facts = inputs.facts
    m, s, l = inputs.file("model"), inputs.file("scenarios"), inputs.file("ledger")
    Result = run.Result

    # characterization tables
    csv_e2c = run.run_main(["report", m, s]).stdout
    accepts(checks.check_table(csv_e2c, "csv", "effect-to-cause", False, facts), "a correct csv table")
    lines = csv_e2c.splitlines(keepends=True)
    rejects(checks.check_table("".join(lines[:-1]), "csv", "effect-to-cause", False, facts), "a dropped row")
    rejects(checks.check_table("".join(lines[:1] + lines[2:3] + lines[1:2] + lines[3:]), "csv",
                               "effect-to-cause", False, facts), "two rows swapped")
    rejects(checks.check_table(corrupt_csv_row(csv_e2c, 1, 1, "another hazard"), "csv",
                               "effect-to-cause", False, facts), "a changed hazard cell")
    c2e = run.run_main(["report", m, s, "--direction", "cause-to-effect", "--include-loss"]).stdout
    accepts(checks.check_table(c2e, "csv", "cause-to-effect", True, facts), "a correct cause-to-effect table")
    rejects(checks.check_table(corrupt_csv_row(c2e, 2, 8, "another loss"), "csv", "cause-to-effect", True, facts),
            "a changed loss cell")
    md = run.run_main(["report", m, s, "--format", "md"]).stdout
    accepts(checks.check_table(md, "md", "effect-to-cause", False, facts), "a correct markdown table")
    row = md.split("\n")[3]
    rejects(checks.check_table(md.replace(row, row.replace(" | ", " | X", 1), 1), "md", "effect-to-cause", False, facts),
            "a changed markdown cell")
    js = run.run_main(["report", m, s, "--format", "json", "--include-loss"]).stdout
    accepts(checks.check_table(js, "json", "effect-to-cause", True, facts), "a correct json table")
    payload = json.loads(js)
    payload["direction"] = "cause_to_effect"
    rejects(checks.check_table(json.dumps(payload), "json", "effect-to-cause", True, facts), "a wrong json direction")
    context: dict = {}
    accepts(checks.check_fingerprint(context, checks.json_fingerprint(js)), "the first fingerprint")
    rejects(checks.check_fingerprint(context, "0" * 64), "a second, different fingerprint")

    # golden files
    golden = inputs.loaded["golden"]
    context = {"golden": golden}
    bundled = run.run_main(["report", inputs.bundled_model, inputs.bundled_scenarios])
    accepts(checks.check_command("golden:effect_to_cause.csv", bundled, facts, context), "the bundled table")
    changed = Result(0, bundled.stdout.replace("Human error", "Human errors", 1), "")
    rejects(checks.check_command("golden:effect_to_cause.csv", changed, facts, context), "a table off the golden file")

    # UCA worksheet and prompts
    ucas = run.run_main(["ucas", m]).stdout
    accepts(checks.check_ucas(ucas, facts, False), "a correct UCA worksheet")
    rejects(checks.check_ucas(ucas.replace("confirmed", "candidate", 1), facts, False), "a flipped UCA status")
    rejects(checks.check_ucas("\n".join(ucas.split("\n")[:-2]) + "\n", facts, False), "a dropped UCA")
    prompts = run.run_main(["prompts", m]).stdout
    context = {}
    accepts(checks.check_command("prompts", Result(0, prompts, ""), facts, context), "all prompts")
    filtered = run.run_main(["prompts", m, "--characteristic", "agency"]).stdout
    accepts(checks.check_command("prompts-filtered", Result(0, filtered, ""), facts, context), "filtered prompts")
    rejects(checks.check_command("prompts-filtered", Result(0, filtered + "A3-99\tCtl-1\tCould x?\n", ""),
                                 facts, context), "a filtered prompt that is not in the full list")

    # ledger exposure
    as_of = facts["ledger"]["as_of"]
    exposure = run.run_main(["ledger", "exposure", l, "--model", m, "--as-of", as_of]).stdout
    accepts(checks.check_exposure(exposure, facts["ledger"]["initial"]), "the initial exposure")
    wrong = dict(facts["ledger"]["initial"], open_count=facts["ledger"]["initial"]["open_count"] + 1)
    rejects(checks.check_exposure(exposure, wrong), "a wrong open count")
    step = dict(open_count=facts["ledger"]["initial"]["open_count"], weighted=facts["ledger"]["initial"]["weighted"] + 3)
    rejects(checks.check_exposure(exposure, step), "a wrong weighted exposure")

    # diagnostics of the broken copy
    parse = run.load_inputs("parse-1k", 5, work / "parse", 4)
    broken = run.run_main(["validate", parse.file("broken")])
    accepts(checks.check_command("validate-broken", broken, parse.facts, {}), "the broken copy's diagnostics")
    fewer = Result(1, "", "\n".join(broken.stderr.splitlines()[1:]) + "\n")
    rejects(checks.check_command("validate-broken", fewer, parse.facts, {}), "a missing diagnostic")
    rejects(checks.check_command("validate-broken", Result(0, "", broken.stderr), parse.facts, {}), "exit 0 on errors")

    # pathways and the determinism contract
    rows = facts["scenarios"]["rows"]
    sid = next(sid for sid, row in rows.items() if row["hazard_ids"])
    rejects(checks.check_pathway("Controller -> Hazard -> Loss", sid, facts), "a pathway without its hazards")
    session = run.Session(WORKLOADS["edit-small"], inputs, None, run.Tally())
    entry = ("ucas", ["ucas", m])
    session.check_cli(entry, Result(0, ucas, ""))
    session.check_cli(entry, Result(0, ucas.replace("\n", "\r\n"), ""))
    expect(session.tally.failed == 1, "rejects a repeat that prints other bytes")


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        test_generator(work / "gen")
        test_checks(work / "checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
