"""Output checks for the stpa-loc benchmark.

Every check compares one output of stpa-loc with what the generator knows
(``facts.json``), with a golden file, or with an earlier output of the same
command. A check returns a list of problems; an empty list means the
output is correct. The checks read the outputs as text and never import
stpa-loc.
"""

from __future__ import annotations

import csv
import io
import json
import re

E2C_HEADER = [
    "Lifecycle phase (control loop identifier)", "Hazard", "Control action",
    "Loss scenario type", "Loss scenario sub-type", "Causal factor type(s)",
    "Loss scenario description", "Key characteristics of AI underlying causal factor(s)",
]
C2E_HEADER = [
    "Lifecycle phase (control loop identifier)",
    "Key characteristics of AI underlying causal factor(s)", "Loss scenario description",
    "Causal factor type(s)", "Loss scenario sub-type", "Loss scenario type",
    "Control action", "Hazard",
]
JSON_KEYS = {
    "Hazard": "hazard",
    "Control action": "control_action",
    "Loss scenario description": "loss_scenario_description",
    "Key characteristics of AI underlying causal factor(s)": "key_characteristics_of_ai",
    "Loss": "loss",
}
UCA_HEADER = ["id", "control_action", "uca_type", "context", "hazards", "status"]
UCA_TYPES = ("not_provided", "provided_causes_hazard", "wrong_time_or_order", "wrong_duration")
DIAGNOSTIC_RE = re.compile(r"^(?P<where>.+?): (?P<severity>error|warning)\[(?P<code>\w+)\]: ")
SCENARIO_ID_RE = re.compile(r"^(S-\d+):")
FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")


def header(direction: str, include_loss: bool) -> list[str]:
    if direction == "effect-to-cause":
        cols = list(E2C_HEADER)
        if include_loss:
            cols.insert(1, "Loss")
    else:
        cols = list(C2E_HEADER)
        if include_loss:
            cols.append("Loss")
    return cols


# --------------------------------------------------------------------------
# Characterization tables


def _unescape_md(cell: str) -> str:
    out = []
    i = 0
    while i < len(cell):
        if cell[i] == "\\" and i + 1 < len(cell) and cell[i + 1] in "\\|n":
            out.append("\n" if cell[i + 1] == "n" else cell[i + 1])
            i += 2
        else:
            out.append(cell[i])
            i += 1
    return "".join(out)


def _split_md_row(line: str) -> list[str]:
    if not (line.startswith("| ") and line.endswith(" |")):
        raise ValueError(f"not a table row: {line[:60]!r}")
    cells, current, i, body = [], [], 0, line[2:-2]
    while i < len(body):
        if body[i] == "\\" and i + 1 < len(body):
            current.append(body[i : i + 2])
            i += 2
        elif body.startswith(" | ", i):
            cells.append(_unescape_md("".join(current)))
            current = []
            i += 3
        else:
            current.append(body[i])
            i += 1
    cells.append(_unescape_md("".join(current)))
    return cells


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a csv, md or json table output."""
    if fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))
        return records[0], records[1:]
    if fmt == "md":
        lines = text.split("\n")
        if lines[-1] != "":
            raise ValueError("markdown table does not end with a newline")
        head = _split_md_row(lines[0])
        if lines[1] != "| " + " | ".join("---" for _ in head) + " |":
            raise ValueError("markdown separator row is malformed")
        return head, [_split_md_row(line) for line in lines[2:-1]]
    raise ValueError(f"unknown table format {fmt}")


def check_table(text: str, fmt: str, direction: str, include_loss: bool, facts: dict) -> list[str]:
    """A characterization table: header, one row per scenario, resolved cells, order."""
    expected_rows = facts["scenarios"]["rows"]
    try:
        if fmt == "json":
            payload = json.loads(text)
            if not FINGERPRINT_RE.match(payload.get("model_fingerprint", "")):
                return ["json: model_fingerprint is not a sha256 hex digest"]
            want_dir = direction.replace("-", "_")
            if payload.get("direction") != want_dir:
                return [f"json: direction {payload.get('direction')!r}, expected {want_dir!r}"]
            cols = header(direction, include_loss)
            json_cols = [JSON_KEYS.get(c) for c in cols]
            rows = []
            for obj in payload["rows"]:
                if len(obj) != len(cols):
                    return [f"json: row has {len(obj)} keys, expected {len(cols)}"]
                rows.append([obj.get(k, "") if k else "" for k in json_cols])
            head = cols
        else:
            head, rows = parse_table(text, fmt)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{fmt}: unparseable output: {exc}"]
    want = header(direction, include_loss)
    if head != want:
        return [f"{fmt}: header {head!r} differs from {want!r}"]
    col = {name: i for i, name in enumerate(want)}
    problems: list[str] = []
    if len(rows) != len(expected_rows):
        problems.append(f"{fmt}: {len(rows)} rows, expected {len(expected_rows)}")
    order = []
    for row in rows:
        if len(row) != len(want):
            problems.append(f"{fmt}: row with {len(row)} cells")
            continue
        match = SCENARIO_ID_RE.match(row[col["Loss scenario description"]])
        exp = expected_rows.get(match.group(1)) if match else None
        if exp is None or exp["detail"] != row[col["Loss scenario description"]]:
            problems.append(f"{fmt}: unexpected description {row[col['Loss scenario description']][:40]!r}")
            continue
        sid = match.group(1)
        order.append((row, sid))
        if row[col["Hazard"]] != exp["hazard"]:
            problems.append(f"{fmt}: {sid} hazard {row[col['Hazard']][:40]!r}, expected {exp['hazard'][:40]!r}")
        if row[col["Control action"]] != exp["control_action"]:
            problems.append(f"{fmt}: {sid} control action differs")
        if include_loss and row[col["Loss"]] != exp["loss"]:
            problems.append(f"{fmt}: {sid} loss differs")
    if len({sid for _, sid in order}) != len(order):
        problems.append(f"{fmt}: a scenario appears twice")
    if direction == "effect-to-cause":
        if [sid for _, sid in order] != facts["scenarios"]["e2c_order"][: len(order)] and not problems:
            problems.append(f"{fmt}: effect-to-cause row order differs")
    else:
        chars = col["Key characteristics of AI underlying causal factor(s)"]
        keys = [(row[chars], sid) for row, sid in order]
        if keys != sorted(keys):
            problems.append(f"{fmt}: cause-to-effect rows are not sorted by characteristics")
    return problems[:5]


def check_pathway(text: str, sid: str, facts: dict) -> list[str]:
    """A rendered pathway ends at the hazards and losses its UCA links."""
    model = facts["model"]
    hazard_ids = facts["scenarios"]["rows"][sid]["hazard_ids"]
    loss_ids = sorted({lid for hid in hazard_ids for lid in model["hazard_losses"][hid]})
    hazard = f"Hazard({', '.join(hazard_ids)})" if hazard_ids else "Hazard"
    loss = f"Loss({', '.join(loss_ids)})" if loss_ids else "Loss"
    if not text.endswith(f" -> {hazard} -> {loss}") and text != f"{hazard} -> {loss}":
        return [f"pathway {sid}: {text[-60:]!r} does not end at {hazard} -> {loss}"]
    return []


def json_fingerprint(text: str) -> str | None:
    try:
        return json.loads(text).get("model_fingerprint")
    except (ValueError, AttributeError):
        return None


# --------------------------------------------------------------------------
# Worksheets, prompts, diagnostics, ledger


def check_ucas(text: str, facts: dict, confirmed_only: bool) -> list[str]:
    model = facts["model"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != UCA_HEADER:
        return ["ucas: header differs"]
    rows = rows[1:]
    confirmed = {uca: links for uca, links in model["annotated"].items() if links}
    if confirmed_only:
        want_ids = sorted(confirmed)
    else:
        want_ids = sorted(f"{ca}-{t}" for ca in model["labels"] for t in UCA_TYPES)
    problems = []
    want_count = model["confirmed_count"] if confirmed_only else model["uca_count"]
    if len(rows) != want_count:
        problems.append(f"ucas: {len(rows)} rows, expected {want_count}")
    if sorted(row[0] for row in rows if row) != want_ids:
        problems.append("ucas: UCA ids differ")
    for row in rows:
        if len(row) != len(UCA_HEADER):
            problems.append("ucas: short row")
            continue
        links = confirmed.get(row[0])
        if (row[5] == "confirmed") != bool(links):
            problems.append(f"ucas: {row[0]} status {row[5]}")
        elif links and row[4] != ";".join(links):
            problems.append(f"ucas: {row[0]} hazards {row[4]!r}")
    return problems[:5]


def check_prompts(text: str, facts: dict, superset: str | None) -> list[str]:
    """Prompts: three tab-separated fields on a model component; a filtered
    run must print a non-empty subset of the unfiltered run's lines."""
    components = set(facts["model"]["components"])
    lines = text.split("\n")
    if lines[-1] != "":
        return ["prompts: output does not end with a newline"]
    lines = lines[:-1]
    if not lines:
        return ["prompts: no prompts"]
    for line in lines:
        parts = line.split("\t")
        if len(parts) != 3 or parts[1] not in components or not parts[2].startswith("Could "):
            return [f"prompts: malformed line {line[:60]!r}"]
    if superset is not None and not set(lines) <= set(superset.split("\n")):
        return ["prompts: filtered prompts are not a subset of all prompts"]
    return []


def diagnostic_counts(stderr: str) -> dict[str, int] | None:
    counts: dict[str, int] = {}
    for line in stderr.splitlines():
        match = DIAGNOSTIC_RE.match(line)
        if not match:
            return None
        counts[match.group("code")] = counts.get(match.group("code"), 0) + 1
    return dict(sorted(counts.items()))


def check_diagnostics(counts: dict[str, int] | None, want: dict[str, int]) -> list[str]:
    if counts is None:
        return ["validate: stderr holds a line that is not a diagnostic"]
    if counts != want:
        return [f"validate: diagnostics {counts}, expected {want}"]
    return []


def check_exposure(text: str, want: dict) -> list[str]:
    """Exposure summary: compared whole when ``want`` has by_component,
    else by open_count and weighted plus its own consistency."""
    try:
        got = json.loads(text)
    except ValueError:
        return ["exposure: not JSON"]
    if text != json.dumps(got, indent=2, sort_keys=True) + "\n":
        return ["exposure: not in canonical JSON layout"]
    if "by_component" in want:
        return [] if got == want else [f"exposure: {got.get('open_count')}/{got.get('weighted')} differs from facts"]
    problems = []
    for key in ("open_count", "weighted"):
        if got.get(key) != want[key]:
            problems.append(f"exposure: {key} {got.get(key)}, expected {want[key]}")
    by_component = got.get("by_component", {})
    if sum(len(ids) for ids in by_component.values()) != got.get("open_count"):
        problems.append("exposure: by_component does not add up to open_count")
    if any(ids != sorted(ids) for ids in by_component.values()):
        problems.append("exposure: ids not sorted")
    return problems


# --------------------------------------------------------------------------
# CLI command results


def check_command(kind: str, result, facts: dict, context: dict) -> list[str]:
    """Check one CLI run. ``result`` has code, stdout, stderr; ``context``
    holds earlier outputs of the same pass and the golden files."""
    if "Traceback (most recent call last)" in result.stderr:
        return [f"{kind}: traceback on stderr"]
    if kind == "validate-broken":
        if result.code != 1:
            return [f"{kind}: exit {result.code}, expected 1"]
        return check_diagnostics(diagnostic_counts(result.stderr), facts["broken"]["diagnostics"])
    if result.code != 0:
        return [f"{kind}: exit {result.code}: {result.stderr[:200]}"]
    if kind in ("validate", "ledger-add", "ledger-resolve"):
        return [] if result.stdout == "" and result.stderr == "" else [f"{kind}: unexpected output"]
    if result.stderr:
        return [f"{kind}: unexpected stderr {result.stderr[:120]!r}"]
    if kind.startswith("golden:"):
        return [] if result.stdout == context["golden"][kind[7:]] else [f"{kind}: differs from golden file"]
    if kind == "ucas":
        return check_ucas(result.stdout, facts, confirmed_only=False)
    if kind == "ucas-confirmed":
        return check_ucas(result.stdout, facts, confirmed_only=True)
    if kind == "prompts":
        context["prompts"] = result.stdout
        return check_prompts(result.stdout, facts, None)
    if kind == "prompts-filtered":
        return check_prompts(result.stdout, facts, context.get("prompts", ""))
    if kind.startswith("table:"):
        _, fmt, direction, loss = kind.split(":")
        problems = check_table(result.stdout, fmt, direction, loss == "loss", facts)
        if fmt == "json" and not problems:
            problems = check_fingerprint(context, json_fingerprint(result.stdout))
        return problems
    if kind == "ledger-exposure":
        return check_exposure(result.stdout, context["exposure"])
    return [f"{kind}: no check defined"]


def check_fingerprint(context: dict, fingerprint: str | None) -> list[str]:
    """One model, one fingerprint: every JSON report in a run must agree."""
    first = context.setdefault("fingerprint", fingerprint)
    return [] if fingerprint == first else ["json: model_fingerprint differs between reports"]
