"""Seeded input generator for the stpa-loc benchmark.

For one workload and one seed it writes the model, scenario and ledger
files the program reads, and beside them ``facts.json``: what the
generator knows about the expected outputs without running stpa-loc.
The same (workload, seed, scale) always gives the same bytes.

Run on its own to inspect the inputs:

    python3 perfbench/gen.py --workload report-500 --seed 1 --out /tmp/x
"""

from __future__ import annotations

import argparse
import json
import random
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

# Sizes per workload. ``n`` is the count of losses, hazards, constraints,
# control actions, feedbacks and annotations; each component kind gets
# n/10. ``scenarios`` and ``ledger`` are record counts.
SIZES = {
    "edit-small": {"n": 100, "scenarios": 100, "ledger": 50, "cycles": 1},
    "report-500": {"n": 500, "scenarios": 500},
    "parse-1k": {"n": 1000, "broken": True},
    "ledger-2k": {"n": 100, "ledger": 2000, "cycles": 400},
}

# Closed vocabularies, spelled as the model language spells them.
UCA_TYPES = ("not_provided", "provided_causes_hazard", "wrong_time_or_order", "wrong_duration")
SUBTYPES_A = ("not_provided", "leads_to_hazard", "wrong_time_or_order", "wrong_duration")
SUBTYPES_B = ("not_executed", "executed_improperly")
FACTORS = (
    "inadequate_control_algorithm", "flawed_process_model", "incomplete_process_model",
    "inadequate_operation_of_controlled_process", "inadequate_operation_of_actuator",
    "inadequate_operation_of_sensor", "feedback_incorrect_missing_delayed",
    "control_action_incorrect_missing_delayed", "authentication_issue", "delay",
)
CHARACTERISTICS = (
    "outer_misalignment", "inner_misalignment", "agency", "deception", "instrumental_goals",
    "situational_awareness", "dynamic_change", "distribution_shift", "inscrutability",
    "autonomy", "capability_uncertainty", "speed_asymmetry", "breadth_depth_knowledge",
    "breadth_depth_reasoning", "outpaces_regulation", "dependency_value", "human_error",
    "enforcement_gap", "implementation_issue",
)
SEVERITY_WEIGHTS = {"low": 1, "medium": 3, "high": 9}
SOURCES = ("audit", "change_management", "incident")

# Fixed clock for the ledger: every record opens before AS_OF, and every
# resolve closes at CLOSED_AT, which is also before AS_OF.
BASE_TIME = datetime(2025, 1, 1, tzinfo=timezone.utc)
OPENED_AT = BASE_TIME + timedelta(days=200)
CLOSED_AT = BASE_TIME + timedelta(days=300)
AS_OF = BASE_TIME + timedelta(days=365)

WORDS = (
    "operator alert threshold model drift sample review queue signal update policy "
    "monitor flag agent term filter override escalation audit backlog latency sensor "
    "feedback channel oversight upgrade rollback screening classifier score label "
    "dataset shift confidence report analyst shift handover outage retraining prompt "
    "context window budget quota incident response delay approval watchdog limit "
    "credential token registry ledger snapshot replica cache index ranking"
).split()


def _words(rng: random.Random, k: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(k))


def _text(rng: random.Random, prefix: str, k: int) -> str:
    """Free text that sometimes needs the language's two escapes."""
    body = _words(rng, k)
    roll = rng.random()
    if roll < 0.05:
        body += ' "quoted"'
    elif roll < 0.08:
        body += " path\\to\\it"
    elif roll < 0.10:
        body += " déjà vu"
    return f"{prefix} {body}"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _iso(moment: datetime) -> str:
    return moment.isoformat()


# --------------------------------------------------------------------------
# Model


def make_model(rng: random.Random, n: int) -> tuple[list[str], dict]:
    """Return the model's lines and what the generator knows about it."""
    k = max(1, n // 10)
    width = len(str(n))
    cwidth = len(str(k))
    controllers = [f"Ctl-{i:0{cwidth}d}" for i in range(1, k + 1)]
    processes = [f"Proc-{i:0{cwidth}d}" for i in range(1, k + 1)]
    actuators = [f"Act-{i:0{cwidth}d}" for i in range(1, k + 1)]
    sensors = [f"Sen-{i:0{cwidth}d}" for i in range(1, k + 1)]
    losses = [f"L-{i:0{width}d}" for i in range(1, n + 1)]
    hazards = [f"H-{i:0{width}d}" for i in range(1, n + 1)]
    actions = [f"CA-{i:0{width}d}" for i in range(1, n + 1)]

    lines = [f"# synthetic control structure, n={n}", f'system "Synthetic monitoring system n{n}" {{', "  lifecycle: operations"]
    for cid in controllers:
        lines.append(f"  controller {cid} {{kind: {rng.choice(('human', 'automated', 'ai'))} notes: {_quote(_words(rng, 4))}}}")
    for cid in processes:
        attrs = "contains_ai: true" if rng.random() < 0.5 else "kind: automated"
        lines.append(f"  process {cid} {{{attrs} notes: {_quote(_words(rng, 4))}}}")
    for cid in actuators:
        lines.append(f"  actuator {cid} {{kind: {rng.choice(('human', 'automated'))}}}")
    for cid in sensors:
        lines.append(f"  sensor {cid}")

    loss_text = {}
    for lid in losses:
        loss_text[lid] = _text(rng, f"loss of {lid}:", 6)
        lines.append(f"  loss {lid} {_quote(loss_text[lid])}")
    hazard_text = {}
    hazard_losses = {}
    for hid in hazards:
        hazard_text[hid] = _text(rng, f"hazard state {hid}:", 8)
        hazard_losses[hid] = sorted(rng.sample(losses, rng.choice((1, 1, 2))))
        lines.append(f"  hazard {hid} {_quote(hazard_text[hid])} leads_to {', '.join(hazard_losses[hid])}")
    for i, hid in enumerate(hazards, start=1):
        enforcer = rng.choice(actions)
        text = _text(rng, f"constraint {i}: the system must keep", 12)
        lines.append(f"  constraint SC-{i:0{width}d} {_quote(text)} mitigates {hid} enforced_by {enforcer}")
    labels = {}
    for cid in actions:
        labels[cid] = _text(rng, f"Action {cid}", 5)
        lines.append(
            f"  control_action {cid} {_quote(labels[cid])} from {rng.choice(controllers)}"
            f" to {rng.choice(processes)} via {rng.choice(actuators)}"
        )
    for i in range(1, n + 1):
        text = _text(rng, f"feedback {i}:", 6)
        lines.append(
            f"  feedback FB-{i:0{width}d} {_quote(text)} from {rng.choice(processes)}"
            f" to {rng.choice(controllers)} via {rng.choice(sensors)}"
        )
    # n distinct (control action, UCA type) pairs out of the 4n candidates;
    # nine in ten link hazards and so confirm their UCA
    annotated: dict[str, list[str]] = {}
    for slot in sorted(rng.sample(range(4 * n), n)):
        ca = actions[slot // 4]
        uca_type = UCA_TYPES[slot % 4]
        uca = f"{ca}-{uca_type}"
        links = sorted(rng.sample(hazards, rng.choice((1, 1, 2)))) if rng.random() < 0.9 else []
        annotated[uca] = links
        line = f"  annotate {ca} {uca_type} context {_quote(_text(rng, 'when', 10))}"
        if links:
            line += f" hazards {', '.join(links)}"
        lines.append(line)
    lines.append("}")

    facts = {
        "n": n,
        "components": sorted(controllers + processes + actuators + sensors),
        "uca_count": 4 * n,
        "confirmed_count": sum(1 for links in annotated.values() if links),
        "annotated": annotated,
        "labels": labels,
        "hazard_text": hazard_text,
        "hazard_losses": hazard_losses,
        "loss_text": loss_text,
        "controllers": controllers,
        "processes": processes,
        "actuators": actuators,
        "sensors": sensors,
    }
    return lines, facts


# Ways to break one item: the lines it applies to, the edit (given the
# break's index), and the diagnostic it must cause with how many of them.
# An over-long feedback id gives two: the lexer and the validator reject it.
BREAKS = (
    (r"  hazard ", lambda l, j: re.sub(r" leads_to .*", f" leads_to L-missing-{j}", l), "DanglingLossRef", 1),
    (r"  annotate .* hazards ", lambda l, j: re.sub(r" hazards .*", f" hazards H-missing-{j}", l),
     "DanglingHazardRef", 1),
    (r"  control_action ", lambda l, j: re.sub(r" from \S+", f" from Ctl-missing-{j}", l, count=1),
     "DanglingComponentRef", 1),
    (r"  constraint ", lambda l, j: re.sub(r" enforced_by .*", f" enforced_by CA-missing-{j}", l),
     "DanglingControlActionRef", 1),
    (r"  loss ", lambda l, j: l[:-1] + ' \\q"', "BadEscape", 1),
    (r"  loss ", lambda l, j: l[:-1], "UnterminatedString", 1),
    (r"  feedback ", lambda l, j: re.sub(r"^(  feedback \S+)", r"\1-" + "x" * 64, l), "BadIdentifier", 2),
)


def make_broken(rng: random.Random, lines: list[str]) -> tuple[list[str], dict]:
    """Break about 1 % of the items, each of BREAKS equally often, and count
    the diagnostics that must follow."""
    items = sum(1 for line in lines if line.startswith("  ") and not line.startswith("  lifecycle"))
    per_kind = max(1, items // 100 // len(BREAKS))
    broken = list(lines)
    used: set[int] = set()
    expected: dict[str, int] = {}
    for pattern, edit, code, count in BREAKS:
        candidates = [i for i, line in enumerate(broken) if re.match(pattern, line) and i not in used]
        for j, index in enumerate(sorted(rng.sample(candidates, per_kind))):
            used.add(index)
            broken[index] = edit(broken[index], j)
            expected[code] = expected.get(code, 0) + count
    return broken, {"diagnostics": dict(sorted(expected.items()))}


# --------------------------------------------------------------------------
# Scenarios


def make_scenarios(rng: random.Random, model: dict, count: int) -> tuple[list[str], dict]:
    """About 80 % type_a citing a UCA (half annotated, half bare), 20 % type_b."""
    width = len(str(count))
    annotated = sorted(model["annotated"])
    annotated_set = set(annotated)
    actions = sorted(model["labels"])
    lines = ['# synthetic loss scenarios', 'scenarios "Synthetic scenarios" {']
    rows = {}
    for i in range(1, count + 1):
        sid = f"S-{i:0{width}d}"
        type_a = rng.random() < 0.8
        if type_a:
            origin = rng.choice(model["controllers"] + model["sensors"])
            if rng.random() < 0.5:
                uca = rng.choice(annotated)
            else:
                while True:
                    uca = f"{rng.choice(actions)}-{rng.choice(UCA_TYPES)}"
                    if uca not in annotated_set:
                        break
            subs = rng.sample(SUBTYPES_A, rng.randint(1, 2))
        else:
            origin = rng.choice(model["actuators"] + model["processes"])
            uca = None
            subs = rng.sample(SUBTYPES_B, rng.randint(1, 2))
        factors = rng.sample(FACTORS, rng.randint(1, 3))
        chars = rng.sample(CHARACTERISTICS, rng.randint(0, 3))
        detail = _text(rng, f"{sid}:", 30)
        lines.append(f"  scenario {sid} {{")
        lines.append(f"    origin: {origin}")
        if uca:
            lines.append(f"    uca: {uca}")
        lines.append(f"    type: {'type_a' if type_a else 'type_b'}")
        lines.append(f"    sub_types: {', '.join(subs)}")
        lines.append(f"    factors: {', '.join(factors)}")
        if chars:
            lines.append(f"    characteristics: {', '.join(chars)}")
        if rng.random() < 0.5:
            lines.append(f"    catalog: B4-{rng.randint(1, 16):02d}")
        lines.append(f"    description: {_quote(detail)}")
        lines.append("  }")

        hazard_ids = model["annotated"].get(uca, []) if uca else []
        loss_ids = sorted({lid for hid in hazard_ids for lid in model["hazard_losses"][hid]})
        rows[sid] = {
            "detail": detail,
            "hazard_ids": hazard_ids,
            "hazard": "; ".join(model["hazard_text"][h] for h in hazard_ids) or "N/A",
            "control_action": model["labels"][uca.rsplit("-", 1)[0]] if uca else "N/A",
            "loss": "; ".join(model["loss_text"][l] for l in loss_ids) or "N/A",
        }
    lines.append("}")
    e2c_order = sorted(
        rows, key=lambda s: (0 if rows[s]["hazard_ids"] else 1, ",".join(rows[s]["hazard_ids"]), s)
    )
    return lines, {"count": count, "rows": rows, "e2c_order": e2c_order}


# --------------------------------------------------------------------------
# Ledger


def _exposure(records: dict[str, dict]) -> dict:
    """Open records at AS_OF, as open_count, weighted and by_component."""
    as_of = _iso(AS_OF)
    by_component: dict[str, list[str]] = {}
    weighted = 0
    for rid, rec in records.items():
        closed = rec["closed_at"]
        if rec["opened_at"] <= as_of and (closed is None or closed > as_of):
            by_component.setdefault(rec["component"], []).append(rid)
            weighted += SEVERITY_WEIGHTS[rec["severity"]]
    return {
        "by_component": {c: sorted(ids) for c, ids in sorted(by_component.items())},
        "open_count": sum(len(ids) for ids in by_component.values()),
        "weighted": weighted,
    }


def make_ledger(rng: random.Random, components: list[str], count: int, cycles: int) -> tuple[list[str], dict]:
    """Records with mixed severity and state, and a plan of add/resolve cycles.

    All timestamps share one offset, so comparing ISO strings compares
    instants.
    """
    width = len(str(count))
    records: dict[str, dict] = {}
    lines = []
    for i in range(1, count + 1):
        rid = f"V-{i:0{width}d}"
        opened = BASE_TIME + timedelta(minutes=rng.randrange(0, 150 * 24 * 60))
        roll = rng.random()
        if roll < 0.40:
            closed = opened + timedelta(minutes=rng.randrange(1, 30 * 24 * 60))
        elif roll < 0.45:
            closed = AS_OF + timedelta(days=rng.randint(1, 30))
        else:
            closed = None
        rec = {
            "id": rid,
            "description": _text(rng, "weakness", 6),
            "component": rng.choice(components),
            "severity": rng.choice(tuple(SEVERITY_WEIGHTS)),
            "opened_at": _iso(opened),
            "closed_at": _iso(closed) if closed else None,
            "source": rng.choice(SOURCES),
        }
        records[rid] = rec
        lines.append(json.dumps(rec, ensure_ascii=False))
    initial = _exposure(records)

    plan = []
    resolvable = [rid for rid, rec in records.items() if rec["closed_at"] is None]
    rng.shuffle(resolvable)
    for c in range(1, min(cycles, len(resolvable)) + 1):
        add = {
            "id": f"NEW-{c:04d}",
            "description": _text(rng, "new finding", 5),
            "component": rng.choice(components),
            "severity": rng.choice(tuple(SEVERITY_WEIGHTS)),
            "source": rng.choice(SOURCES),
        }
        records[add["id"]] = {**add, "opened_at": _iso(OPENED_AT), "closed_at": None}
        resolve = resolvable[c - 1]
        records[resolve] = {**records[resolve], "closed_at": _iso(CLOSED_AT)}
        exposure = _exposure(records)
        plan.append({
            "add": add,
            "resolve": resolve,
            "open_count": exposure["open_count"],
            "weighted": exposure["weighted"],
        })
    facts = {
        "count": count,
        "initial": initial,
        "cycles": plan,
        "opened_at": _iso(OPENED_AT),
        "closed_at": _iso(CLOSED_AT),
        "as_of": _iso(AS_OF),
    }
    return lines, facts


# --------------------------------------------------------------------------
# Workload inputs


def write_inputs(workload: str, seed: int, out: Path, scale: int = 1) -> dict:
    """Write one workload's inputs under ``out`` and return their facts.

    ``scale`` divides every size; the scaling probe uses 4.
    """
    sizes = dict(SIZES[workload])
    for key in ("n", "scenarios", "ledger"):
        if key in sizes:
            sizes[key] = max(1, sizes[key] // scale)
    out.mkdir(parents=True, exist_ok=True)

    def rng(part: str) -> random.Random:
        return random.Random(f"{workload}:{seed}:{scale}:{part}")

    def write(name: str, lines: list[str]) -> str:
        (out / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return name

    model_lines, model = make_model(rng("model"), sizes["n"])
    facts: dict = {"workload": workload, "seed": seed, "scale": scale, "sizes": sizes,
                   "model": model, "files": {"model": write("model.stpa", model_lines)}}
    if "scenarios" in sizes:
        lines, facts["scenarios"] = make_scenarios(rng("scenarios"), model, sizes["scenarios"])
        facts["files"]["scenarios"] = write("scenarios.stpa", lines)
    if sizes.get("broken"):
        lines, facts["broken"] = make_broken(rng("broken"), model_lines)
        facts["files"]["broken"] = write("broken.stpa", lines)
    if "ledger" in sizes:
        lines, facts["ledger"] = make_ledger(
            rng("ledger"), model["components"], sizes["ledger"], sizes.get("cycles", 0)
        )
        facts["files"]["ledger"] = write("ledger.jsonl", lines)
    facts["bytes"] = {name: (out / path).stat().st_size for name, path in facts["files"].items()}
    (out / "facts.json").write_text(json.dumps(facts, sort_keys=True, ensure_ascii=False), encoding="utf-8")
    return facts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args()
    facts = write_inputs(args.workload, args.seed, args.out, args.scale)
    print(json.dumps({"sizes": facts["sizes"], "bytes": facts["bytes"]}))


if __name__ == "__main__":
    main()
