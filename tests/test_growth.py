"""Growth checks that count executed bytecodes instead of timing.

Each check runs a stage at n = 50 and n = 200 under ``sys.settrace`` with
opcode events on and compares the counts. A linear stage reads about 4, a
quadratic one about 16. The counts are deterministic after one warm-up
call, so unlike the timing checks in ``test_complexity.py`` these run in
the default suite. Work done in C, such as a set difference over dict
keys, does not show up here; the timing checks still cover it.
"""

from __future__ import annotations

import dataclasses
import sys
from datetime import datetime, timedelta, timezone

import pytest

from stpa_loc.analysis import (
    Ledger,
    VulnerabilityRecord,
    enumerate_ucas,
    ledger_load,
    ledger_register,
    ledger_save,
    trace_pathway,
)
from stpa_loc.catalog import generate_prompts, load_catalog
from stpa_loc.dsl import parse_model, parse_scenarios, serialize_model
from stpa_loc.model import (
    AgentNature,
    Component,
    ComponentKind,
    ControlStructureModel,
    LedgerSource,
    LifecyclePhase,
    RecordSeverity,
    model_fingerprint,
    validate_model,
)
from stpa_loc.report import TableDirection, build_table, render_csv, render_json, render_markdown

from test_complexity import scenario_source, synthetic

SMALL, LARGE = 50, 200
BOUND = 4.5


def executed_opcodes(run) -> int:
    """The number of bytecodes ``run()`` executes, callees included."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        else:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def opcode_growth(make_run) -> float:
    """opcodes(LARGE) / opcodes(SMALL), each counted after one warm-up call.

    The warm-up runs traced too: it fills caches, and on Python 3.12 and
    later a code object's first traced call can report fewer opcodes.
    """
    counts = {}
    for n in (SMALL, LARGE):
        run = make_run(n)
        executed_opcodes(run)
        counts[n] = executed_opcodes(run)
    return counts[LARGE] / counts[SMALL]


def table_run(n):
    model, scenarios = synthetic(n)
    return lambda: build_table(scenarios, model, TableDirection.EFFECT_TO_CAUSE, include_loss=True)


def pathway_run(n):
    model, scenarios = synthetic(n)
    return lambda: [trace_pathway(scenario, model) for scenario in scenarios]


def renderer_run(render):
    def make_run(n):
        model, scenarios = synthetic(n)
        rows = build_table(scenarios, model, TableDirection.CAUSE_TO_EFFECT, include_loss=True)
        return lambda: render(rows, TableDirection.CAUSE_TO_EFFECT)

    return make_run


def json_run(n):
    model, scenarios = synthetic(n)
    rows = build_table(scenarios, model, TableDirection.CAUSE_TO_EFFECT, include_loss=True)
    return lambda: render_json(rows, TableDirection.CAUSE_TO_EFFECT, model)


def serialize_run(n):
    model = synthetic(n)[0]
    return lambda: serialize_model(model)


def tab_indent(source: str, every: int) -> tuple[str, int]:
    """``source`` with a tab instead of the indentation of every ``every``-th
    item line (none for 0), and how many lines took one. Parsing leaves the
    fast prefix at each such line; at 1 the token path parses the whole body."""
    lines = source.split("\n")
    items = [i for i, line in enumerate(lines) if line.startswith("  ")]
    tabbed = items[every - 1::every] if every else []
    for i in tabbed:
        lines[i] = "\t" + lines[i].lstrip(" ")
    return "\n".join(lines), len(tabbed)


def commented(source: str) -> str:
    """``source`` with a comment line after each line of its body, and as
    many again in one run before its closing brace."""
    head, *body, close, tail = source.split("\n")
    notes = [f"  # note {i}" for i in range(len(body))]
    return "\n".join([head, *(line for pair in zip(body, notes) for line in pair), *notes, close, tail])


def parse_model_run(every: int, comments: bool = False):
    def make_run(n):
        model = synthetic(n)[0]
        source, tabbed = tab_indent(serialize_model(model), every)
        if comments:
            source = commented(source)
        parsed, diags = parse_model(source)
        assert parsed == model
        assert [d.rule_code for d in diags] == ["TabIndent"] * tabbed
        return lambda: parse_model(source)

    return make_run


def parse_scenarios_run(every: int):
    def make_run(n):
        model, scenarios = synthetic(n)
        source, tabbed = tab_indent(scenario_source(scenarios), every)
        parsed, diags = parse_scenarios(source, model)
        assert parsed == scenarios
        assert [d.rule_code for d in diags] == ["TabIndent"] * tabbed
        return lambda: parse_scenarios(source, model)

    return make_run


def validate_run(n):
    """A model keeps its validation result, so each call validates a fresh copy."""
    model = synthetic(n)[0]
    return lambda: validate_model(dataclasses.replace(model))


def fingerprint_run(n):
    """A model keeps its fingerprint, so each call digests a fresh copy."""
    model = synthetic(n)[0]
    return lambda: model_fingerprint(dataclasses.replace(model))


def enumerate_run(n):
    model = synthetic(n)[0]
    return lambda: enumerate_ucas(model)


def prompts_run(n):
    kinds, natures = list(ComponentKind), list(AgentNature)
    components = [
        Component(id=f"X-{i}", name=f"X-{i}", kind=kinds[i % len(kinds)], agent_nature=natures[i % len(natures)])
        for i in range(n)
    ]
    model = ControlStructureModel.from_items("prompts", LifecyclePhase.OPERATIONS, components=components)
    catalog = load_catalog()
    return lambda: generate_prompts(catalog, model)


def ledger_record(i):
    opened = datetime(2026, 1, 1, tzinfo=timezone.utc)
    closed = opened + timedelta(days=i) if i % 2 else None
    severity = list(RecordSeverity)[i % 3]
    return VulnerabilityRecord(f"V-{i}", f"gap {i}", "CP"[i % 2], severity, opened, LedgerSource.AUDIT, closed)


def ledger_of(n):
    return Ledger("fingerprint", frozenset({"C", "P"}), tuple(map(ledger_record, range(n))))


def ledger_register_run(n):
    """One registration on a ledger of n records: O(n) by design, because a
    ledger is a value and each call builds a new one."""
    ledger, new = ledger_of(n), ledger_record(n)
    return lambda: ledger_register(ledger, new)


# The two file cases use ledger.jsonl in the working directory, which the
# test points at a fresh temporary folder.


def ledger_load_run(n):
    ledger_save(ledger_of(n), "ledger.jsonl")
    model = synthetic(1)[0]
    return lambda: ledger_load("ledger.jsonl", model)


def ledger_save_run(n):
    ledger = ledger_of(n)
    return lambda: ledger_save(ledger, "ledger.jsonl")


@pytest.mark.parametrize(
    "make_run",
    [
        pytest.param(table_run, id="build_table"),
        pytest.param(pathway_run, id="trace_pathway"),
        pytest.param(renderer_run(render_csv), id="render_csv"),
        pytest.param(renderer_run(render_markdown), id="render_markdown"),
        pytest.param(json_run, id="render_json"),
        pytest.param(serialize_run, id="serialize_model"),
        pytest.param(parse_model_run(0), id="parse_model-fast"),
        pytest.param(parse_model_run(1), id="parse_model-tokens"),
        pytest.param(parse_model_run(10), id="parse_model-resume"),
        pytest.param(parse_model_run(0, comments=True), id="parse_model-comments"),
        pytest.param(parse_model_run(1, comments=True), id="parse_model-comments-tokens"),
        pytest.param(parse_scenarios_run(0), id="parse_scenarios-fast"),
        pytest.param(parse_scenarios_run(1), id="parse_scenarios-tokens"),
        pytest.param(parse_scenarios_run(10), id="parse_scenarios-resume"),
        pytest.param(validate_run, id="validate_model"),
        pytest.param(fingerprint_run, id="model_fingerprint"),
        pytest.param(enumerate_run, id="enumerate_ucas"),
        pytest.param(prompts_run, id="generate_prompts"),
        pytest.param(ledger_register_run, id="ledger_register"),
        pytest.param(ledger_load_run, id="ledger_load"),
        pytest.param(ledger_save_run, id="ledger_save"),
    ],
)
def test_executed_bytecodes_grow_linearly(make_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert opcode_growth(make_run) < BOUND
