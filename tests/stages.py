"""The stage table both growth gates run: synthetic inputs of size n, and one
builder per stage.

Each builder takes n and returns a zero-argument callable that runs the
stage once on an input of that size. ``tests/test_growth.py`` counts the
bytecodes of every stage at two sizes in the default suite;
``tests/test_complexity.py`` times the stages it names, on request. The
ledger file stages read and write ``ledger-<n>.jsonl`` in the working
directory, which both gates point at a fresh temporary folder.
"""

from __future__ import annotations

import dataclasses
from datetime import datetime, timedelta, timezone

from stpa_loc.analysis import (
    Ledger,
    VulnerabilityRecord,
    enumerate_ucas,
    ledger_load,
    ledger_register,
    ledger_save,
    trace_pathway,
    uca_id,
)
from stpa_loc.catalog import generate_prompts, load_catalog
from stpa_loc.dsl import parse_model, parse_scenarios, serialize_model
from stpa_loc.model import (
    AgentNature,
    CausalFactorType,
    Component,
    ComponentKind,
    ControlAction,
    ControlStructureModel,
    Hazard,
    LedgerSource,
    LifecyclePhase,
    Loss,
    LossScenario,
    RecordSeverity,
    ScenarioSubType,
    ScenarioType,
    UcaAnnotation,
    UcaType,
    model_fingerprint,
    validate_model,
)
from stpa_loc.report import TableDirection, build_table, render_csv, render_json, render_markdown


def synthetic(n: int) -> tuple[ControlStructureModel, list[LossScenario]]:
    """n control actions, hazards and losses; n scenarios citing UCAs."""
    components = [
        Component(id="C", name="C", kind=ComponentKind.CONTROLLER),
        Component(id="P", name="P", kind=ComponentKind.CONTROLLED_PROCESS),
    ]
    actions = [
        ControlAction(id=f"CA-{i}", label=f"act {i}", source="C", target="P") for i in range(n)
    ]
    uca_types = list(UcaType)
    annotations = [
        UcaAnnotation(
            control_action=f"CA-{i}",
            uca_type=uca_types[i % 4],
            context=f"context {i}",
            hazards={f"H-{i}"},
        )
        for i in range(n)
    ]
    model = ControlStructureModel.from_items(
        name="synthetic",
        lifecycle=LifecyclePhase.OPERATIONS,
        components=components,
        losses=[Loss(id=f"L-{i}", description=f"loss {i}") for i in range(n)],
        hazards=[
            Hazard(id=f"H-{i}", description=f"hazard {i}", leads_to={f"L-{i}"}) for i in range(n)
        ],
        control_actions=actions,
        annotations=annotations,
    )
    scenarios = [
        LossScenario(
            id=f"S-{i}",
            origin_component="C",
            origin_kind=ComponentKind.CONTROLLER,
            scenario_type=ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
            sub_types=frozenset({ScenarioSubType.CA_NOT_PROVIDED}),
            causal_factors=frozenset({CausalFactorType.FLAWED_PROCESS_MODEL}),
            description=f"scenario {i}",
            # citations spread over every action, so a scan walks half the model
            uca=uca_id(f"CA-{(7 * i) % n}", uca_types[(7 * i) % 4]),
        )
        for i in range(n)
    ]
    return model, scenarios


def scenario_source(scenarios: list[LossScenario]) -> str:
    """The scenario-file text for ``scenarios``, one scenario per line."""
    lines = ["scenarios {"]
    for scenario in scenarios:
        lines.append(
            f"  scenario {scenario.id} {{ origin: {scenario.origin_component} uca: {scenario.uca}"
            f" type: {scenario.scenario_type.token}"
            f" sub_types: {', '.join(t.token for t in scenario.sub_types)}"
            f" factors: {', '.join(f.token for f in scenario.causal_factors)}"
            f' description: "{scenario.description}" }}'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def table_run(n):
    """A model keeps its scenario resolutions, so each call resolves against a fresh copy."""
    model, scenarios = synthetic(n)
    return lambda: build_table(scenarios, dataclasses.replace(model), TableDirection.EFFECT_TO_CAUSE, include_loss=True)


def pathway_run(n):
    """A model keeps its scenario resolutions, so each call resolves against a fresh copy."""
    model, scenarios = synthetic(n)

    def run():
        fresh = dataclasses.replace(model)
        return [trace_pathway(scenario, fresh) for scenario in scenarios]

    return run


def renderer_run(render, direction=TableDirection.CAUSE_TO_EFFECT):
    """One render of an n-row table; ``render_json`` also takes the model."""

    def make_run(n):
        model, scenarios = synthetic(n)
        rows = build_table(scenarios, model, direction, include_loss=True)
        args = (rows, direction, model) if render is render_json else (rows, direction)
        return lambda: render(*args)

    return make_run


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


def trailing_comments_run(n):
    """A run of 3n comment lines before the closing brace, reached by the fast
    prefix and, after a tab-indented last item, by the token path."""
    source = serialize_model(synthetic(n)[0])
    last_item = source.rindex("\n  ", 0, -3) + 1
    run = "  # note\n" * (3 * n)
    fast = source.replace("\n}", "\n" + run + "}")
    tabbed = (source[:last_item] + "\t" + source[last_item + 2 :]).replace("\n}", "\n" + run + "}")
    assert parse_model(fast)[1] == [] and [d.rule_code for d in parse_model(tabbed)[1]] == ["TabIndent"]
    return lambda: (parse_model(fast), parse_model(tabbed))


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


OPENED = datetime(2026, 1, 1, tzinfo=timezone.utc)


def ledger_record(i):
    """Every severity, and every other record closed."""
    closed = OPENED + timedelta(days=i) if i % 2 else None
    severity = list(RecordSeverity)[i % 3]
    return VulnerabilityRecord(f"V-{i}", f"gap {i}", "CP"[i % 2], severity, OPENED, LedgerSource.AUDIT, closed)


def open_record(i):
    """Low severity and open, each opened a minute after the last."""
    return VulnerabilityRecord(
        f"V-{i}", f"weakness {i}", "CP"[i % 2], RecordSeverity.LOW, OPENED + timedelta(minutes=i), LedgerSource.AUDIT
    )


def ledger_of(n, record=ledger_record):
    return Ledger(components=frozenset({"C", "P"}), records=tuple(map(record, range(n))))


def ledger_register_run(n):
    """One registration on a ledger of n records: O(n) by design, because a
    ledger is a value and each call builds a new one."""
    ledger, new = ledger_of(n), ledger_record(n)
    return lambda: ledger_register(ledger, new)


def ledger_load_run(record):
    def make_run(n):
        path = f"ledger-{n}.jsonl"
        ledger_save(ledger_of(n, record), path)
        model = synthetic(1)[0]
        return lambda: ledger_load(path, model)

    return make_run


def ledger_save_run(n):
    ledger = ledger_of(n)
    return lambda: ledger_save(ledger, f"ledger-{n}.jsonl")


STAGES = {
    "build_table": table_run,
    "trace_pathway": pathway_run,
    "render_csv": renderer_run(render_csv),
    "render_markdown": renderer_run(render_markdown),
    "render_json": renderer_run(render_json),
    "render_json-effect_to_cause": renderer_run(render_json, TableDirection.EFFECT_TO_CAUSE),
    "serialize_model": serialize_run,
    "parse_model-fast": parse_model_run(0),
    "parse_model-tokens": parse_model_run(1),
    "parse_model-resume": parse_model_run(10),
    "parse_model-comments": parse_model_run(0, comments=True),
    "parse_model-comments-tokens": parse_model_run(1, comments=True),
    "parse_model-comment-run": trailing_comments_run,
    "parse_scenarios-fast": parse_scenarios_run(0),
    "parse_scenarios-tokens": parse_scenarios_run(1),
    "parse_scenarios-resume": parse_scenarios_run(10),
    "validate_model": validate_run,
    "model_fingerprint": fingerprint_run,
    "enumerate_ucas": enumerate_run,
    "generate_prompts": prompts_run,
    "ledger_register": ledger_register_run,
    "ledger_load": ledger_load_run(ledger_record),
    "ledger_load-open": ledger_load_run(open_record),
    "ledger_save": ledger_save_run,
}
