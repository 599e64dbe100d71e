from __future__ import annotations

import csv
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpa_loc.analysis import DanglingReference, trace_pathway
from stpa_loc.dsl import parse_model
from stpa_loc.model import (
    AiCharacteristic,
    CausalFactorType,
    ComponentKind,
    ControlAction,
    ControlStructureModel,
    Component,
    Hazard,
    LifecyclePhase,
    Loss,
    LossScenario,
    ScenarioSubType,
    ScenarioType,
    UcaAnnotation,
    UcaType,
    model_fingerprint,
)
from stpa_loc.report import (
    CharacterizationRow,
    TableDirection,
    build_table,
    escape_cell,
    render_csv,
    render_json,
    render_markdown,
    render_pathway,
    unescape_cell,
)

E2C = TableDirection.EFFECT_TO_CAUSE
C2E = TableDirection.CAUSE_TO_EFFECT

HOST_SOURCE = """
system "host" {
  controller C
  process P {contains_ai: true}
  loss L-1 "a loss"
  loss L-2 "b loss"
  hazard H-1 "a hazard" leads_to L-1, L-2
  control_action CA-1 "act" from C to P
  annotate CA-1 not_provided context "idle" hazards H-1
}
"""


@pytest.fixture(scope="module")
def host():
    model, diags = parse_model(HOST_SOURCE)
    assert diags == []
    return model


def scenario(sid="S-1", uca="CA-1-not_provided", chars=(AiCharacteristic.AGENCY,), **overrides):
    fields = dict(
        id=sid,
        origin_component="C",
        origin_kind=ComponentKind.CONTROLLER,
        scenario_type=ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_PROVIDED}),
        causal_factors=frozenset({CausalFactorType.INADEQUATE_CONTROL_ALGORITHM}),
        ai_characteristics=frozenset(chars),
        description="controller holds back",
        uca=uca,
    )
    fields.update(overrides)
    return LossScenario(**fields)


# --- row construction --------------------------------------------------------


def test_build_table_resolves_cells(host):
    rows = build_table([scenario()], host, E2C)
    assert len(rows) == 1
    row = rows[0]
    assert row.lifecycle == "Operations"
    assert row.hazard == "a hazard"
    assert row.control_action == "act"
    assert row.scenario_type == "Unsafe Control Action"
    assert row.sub_type == "Control action not provided"
    assert row.causal_factors == "Inadequate control algorithm"
    assert row.detail == "controller holds back"
    assert row.ai_characteristics == "Agency"
    assert row.loss is None


def test_multi_valued_cells_keep_declaration_order(host):
    drafted = scenario(
        sub_types=frozenset(
            {ScenarioSubType.CA_WRONG_DURATION, ScenarioSubType.CA_NOT_PROVIDED}
        ),
        causal_factors=frozenset(
            {
                CausalFactorType.FLAWED_PROCESS_MODEL,
                CausalFactorType.INADEQUATE_CONTROL_ALGORITHM,
            }
        ),
        chars=(
            AiCharacteristic.SITUATIONAL_AWARENESS,
            AiCharacteristic.OUTER_MISALIGNMENT,
            AiCharacteristic.AGENCY,
        ),
    )
    row = build_table([drafted], host, E2C)[0]
    assert row.sub_type == (
        "Control action not provided / Control action provided for wrong duration"
    )
    assert row.causal_factors == (
        "Inadequate control algorithm; Controller process model failure"
    )
    assert row.ai_characteristics == "Outer misalignment, Agency, Situational awareness"


def test_unlinked_scenario_gets_na_cells(host):
    drafted = scenario(
        uca=None,
        scenario_type=ScenarioType.TYPE_B_IMPROPER_EXECUTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_EXECUTED}),
        origin_component="P",
        origin_kind=ComponentKind.CONTROLLED_PROCESS,
        chars=(),
    )
    row = build_table([drafted], host, E2C)[0]
    assert row.hazard == "N/A"
    assert row.control_action == "N/A"
    assert row.ai_characteristics == "N/A"


def test_include_loss_resolves_descriptions(host):
    row = build_table([scenario()], host, E2C, include_loss=True)[0]
    assert row.loss == "a loss; b loss"


def test_effect_rows_sort_by_hazard_then_id(host):
    linked_late = scenario(sid="S-9")
    linked_early = scenario(sid="S-1")
    unlinked = scenario(
        sid="S-0",
        uca=None,
        scenario_type=ScenarioType.TYPE_B_IMPROPER_EXECUTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_EXECUTED}),
        origin_component="P",
        origin_kind=ComponentKind.CONTROLLED_PROCESS,
    )
    rows = build_table([unlinked, linked_late, linked_early], host, E2C)
    assert [row.detail for row in rows] == [
        "controller holds back",
        "controller holds back",
        "controller holds back",
    ]
    assert [row.hazard for row in rows] == ["a hazard", "a hazard", "N/A"]


def test_cause_rows_sort_by_characteristics_cell(host):
    rows = build_table(
        [
            scenario(sid="S-1", chars=(AiCharacteristic.DECEPTION,)),
            scenario(sid="S-2", chars=(AiCharacteristic.AGENCY,)),
            scenario(sid="S-3", chars=(AiCharacteristic.AGENCY,)),
        ],
        host,
        C2E,
    )
    assert [row.ai_characteristics for row in rows] == ["Agency", "Agency", "Deception"]


def test_directions_hold_the_same_rows(fixture_scenarios, fixture_model):
    effect = build_table(fixture_scenarios, fixture_model, E2C)
    cause = build_table(fixture_scenarios, fixture_model, C2E)
    assert Counter(effect) == Counter(cause)
    assert len(effect) == 13


def test_build_table_checks_origin(host):
    with pytest.raises(DanglingReference):
        build_table([scenario(origin_component="Ghost")], host, E2C)


def test_build_table_checks_uca(host):
    with pytest.raises(DanglingReference):
        build_table([scenario(uca="CA-9-not_provided")], host, E2C)


def hand_model(**overrides) -> ControlStructureModel:
    parts = dict(
        name="m",
        lifecycle=LifecyclePhase.OPERATIONS,
        components=[
            Component(id="C", name="C", kind=ComponentKind.CONTROLLER),
            Component(id="P", name="P", kind=ComponentKind.CONTROLLED_PROCESS),
        ],
        losses=[],
        hazards=[],
        constraints=[],
        control_actions=[ControlAction(id="CA-1", label="act", source="C", target="P")],
        feedback_channels=[],
        annotations=[
            UcaAnnotation(
                control_action="CA-1",
                uca_type=UcaType.NOT_PROVIDED,
                context="idle",
                hazards={"H-1"},
            )
        ],
    )
    parts.update(overrides)
    return ControlStructureModel.from_items(**parts)


def test_build_table_checks_hazard_links():
    broken = hand_model()
    with pytest.raises(DanglingReference):
        build_table([scenario()], broken, E2C)


def test_build_table_checks_loss_links():
    broken = hand_model(
        hazards=[Hazard(id="H-1", description="a hazard", leads_to={"L-9"})]
    )
    with pytest.raises(DanglingReference):
        build_table([scenario()], broken, E2C, include_loss=True)
    assert build_table([scenario()], broken, E2C)[0].hazard == "a hazard"


def test_build_table_dangling_reference_messages(host):
    # `stpa-loc report` prints these on stderr; the wording is pinned
    unknown_loss = hand_model(
        hazards=[Hazard(id="H-1", description="a hazard", leads_to={"L-9"})]
    )
    cases = [
        (scenario(origin_component="Ghost"), host, "scenario S-1 origin 'Ghost' is not a model component"),
        (scenario(uca="CA-9-not_provided"), host, "UCA 'CA-9-not_provided' does not resolve in the model"),
        (scenario(), hand_model(), "scenario S-1 reaches unknown hazard 'H-1'"),
        (scenario(), unknown_loss, "scenario S-1 reaches unknown loss 'L-9'"),
    ]
    for drafted, model, message in cases:
        with pytest.raises(DanglingReference) as raised:
            build_table([drafted], model, E2C, include_loss=True)
        assert str(raised.value) == message


# --- CSV rendering -----------------------------------------------------------


E2C_HEADER = (
    "Lifecycle phase (control loop identifier),Hazard,Control action,"
    "Loss scenario type,Loss scenario sub-type,Causal factor type(s),"
    "Loss scenario description,"
    "Key characteristics of AI underlying causal factor(s)\n"
)

C2E_HEADER = (
    "Lifecycle phase (control loop identifier),"
    "Key characteristics of AI underlying causal factor(s),"
    "Loss scenario description,Causal factor type(s),Loss scenario sub-type,"
    "Loss scenario type,Control action,Hazard\n"
)


def test_csv_headers_are_pinned():
    assert render_csv([], E2C) == E2C_HEADER
    assert render_csv([], C2E) == C2E_HEADER


def nasty_row(loss=None) -> CharacterizationRow:
    return CharacterizationRow(
        lifecycle="Operations",
        hazard='haz "quoted", twice',
        control_action="multi\nline",
        scenario_type="Unsafe Control Action",
        sub_type="Control action not provided",
        causal_factors="Delay; Inadequate control algorithm",
        detail="pipe | backslash \\ comma, done",
        ai_characteristics="Agency",
        loss=loss,
    )


def test_csv_quoting_round_trips():
    text = render_csv([nasty_row()], E2C)
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 2
    row = parsed[1]
    assert row[1] == 'haz "quoted", twice'
    assert row[2] == "multi\nline"
    assert row[6] == "pipe | backslash \\ comma, done"


def test_csv_loss_column_placement():
    effect = render_csv([nasty_row(loss="a loss")], E2C)
    assert effect.splitlines()[0].split(",")[:3] == [
        "Lifecycle phase (control loop identifier)",
        "Loss",
        "Hazard",
    ]
    cause = render_csv([nasty_row(loss="a loss")], C2E)
    assert cause.splitlines()[0].endswith(",Hazard,Loss")


def test_csv_loss_column_needs_every_row():
    rows = [nasty_row(loss="a loss"), nasty_row()]
    assert render_csv(rows, E2C).splitlines()[0] == E2C_HEADER.rstrip("\n")


# --- markdown rendering --------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(text=st.text())
def test_escape_unescape_identity(text):
    assert unescape_cell(escape_cell(text)) == text


def test_escape_collisions_stay_distinct():
    pairs = [("a|b", "a\\|b"), ("a\\nb", "a\nb"), ("a\\\\nb", "a\\nb")]
    for left, right in pairs:
        assert escape_cell(left) != escape_cell(right)


def test_markdown_structure():
    text = render_markdown([nasty_row()], E2C)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[1] == "| " + " | ".join(["---"] * 8) + " |"
    assert text.endswith("\n")
    body = lines[2]
    assert body.startswith("| ") and body.endswith(" |")
    cells = body[2:-2].split(" | ")
    assert len(cells) == 8
    assert unescape_cell(cells[6]) == "pipe | backslash \\ comma, done"
    assert unescape_cell(cells[2]) == "multi\nline"


def test_markdown_loss_column(host):
    text = render_markdown(build_table([scenario()], host, E2C, include_loss=True), E2C)
    header = text.splitlines()[0]
    assert header.split(" | ")[1] == "Loss"


# --- JSON rendering -------------------------------------------------------------


def test_json_export_shape(host):
    rows = build_table([scenario()], host, E2C)
    payload = json.loads(render_json(rows, E2C, host))
    assert set(payload) == {"model_fingerprint", "direction", "rows"}
    assert payload["model_fingerprint"] == model_fingerprint(host)
    assert payload["direction"] == "effect_to_cause"
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert list(row) == [
        "lifecycle_phase",
        "hazard",
        "control_action",
        "loss_scenario_type",
        "loss_scenario_sub_type",
        "causal_factor_types",
        "loss_scenario_description",
        "key_characteristics_of_ai",
    ]
    assert row["hazard"] == "a hazard"


def test_json_cause_direction_key_order(host):
    rows = build_table([scenario()], host, C2E, include_loss=True)
    payload = json.loads(render_json(rows, C2E, host))
    assert payload["direction"] == "cause_to_effect"
    assert list(payload["rows"][0]) == [
        "lifecycle_phase",
        "key_characteristics_of_ai",
        "loss_scenario_description",
        "causal_factor_types",
        "loss_scenario_sub_type",
        "loss_scenario_type",
        "control_action",
        "hazard",
        "loss",
    ]


def test_json_ends_with_newline(host):
    assert render_json([], E2C, host).endswith("\n")


# --- pathway rendering ------------------------------------------------------------


def test_render_pathway_full_walk(fixture_scenarios, fixture_model):
    last = next(s for s in fixture_scenarios if s.id == "S-13")
    text = render_pathway(trace_pathway(last, fixture_model))
    assert text == (
        "ControlledProcess[inadequate_operation_of_controlled_process, deception]"
        " -> ProcessModelDefect[flawed_process_model]"
        " -> ControlActionSignal -> Hazard(H-1) -> Loss(L-1)"
    )


def test_render_pathway_deception_first(host):
    drafted = scenario(
        uca=None,
        scenario_type=ScenarioType.TYPE_B_IMPROPER_EXECUTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_EXECUTED}),
        origin_component="P",
        origin_kind=ComponentKind.CONTROLLED_PROCESS,
        causal_factors=frozenset(
            {
                CausalFactorType.FEEDBACK_INCORRECT_MISSING_DELAYED,
                CausalFactorType.FLAWED_PROCESS_MODEL,
            }
        ),
        chars=(AiCharacteristic.DECEPTION,),
    )
    text = render_pathway(trace_pathway(drafted, host))
    assert text.startswith("ControlledProcess[deception] -> Sensor")
    assert text.endswith("-> ControlActionSignal -> Hazard -> Loss")


def test_render_pathway_bare_stages(host):
    drafted = scenario(
        uca=None,
        scenario_type=ScenarioType.TYPE_B_IMPROPER_EXECUTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_EXECUTED}),
        origin_component="P",
        origin_kind=ComponentKind.CONTROLLED_PROCESS,
        causal_factors=frozenset({CausalFactorType.DELAY}),
        chars=(),
    )
    assert render_pathway(trace_pathway(drafted, host)) == (
        "Actuator[delay] -> Hazard -> Loss"
    )
