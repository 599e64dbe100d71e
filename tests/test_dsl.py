from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpa_loc.dsl import _lex, parse_model, parse_scenarios, serialize_model
from stpa_loc.model import (
    AgentNature,
    AiCharacteristic,
    CausalFactorType,
    Component,
    ComponentKind,
    ControlAction,
    ControlStructureModel,
    FeedbackChannel,
    Hazard,
    InvalidModel,
    LifecyclePhase,
    Loss,
    SafetyConstraint,
    ScenarioSubType,
    ScenarioType,
    SourceSpan,
    UcaAnnotation,
    UcaType,
    format_diagnostic,
    has_errors,
    model_fingerprint,
)

from strategies import models


def codes(diagnostics) -> list[str]:
    return [d.rule_code for d in diagnostics]


WELL_FORMED = """
# top level comment
system "demo rig" {
  lifecycle: deployment
  controller Ctl {kind: human notes: "keeps watch"}
  process Proc {contains_ai: true}
  actuator Act
  sensor Sen
  loss L-1 "money gone"
  loss L-2 "trust gone"
  hazard H-1 "system misbehaves" leads_to L-1, L-2
  constraint SC-1 "it must behave" mitigates H-1 enforced_by CA-1
  control_action CA-1 "adjust" from Ctl to Proc via Act
  feedback FB-1 "report" from Proc to Ctl via Sen
  annotate CA-1 not_provided context "drift goes uncorrected" hazards H-1
}
"""


def test_parse_well_formed_model():
    model, diags = parse_model(WELL_FORMED, "demo.stpa")
    assert diags == []
    assert model.name == "demo rig"
    assert model.lifecycle is LifecyclePhase.DEPLOYMENT
    assert set(model.components) == {"Ctl", "Proc", "Act", "Sen"}
    ctl = model.components["Ctl"]
    assert ctl.kind is ComponentKind.CONTROLLER
    assert ctl.agent_nature is AgentNature.HUMAN
    assert ctl.notes == "keeps watch"
    assert ctl.name == "Ctl"
    assert model.components["Proc"].agent_nature is AgentNature.AI_CONTAINING
    assert model.components["Act"].agent_nature is AgentNature.AUTOMATED
    assert model.hazards["H-1"].leads_to == {"L-1", "L-2"}
    sc = model.constraints["SC-1"]
    assert sc.mitigates == {"H-1"}
    assert sc.enforced_by == {"CA-1"}
    ca = model.control_actions["CA-1"]
    assert (ca.source, ca.target, ca.via) == ("Ctl", "Proc", "Act")
    fb = model.feedback_channels["FB-1"]
    assert (fb.source, fb.target, fb.via) == ("Proc", "Ctl", "Sen")
    ann = model.annotations[("CA-1", UcaType.NOT_PROVIDED)]
    assert ann.context == "drift goes uncorrected"
    assert ann.hazards == {"H-1"}


def test_lifecycle_defaults_to_operations():
    model, diags = parse_model('system "x" { controller C process P }')
    assert diags == []
    assert model.lifecycle is LifecyclePhase.OPERATIONS


def test_last_lifecycle_declaration_wins():
    model, diags = parse_model(
        'system "x" { lifecycle: design lifecycle: decommissioning }'
    )
    assert diags == []
    assert model.lifecycle is LifecyclePhase.DECOMMISSIONING


def test_contains_ai_false_means_automated():
    model, _ = parse_model('system "x" { process P {contains_ai: false} }')
    assert model.components["P"].agent_nature is AgentNature.AUTOMATED


def test_string_escapes_decode():
    model, diags = parse_model(r'system "x" { loss L-1 "say \"hi\" \\ done" }')
    assert diags == []
    assert model.losses["L-1"].description == 'say "hi" \\ done'


# --- diagnostics, one per rule code ----------------------------------------


def test_unexpected_token():
    _, diags = parse_model('system "x" { loss L-1 }')
    assert "UnexpectedToken" in codes(diags)


def test_unexpected_character():
    _, diags = parse_model("@")
    assert "UnexpectedToken" in codes(diags)


def test_unknown_keyword():
    _, diags = parse_model('system "x" { widget W-1 }')
    assert "UnknownKeyword" in codes(diags)


def test_unknown_attribute_is_reported_but_component_kept():
    model, diags = parse_model('system "x" { controller C {color: "red"} }')
    assert "UnknownAttribute" in codes(diags)
    assert "C" in model.components


def test_unknown_enum_token():
    _, diags = parse_model('system "x" { lifecycle: banana }')
    assert "UnknownEnumToken" in codes(diags)


def test_unknown_agent_nature_word():
    _, diags = parse_model('system "x" { controller C {kind: robot} }')
    assert "UnknownEnumToken" in codes(diags)


def test_unterminated_string():
    _, diags = parse_model('system "x" {\n  loss L-1 "boom\n}')
    assert "UnterminatedString" in codes(diags)


def test_bad_escape():
    _, diags = parse_model(r'system "x" { loss L-1 "a\tb" }')
    assert "BadEscape" in codes(diags)


def test_bad_identifier_length():
    long_id = "a" * 65
    _, diags = parse_model(f'system "x" {{ controller {long_id} }}')
    assert "BadIdentifier" in codes(diags)


def test_duplicate_id_keeps_first_declaration():
    model, diags = parse_model('system "x" { loss X "first" loss X "second" }')
    assert "DuplicateId" in codes(diags)
    assert model.losses["X"].description == "first"


def test_duplicate_annotation():
    src = (
        'system "x" { control_action CA-1 "go" from C to P '
        'annotate CA-1 not_provided context "a" '
        'annotate CA-1 not_provided context "b" }'
    )
    model, diags = parse_model(src)
    assert "DuplicateAnnotation" in codes(diags)
    assert model.annotations[("CA-1", UcaType.NOT_PROVIDED)].context == "a"


def test_tab_indent_warns_once_per_line():
    src = 'system "x" {\n\t\tloss L-1 "a loss"\n\tloss L-2 "b loss"\n}'
    model, diags = parse_model(src)
    warnings = [d for d in diags if d.rule_code == "TabIndent"]
    assert len(warnings) == 2
    assert not has_errors(diags)
    assert set(model.losses) == {"L-1", "L-2"}


def test_recovery_parses_items_after_error():
    model, diags = parse_model('system "x" { widget W-1 loss L-1 "a loss" }')
    assert has_errors(diags)
    assert "L-1" in model.losses


def test_parse_never_raises_on_garbage():
    model, diags = parse_model("%%% not even close {{{")
    assert has_errors(diags)
    assert isinstance(model, ControlStructureModel)


# --- lexer output, pinned -----------------------------------------------------
#
# Each row: source, the lexer's diagnostics as (rule_code, message, line,
# column, length), and the (line, column) of the end-of-input token.

LEXER_CASES = [
    pytest.param(
        '"abc',
        [("UnterminatedString", "string not closed before end of line", 1, 1, 4)],
        (1, 5),
        id="unterminated-string",
    ),
    pytest.param(
        '"a\\tb"',
        [("BadEscape", "unsupported escape sequence \\t", 1, 3, 2)],
        (1, 7),
        id="bad-escape",
    ),
    pytest.param(
        "x\n\tloss",
        [("TabIndent", "tab used in indentation", 2, 1, 1)],
        (2, 6),
        id="tab-indent",
    ),
    pytest.param(
        "a" * 65,
        [("BadIdentifier", "identifier aaaaaaaaaaaaaaaa... exceeds 64 characters", 1, 1, 65)],
        (1, 66),
        id="bad-identifier",
    ),
    pytest.param(
        "@",
        [("UnexpectedToken", "unexpected character '@'", 1, 1, 1)],
        (1, 2),
        id="unexpected-character",
    ),
    # input that ends inside a comment puts the end-of-input token at its '#'
    pytest.param("a # c", [], (1, 3), id="eof-after-final-comment"),
    pytest.param("x\n  # c\n", [], (3, 1), id="eof-after-comment-and-newline"),
    pytest.param(
        '"a\\\nb"',
        [
            ("BadEscape", "unsupported escape sequence \\\n", 1, 3, 2),
            ("UnterminatedString", "string not closed before end of line", 1, 1, 3),
            ("UnterminatedString", "string not closed before end of line", 2, 2, 1),
        ],
        (2, 3),
        id="backslash-before-newline",
    ),
    pytest.param(
        '"a\\',
        [
            ("BadEscape", "unsupported escape sequence \\", 1, 3, 2),
            ("UnterminatedString", "string not closed before end of line", 1, 1, 3),
        ],
        (1, 4),
        id="backslash-at-end-of-input",
    ),
    pytest.param(
        "  \tx",
        [("TabIndent", "tab used in indentation", 1, 3, 1)],
        (1, 5),
        id="tab-after-leading-spaces",
    ),
    pytest.param("x\t\ty", [], (1, 5), id="tab-after-text-is-not-indent"),
    pytest.param(
        'a\r\nb "c\r\n',
        [("UnterminatedString", "string not closed before end of line", 2, 3, 3)],
        (3, 1),
        id="crlf-line-endings",
    ),
    pytest.param(
        "\u00e9",
        [("UnexpectedToken", "unexpected character '\u00e9'", 1, 1, 1)],
        (1, 2),
        id="non-ascii-letter",
    ),
    pytest.param(
        "\t\tx",
        [("TabIndent", "tab used in indentation", 1, 1, 1)],
        (1, 4),
        id="two-tabs-warn-once",
    ),
]


@pytest.mark.parametrize("source, expected, eof", LEXER_CASES)
def test_lexer_diagnostics_and_eof_span(source, expected, eof):
    tokens, diags = _lex(source, "f.stpa")
    got = [(d.rule_code, d.message, d.span.line, d.span.column, d.span.length) for d in diags]
    assert got == expected
    assert all(d.span.file == "f.stpa" for d in diags)
    end = tokens[-1]
    assert (end.kind, end.text, end.span) == ("EOF", "", SourceSpan("f.stpa", *eof, 1))


LEXER_ALPHABET = st.one_of(st.characters(), st.sampled_from('"\\#{}:,\n\r\t -_aZ9'))


@settings(max_examples=200, deadline=None)
@given(source=st.text(LEXER_ALPHABET))
def test_parsing_arbitrary_text_never_raises(source):
    host, _ = parse_model(SCENARIO_HOST)
    _, model_diags = parse_model(source)
    _, scenario_diags = parse_scenarios(source, host)
    last_line = source.count("\n") + 1
    assert all(d.span.line <= last_line for d in model_diags + scenario_diags)


def test_parse_diagnostic_positions():
    _, diags = parse_model('system "x" {\n  lifecycle: banana\n}', "m.stpa")
    bad = next(d for d in diags if d.rule_code == "UnknownEnumToken")
    assert format_diagnostic(bad).startswith("m.stpa:2:14: error[UnknownEnumToken]")


# --- canonical serialization ------------------------------------------------


def canonical_model() -> ControlStructureModel:
    return ControlStructureModel.from_items(
        name="demo",
        lifecycle=LifecyclePhase.DEPLOYMENT,
        components=[
            Component(
                id="Ctl",
                name="Ctl",
                kind=ComponentKind.CONTROLLER,
                agent_nature=AgentNature.HUMAN,
                notes='say "hi" \\ done',
            ),
            Component(
                id="Proc",
                name="Proc",
                kind=ComponentKind.CONTROLLED_PROCESS,
                agent_nature=AgentNature.AI_CONTAINING,
            ),
            Component(id="Act", name="Act", kind=ComponentKind.ACTUATOR),
            Component(id="Sen", name="Sen", kind=ComponentKind.SENSOR),
        ],
        losses=[Loss(id="L-1", description="a loss")],
        hazards=[Hazard(id="H-1", description="a hazard", leads_to={"L-1"})],
        constraints=[
            SafetyConstraint(
                id="SC-1", text="stay safe", mitigates={"H-1"}, enforced_by={"CA-1"}
            )
        ],
        control_actions=[
            ControlAction(id="CA-1", label="go", source="Ctl", target="Proc", via="Act")
        ],
        feedback_channels=[
            FeedbackChannel(id="FB-1", label="see", source="Proc", target="Ctl", via="Sen")
        ],
        annotations=[
            UcaAnnotation(
                control_action="CA-1",
                uca_type=UcaType.PROVIDED_CAUSES_HAZARD,
                context="late",
                hazards={"H-1"},
            ),
            UcaAnnotation(
                control_action="CA-1", uca_type=UcaType.NOT_PROVIDED, context="never"
            ),
        ],
    )


EXPECTED_CANONICAL = """system "demo" {
  lifecycle: deployment
  actuator Act
  controller Ctl {kind: human notes: "say \\"hi\\" \\\\ done"}
  process Proc {kind: ai}
  sensor Sen
  loss L-1 "a loss"
  hazard H-1 "a hazard" leads_to L-1
  constraint SC-1 "stay safe" mitigates H-1 enforced_by CA-1
  control_action CA-1 "go" from Ctl to Proc via Act
  feedback FB-1 "see" from Proc to Ctl via Sen
  annotate CA-1 not_provided context "never"
  annotate CA-1 provided_causes_hazard context "late" hazards H-1
}
"""


def test_serialize_canonical_form():
    assert serialize_model(canonical_model()) == EXPECTED_CANONICAL


def test_serialize_rejects_invalid_model():
    model = ControlStructureModel.from_items(
        name="x", lifecycle=LifecyclePhase.OPERATIONS
    )
    with pytest.raises(InvalidModel):
        serialize_model(model)


def test_canonical_text_parses_back_equal():
    model = canonical_model()
    reparsed, diags = parse_model(serialize_model(model))
    assert diags == []
    assert model_fingerprint(reparsed) == model_fingerprint(model)


@settings(max_examples=200, deadline=None)
@given(model=models())
def test_round_trip_preserves_fingerprint(model):
    text = serialize_model(model)
    reparsed, diags = parse_model(text)
    assert diags == []
    assert model_fingerprint(reparsed) == model_fingerprint(model)
    assert serialize_model(reparsed) == text


# --- scenario files ---------------------------------------------------------


SCENARIO_HOST = """
system "host" {
  controller C
  process P {contains_ai: true}
  loss L-1 "a loss"
  hazard H-1 "a hazard" leads_to L-1
  control_action CA-1 "act" from C to P
  annotate CA-1 not_provided context "idle" hazards H-1
}
"""


@pytest.fixture()
def host_model():
    model, diags = parse_model(SCENARIO_HOST)
    assert diags == []
    return model


GOOD_SCENARIOS = """
scenarios "demo set" {
  scenario S-1 {
    origin: C
    uca: CA-1-not_provided
    type: type_a
    sub_types: not_provided, wrong_duration
    factors: inadequate_control_algorithm, flawed_process_model
    characteristics: agency, deception
    catalog: A3-11
    description: "controller stands by"
  }
  scenario S-2 {
    origin: P
    type: type_b
    sub_types: not_executed
    factors: inadequate_operation_of_controlled_process
    description: "process shrugs the order off"
  }
}
"""


def test_parse_scenarios_well_formed(host_model):
    scenarios, diags = parse_scenarios(GOOD_SCENARIOS, host_model)
    assert diags == []
    assert [s.id for s in scenarios] == ["S-1", "S-2"]
    first = scenarios[0]
    assert first.origin_component == "C"
    assert first.origin_kind is ComponentKind.CONTROLLER
    assert first.scenario_type is ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION
    assert first.sub_types == {
        ScenarioSubType.CA_NOT_PROVIDED,
        ScenarioSubType.CA_WRONG_DURATION,
    }
    assert first.causal_factors == {
        CausalFactorType.INADEQUATE_CONTROL_ALGORITHM,
        CausalFactorType.FLAWED_PROCESS_MODEL,
    }
    assert first.ai_characteristics == {
        AiCharacteristic.AGENCY,
        AiCharacteristic.DECEPTION,
    }
    assert first.catalog_refs == {"A3-11"}
    assert first.uca == "CA-1-not_provided"
    second = scenarios[1]
    assert second.origin_kind is ComponentKind.CONTROLLED_PROCESS
    assert second.uca is None
    assert second.ai_characteristics == frozenset()


def test_scenarios_title_string_is_optional(host_model):
    scenarios, diags = parse_scenarios(
        'scenarios { scenario S-1 { origin: P type: type_b sub_types: not_executed '
        'factors: delay description: "d" } }',
        host_model,
    )
    assert diags == []
    assert len(scenarios) == 1


def test_scenario_missing_field(host_model):
    _, diags = parse_scenarios(
        "scenarios { scenario S-1 { origin: P type: type_b sub_types: not_executed "
        "factors: delay } }",
        host_model,
    )
    missing = next(d for d in diags if d.rule_code == "MissingField")
    assert "description" in missing.message


def test_scenario_type_a_requires_uca(host_model):
    _, diags = parse_scenarios(
        "scenarios { scenario S-1 { origin: C type: type_a sub_types: not_provided "
        'factors: delay description: "d" } }',
        host_model,
    )
    assert "IllegalScenario" in codes(diags)


def test_scenario_rejects_subtype_foreign_to_type(host_model):
    _, diags = parse_scenarios(
        "scenarios { scenario S-1 { origin: P type: type_b sub_types: not_provided "
        'factors: delay description: "d" } }',
        host_model,
    )
    assert "IllegalScenario" in codes(diags)


def test_scenario_unknown_origin(host_model):
    _, diags = parse_scenarios(
        "scenarios { scenario S-1 { origin: Nobody type: type_b sub_types: not_executed "
        'factors: delay description: "d" } }',
        host_model,
    )
    assert "DanglingComponentRef" in codes(diags)


def test_scenario_duplicate_id(host_model):
    body = (
        '{ origin: P type: type_b sub_types: not_executed factors: delay description: "d" }'
    )
    scenarios, diags = parse_scenarios(
        f"scenarios {{ scenario S-1 {body} scenario S-1 {body} }}", host_model
    )
    assert "DuplicateId" in codes(diags)
    assert len(scenarios) == 1


def test_scenario_unknown_factor_token(host_model):
    _, diags = parse_scenarios(
        "scenarios { scenario S-1 { origin: P type: type_b sub_types: not_executed "
        'factors: gremlins description: "d" } }',
        host_model,
    )
    assert "UnknownEnumToken" in codes(diags)
