from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpa_loc import dsl
from stpa_loc.dsl import (
    _UCA_ID_LIMIT,
    _lex,
    _ModelParser,
    _ScenarioParser,
    parse_model,
    parse_scenarios,
    serialize_model,
)
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

from conftest import MODEL_PATH, SCENARIOS_PATH, TINY_MODEL
from strategies import apply_edits, edits, models
from stages import scenario_source, synthetic


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


def test_lexer_stretch_stops_at_end_and_only_the_last_has_eof():
    source = 'a "b"\n  c, d  # note\n  e {\n  f # last'
    end = source.index("  e")
    tokens, diags = _lex(source, "f.stpa", pos=0, line=1, end=end)
    assert diags == []
    assert [t.text for t in tokens] == ["a", "b", "c", ",", "d"]
    assert all(t.kind != "EOF" and (t.line, t.column) < (3, 1) for t in tokens)
    rest, _ = _lex(source, "f.stpa", pos=end, line=3)
    assert [(t.kind, t.text, t.line, t.column) for t in rest] == [
        ("IDENT", "e", 3, 3), ("LBRACE", "{", 3, 5), ("IDENT", "f", 4, 3), ("EOF", "", 4, 5)
    ]


LEXER_ALPHABET = st.one_of(st.characters(), st.sampled_from('"\\#{}:,\n\r\t -_aZ9'))


@settings(max_examples=200, deadline=None)
@given(source=st.text(LEXER_ALPHABET))
def test_parsing_arbitrary_text_never_raises(source):
    host, _ = parse_model(TINY_MODEL)
    _, model_diags = parse_model(source)
    _, scenario_diags = parse_scenarios(source, host)
    last_line = source.count("\n") + 1
    assert all(d.span.line <= last_line for d in model_diags + scenario_diags)


def test_parse_diagnostic_positions():
    _, diags = parse_model('system "x" {\n  lifecycle: banana\n}', "m.stpa")
    bad = next(d for d in diags if d.rule_code == "UnknownEnumToken")
    assert format_diagnostic(bad).startswith("m.stpa:2:14: error[UnknownEnumToken]")


# Each row: which parser, the source, and every diagnostic it yields as
# (rule code, message, line, column, length), in order.

SCENARIO_BODY = 'origin: P type: type_b sub_types: not_executed factors: delay description: "d"'
LONG_UCA = "CA-" + "x" * 61 + "-provided_causes_hazard"

PARSER_CASES = [
    pytest.param(
        "model",
        'system "x" {\n  loss L-1 }',
        [("UnexpectedToken", "expected the loss description, found '}'", 2, 12, 1)],
        id="unexpected-token",
    ),
    pytest.param(
        "model",
        'system "x" {\n  loss "" "x"\n}',
        [("UnexpectedToken", "expected a loss id, found ''", 2, 8, 2)],
        id="empty-string-is-not-end-of-input",
    ),
    pytest.param(
        "model",
        "system x {}",
        [
            ("UnexpectedToken", "expected the system name string, found 'x'", 1, 8, 1),
            ("UnexpectedToken", "expected '{', found 'x'", 1, 8, 1),
            ("UnknownKeyword", "unknown declaration keyword 'x'", 1, 8, 1),
        ],
        id="missing-system-name",
    ),
    pytest.param(
        "model",
        'system "x" {\n  gadget G\n}',
        [("UnknownKeyword", "unknown declaration keyword 'gadget'", 2, 3, 6)],
        id="unknown-keyword",
    ),
    # a token that starts no declaration is skipped up to the next keyword, which parses
    pytest.param(
        "model",
        'system "x" {\n  : loss L-1 "a"\n}',
        [("UnexpectedToken", "expected a declaration, found ':'", 2, 3, 1)],
        id="stray-punctuation-before-a-declaration",
    ),
    pytest.param(
        "model",
        'system "x" {\n  controller C {colour: red}\n}',
        [("UnknownAttribute", "unknown attribute 'colour'", 2, 17, 6)],
        id="unknown-attribute",
    ),
    pytest.param(
        "model",
        'system "x" {\n  controller C {kind: robot}\n}',
        [
            (
                "UnknownEnumToken",
                "unknown agent nature 'robot' (expected human, automated or ai)",
                2, 23, 5,
            )
        ],
        id="unknown-agent-nature",
    ),
    pytest.param(
        "model",
        'system "x" {\n  controller C {contains_ai: maybe}\n}',
        [("UnknownEnumToken", "expected true or false, found 'maybe'", 2, 30, 5)],
        id="unknown-boolean",
    ),
    pytest.param(
        "model",
        'system "x" {\n  annotate CA-1 sometimes context "a"\n}',
        [
            (
                "UnknownEnumToken",
                "unknown UCA type 'sometimes' (expected one of: not_provided,"
                " provided_causes_hazard, wrong_time_or_order, wrong_duration)",
                2, 17, 9,
            )
        ],
        id="unknown-uca-type",
    ),
    # an item that breaks before its id, or at a channel's target, syncs to the next item
    pytest.param(
        "model",
        'system "x" {\n  controller "x"\n}',
        [("UnexpectedToken", "expected a component id, found 'x'", 2, 14, 3)],
        id="component-without-id",
    ),
    pytest.param(
        "model",
        'system "x" {\n  control_action CA-1 "go" from C to "P"\n}',
        [("UnexpectedToken", "expected the target component id, found 'P'", 2, 38, 3)],
        id="channel-target-is-a-string",
    ),
    pytest.param(
        "model",
        'system "x" {\n  annotate "x" not_provided\n}',
        [("UnexpectedToken", "expected a control action id, found 'x'", 2, 12, 3)],
        id="annotation-without-action-id",
    ),
    pytest.param(
        "model",
        'system "x" {\n  loss L-1 "a"\n  hazard L-1 "b" leads_to L-1\n}',
        [("DuplicateId", "id L-1 already declared as a loss", 3, 10, 3)],
        id="duplicate-model-id",
    ),
    pytest.param(
        "model",
        'system "x" {\n  annotate CA-1 not_provided context "a"\n'
        '  annotate CA-1 not_provided context "b"\n}',
        [("DuplicateAnnotation", "control action CA-1 already annotated for not_provided", 3, 12, 4)],
        id="duplicate-annotation",
    ),
    # only blank and comment lines may follow the closing brace; the first token after it is reported
    pytest.param(
        "model",
        'system "x" {\n  loss L-1 "a"\n}\nloss L-99 "dropped"\n',
        [("UnexpectedToken", "expected end of input, found 'loss'", 4, 1, 4)],
        id="declaration-after-body",
    ),
    pytest.param(
        "model",
        'system "x" {\n  loss L-1 "a"\n}\nsystem "y" {\n  loss L-2 "b"\n}\n',
        [("UnexpectedToken", "expected end of input, found 'system'", 4, 1, 6)],
        id="second-system-block",
    ),
    pytest.param(
        "model",
        'system "x" {\n  loss L-1 "a"\n}\n}\n',
        [("UnexpectedToken", "expected end of input, found '}'", 4, 1, 1)],
        id="stray-brace-after-body",
    ),
    pytest.param(
        "model",
        'system "x" {\n  loss L-1 "a"\n}\n\n# end\n  \n',
        [],
        id="comments-after-body",
    ),
    pytest.param(
        "scenarios",
        f"scenarios {{\n  scenario S-1 {{ {SCENARIO_BODY} }}\n  scenario S-1 {{ {SCENARIO_BODY} }}\n}}",
        [("DuplicateId", "scenario id S-1 already declared", 3, 12, 3)],
        id="duplicate-scenario-id",
    ),
    pytest.param(
        "scenarios",
        "scenarios {\n  nonsense\n}",
        [("UnknownKeyword", "expected 'scenario', found 'nonsense'", 2, 3, 8)],
        id="unknown-scenario-keyword",
    ),
    pytest.param(
        "scenarios",
        f'scenarios {{\n  "x" scenario S-1 {{ {SCENARIO_BODY} }}\n}}',
        [("UnknownKeyword", "expected 'scenario', found 'x'", 2, 3, 3)],
        id="stray-string-before-a-scenario",
    ),
    # a broken field skips the rest of its own block, so the next scenario parses
    pytest.param(
        "scenarios",
        f"scenarios {{\n  scenario S-1 {{ {SCENARIO_BODY.replace('origin', 'orign')} }}\n"
        f"  scenario S-2 {{ {SCENARIO_BODY} }}\n}}",
        [("UnknownKeyword", "unknown scenario field 'orign'", 2, 18, 5)],
        id="misspelt-field-before-a-scenario",
    ),
    # prose that lost its opening quote may hold the word scenario: only "scenario <id> {" starts a block
    pytest.param(
        "scenarios",
        "scenarios {\n  scenario S-1 { origin: P type: type_b sub_types: not_executed factors: delay\n"
        '    description: the scenario stops"\n  }\n'
        f"  scenario S-2 {{ {SCENARIO_BODY} }}\n}}",
        [
            ("UnterminatedString", "string not closed before end of line", 3, 36, 1),
            ("UnexpectedToken", "expected the description string, found 'the'", 3, 18, 3),
        ],
        id="unquoted-prose-holding-scenario",
    ),
    pytest.param(
        "scenarios",
        f"scenarios {{\n  scenario S-1 {{ {SCENARIO_BODY}\n  scenario S-2 {{ {SCENARIO_BODY} }}\n}}",
        [("UnexpectedToken", "expected '}', found 'scenario'", 3, 3, 8)],
        id="block-without-brace-before-a-scenario",
    ),
    pytest.param(
        "scenarios",
        "scenarios {\n  scenario S-1 { origin: P type: type_b sub_types: not_executed factors: delay }\n}",
        [("MissingField", "scenario S-1 is missing required field(s): description", 2, 12, 3)],
        id="missing-field",
    ),
    pytest.param(
        "scenarios",
        "scenarios {\n  scenario S-1 { origin: P type: type_b",
        [
            ("UnexpectedToken", "expected '}', found 'end of input'", 2, 40, 1),
            (
                "MissingField",
                "scenario S-1 is missing required field(s): sub_types, factors, description",
                2, 12, 3,
            ),
            ("UnexpectedToken", "expected '}', found 'end of input'", 2, 40, 1),
        ],
        id="scenario-cut-off-at-end-of-input",
    ),
    pytest.param(
        "scenarios",
        "scenarios {\n  scenario S-1 { origin: C type: type_a sub_types: not_provided"
        ' factors: delay description: "d" }\n}',
        [("IllegalScenario", "scenario S-1: type_a scenarios must reference a UCA", 2, 12, 3)],
        id="illegal-scenario",
    ),
    pytest.param(
        "scenarios",
        "scenarios {\n  scenario S-1 {"
        f" {SCENARIO_BODY.replace('origin: P', 'origin: Nobody')} }}\n}}",
        [("DanglingComponentRef", "scenario S-1 origin Nobody is not a model component", 2, 12, 3)],
        id="dangling-component-ref",
    ),
    # a uca: value may be as long as the UCA ids of a 64-character action
    pytest.param(
        "scenarios",
        f"scenarios {{\n  scenario S-1 {{ uca: {LONG_UCA} {SCENARIO_BODY} }}\n}}",
        [],
        id="uca-id-of-87-characters",
    ),
    pytest.param(
        "scenarios",
        f"scenarios {{\n  scenario S-1 {{ uca: {LONG_UCA}x {SCENARIO_BODY} }}\n}}",
        [("BadIdentifier", f"identifier {LONG_UCA[:16]}... exceeds 87 characters", 2, 23, 88)],
        id="uca-id-over-87-characters",
    ),
    pytest.param(
        "scenarios",
        f"scenarios {{\n  scenario {'S' * 65} {{ {SCENARIO_BODY} }}\n}}",
        [("BadIdentifier", f"identifier {'S' * 16}... exceeds 64 characters", 2, 12, 65)],
        id="scenario-id-over-64-characters",
    ),
    pytest.param(
        "scenarios",
        f"scenarios {{\n  scenario S-1 {{ {SCENARIO_BODY} }}\n}}\n  scenario S-2 {{ {SCENARIO_BODY} }}\n",
        [("UnexpectedToken", "expected end of input, found 'scenario'", 4, 3, 8)],
        id="scenario-after-body",
    ),
    pytest.param(
        "scenarios",
        f"scenarios {{\n  scenario S-1 {{ {SCENARIO_BODY} }}\n}}\n}}\n",
        [("UnexpectedToken", "expected end of input, found '}'", 4, 1, 1)],
        id="stray-brace-after-scenarios",
    ),
]


@pytest.mark.parametrize("parser, source, expected", PARSER_CASES)
def test_parser_diagnostics(parser, source, expected):
    if parser == "model":
        _, diags = parse_model(source, "f.stpa")
    else:
        host, _ = parse_model(TINY_MODEL)
        _, diags = parse_scenarios(source, host, "f.stpa")
    got = [(d.rule_code, d.message, d.span.line, d.span.column, d.span.length) for d in diags]
    assert got == expected
    assert all(d.span.file == "f.stpa" for d in diags)


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


@pytest.fixture()
def host_model():
    model, diags = parse_model(TINY_MODEL)
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


@pytest.mark.parametrize(
    "old, new, code",
    [
        pytest.param("origin: C", "orign: C", "UnknownKeyword", id="misspelt-field"),
        pytest.param("origin: C", 'origin: "C"', "UnexpectedToken", id="string-for-identifier"),
        pytest.param("origin: C", "origin C", "UnexpectedToken", id="missing-colon"),
        pytest.param("agency, deception", "agency, gremlins", "UnknownEnumToken", id="unknown-word-in-list"),
    ],
)
def test_a_broken_field_costs_only_its_own_scenario(host_model, old, new, code):
    scenarios, diags = parse_scenarios(GOOD_SCENARIOS.replace(old, new), host_model)
    assert [s.id for s in scenarios] == ["S-2"]
    assert codes(diags) == [code]


# --- fast prefix against the token path ---------------------------------------
#
# parse_model and parse_scenarios take well-formed lines and scenario blocks
# straight from one regex match each, and hand the rest to the token path.
# Both must give what the token path alone gives: the same model or
# scenarios, dict order included, and the same diagnostics in the same order.


def token_path_model(text: str):
    parser = _ModelParser(*_lex(text, "f.stpa"))
    return parser.parse(), parser.diags


def token_path_scenarios(text: str, host: ControlStructureModel):
    parser = _ScenarioParser(*_lex(text, "f.stpa", _UCA_ID_LIMIT), host)
    return parser.parse(), parser.diags


def assert_model_parse_matches_token_path(text: str) -> None:
    model, diags = parse_model(text, "f.stpa")
    expected_model, expected_diags = token_path_model(text)
    assert repr(model) == repr(expected_model)
    assert diags == expected_diags


def assert_scenario_parse_matches_token_path(text: str, host: ControlStructureModel) -> None:
    assert parse_scenarios(text, host, "f.stpa") == token_path_scenarios(text, host)


FAST_MODEL = """# fast prefix demo
system "demo \\"quoted\\" \\\\ name" {
  lifecycle: development

  controller C {kind: human notes: "the \\"operator\\""}
  process P {contains_ai: true}
  actuator A {kind: automated}
  sensor S {notes: "eyes"}
  environment E {}
  environment F {contains_ai: false notes: "off"}
  loss L-1 "a loss"   # trailing comment
  loss L-2 "another loss"
  hazard H-1 "a hazard" leads_to L-1, L-2
  constraint SC-1 "keep it safe" mitigates H-1 enforced_by CA-1
  constraint SC-2 "keep it safer" mitigates H-1
  control_action CA-1 "act" from C to P via A
  control_action CA-2 "act again" from C to P
  feedback FB-1 "report" from P to C via S
  annotate CA-1 not_provided context "idle" hazards H-1
  annotate CA-1 wrong_duration context "too long"
}
"""

FAST_SCENARIOS = """# fast prefix demo
scenarios "demo set" {
  scenario S-1 {
    origin: C
    uca: CA-1-not_provided
    type: type_a
    sub_types: not_provided, wrong_duration
    factors: inadequate_control_algorithm, flawed_process_model
    characteristics: agency, deception
    catalog: A3-11, B4-01
    description: "controller \\"stands\\" by"
  }

  scenario S-2 { origin: P type: type_b sub_types: not_executed factors: delay description: "shrug" }
  scenario S-3 { origin: C uca: CA-%s-provided_causes_hazard type: type_a sub_types: wrong_duration
    factors: delay description: "long uca" }
}
""" % ("x" * 61)

LONG_ID = "L" + "x" * 64
UCA_88 = "CA-" + "x" * 62 + "-provided_causes_hazard"

TWO_BREAKS = FAST_MODEL[FAST_MODEL.index("  sensor"):FAST_MODEL.index("  constraint SC-2")]
S2_LINE = "  }\n\n  scenario S-2"
S_BREAKS = FAST_SCENARIOS[FAST_SCENARIOS.index('by"\n'):FAST_SCENARIOS.index('uca" }')]

# Each row: the text an edit of FAST_MODEL or FAST_SCENARIOS replaces, and
# what replaces it. The edits hit the cases where a fast match would be wrong
# if it were taken, so the token path must have the line.
FAST_MODEL_EDITS = [
    pytest.param("leads_to L-1, L-2\n", "leads_to L-1\n  , L-2\n", id="next-line-comma"),
    pytest.param("leads_to L-1, L-2\n", "leads_to L-1\n  # c\n\n  , L-2\n", id="comma-after-comment"),
    pytest.param("actuator A {kind: automated}", "actuator A\n  {kind: human}", id="next-line-brace"),
    pytest.param("from C to P via A", "from C to P\n  via A", id="next-line-via"),
    pytest.param("from C to P via A", "from C to P\n  # c\n  via A", id="via-after-comment"),
    pytest.param("mitigates H-1 enforced_by CA-1", "mitigates H-1\n  enforced_by CA-1", id="next-line-enforced_by"),
    pytest.param('context "idle" hazards H-1', 'context "idle"\n  hazards H-1', id="next-line-hazards"),
    pytest.param('context "idle" hazards H-1', 'context "idle"\n\t# c\n  hazards H-1', id="hazards-after-tab-comment"),
    pytest.param("  loss L-2", "\tloss L-2", id="tab-indent"),
    pytest.param("  loss L-2", "  \t loss L-2", id="tab-after-spaces"),
    pytest.param("  loss L-2", "\t\n \t# c\n  loss L-2", id="tab-only-lines"),
    pytest.param("loss L-2", f"loss {LONG_ID}", id="65-character-id"),
    pytest.param("loss L-2", f"loss {LONG_ID[:64]}", id="64-character-id"),
    pytest.param('"another loss"', '"another \\q loss"', id="bad-escape"),
    pytest.param('"another loss"', '"another loss', id="unterminated-string"),
    pytest.param("hazard H-1 ", "hazard  H-1  ", id="two-spaces"),
    pytest.param("loss L-2", "loss L-1", id="duplicate-id"),
    pytest.param("feedback FB-1", "feedback CA-2", id="duplicate-id-across-categories"),
    pytest.param("wrong_duration", "not_provided", id="duplicate-annotation"),
    pytest.param('"too long"\n}\n', '"too long"\n}', id="no-final-newline"),
    pytest.param('"too long"\n}\n', '"too long"\n', id="no-closing-brace"),
    pytest.param('"too long"\n}\n', '"too long"', id="ends-inside-item"),
    pytest.param('"too long"\n}\n', '"too long"\n# end', id="ends-inside-comment"),
    pytest.param("  loss L-1", "  loss L-1\r", id="one-crlf-line"),
    pytest.param("lifecycle: development", "lifecycle: dev", id="unknown-phase"),
    pytest.param("CA-1 not_provided context", "CA-1 bogus_word context", id="unknown-uca-type-word"),
    pytest.param("{kind: human", "{kind: robot", id="unknown-agent-nature"),
    pytest.param("{contains_ai: true}", "{contains_ai: true kind: human}", id="attrs-out-of-order"),
    pytest.param("system", "# c\n\nsystem", id="comment-before-header"),
    pytest.param('system "demo', 'system  "demo', id="header-two-spaces"),
    pytest.param('name" {\n', 'name" {  loss L-0 "zero"\n', id="item-on-header-line"),
    pytest.param('system "demo', 'system\n  "demo', id="header-over-two-lines"),
    pytest.param("  controller C", "  lifecycle: design\n  controller C", id="second-lifecycle"),
    pytest.param("  loss L-1", "  loss L-1 é", id="stray-character"),
    pytest.param("  loss L-2", "  \x0c, L-3\n  loss L-2", id="form-feed-before-comma"),
    # the token path takes a broken line and hands back to the prefix at the
    # next line it takes, or lexes on when an item runs past that line's start
    pytest.param('"another loss"', '"another loss" stray', id="break-mid-file"),
    pytest.param(TWO_BREAKS, TWO_BREAKS.replace('"eyes"', "eyes").replace("L-1, L-2", "L-1 L-2"), id="two-breaks"),
    pytest.param("lifecycle: development", 'lifecycle:\n  loss L-0 "zero"', id="lifecycle-colon-ends-line"),
    pytest.param("leads_to L-1, L-2\n", 'leads_to L-1,\n  loss L-3 "three"\n', id="comma-ends-line"),
    pytest.param('"too long"\n}', '"too long"\n  stray\n}', id="break-before-brace"),
    pytest.param('"too long"\n}\n', '"too long" stray\n}\n  loss L-9 "after"\n\tloss L-8 "tab"\n', id="items-after-brace"),
    pytest.param('"too long"\n}\n', '"too long"\n}\nloss L-99 "dropped"\n', id="declaration-after-brace"),
    pytest.param('"too long"\n}\n', '"too long"\n}\nsystem "again" {\n  loss L-9 "x"\n}\n', id="second-system"),
    pytest.param('"too long"\n}\n', '"too long"\n}\n}\n', id="stray-brace-after-body"),
    pytest.param('"too long"\n}\n', '"too long"\n}\n\n# end\n', id="comment-after-brace"),
]

FAST_SCENARIO_EDITS = [
    pytest.param("uca: CA-1-not_provided", f"uca: {UCA_88}", id="88-character-uca"),
    pytest.param("uca: CA-1-not_provided", f"uca: {UCA_88[:87]}", id="87-character-uca"),
    pytest.param("origin: P", f"origin: {LONG_ID}", id="65-character-origin"),
    pytest.param("origin: C", "origin: Ghost", id="dangling-origin"),
    pytest.param("origin: C\n    uca:", "origin: Cuca:", id="value-runs-into-field"),
    pytest.param("S-2", "S-1", id="duplicate-scenario-id"),
    pytest.param("    type: type_a\n", "", id="missing-type"),
    pytest.param("sub_types: not_executed", "sub_types: not_provided", id="illegal-sub-type"),
    pytest.param("catalog: A3-11, B4-01", "catalog: A3-11\n    , B4-01", id="catalog-comma-on-next-line"),
    pytest.param("    type: type_a\n", "    type: type_a\n    # c\n", id="comment-in-block"),
    pytest.param("factors: delay", "factors: delay, gremlins", id="unknown-factor"),
    pytest.param("agency, deception", "agency, bogus_word", id="unknown-characteristic-word"),
    pytest.param('"controller', '"\\q controller', id="bad-escape"),
    pytest.param("sub_types: not_provided", "sub_types:  not_provided", id="two-spaces"),
    pytest.param('"long uca" }\n}\n', '"long uca" }\n}', id="no-final-newline"),
    pytest.param('"long uca" }\n}\n', '"long uca" }', id="no-closing-brace"),
    pytest.param('"long uca" }\n}\n', '"long uca"', id="ends-inside-block"),
    pytest.param("    origin: C\n", "\t  origin: C\n", id="tab-indent"),
    pytest.param('scenarios "demo set" {', "scenarios {", id="untitled"),
    pytest.param('set" {\n', 'set" {  scenario S-0 { origin: P type: type_b sub_types: not_executed'
                 ' factors: delay description: "zero" }\n', id="item-on-header-line"),
    pytest.param('scenarios "demo set" {', 'scenarios\n  "demo set"\n  {', id="header-over-three-lines"),
    pytest.param('by"\n', 'by" stray\n', id="break-mid-file"),
    pytest.param(S_BREAKS, S_BREAKS.replace('by"', 'by" stray').replace('"long', '"\\q long'), id="two-breaks"),
    pytest.param(S2_LINE, "  }\n  scenario S-9 { origin:\n  scenario S-2", id="colon-ends-line"),
    pytest.param(S2_LINE, "  }\n  scenario S-9 { origin: C catalog: A3-11,\n  scenario S-2", id="comma-ends-line"),
    pytest.param('"long uca" }\n}', '"long uca" } stray\n}', id="break-before-brace"),
    pytest.param(
        '"long uca" }\n}\n',
        '"long uca" } stray\n}\n  scenario S-9 { origin: P type: type_b sub_types: not_executed factors: delay'
        ' description: "after" }\n\t# tab\n',
        id="items-after-brace",
    ),
    pytest.param(
        '"long uca" }\n}\n',
        '"long uca" }\n}\n  scenario S-9 { origin: P type: type_b sub_types: not_executed factors: delay'
        ' description: "after" }\n',
        id="scenario-after-brace",
    ),
    pytest.param('"long uca" }\n}\n', '"long uca" }\n}\n}\n', id="stray-brace-after-body"),
    pytest.param("    origin: C\n", "    orign: C\n", id="misspelt-field"),
    pytest.param('description: "controller', "description: the scenario controller", id="unquoted-prose-holding-scenario"),
    pytest.param("origin: P type", 'origin: "P" type', id="string-origin"),
    pytest.param(S2_LINE, "\n  scenario S-2", id="block-without-brace"),
    pytest.param('"long uca" }\n}\n', '"long uca" }\n}\n\n# end\n', id="comment-after-brace"),
]


@pytest.mark.parametrize("old, new", FAST_MODEL_EDITS + [pytest.param("\n", "\r\n", id="crlf")])
def test_fast_model_prefix_matches_token_path_on_edge_cases(old, new):
    assert old in FAST_MODEL
    count = -1 if old == "\n" else 1
    assert_model_parse_matches_token_path(FAST_MODEL.replace(old, new, count))


@pytest.mark.parametrize("old, new", FAST_SCENARIO_EDITS + [pytest.param("\n", "\r\n", id="crlf")])
def test_fast_scenario_prefix_matches_token_path_on_edge_cases(old, new):
    assert old in FAST_SCENARIOS
    host, diags = parse_model(FAST_MODEL)
    assert diags == []
    count = -1 if old == "\n" else 1
    assert_scenario_parse_matches_token_path(FAST_SCENARIOS.replace(old, new, count), host)


VOCABULARIES = [LifecyclePhase, UcaType, ScenarioType, ScenarioSubType, CausalFactorType, AiCharacteristic]


def test_fast_patterns_take_every_vocabulary_token_as_one_word_and_name_none():
    """A token the generic word did not match whole would send every line that holds it to the token path."""
    patterns = [dsl._fast_pattern(kind).pattern for kind in ("model", "scenarios")]
    for cls in VOCABULARIES:
        for token in cls.tokens():
            assert re.fullmatch(dsl._WORD, token), token
            assert not any(re.search(rf"(?<![A-Za-z_]){token}(?![A-Za-z_])", p) for p in patterns), token


# the header stretch runs to the first item line, past the lifecycle and a blank line, so it holds a
# broken lifecycle; a broken item's stretch runs to the start of the next item line
@pytest.mark.parametrize(
    "old, new, stretches",
    [("development", "bogus_word", [(1, 4)]), ("not_provided context", "bogus_word context", [(1, 4), (19, 1)])],
)
def test_an_unknown_vocabulary_word_sends_only_its_line_to_the_token_path(monkeypatch, old, new, stretches):
    starts = []
    real_lex = dsl._lex

    def recording_lex(source, file, uca_limit, pos, line, end=None):
        starts.append((line, source.count("\n", pos, end)))
        return real_lex(source, file, uca_limit, pos, line, end)

    monkeypatch.setattr(dsl, "_lex", recording_lex)
    source = FAST_MODEL.replace(old, new, 1)
    assert codes(parse_model(source)[1]) == ["UnknownEnumToken"]
    assert starts == stretches + [(FAST_MODEL.count("\n"), 1)]


def test_fast_prefix_takes_every_well_formed_item(monkeypatch):
    """Only the header and the closing brace reach the lexer for canonical and generated text."""
    starts = []
    real_lex = dsl._lex

    def recording_lex(source, file, uca_limit, pos, line, end=None):
        starts.append((len(source) - pos, line))
        return real_lex(source, file, uca_limit, pos, line, end)

    monkeypatch.setattr(dsl, "_lex", recording_lex)
    model, scenarios = synthetic(20)
    canonical, listed = serialize_model(model), scenario_source(scenarios)
    host, _ = parse_model(canonical)
    parse_scenarios(listed, host)
    bundled, _ = parse_model(MODEL_PATH.read_text(encoding="utf-8"))
    parse_scenarios(SCENARIOS_PATH.read_text(encoding="utf-8"), bundled)
    fast_host, _ = parse_model(FAST_MODEL)
    parse_scenarios(FAST_SCENARIOS, fast_host)
    texts = [
        canonical,
        listed,
        MODEL_PATH.read_text(encoding="utf-8"),
        SCENARIOS_PATH.read_text(encoding="utf-8"),
        FAST_MODEL,
        FAST_SCENARIOS,
    ]
    assert starts == [stretch for text in texts for stretch in ((len(text), 1), (2, text.count("\n")))]


def test_token_path_lexes_only_the_lines_around_each_break(monkeypatch):
    """The prefix takes over again after each broken line, so the lexer sees
    the header, each broken line, then the closing brace."""
    chunks = []
    real_lex = dsl._lex

    def recording_lex(source, file, uca_limit, pos, line, end=None):
        chunks.append((line, source.count("\n", pos, end)))
        return real_lex(source, file, uca_limit, pos, line, end)

    lines = serialize_model(synthetic(50)[0]).split("\n")
    breaks = [
        next(i for i, text in enumerate(lines) if text.startswith(keyword))
        for keyword in ("  loss L-7", "  hazard H-20", "  control_action CA-33")
    ]
    lines[breaks[0]] = lines[breaks[0]].replace('"loss', '"\\q loss')
    lines[breaks[1]] += " stray"
    lines[breaks[2]] = lines[breaks[2]].replace('"', "", 1)
    source = "\n".join(lines)
    monkeypatch.setattr(dsl, "_lex", recording_lex)
    assert_model_parse_matches_token_path(source)
    assert chunks == [(1, 2)] + [(i + 1, 1) for i in breaks] + [(len(lines) - 1, 1)]


@pytest.mark.parametrize(
    "before, after",
    [
        pytest.param("  loss L-7 ", "\tloss L-7 ", id="tab-indented-item"),
        pytest.param("  loss L-7 ", "\t\n  loss L-7 ", id="tab-only-line"),
        pytest.param("  loss L-7 ", "\t# note\n  loss L-7 ", id="tab-indented-comment"),
    ],
)
def test_a_tab_indented_line_leaves_the_item_before_it_to_the_prefix(monkeypatch, before, after):
    """After the header, only the tab-indented line reaches the lexer before the prefix takes over again."""
    chunks = []
    real_lex = dsl._lex

    def recording_lex(source, file, uca_limit, pos, line, end=None):
        chunks.append((line, source.count("\n", pos, end)))
        return real_lex(source, file, uca_limit, pos, line, end)

    source = serialize_model(synthetic(50)[0])
    assert source.split("\n")[51].startswith(before)
    source = source.replace(before, after, 1)
    monkeypatch.setattr(dsl, "_lex", recording_lex)
    assert_model_parse_matches_token_path(source)
    assert [d.rule_code for d in parse_model(source)[1]] == ["TabIndent"]
    assert chunks[:2] == [(1, 2), (52, 1)]


@pytest.mark.parametrize("keyword", ["process", "hazard", "control_action", "annotate"])
def test_a_token_path_item_at_the_end_of_its_stretch_hands_back_to_the_prefix(monkeypatch, keyword):
    """An item's check for a `,`, `{`, `via`, `enforced_by` or `hazards` after
    its last token does not lex on, so the items after it stay in the prefix."""
    chunks = []
    real_lex = dsl._lex

    def recording_lex(source, file, uca_limit, pos, line, end=None):
        chunks.append((line, source.count("\n", pos, end)))
        return real_lex(source, file, uca_limit, pos, line, end)

    lines = serialize_model(synthetic(50)[0]).split("\n")
    at = next(i for i, text in enumerate(lines) if text.startswith(f"  {keyword} "))
    lines[at] = "\t" + lines[at][2:]
    source = "\n".join(lines)
    monkeypatch.setattr(dsl, "_lex", recording_lex)
    assert_model_parse_matches_token_path(source)
    assert chunks == [(1, 2), (at + 1, 1), (len(lines) - 1, 1)]


def differential_bases() -> tuple[list[str], list[str]]:
    model, scenarios = synthetic(6)
    models = [FAST_MODEL, serialize_model(model), MODEL_PATH.read_text(encoding="utf-8")]
    return models, [FAST_SCENARIOS, scenario_source(scenarios), SCENARIOS_PATH.read_text(encoding="utf-8")]


DIFFERENTIAL_MODELS, DIFFERENTIAL_SCENARIOS = differential_bases()
DIFFERENTIAL_HOSTS = [parse_model(text)[0] for text in DIFFERENTIAL_MODELS]

@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.sampled_from(range(len(DIFFERENTIAL_MODELS))), steps=edits)
def test_fast_model_prefix_matches_token_path_on_edited_text(base, steps):
    assert_model_parse_matches_token_path(apply_edits(DIFFERENTIAL_MODELS[base], steps))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(range(len(DIFFERENTIAL_SCENARIOS))),
    host=st.sampled_from(DIFFERENTIAL_HOSTS),
    steps=edits,
)
def test_fast_scenario_prefix_matches_token_path_on_edited_text(base, host, steps):
    assert_scenario_parse_matches_token_path(apply_edits(DIFFERENTIAL_SCENARIOS[base], steps), host)
