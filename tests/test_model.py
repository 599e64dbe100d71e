from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from stpa_loc import model as model_mod
from stpa_loc.analysis import StageKind, enumerate_ucas
from stpa_loc.model import (
    AgentNature,
    AiCharacteristic,
    CausalFactorType,
    Component,
    ComponentKind,
    ControlAction,
    ControlStructureModel,
    Diagnostic,
    FeedbackChannel,
    Hazard,
    InvalidModel,
    LifecyclePhase,
    Loss,
    LedgerSource,
    LossScenario,
    RecordSeverity,
    SUBTYPES_FOR_TYPE,
    SafetyConstraint,
    ScenarioSubType,
    ScenarioType,
    Severity,
    SourceSpan,
    TableDirection,
    UcaAnnotation,
    UcaType,
    UnsafeControlAction,
    Vocabulary,
    format_diagnostic,
    has_errors,
    in_declaration_order,
    model_fingerprint,
    validate_model,
)

from strategies import models

# the vocabularies that tables and pathway diagrams render: every member
# declares a surface form
SURFACED = [
    LifecyclePhase,
    ComponentKind,
    AgentNature,
    UcaType,
    ScenarioType,
    ScenarioSubType,
    CausalFactorType,
    AiCharacteristic,
    StageKind,
]

# the others declare tokens only
ALL_VOCABULARIES = [*SURFACED, Severity, TableDirection, RecordSeverity, LedgerSource]


# --- vocabularies ---------------------------------------------------------


def test_tokens_round_trip():
    assert set(ALL_VOCABULARIES) == set(Vocabulary.__subclasses__())
    for cls in ALL_VOCABULARIES:
        for member in cls:
            assert cls(member.token) is member
            assert member.value == member.token


def test_tokens_are_one_tuple_per_vocabulary():
    for cls in ALL_VOCABULARIES:
        assert cls.tokens() == tuple(member.value for member in cls)
        assert cls.tokens() is cls.tokens()


def test_every_member_has_a_surface_form():
    for cls in ALL_VOCABULARIES:
        for member in cls:
            if cls in SURFACED:
                assert member.surface.strip()
            else:
                assert member.surface == ""


def test_key_surface_forms():
    assert ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION.surface == "Unsafe Control Action"
    assert (
        ScenarioType.TYPE_B_IMPROPER_EXECUTION.surface
        == "Unsafe control action execution"
    )
    assert (
        CausalFactorType.FLAWED_PROCESS_MODEL.surface
        == "Controller process model failure"
    )
    assert ScenarioSubType.CA_NOT_PROVIDED.surface == "Control action not provided"
    assert LifecyclePhase.OPERATIONS.surface == "Operations"
    assert (
        AiCharacteristic.CAPABILITY_UNCERTAINTY.surface
        == "Uncertainty of AI capabilities"
    )


def test_subtype_menu_partition():
    type_a = SUBTYPES_FOR_TYPE[ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION]
    type_b = SUBTYPES_FOR_TYPE[ScenarioType.TYPE_B_IMPROPER_EXECUTION]
    assert len(type_a) == 4
    assert len(type_b) == 2
    assert set(type_a) | set(type_b) == set(ScenarioSubType)
    assert not set(type_a) & set(type_b)


def test_in_declaration_order():
    shuffled = [
        AiCharacteristic.SITUATIONAL_AWARENESS,
        AiCharacteristic.OUTER_MISALIGNMENT,
        AiCharacteristic.AGENCY,
    ]
    assert in_declaration_order(shuffled) == [
        AiCharacteristic.OUTER_MISALIGNMENT,
        AiCharacteristic.AGENCY,
        AiCharacteristic.SITUATIONAL_AWARENESS,
    ]
    assert in_declaration_order([]) == []


def test_vocabulary_rank_matches_declaration():
    # rank is set as each member is declared, StageKind's in analysis included
    for cls in ALL_VOCABULARIES:
        assert [member.rank for member in cls] == list(range(len(cls)))
    assert CausalFactorType.INADEQUATE_CONTROL_ALGORITHM.rank == 0


# --- diagnostics ----------------------------------------------------------


def test_source_span_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        SourceSpan("f", 0, 1, 1)
    with pytest.raises(ValueError):
        SourceSpan("f", 1, 0, 1)
    with pytest.raises(ValueError):
        SourceSpan("f", 1, 1, 0)


def test_format_diagnostic_with_span():
    diag = Diagnostic(
        Severity.ERROR, "BadIdentifier", "broken", SourceSpan("m.stpa", 3, 7, 2)
    )
    assert format_diagnostic(diag) == "m.stpa:3:7: error[BadIdentifier]: broken"


def test_format_diagnostic_without_span():
    diag = Diagnostic(Severity.WARNING, "UnlinkedHazard", "unused")
    assert format_diagnostic(diag, default_file="x.stpa") == (
        "x.stpa: warning[UnlinkedHazard]: unused"
    )


# --- model construction helpers -------------------------------------------


def minimal_model(**overrides) -> ControlStructureModel:
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
        control_actions=[],
        feedback_channels=[],
        annotations=[],
    )
    parts.update(overrides)
    return ControlStructureModel.from_items(**parts)


def codes(diagnostics) -> set[str]:
    return {d.rule_code for d in diagnostics}


def test_minimal_model_is_clean():
    assert validate_model(minimal_model()) == []


# --- validation rules -----------------------------------------------------


def test_bad_identifier():
    model = minimal_model(
        components=[
            Component(id="9C", name="9C", kind=ComponentKind.CONTROLLER),
            Component(id="P", name="P", kind=ComponentKind.CONTROLLED_PROCESS),
        ]
    )
    assert "BadIdentifier" in codes(validate_model(model))


def test_key_mismatch():
    model = ControlStructureModel(
        name="m",
        lifecycle=LifecyclePhase.OPERATIONS,
        components={
            "X": Component(id="C", name="C", kind=ComponentKind.CONTROLLER),
            "P": Component(id="P", name="P", kind=ComponentKind.CONTROLLED_PROCESS),
        },
    )
    assert "KeyMismatch" in codes(validate_model(model))


def test_annotation_under_the_wrong_key():
    annotation = UcaAnnotation(control_action="CA-1", uca_type=UcaType.NOT_PROVIDED, context="c")
    model = minimal_model(control_actions=[ControlAction(id="CA-1", label="go", source="C", target="P")])
    model = dataclasses.replace(model, annotations={("CA-1", UcaType.WRONG_DURATION): annotation})
    found = [d.message for d in validate_model(model) if d.rule_code == "KeyMismatch"]
    assert found == ["annotation (CA-1, not_provided) stored under key ('CA-1', <UcaType.WRONG_DURATION: 'wrong_duration'>)"]


def test_duplicate_id_across_categories():
    model = minimal_model(
        losses=[Loss(id="X", description="a loss")],
        control_actions=[ControlAction(id="X", label="go", source="C", target="P")],
    )
    assert "DuplicateId" in codes(validate_model(model))


def test_missing_controller_and_process():
    model = ControlStructureModel.from_items(
        name="m", lifecycle=LifecyclePhase.OPERATIONS
    )
    found = codes(validate_model(model))
    assert "MissingController" in found
    assert "MissingControlledProcess" in found


def test_empty_descriptions():
    model = minimal_model(
        losses=[Loss(id="L-1", description="  ")],
        hazards=[Hazard(id="H-1", description="", leads_to={"L-1"})],
        constraints=[SafetyConstraint(id="S-1", text="", mitigates={"H-1"})],
    )
    found = [d for d in validate_model(model) if d.rule_code == "EmptyDescription"]
    assert len(found) == 3


def test_dangling_loss_ref():
    model = minimal_model(
        losses=[Loss(id="L-1", description="a loss")],
        hazards=[Hazard(id="H-1", description="a hazard", leads_to={"L-9"})],
    )
    assert "DanglingLossRef" in codes(validate_model(model))


def test_hazard_no_loss():
    model = minimal_model(
        hazards=[Hazard(id="H-1", description="a hazard", leads_to=set())]
    )
    assert "HazardNoLoss" in codes(validate_model(model))


def test_hazard_id_clashes_loss():
    model = minimal_model(
        losses=[Loss(id="X-1", description="a loss")],
        hazards=[Hazard(id="X-1", description="a hazard", leads_to={"X-1"})],
    )
    assert "HazardIdClashesLoss" in codes(validate_model(model))


def test_hazard_describes_loss():
    model = minimal_model(
        losses=[Loss(id="L-1", description="Reactor   meltdown")],
        hazards=[Hazard(id="H-1", description="reactor meltdown", leads_to={"L-1"})],
    )
    assert "HazardDescribesLoss" in codes(validate_model(model))


def test_constraint_refs_checked():
    model = minimal_model(
        constraints=[
            SafetyConstraint(id="S-1", text="t", mitigates={"H-9"}, enforced_by={"CA-9"})
        ]
    )
    found = codes(validate_model(model))
    assert "DanglingHazardRef" in found
    assert "DanglingControlActionRef" in found


def test_constraint_without_hazard():
    model = minimal_model(
        constraints=[SafetyConstraint(id="S-1", text="t", mitigates=set())]
    )
    assert "ConstraintNoHazard" in codes(validate_model(model))


def test_channel_endpoint_kinds():
    model = minimal_model(
        control_actions=[ControlAction(id="CA-1", label="go", source="P", target="C")],
        feedback_channels=[FeedbackChannel(id="FB-1", label="see", source="C", target="P")],
    )
    found = [d for d in validate_model(model) if d.rule_code == "WrongComponentKind"]
    assert len(found) == 4


def test_channel_dangling_endpoints():
    model = minimal_model(
        control_actions=[
            ControlAction(id="CA-1", label="go", source="C", target="P", via="A-9")
        ]
    )
    assert "DanglingComponentRef" in codes(validate_model(model))


def test_channel_without_a_source():
    model = minimal_model(
        feedback_channels=[FeedbackChannel(id="FB-1", label="see", source=None, target="C")]
    )
    found = [d.message for d in validate_model(model) if d.rule_code == "DanglingComponentRef"]
    assert found == ["feedback channel FB-1: missing source component"]


def test_annotation_refs_checked():
    model = minimal_model(
        annotations=[
            UcaAnnotation(
                control_action="CA-9",
                uca_type=UcaType.NOT_PROVIDED,
                context="c",
                hazards={"H-9"},
            )
        ]
    )
    found = codes(validate_model(model))
    assert "DanglingControlActionRef" in found
    assert "DanglingHazardRef" in found


def test_unlinked_hazard_is_a_warning():
    model = minimal_model(
        losses=[Loss(id="L-1", description="a loss")],
        hazards=[Hazard(id="H-1", description="a hazard", leads_to={"L-1"})],
    )
    diags = validate_model(model)
    assert codes(diags) == {"UnlinkedHazard"}
    assert not has_errors(diags)


def test_every_validator_message_in_order():
    """Two models that together trip all 16 rule codes: every line, in diagnostic order."""
    names = ControlStructureModel(
        name="m",
        lifecycle=LifecyclePhase.OPERATIONS,
        components={
            "9A": Component(id="9A", name="a", kind=ComponentKind.ACTUATOR),
            "S": Component(id="T", name="s", kind=ComponentKind.SENSOR),
        },
        losses={"X": Loss(id="X", description="a loss")},
        hazards={"X": Hazard(id="X", description="a hazard", leads_to={"X"})},
        control_actions={"9A": ControlAction(id="9A", label="go", source="C", target="P")},
    )
    misfiled = UcaAnnotation(control_action="CA-9", uca_type=UcaType.WRONG_DURATION, context="c", hazards={"H-7", "H-1"})
    links = dataclasses.replace(
        minimal_model(
            components=[
                Component(id="C", name="C", kind=ComponentKind.CONTROLLER),
                Component(id="P", name="P", kind=ComponentKind.CONTROLLED_PROCESS),
                Component(id="A", name="A", kind=ComponentKind.ACTUATOR),
                Component(id="G", name="G", kind=ComponentKind.SENSOR),
            ],
            losses=[Loss(id="L-1", description="Plant  damaged"), Loss(id="L-2", description=" ")],
            hazards=[
                Hazard(id="H-1", description="plant damaged", leads_to={"L-9", "L-1", "L-8"}),
                Hazard(id="H-2", description="", leads_to=set()),
                Hazard(id="H-3", description="pressure high", leads_to={"L-1"}),
            ],
            constraints=[
                SafetyConstraint(id="SC-1", text="", mitigates=set(), enforced_by={"CA-9", "CA-1"}),
                SafetyConstraint(id="SC-2", text="keep it low", mitigates={"H-9", "H-1", "H-8"}, enforced_by={"CA-8"}),
            ],
            control_actions=[
                ControlAction(id="CA-1", label="open", source="P", target="C", via="G"),
                ControlAction(id="CA-2", label="close", source=None, target=None, via="Q"),
                ControlAction(id="CA-3", label="hold", source="Z", target="P", via="A"),
            ],
            feedback_channels=[
                FeedbackChannel(id="FB-1", label="read", source="C", target="P", via="A"),
                FeedbackChannel(id="FB-2", label="see", source=None, target="Y", via="R"),
            ],
        ),
        annotations={
            ("CA-1", UcaType.NOT_PROVIDED): UcaAnnotation(
                control_action="CA-1", uca_type=UcaType.NOT_PROVIDED, context="c", hazards={"H-6"}
            ),
            ("CA-2", UcaType.WRONG_DURATION): misfiled,
        },
    )
    diags = [d for model in (names, links) for d in validate_model(model)]
    assert len(codes(diags)) == 16
    assert [format_diagnostic(d) for d in diags] == [
        "<model>: error[BadIdentifier]: component id '9A' is not a legal identifier",
        "<model>: error[KeyMismatch]: component keyed as S but declares id T",
        "<model>: error[BadIdentifier]: control action id '9A' is not a legal identifier",
        "<model>: error[HazardIdClashesLoss]: hazard id X collides with a loss id",
        "<model>: error[DuplicateId]: id 9A declared as both component and control action",
        "<model>: error[MissingController]: model declares no controller component",
        "<model>: error[MissingControlledProcess]: model declares no controlled process component",
        "<model>: error[DanglingComponentRef]: control action 9A: source references undefined component C",
        "<model>: error[DanglingComponentRef]: control action 9A: target references undefined component P",
        "<model>: warning[UnlinkedHazard]: hazard X is not referenced by any constraint or annotation",
        "<model>: error[EmptyDescription]: loss L-2 has an empty description",
        "<model>: error[HazardDescribesLoss]: hazard H-1 restates a loss description verbatim",
        "<model>: error[DanglingLossRef]: hazard H-1 leads_to undefined loss L-8",
        "<model>: error[DanglingLossRef]: hazard H-1 leads_to undefined loss L-9",
        "<model>: error[EmptyDescription]: hazard H-2 has an empty description",
        "<model>: error[HazardNoLoss]: hazard H-2 links to no loss",
        "<model>: error[EmptyDescription]: constraint SC-1 has empty text",
        "<model>: error[ConstraintNoHazard]: constraint SC-1 mitigates no hazard",
        "<model>: error[DanglingControlActionRef]: constraint SC-1 enforced_by undefined control action CA-9",
        "<model>: error[DanglingHazardRef]: constraint SC-2 mitigates undefined hazard H-8",
        "<model>: error[DanglingHazardRef]: constraint SC-2 mitigates undefined hazard H-9",
        "<model>: error[DanglingControlActionRef]: constraint SC-2 enforced_by undefined control action CA-8",
        "<model>: error[WrongComponentKind]: control action CA-1: source P must be a controller, found controlled_process",
        "<model>: error[WrongComponentKind]: control action CA-1: target C must be a controlled_process, found controller",
        "<model>: error[WrongComponentKind]: control action CA-1: via G must be a actuator, found sensor",
        "<model>: error[DanglingComponentRef]: control action CA-2: missing source component",
        "<model>: error[DanglingComponentRef]: control action CA-2: missing target component",
        "<model>: error[DanglingComponentRef]: control action CA-2: via references undefined component Q",
        "<model>: error[DanglingComponentRef]: control action CA-3: source references undefined component Z",
        "<model>: error[WrongComponentKind]: feedback channel FB-1: source C must be a controlled_process, found controller",
        "<model>: error[WrongComponentKind]: feedback channel FB-1: target P must be a controller, found controlled_process",
        "<model>: error[WrongComponentKind]: feedback channel FB-1: via A must be a sensor, found actuator",
        "<model>: error[DanglingComponentRef]: feedback channel FB-2: missing source component",
        "<model>: error[DanglingComponentRef]: feedback channel FB-2: target references undefined component Y",
        "<model>: error[DanglingComponentRef]: feedback channel FB-2: via references undefined component R",
        "<model>: error[DanglingHazardRef]: annotation (CA-1, not_provided) references undefined hazard H-6",
        "<model>: error[KeyMismatch]: annotation (CA-9, wrong_duration) stored under key ('CA-2', <UcaType.WRONG_DURATION: 'wrong_duration'>)",
        "<model>: error[DanglingControlActionRef]: annotation (CA-9, wrong_duration) references undefined control action",
        "<model>: error[DanglingHazardRef]: annotation (CA-9, wrong_duration) references undefined hazard H-7",
        "<model>: warning[UnlinkedHazard]: hazard H-2 is not referenced by any constraint or annotation",
        "<model>: warning[UnlinkedHazard]: hazard H-3 is not referenced by any constraint or annotation",
    ]


# --- scenario and UCA value rules ------------------------------------------


def test_uca_status():
    base = dict(
        id="CA-1-not_provided",
        control_action="CA-1",
        label="go",
        uca_type=UcaType.NOT_PROVIDED,
    )
    assert UnsafeControlAction(**base).status == "candidate"
    assert UnsafeControlAction(**base, hazards={"H-1"}).status == "confirmed"


def scenario_kwargs(**overrides):
    kwargs = dict(
        id="S-1",
        origin_component="P",
        origin_kind=ComponentKind.CONTROLLED_PROCESS,
        scenario_type=ScenarioType.TYPE_B_IMPROPER_EXECUTION,
        sub_types={ScenarioSubType.CA_EXECUTED_IMPROPERLY},
        causal_factors={CausalFactorType.FLAWED_PROCESS_MODEL},
        description="d",
    )
    kwargs.update(overrides)
    return kwargs


def test_scenario_rejects_empty_factor_set():
    with pytest.raises(ValueError):
        LossScenario(**scenario_kwargs(causal_factors=set()))


def test_scenario_rejects_empty_subtype_set():
    with pytest.raises(ValueError):
        LossScenario(**scenario_kwargs(sub_types=set()))


def test_scenario_rejects_type_a_without_uca():
    with pytest.raises(ValueError):
        LossScenario(
            **scenario_kwargs(
                scenario_type=ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
                sub_types={ScenarioSubType.CA_NOT_PROVIDED},
            )
        )


def test_scenario_rejects_illegal_subtype_pairing():
    with pytest.raises(ValueError):
        LossScenario(**scenario_kwargs(sub_types={ScenarioSubType.CA_NOT_PROVIDED}))


# --- fingerprinting --------------------------------------------------------


def test_fingerprint_ignores_declaration_order():
    items = dict(
        losses=[Loss(id="L-1", description="a loss"), Loss(id="L-2", description="b loss")],
        hazards=[Hazard(id="H-1", description="a hazard", leads_to={"L-1", "L-2"})],
        constraints=[SafetyConstraint(id="S-1", text="t", mitigates={"H-1"})],
    )
    forward = minimal_model(**items)
    items_reversed = {k: list(reversed(v)) for k, v in items.items()}
    backward = minimal_model(**items_reversed)
    assert model_fingerprint(forward) == model_fingerprint(backward)


def test_fingerprint_changes_with_content():
    one = minimal_model(losses=[Loss(id="L-1", description="a loss")])
    two = minimal_model(losses=[Loss(id="L-1", description="another loss")])
    assert model_fingerprint(one) != model_fingerprint(two)


def test_fingerprint_rejects_invalid_model():
    model = minimal_model(
        hazards=[Hazard(id="H-1", description="h", leads_to={"L-9"})]
    )
    with pytest.raises(InvalidModel):
        model_fingerprint(model)


def test_diagnostics_is_validate_model_once():
    model = minimal_model(
        hazards=[Hazard(id="H-1", description="h", leads_to={"L-9"})]
    )
    assert model.diagnostics == tuple(validate_model(model))
    assert model.diagnostics is model.diagnostics


def test_replace_gives_a_fresh_diagnostics_cache():
    model = minimal_model()
    assert not has_errors(model.diagnostics)
    broken = dataclasses.replace(model, components={})
    assert broken.diagnostics == tuple(validate_model(broken))
    assert has_errors(broken.diagnostics)
    assert not has_errors(model.diagnostics)
    # the cached result takes no part in equality
    assert dataclasses.replace(broken, components=model.components) == model


def test_each_model_value_is_validated_and_fingerprinted_once(monkeypatch):
    checked, digested = [], []
    real_check, real_digest = model_mod._check, model_mod._digest
    monkeypatch.setattr(model_mod, "_check", lambda m: checked.append(m) or real_check(m))
    monkeypatch.setattr(model_mod, "_digest", lambda m: digested.append(m) or real_digest(m))
    model = minimal_model(
        losses=[Loss(id="L-1", description="a loss")],
        hazards=[Hazard(id="H-1", description="a hazard", leads_to={"L-1"})],
        control_actions=[ControlAction(id="CA-1", label="act", source="C", target="P")],
    )

    diagnostics = validate_model(model)
    assert model.diagnostics == tuple(diagnostics)
    assert len(enumerate_ucas(model)) == 4
    assert len({model_fingerprint(model) for _ in range(3)}) == 1
    assert [id(m) for m in checked] == [id(model)]
    assert [id(m) for m in digested] == [id(model)]

    # a replaced model is a new value: it validates and digests afresh
    fresh = dataclasses.replace(model)
    assert model_fingerprint(fresh) == model_fingerprint(model)
    assert validate_model(fresh) == diagnostics
    assert [id(m) for m in checked] == [id(model), id(fresh)]
    assert [id(m) for m in digested] == [id(model), id(fresh)]

    # an invalid model raises on every call, and is never digested
    broken = dataclasses.replace(model, components={})
    for _ in range(3):
        with pytest.raises(InvalidModel):
            model_fingerprint(broken)
    assert [id(m) for m in checked] == [id(model), id(fresh), id(broken)]
    assert len(digested) == 2


def test_validate_model_returns_a_list_the_caller_owns():
    model = minimal_model(hazards=[Hazard(id="H-1", description="h", leads_to={"L-9"})])
    first = validate_model(model)
    first.clear()
    assert validate_model(model) == list(model.diagnostics) != []


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_generated_models_validate_cleanly(model):
    assert not has_errors(validate_model(model))


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_fingerprint_is_pure(model):
    assert model_fingerprint(model) == model_fingerprint(model)
