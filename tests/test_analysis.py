from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stpa_loc import analysis as analysis_mod
from stpa_loc.analysis import (
    AnalysisError,
    DanglingReference,
    DuplicateId,
    Ledger,
    LedgerFormatError,
    LedgerSource,
    Pathway,
    PathwayStage,
    RecordSeverity,
    StageKind,
    UnconfirmedUca,
    UnknownComponent,
    UnknownComponentKind,
    UnknownRecord,
    VulnerabilityRecord,
    _record_line,
    _resolve_uca,
    classify_scenario,
    derive_constraints,
    enumerate_ucas,
    ledger_exposure,
    ledger_load,
    ledger_register,
    ledger_resolve,
    ledger_save,
    match_catalog,
    resolve_scenario,
    trace_pathway,
    uca_id,
)
from stpa_loc.model import (
    AiCharacteristic,
    CausalFactorType,
    Component,
    ComponentKind,
    ControlAction,
    ControlStructureModel,
    Hazard,
    InvalidModel,
    LifecyclePhase,
    Loss,
    LossScenario,
    SUBTYPES_FOR_TYPE,
    ScenarioSubType,
    ScenarioType,
    UcaAnnotation,
    UcaType,
)

from stpa_loc.report import TableDirection, build_table
from strategies import models


def scenario(
    factors,
    chars=frozenset(),
    uca=None,
    origin="P",
    kind=ComponentKind.CONTROLLED_PROCESS,
    scenario_type=ScenarioType.TYPE_B_IMPROPER_EXECUTION,
    sub_types=frozenset({ScenarioSubType.CA_NOT_EXECUTED}),
):
    return LossScenario(
        id="S-X",
        origin_component=origin,
        origin_kind=kind,
        scenario_type=scenario_type,
        sub_types=sub_types,
        causal_factors=frozenset(factors),
        ai_characteristics=frozenset(chars),
        description="drafted for testing",
        uca=uca,
    )


# --- UCA enumeration ---------------------------------------------------------


def test_uca_id_format():
    assert uca_id("CA-2", UcaType.WRONG_DURATION) == "CA-2-wrong_duration"


def test_enumerate_ucas_for_fixture(fixture_model):
    ucas = enumerate_ucas(fixture_model)
    assert len(ucas) == 20
    assert [u.id for u in ucas[:4]] == [
        "CA-1-not_provided",
        "CA-1-provided_causes_hazard",
        "CA-1-wrong_time_or_order",
        "CA-1-wrong_duration",
    ]
    confirmed = [u for u in ucas if u.is_confirmed]
    assert [u.id for u in confirmed] == [
        "CA-1-not_provided",
        "CA-1-provided_causes_hazard",
        "CA-1-wrong_time_or_order",
        "CA-1-wrong_duration",
    ]


def test_enumerate_merges_annotations(host):
    ucas = enumerate_ucas(host)
    assert len(ucas) == 4
    merged = ucas[0]
    assert merged.id == "CA-1-not_provided"
    assert merged.context == "idle"
    assert merged.hazards == {"H-1"}
    assert merged.status == "confirmed"
    bare = ucas[1]
    assert bare.context == ""
    assert bare.hazards == frozenset()
    assert bare.status == "candidate"
    assert all(u.label == "act" for u in ucas)


def test_enumerate_rejects_invalid_model():
    model = ControlStructureModel.from_items(
        name="broken", lifecycle=LifecyclePhase.OPERATIONS
    )
    with pytest.raises(InvalidModel):
        enumerate_ucas(model)


@settings(max_examples=100, deadline=None)
@given(model=models())
def test_enumeration_is_exhaustive_and_ordered(model):
    ucas = enumerate_ucas(model)
    assert len(ucas) == 4 * len(model.control_actions)
    ids = [u.id for u in ucas]
    assert len(set(ids)) == len(ids)
    keys = [(u.control_action, u.uca_type.rank) for u in ucas]
    assert keys == sorted(keys)


# --- constraint derivation -----------------------------------------------------


def test_derive_constraint_texts(host):
    confirmed = [u for u in enumerate_ucas(host) if u.is_confirmed]
    drafts = derive_constraints(confirmed)
    assert len(drafts) == 1
    draft = drafts[0]
    assert draft.id == "SC-CA-1-not_provided"
    assert draft.text == "act must be provided when idle"
    assert draft.mitigates == {"H-1"}
    assert draft.enforced_by == {"CA-1"}


def test_derive_constraint_covers_every_template(fixture_model):
    confirmed = [u for u in enumerate_ucas(fixture_model) if u.is_confirmed]
    drafts = derive_constraints(confirmed)
    texts = {d.id: d.text for d in drafts}
    label = "Push upgrades to the AI agent"
    assert texts["SC-CA-1-not_provided"].startswith(f"{label} must be provided when ")
    assert texts["SC-CA-1-provided_causes_hazard"].startswith(
        f"{label} must not be provided when "
    )
    assert texts["SC-CA-1-wrong_time_or_order"].startswith(
        f"{label} must be provided at the correct time/order relative to "
    )
    assert texts["SC-CA-1-wrong_duration"].startswith(
        f"{label} must be applied for the correct duration given "
    )


def test_derive_rejects_unconfirmed(host):
    ucas = enumerate_ucas(host)
    with pytest.raises(UnconfirmedUca):
        derive_constraints(ucas)


# --- classification -------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,expected",
    [
        (ComponentKind.CONTROLLER, ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION),
        (ComponentKind.SENSOR, ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION),
        (ComponentKind.ACTUATOR, ScenarioType.TYPE_B_IMPROPER_EXECUTION),
        (ComponentKind.CONTROLLED_PROCESS, ScenarioType.TYPE_B_IMPROPER_EXECUTION),
    ],
)
def test_classify_by_loop_position(kind, expected):
    scenario_type, menu = classify_scenario(kind, {CausalFactorType.DELAY})
    assert scenario_type is expected
    assert menu == list(SUBTYPES_FOR_TYPE[expected])


def test_classify_rejects_environment():
    with pytest.raises(UnknownComponentKind):
        classify_scenario(ComponentKind.ENVIRONMENT, {CausalFactorType.DELAY})


def test_classify_rejects_empty_factors():
    with pytest.raises(ValueError):
        classify_scenario(ComponentKind.CONTROLLER, set())


# --- catalog matching ------------------------------------------------------------


def test_match_catalog_ranking(bundled_catalog):
    drafted = scenario(
        factors={
            CausalFactorType.FLAWED_PROCESS_MODEL,
            CausalFactorType.INADEQUATE_OPERATION_OF_CONTROLLED_PROCESS,
        },
        chars={AiCharacteristic.AGENCY},
    )
    ranked = [e.id for e in match_catalog(drafted, bundled_catalog)]
    assert ranked == ["A3-11", "A3-15", "B4-07", "B4-11", "B4-12", "B4-08", "B4-10"]


def test_match_requires_characteristic_overlap(bundled_catalog):
    drafted = scenario(factors={CausalFactorType.FLAWED_PROCESS_MODEL})
    assert match_catalog(drafted, bundled_catalog) == []


def test_match_requires_matching_origin(bundled_catalog):
    drafted = scenario(
        factors={CausalFactorType.DELAY},
        chars={AiCharacteristic.SPEED_ASYMMETRY},
        origin="C",
        kind=ComponentKind.CONTROLLER,
        scenario_type=ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_PROVIDED}),
        uca="CA-1-not_provided",
    )
    assert all(
        e.origin_component is ComponentKind.CONTROLLER
        for e in match_catalog(drafted, bundled_catalog)
    )


# --- pathway tracing --------------------------------------------------------------


def stage_kinds(pathway: Pathway) -> list[StageKind]:
    return [stage.kind for stage in pathway.stages]


def test_trace_full_feedback_loop(host):
    drafted = scenario(
        factors={
            CausalFactorType.INADEQUATE_OPERATION_OF_CONTROLLED_PROCESS,
            CausalFactorType.FEEDBACK_INCORRECT_MISSING_DELAYED,
            CausalFactorType.FLAWED_PROCESS_MODEL,
        },
        scenario_type=ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_PROVIDED}),
        origin="C",
        kind=ComponentKind.CONTROLLER,
        uca="CA-1-not_provided",
    )
    pathway = trace_pathway(drafted, host)
    assert stage_kinds(pathway) == [
        StageKind.CONTROLLED_PROCESS,
        StageKind.SENSOR,
        StageKind.PROCESS_MODEL_DEFECT,
        StageKind.CONTROL_ACTION_SIGNAL,
        StageKind.HAZARD,
        StageKind.LOSS,
    ]
    annotations = [stage.annotation for stage in pathway.stages]
    assert annotations == [
        "inadequate_operation_of_controlled_process",
        "feedback_incorrect_missing_delayed",
        "flawed_process_model",
        "",
        "H-1",
        "L-1, L-2",
    ]
    assert pathway.scenario == "S-X"


def test_trace_deception_marks_the_process(host):
    drafted = scenario(
        factors={
            CausalFactorType.FEEDBACK_INCORRECT_MISSING_DELAYED,
            CausalFactorType.FLAWED_PROCESS_MODEL,
        },
        chars={AiCharacteristic.DECEPTION},
    )
    pathway = trace_pathway(drafted, host)
    first = pathway.stages[0]
    assert first.kind is StageKind.CONTROLLED_PROCESS
    assert first.annotation == "deception"


def test_trace_actuator_only_skips_signal_stage(host):
    pathway = trace_pathway(scenario(factors={CausalFactorType.DELAY}), host)
    assert stage_kinds(pathway) == [
        StageKind.ACTUATOR,
        StageKind.HAZARD,
        StageKind.LOSS,
    ]
    assert pathway.stages[0].annotation == "delay"
    assert pathway.stages[1].annotation == ""
    assert pathway.stages[2].annotation == ""


def test_trace_algorithm_defect_emits_signal_stage(host):
    pathway = trace_pathway(
        scenario(factors={CausalFactorType.INADEQUATE_CONTROL_ALGORITHM}), host
    )
    assert stage_kinds(pathway) == [
        StageKind.CONTROL_ALGORITHM_DEFECT,
        StageKind.CONTROL_ACTION_SIGNAL,
        StageKind.HAZARD,
        StageKind.LOSS,
    ]


def test_trace_groups_factors_per_stage(host):
    pathway = trace_pathway(
        scenario(
            factors={
                CausalFactorType.FLAWED_PROCESS_MODEL,
                CausalFactorType.INCOMPLETE_PROCESS_MODEL,
            }
        ),
        host,
    )
    assert pathway.stages[0].annotation == (
        "flawed_process_model, incomplete_process_model"
    )


def test_trace_unknown_origin(host):
    drafted = scenario(factors={CausalFactorType.DELAY}, origin="Ghost")
    with pytest.raises(DanglingReference):
        trace_pathway(drafted, host)


def test_trace_unresolvable_uca(host):
    drafted = scenario(
        factors={CausalFactorType.DELAY},
        scenario_type=ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_PROVIDED}),
        origin="C",
        kind=ComponentKind.CONTROLLER,
        uca="CA-9-not_provided",
    )
    with pytest.raises(DanglingReference):
        trace_pathway(drafted, host)


def test_pathway_constructor_guards():
    with pytest.raises(ValueError):
        Pathway(scenario="S-X", stages=())
    with pytest.raises(ValueError):
        Pathway(
            scenario="S-X", stages=(PathwayStage(StageKind.CONTROLLED_PROCESS),)
        )
    with pytest.raises(ValueError):
        Pathway(
            scenario="S-X",
            stages=(
                PathwayStage(StageKind.CONTROLLER),
                PathwayStage(StageKind.SENSOR),
                PathwayStage(StageKind.LOSS),
            ),
        )
    with pytest.raises(ValueError):
        Pathway(
            scenario="S-X",
            stages=(
                PathwayStage(StageKind.HAZARD),
                PathwayStage(StageKind.HAZARD),
            ),
        )


_TYPE_B_SUBS = st.frozensets(
    st.sampled_from(sorted(SUBTYPES_FOR_TYPE[ScenarioType.TYPE_B_IMPROPER_EXECUTION], key=lambda s: s.rank)),
    min_size=1,
)
_FACTOR_SETS = st.frozensets(
    st.sampled_from(sorted(CausalFactorType, key=lambda f: f.rank)), min_size=1
)
_CHAR_SETS = st.frozensets(st.sampled_from(sorted(AiCharacteristic, key=lambda c: c.rank)))


@settings(max_examples=300, deadline=None)
@given(factors=_FACTOR_SETS, chars=_CHAR_SETS, subs=_TYPE_B_SUBS)
def test_trace_always_walks_loop_order(host, factors, chars, subs):
    pathway = trace_pathway(
        scenario(factors=factors, chars=chars, sub_types=subs), host
    )
    ranks = [stage.kind.rank for stage in pathway.stages]
    assert ranks == sorted(set(ranks))
    assert pathway.stages[-1].kind is StageKind.LOSS
    has_controller_defect = any(
        stage.kind
        in (StageKind.PROCESS_MODEL_DEFECT, StageKind.CONTROL_ALGORITHM_DEFECT)
        for stage in pathway.stages
    )
    has_signal = any(
        stage.kind is StageKind.CONTROL_ACTION_SIGNAL for stage in pathway.stages
    )
    assert has_signal == has_controller_defect


# --- scenario resolution ----------------------------------------------------------


def test_uca_type_tokens_hold_no_dash():
    # _resolve_uca splits a UCA id at its last "-"; a dash inside a type
    # token would make that split ambiguous
    assert all("-" not in token for token in UcaType.tokens())


def cites(uca_ref, origin="C"):
    return scenario(
        factors={CausalFactorType.DELAY},
        origin=origin,
        kind=ComponentKind.CONTROLLER,
        scenario_type=ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
        sub_types=frozenset({ScenarioSubType.CA_NOT_PROVIDED}),
        uca=uca_ref,
    )


def assert_resolves_every_uca(model):
    ucas = enumerate_ucas(model)
    assert len(ucas) == 4 * len(model.control_actions)
    origin = next(iter(model.components))
    for uca in ucas:
        assert _resolve_uca(uca.id, model) == uca
        assert resolve_scenario(cites(uca.id, origin), model).uca == uca


def test_resolver_agrees_with_enumeration_for_fixture(fixture_model):
    assert_resolves_every_uca(fixture_model)


# Control action ids that contain "-", some with pieces that are also UCA
# type tokens, e.g. CA-1-x or CA-not_provided-wrong_duration.
_DASHED_ACTION_IDS = st.lists(
    st.sampled_from(["1", "x", "CA", "2b", "not_provided", "wrong_duration"]),
    min_size=1,
    max_size=4,
).map(lambda parts: "-".join(["CA", *parts]))


@st.composite
def dashed_models(draw) -> ControlStructureModel:
    action_ids = draw(st.lists(_DASHED_ACTION_IDS, min_size=1, max_size=6, unique=True))
    annotated = draw(
        st.lists(
            st.tuples(st.sampled_from(action_ids), st.sampled_from(list(UcaType))),
            unique=True,
        )
    )
    return ControlStructureModel.from_items(
        name="dashed",
        lifecycle=LifecyclePhase.OPERATIONS,
        components=[
            Component(id="C", name="C", kind=ComponentKind.CONTROLLER),
            Component(id="P", name="P", kind=ComponentKind.CONTROLLED_PROCESS),
        ],
        losses=[Loss(id="L-1", description="a loss")],
        hazards=[Hazard(id="H-1", description="a hazard", leads_to={"L-1"})],
        control_actions=[
            ControlAction(id=ca_id, label=f"act {ca_id}", source="C", target="P")
            for ca_id in action_ids
        ],
        annotations=[
            UcaAnnotation(
                control_action=ca_id,
                uca_type=uca_type,
                context=f"context {ca_id} {uca_type.token}",
                hazards={"H-1"},
            )
            for ca_id, uca_type in annotated
        ],
    )


@settings(max_examples=100, deadline=None)
@given(model=dashed_models())
def test_resolver_agrees_with_enumeration_for_dashed_action_ids(model):
    assert_resolves_every_uca(model)


@pytest.mark.parametrize(
    "uca_ref",
    [
        "CA1not_provided",  # no "-"
        "not_provided",  # a bare type token
        "CA-1-bogus",  # unknown type token
        "CA-1-",  # empty type token
        "CA-9-not_provided",  # unknown control action
        "-not_provided",  # empty control action part
        "CA-1-not_provided-",
    ],
)
def test_unresolvable_uca_refs(host, uca_ref):
    with pytest.raises(DanglingReference) as raised:
        _resolve_uca(uca_ref, host)
    assert str(raised.value) == f"UCA {uca_ref!r} does not resolve in the model"


def test_resolver_needs_the_dash_even_for_an_empty_action_id():
    # an unvalidated model may key a control action by "": its UCA ids
    # start with "-", and a bare type token still names nothing
    model = ControlStructureModel.from_items(
        name="m",
        lifecycle=LifecyclePhase.OPERATIONS,
        control_actions=[ControlAction(id="", label="act", source="C", target="P")],
    )
    assert _resolve_uca("-not_provided", model).control_action == ""
    with pytest.raises(DanglingReference):
        _resolve_uca("not_provided", model)


def test_resolve_scenario_follows_links(host):
    resolved = resolve_scenario(cites("CA-1-not_provided"), host)
    assert resolved.uca.label == "act"
    assert [hazard.id for hazard in resolved.hazards] == ["H-1"]
    assert [hazard.description for hazard in resolved.hazards] == ["a hazard"]
    assert resolved.loss_ids == ("L-1", "L-2")
    bare = resolve_scenario(cites("CA-1-wrong_duration"), host)
    assert bare.uca.id == "CA-1-wrong_duration"
    assert bare.hazards == bare.loss_ids == ()


def test_resolve_scenario_without_uca(host):
    resolved = resolve_scenario(scenario(factors={CausalFactorType.DELAY}), host)
    assert resolved.uca is None
    assert resolved.hazards == resolved.loss_ids == ()


def _unknown_hazard_model():
    return ControlStructureModel.from_items(
        name="m",
        lifecycle=LifecyclePhase.OPERATIONS,
        components=[
            Component(id="C", name="C", kind=ComponentKind.CONTROLLER),
            Component(id="P", name="P", kind=ComponentKind.CONTROLLED_PROCESS),
        ],
        control_actions=[ControlAction(id="CA-1", label="act", source="C", target="P")],
        annotations=[
            UcaAnnotation(
                control_action="CA-1",
                uca_type=UcaType.NOT_PROVIDED,
                context="idle",
                hazards={"H-1"},
            )
        ],
    )


def test_trace_dangling_reference_messages(host):
    # trace_pathway reports through resolve_scenario, so its messages are
    # the ones build_table gives
    cases = [
        (
            scenario(factors={CausalFactorType.DELAY}, origin="Ghost"),
            host,
            "scenario S-X origin 'Ghost' is not a model component",
        ),
        (cites("CA-9-not_provided"), host, "UCA 'CA-9-not_provided' does not resolve in the model"),
        (cites("CA-1-not_provided"), _unknown_hazard_model(), "scenario S-X reaches unknown hazard 'H-1'"),
    ]
    for drafted, model, message in cases:
        with pytest.raises(DanglingReference) as raised:
            trace_pathway(drafted, model)
        assert str(raised.value) == message


def test_each_uca_reference_is_built_once_per_model(fixture_model, fixture_scenarios, monkeypatch):
    built = []
    build = analysis_mod._build_uca
    monkeypatch.setattr(analysis_mod, "_build_uca", lambda *args: built.append(args[1:]) or build(*args))
    model = dataclasses.replace(fixture_model)
    build_table(fixture_scenarios, model, TableDirection.EFFECT_TO_CAUSE)
    build_table(fixture_scenarios, model, TableDirection.CAUSE_TO_EFFECT, include_loss=True)
    for drafted in fixture_scenarios:
        trace_pathway(drafted, model)
    cited = {drafted.uca for drafted in fixture_scenarios if drafted.uca}
    assert len(built) == len(cited) > 1
    assert {uca_id(ca_id, uca_type) for ca_id, uca_type in built} == cited


def test_a_dangling_reference_raises_on_every_call(host):
    model = _unknown_hazard_model()
    cases = [(cites("CA-1-not_provided", origin="C"), model), (cites("CA-9-not_provided"), host)]
    for drafted, target in cases:
        for _ in range(3):
            with pytest.raises(DanglingReference):
                resolve_scenario(drafted, target)
    # a scenario that resolves does not vouch for another citing the same UCA
    resolve_scenario(cites("CA-1-not_provided"), host)
    with pytest.raises(DanglingReference, match="origin 'Ghost'"):
        resolve_scenario(cites("CA-1-not_provided", origin="Ghost"), host)


def test_resolutions_leave_the_model_value_alone(fixture_model, fixture_scenarios):
    model = dataclasses.replace(fixture_model)
    before = repr(model)
    for drafted in fixture_scenarios:
        resolve_scenario(drafted, model)
    assert model.__dict__["_resolutions"]
    assert repr(model) == before and model == fixture_model
    fresh = dataclasses.replace(model)
    assert "_resolutions" not in fresh.__dict__ and fresh._resolutions == {}


# --- degradation ledger --------------------------------------------------------------


UTC = timezone.utc
T0 = datetime(2026, 1, 1, 9, 0, tzinfo=UTC)


def record(record_id="V-1", component="P", severity=RecordSeverity.LOW, **overrides):
    fields = dict(
        id=record_id,
        description="sensor sampling gap",
        component=component,
        severity=severity,
        opened_at=T0,
        source=LedgerSource.AUDIT,
    )
    fields.update(overrides)
    return VulnerabilityRecord(**fields)


def test_ledger_anchors_to_model(host):
    ledger = Ledger.for_model(host)
    assert ledger.components == {"C", "P"}
    assert len(ledger) == 0


def test_ledger_for_model_rejects_invalid_model():
    model = ControlStructureModel.from_items(
        name="broken", lifecycle=LifecyclePhase.OPERATIONS
    )
    with pytest.raises(InvalidModel):
        Ledger.for_model(model)


def test_register_is_functional(host):
    empty = Ledger.for_model(host)
    one = ledger_register(empty, record())
    assert len(empty) == 0
    assert len(one) == 1
    assert one["V-1"].description == "sensor sampling gap"
    with pytest.raises(KeyError):
        one["V-9"]


def test_ledger_iterates_its_records_and_holds_their_ids(host):
    ledger = ledger_register(ledger_register(Ledger.for_model(host), record("V-1")), record("V-2"))
    assert list(ledger) == list(ledger.records)
    assert [rec.id for rec in ledger] == ["V-1", "V-2"]
    assert "V-2" in ledger
    assert "V-9" not in ledger
    assert "V-1" not in Ledger.for_model(host)


def test_register_duplicate_id(host):
    ledger = ledger_register(Ledger.for_model(host), record())
    with pytest.raises(DuplicateId):
        ledger_register(ledger, record())


def test_register_unknown_component(host):
    with pytest.raises(UnknownComponent):
        ledger_register(Ledger.for_model(host), record(component="Ghost"))


def test_resolve_closes_record(host):
    ledger = ledger_register(Ledger.for_model(host), record())
    closed = ledger_resolve(ledger, "V-1", T0 + timedelta(days=2))
    assert closed["V-1"].closed_at == T0 + timedelta(days=2)
    assert ledger["V-1"].closed_at is None


def test_resolve_unknown_record(host):
    with pytest.raises(UnknownRecord):
        ledger_resolve(Ledger.for_model(host), "V-1", T0)


def test_resolve_twice_fails(host):
    ledger = ledger_register(Ledger.for_model(host), record())
    ledger = ledger_resolve(ledger, "V-1", T0 + timedelta(days=1))
    with pytest.raises(ValueError):
        ledger_resolve(ledger, "V-1", T0 + timedelta(days=2))


def test_close_before_open_fails(host):
    ledger = ledger_register(Ledger.for_model(host), record())
    with pytest.raises(ValueError):
        ledger_resolve(ledger, "V-1", T0 - timedelta(days=1))


def test_naive_timestamps_rejected():
    with pytest.raises(ValueError):
        record(opened_at=datetime(2026, 1, 1))


def test_timestamps_normalize_to_utc():
    offset = timezone(timedelta(hours=2))
    rec = record(opened_at=datetime(2026, 1, 1, 12, 0, tzinfo=offset))
    assert rec.opened_at == datetime(2026, 1, 1, 10, 0, tzinfo=UTC)
    assert rec.opened_at.tzinfo == UTC


def test_is_open_boundaries():
    rec = record(closed_at=T0 + timedelta(days=1))
    assert rec.is_open(T0)
    assert not rec.is_open(T0 - timedelta(seconds=1))
    assert rec.is_open(T0 + timedelta(hours=23))
    assert not rec.is_open(T0 + timedelta(days=1))


def test_exposure_summary(host):
    ledger = Ledger.for_model(host)
    ledger = ledger_register(ledger, record("V-1", "P", RecordSeverity.LOW))
    ledger = ledger_register(ledger, record("V-2", "P", RecordSeverity.HIGH))
    ledger = ledger_register(ledger, record("V-3", "C", RecordSeverity.MEDIUM))
    ledger = ledger_resolve(ledger, "V-2", T0 + timedelta(days=1))
    later = T0 + timedelta(days=7)
    assert ledger_exposure(ledger, later) == {
        "open_count": 2,
        "weighted": 4,
        "by_component": {"C": ["V-3"], "P": ["V-1"]},
    }
    before_resolution = T0 + timedelta(hours=1)
    assert ledger_exposure(ledger, before_resolution)["weighted"] == 13


def test_exposure_checks_as_of_once_a_record_exists(host):
    naive = datetime(2026, 1, 8)
    # an empty ledger has nothing to compare, so any as_of sums to zero
    assert ledger_exposure(Ledger.for_model(host), naive) == {"open_count": 0, "weighted": 0, "by_component": {}}
    ledger = ledger_register(ledger_register(Ledger.for_model(host), record("V-1")), record("V-2", "C"))
    with pytest.raises(ValueError, match="^as_of must be timezone-aware$"):
        ledger_exposure(ledger, naive)
    edge = datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
    with pytest.raises(ValueError, match="^as_of is out of range in UTC: "):
        ledger_exposure(ledger, edge)
    # the same moment in another zone gives the same summary
    east = (T0 + timedelta(hours=1)).astimezone(timezone(timedelta(hours=5)))
    assert ledger_exposure(ledger, east) == ledger_exposure(ledger, T0 + timedelta(hours=1))
    assert ledger_exposure(ledger, east)["open_count"] == 2
    assert ledger_exposure(ledger, T0 - timedelta(seconds=1))["open_count"] == 0


def test_severity_weights():
    assert [s.weight for s in RecordSeverity] == [1, 3, 9]


def test_ledger_save_load_round_trip(host, tmp_path):
    ledger = Ledger.for_model(host)
    ledger = ledger_register(ledger, record("V-1", "P", RecordSeverity.HIGH))
    ledger = ledger_register(
        ledger, record("V-2", "C", source=LedgerSource.INCIDENT)
    )
    ledger = ledger_resolve(ledger, "V-1", T0 + timedelta(days=3))
    path = tmp_path / "ledger.jsonl"
    ledger_save(ledger, path)
    loaded = ledger_load(path, host)
    assert loaded.records == ledger.records
    assert loaded == ledger
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_failed_ledger_save_keeps_old_ledger(host, tmp_path, monkeypatch, step):
    path = tmp_path / "ledger.jsonl"
    ledger = ledger_register(Ledger.for_model(host), record("V-1", "P"))
    ledger_save(ledger, path)
    before = path.read_bytes()

    def fail(*args):
        names = [os.fspath(arg) for arg in args if not isinstance(arg, int)]
        raise OSError(28, "No space left on device", *names)

    monkeypatch.setattr(os, step, fail)
    with pytest.raises(OSError, match="No space left") as raised:
        ledger_save(ledger_register(ledger, record("V-2", "C")), path)
    monkeypatch.undo()
    assert ".tmp" not in str(raised.value)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ledger.jsonl"]


def test_ledger_save_keeps_permissions_and_symlink(host, tmp_path):
    target = tmp_path / "ledger.jsonl"
    link = tmp_path / "link.jsonl"
    ledger = ledger_register(Ledger.for_model(host), record("V-1", "P"))
    ledger_save(ledger, target)
    target.chmod(0o640)
    link.symlink_to(target)
    ledger_save(ledger_register(ledger, record("V-2", "C")), link)
    assert link.is_symlink()
    assert target.stat().st_mode & 0o777 == 0o640
    assert [r.id for r in ledger_load(link, host).records] == ["V-1", "V-2"]
    assert sorted(os.listdir(tmp_path)) == ["ledger.jsonl", "link.jsonl"]


def test_ledger_load_validates_components(host, tmp_path):
    import json

    path = tmp_path / "ledger.jsonl"
    payload = {
        "id": "V-1",
        "description": "d",
        "component": "Ghost",
        "severity": "low",
        "opened_at": T0.isoformat(),
        "closed_at": None,
        "source": "audit",
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(UnknownComponent):
        ledger_load(path, host)


def write_ledger(path, entries):
    """Save one record per (id, component) pair, bypassing the register checks."""
    records = tuple(record(record_id, component) for record_id, component in entries)
    ledger_save(Ledger(components=frozenset(), records=records), path)


@pytest.mark.parametrize("line", [2, 3, 5])
def test_ledger_load_rejects_duplicate_id_on_line(host, tmp_path, line):
    entries = [(f"V-{i}", "P") for i in range(1, 6)]
    entries[line - 1] = ("V-1", "C")
    entries.append(("V-9", "Ghost"))  # a later bad line is never reached
    path = tmp_path / "ledger.jsonl"
    write_ledger(path, entries)
    with pytest.raises(DuplicateId) as raised:
        ledger_load(path, host)
    assert str(raised.value) == "ledger already holds record 'V-1'"


def test_ledger_load_reports_first_offending_line(host, tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_ledger(path, [("V-1", "P"), ("V-2", "Ghost"), ("V-1", "P")])
    with pytest.raises(UnknownComponent) as raised:
        ledger_load(path, host)
    assert str(raised.value) == "record V-2 names unknown component 'Ghost'"


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(b"not json", "Expecting value: line 1 column 1 (char 0)", id="not-json"),
        pytest.param(b"[]", "ledger line is not a JSON object: []", id="not-an-object"),
        pytest.param(b'{"id": "V-9"}', "'description'", id="missing-field"),
        pytest.param(b"[" * 2000 + b"]" * 2000, "JSON nested too deeply", id="nested-too-deeply"),
        pytest.param(b'{"id": "\xff"}', "'utf-8' codec can't decode byte 0xff in position ", id="not-utf8"),
        pytest.param(
            b'{"id": "V-9", "description": "d", "component": "P", "severity": "low",'
            b' "opened_at": "0001-01-01T00:00:00+01:00", "closed_at": null, "source": "audit"}',
            "opened_at is out of range in UTC: 0001-01-01T00:00:00+01:00",
            id="no-utc-form",
        ),
    ],
)
def test_ledger_load_reports_the_malformed_line(host, tmp_path, bad, message):
    path = tmp_path / "ledger.jsonl"
    write_ledger(path, [("V-1", "P")])
    path.write_bytes(path.read_bytes() + b"\n" + bad + b"\nthe fourth line is never read\n")
    with pytest.raises(LedgerFormatError) as raised:
        ledger_load(path, host)
    assert raised.value.line == 3
    assert str(raised.value).startswith(message)


def test_ledger_load_matches_registering_each_record(host, tmp_path):
    entries = [("V-3", "P"), ("V-1", "C"), ("V-2", "P")]
    path = tmp_path / "ledger.jsonl"
    write_ledger(path, entries)
    expected = Ledger.for_model(host)
    for record_id, component in entries:
        expected = ledger_register(expected, record(record_id, component))
    assert ledger_load(path, host) == expected


RECORD_FIELDS = ("id", "description", "component", "severity", "opened_at", "closed_at", "source")
GOOD_RECORD = {
    "id": "V-1",
    "description": "d",
    "component": "P",
    "severity": "low",
    "opened_at": T0.isoformat(),
    "closed_at": None,
    "source": "audit",
}
field_words = st.sampled_from(["V-1", "V-2", "C", "P", "Ghost", "high", "incident", ""])
timestamps = st.sampled_from(
    ["2026-01-01", "2026-01-01T00:00:00", "2025-12-31T00:00:00+00:00", "0001-01-01T00:00:00+01:00",
     "9999-12-31T23:59:59-01:00", "2026-13-01T00:00:00+00:00"]
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
record_lines = st.builds(
    lambda changes, dropped, ascii: json.dumps(
        {k: v for k, v in {**GOOD_RECORD, **changes}.items() if k not in dropped}, ensure_ascii=ascii
    ).encode(),
    st.dictionaries(st.sampled_from(RECORD_FIELDS), field_words | timestamps | json_values, max_size=3),
    st.sets(st.sampled_from(RECORD_FIELDS), max_size=2),
    st.booleans(),  # ensure_ascii=False writes non-ASCII raw, as ledger_save does
)
ledger_lines = record_lines | st.text(max_size=20).map(str.encode) | st.binary(max_size=20)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(ledger_lines, max_size=5))
def test_ledger_load_raises_only_ledger_errors(host, tmp_path, lines):
    path = tmp_path / "ledger.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        loaded = ledger_load(path, host)
    except (LedgerFormatError, AnalysisError):
        return
    assert len(loaded) <= len(lines)


def seed_ledger_load(path, model):
    """The loader before the C scan: json.loads per line, then VulnerabilityRecord(...), then ledger_register."""
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise LedgerFormatError(str(exc), Path(path).read_bytes().count(b"\n", 0, exc.start) + 1) from exc
    ledger = Ledger.for_model(model)
    for number, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError(f"ledger line is not a JSON object: {payload!r}")
            closed_at = payload.get("closed_at")
            names = ("id", "description", "component", "severity", "opened_at", "source")
            for name in names if closed_at is None else ("closed_at", *names):
                value = payload[name]
                if not isinstance(value, str):
                    raise ValueError(f"ledger field {name!r} is not a string: {value!r}")
                if any("\ud800" <= char <= "\udfff" for char in value):
                    raise ValueError(f"ledger field {name!r} holds a lone surrogate: {value!r}")
            record = VulnerabilityRecord(
                id=payload["id"],
                description=payload["description"],
                component=payload["component"],
                severity=RecordSeverity(payload["severity"]),
                opened_at=datetime.fromisoformat(payload["opened_at"]),
                closed_at=None if closed_at is None else datetime.fromisoformat(closed_at),
                source=LedgerSource(payload["source"]),
            )
        except RecursionError:
            raise LedgerFormatError("JSON nested too deeply", number) from None
        except (ValueError, KeyError) as exc:
            raise LedgerFormatError(str(exc), number) from exc
        ledger = ledger_register(ledger, record)
    return ledger


def outcome(load, path, model):
    """The ledger a load gives, or its exception's type, message and line."""
    try:
        return load(path, model)
    except (LedgerFormatError, AnalysisError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def good_line(**changes):
    return json.dumps({**GOOD_RECORD, **changes}, ensure_ascii=False).encode()


# Lines where the C scan misses, or where one check must come before another.
SCAN_MISSES = {
    "leading-blanks": b"  " + good_line(),
    "trailing-blanks": good_line() + b"  ",
    "tab-and-cr": b"\t" + good_line() + b"\r",
    "bom": "\ufeff".encode() + good_line(),
    "two-objects": good_line() + good_line(id="V-2"),
    "trailing-data": good_line() + b" x",
    "nan": b"NaN",
    "nan-id": good_line(id=float("nan")),
    "open-brackets": b"[" * 2000,
    "nested-too-deeply": b"[" * 2000 + b"]" * 2000,
    "unclosed-object": b'{"id": "V-1"',
    "escaped-lone-surrogate": json.dumps({**GOOD_RECORD, "description": "a\udcffb"}).encode(),
    "naive-opened_at": good_line(opened_at="2026-01-01T00:00:00"),
    "non-utc-opened_at": good_line(opened_at="2026-01-01T00:00:00+05:00"),
    "non-utc-closed_at": good_line(closed_at="2026-01-01T18:00:00+05:00"),
    "closed-before-opened": good_line(closed_at="2025-12-31T00:00:00+00:00"),
    "bad-severity-and-timestamp": good_line(severity="urgent", opened_at="yesterday"),
    "bad-severity-and-source": good_line(severity="urgent", source="rumour"),
    "bad-opened_at-and-closed_at": good_line(opened_at="yesterday", closed_at="never"),
    "unknown-component": good_line(id="V-2", component="Ghost"),
    "duplicate-id": good_line(id="V-0"),
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(ledger_lines | st.sampled_from(list(SCAN_MISSES.values())), max_size=5))
def test_ledger_load_matches_the_seed_loader(host, tmp_path, lines):
    path = tmp_path / "ledger.jsonl"
    path.write_bytes(b"\n".join(lines))
    assert outcome(ledger_load, path, host) == outcome(seed_ledger_load, path, host)


@pytest.mark.parametrize("line", SCAN_MISSES.values(), ids=SCAN_MISSES.keys())
def test_each_scan_miss_loads_as_the_seed_loader_does(host, tmp_path, line):
    path = tmp_path / "ledger.jsonl"
    path.write_bytes(good_line(id="V-0") + b"\n" + line + b"\n")
    assert outcome(ledger_load, path, host) == outcome(seed_ledger_load, path, host)


def test_a_loaded_record_has_the_dict_of_a_constructed_one(host, tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_bytes(good_line() + b"\n" + good_line(id="V-2", closed_at="2026-02-01T00:00:00+00:00") + b"\n")
    for loaded in ledger_load(path, host):
        built = VulnerabilityRecord(**vars(loaded))
        assert loaded == built
        assert list(vars(loaded)) == list(vars(built))
        assert sys.getsizeof(vars(loaded)) == sys.getsizeof(vars(built))


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])
def test_line_separators_inside_a_record_round_trip(host, tmp_path, separator):
    """str.splitlines() breaks at these too, but ledger_save writes them raw."""
    ledger = ledger_register(Ledger.for_model(host), record(f"V-{separator}", description=f"a{separator}b"))
    ledger = ledger_register(ledger, record("V-2", "C"))
    path = tmp_path / "ledger.jsonl"
    ledger_save(ledger, path)
    assert path.read_bytes().count(b"\n") == 2
    assert ledger_load(path, host) == ledger


def old_record_fields(rec):
    """The field dict ledger lines were once written from with json.dumps."""
    return {
        "id": rec.id,
        "description": rec.description,
        "component": rec.component,
        "severity": rec.severity.token,
        "opened_at": rec.opened_at.isoformat(),
        "closed_at": rec.closed_at.isoformat() if rec.closed_at else None,
        "source": rec.source.token,
    }


awkward_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029", "\U0001f600"]),
    max_size=12,
)
moments = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
    timezones=st.sampled_from([UTC, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-8))]),
)


@st.composite
def records(draw, record_id=awkward_text, component=awkward_text):
    opened = draw(moments)
    closed = draw(st.none() | st.timedeltas(min_value=timedelta(0), max_value=timedelta(days=400)))
    if closed is not None and closed > datetime(9999, 12, 30) - opened.astimezone(UTC).replace(tzinfo=None):
        closed = None
    return VulnerabilityRecord(
        id=draw(record_id),
        description=draw(awkward_text),
        component=draw(component),
        severity=draw(st.sampled_from(RecordSeverity)),
        opened_at=opened,
        source=draw(st.sampled_from(LedgerSource)),
        closed_at=None if closed is None else opened + closed,
    )


@settings(max_examples=300, deadline=None)
@given(rec=records())
def test_record_line_is_the_json_dumps_line(rec):
    assert _record_line(rec) == json.dumps(old_record_fields(rec), ensure_ascii=False) + "\n"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(recs=st.lists(records(component=st.sampled_from(["C", "P"])), max_size=6, unique_by=lambda r: r.id))
def test_ledger_save_then_load_returns_the_records(host, tmp_path, recs):
    ledger = Ledger.for_model(host)
    for rec in recs:
        ledger = ledger_register(ledger, rec)
    path = tmp_path / "ledger.jsonl"
    ledger_save(ledger, path)
    assert ledger_load(path, host) == ledger
