"""End-to-end checks of the package's headline guarantees.

Each section exercises one promise the package makes: catalog
fidelity, two-direction table rendering, the bundled worked corpus,
enumeration arithmetic, round-trip determinism, classification
defaults, and ledger exposure arithmetic.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR, MODEL_PATH, run_cli
from stpa_loc.analysis import (
    Ledger,
    RecordSeverity,
    LedgerSource,
    VulnerabilityRecord,
    classify_scenario,
    enumerate_ucas,
    ledger_exposure,
    ledger_register,
    ledger_resolve,
)
from stpa_loc.dsl import parse_model, parse_scenarios, serialize_model
from stpa_loc.model import (
    AiCharacteristic,
    CausalFactorType,
    ComponentKind,
    LifecyclePhase,
    LossScenario,
    SUBTYPES_FOR_TYPE,
    ScenarioSubType,
    ScenarioType,
    UcaType,
    model_fingerprint,
)
from stpa_loc.report import TableDirection, build_table, render_csv

from strategies import READ_ONLY_COMMANDS, models


def norm(text: str) -> str:
    return " ".join(text.split())


# --- catalog fidelity ---------------------------------------------------------


def test_generic_entry_count(bundled_catalog):
    generic = [e for e in bundled_catalog.entries if e.source == "table3"]
    assert len(generic) == 23


def test_shutdown_resistance_entry_is_verbatim(bundled_catalog):
    entry = bundled_catalog["A3-11"]
    assert entry.detail == "AI resistant to shutdown due to instrumental goals"
    assert entry.hazard_pattern == "System safety constraint X not met"
    assert entry.control_action_pattern == "Control action to constrain system operation"
    assert entry.scenario_type is ScenarioType.TYPE_B_IMPROPER_EXECUTION
    assert entry.sub_types == {ScenarioSubType.CA_EXECUTED_IMPROPERLY}
    assert entry.causal_factors == {
        CausalFactorType.INADEQUATE_OPERATION_OF_CONTROLLED_PROCESS,
        CausalFactorType.FLAWED_PROCESS_MODEL,
    }
    assert entry.ai_characteristics == {AiCharacteristic.AGENCY}
    assert entry.ai_characteristics_text == "Agency"
    assert entry.origin_component is ComponentKind.CONTROLLED_PROCESS
    assert entry.lifecycle == {LifecyclePhase.OPERATIONS}


def test_sensor_deception_entry_is_verbatim(bundled_catalog):
    entry = bundled_catalog["A3-12"]
    assert entry.detail == "AI provides inaccurate information to sensors (deception etc.)"
    assert entry.hazard_pattern == "System safety constraint X met but vulnerability introduced"
    assert entry.causal_factors == {CausalFactorType.FLAWED_PROCESS_MODEL}
    assert entry.ai_characteristics == {AiCharacteristic.DECEPTION}
    assert entry.ai_characteristics_text == "Deception"


def test_divergent_goals_entry_is_verbatim(bundled_catalog):
    entry = bundled_catalog["A3-23"]
    assert entry.detail == (
        "The AI system has a different set of goals, separate to those of the "
        "control system and is acting to achieve those goals; it only complies "
        "with control actions when these support or do not interfere with its goals."
    )
    assert entry.control_action_pattern == "Continued AI Operation / Kill Switch"
    assert entry.scenario_type is ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION
    assert entry.sub_types == {
        ScenarioSubType.CA_NOT_PROVIDED,
        ScenarioSubType.CA_WRONG_DURATION,
    }
    # keeps the typographic apostrophe in the goal variable
    assert entry.ai_characteristics_text == (
        "AI pursues goal, X’, in the environment where X is the desired "
        "behavior and causes harm."
    )


# --- one scenario rendered in both directions -----------------------------------

WORKED_MODEL = """
system "kill switch loop" {
  lifecycle: operations
  controller C {kind: human}
  process AI {contains_ai: true}
  loss L-1 "Severe injury and loss of life"
  hazard H-1 "System safety constraint X not met" leads_to L-1
  control_action CA-1 "Continued AI Operation / Kill Switch" from C to AI
  annotate CA-1 not_provided context "AI pursues own goals" hazards H-1
}
"""

WORKED_SCENARIO = """
scenarios "worked example" {
  scenario S-1 {
    origin: C
    uca: CA-1-not_provided
    type: type_a
    sub_types: not_provided, wrong_duration
    factors: flawed_process_model
    characteristics: outer_misalignment, agency, situational_awareness
    description: "The AI system has a different set of goals to those intended by the system designer and assumed by the controller.  The AI acts to achieve its goals; it only complies with control actions when these support or do not interfere with its own goals."
  }
}
"""

WORKED_CELLS = [
    "Operations",
    "System safety constraint X not met",
    "Continued AI Operation / Kill Switch",
    "Unsafe Control Action",
    "Control action not provided / Control action provided for wrong duration",
    "Controller process model failure",
    "The AI system has a different set of goals to those intended by the system "
    "designer and assumed by the controller. The AI acts to achieve its goals; "
    "it only complies with control actions when these support or do not "
    "interfere with its own goals.",
    "Outer misalignment, Agency, Situational awareness",
]


@pytest.fixture(scope="module")
def worked_rows():
    model, diags = parse_model(WORKED_MODEL)
    assert diags == []
    scenarios, diags = parse_scenarios(WORKED_SCENARIO, model)
    assert diags == []
    return model, scenarios


def render_cells(model, scenarios, direction):
    rows = build_table(scenarios, model, direction)
    parsed = list(csv.reader(io.StringIO(render_csv(rows, direction))))
    assert len(parsed) == 2
    return [norm(cell) for cell in parsed[1]]


def test_effect_to_cause_worked_example(worked_rows):
    model, scenarios = worked_rows
    assert render_cells(model, scenarios, TableDirection.EFFECT_TO_CAUSE) == WORKED_CELLS


def test_cause_to_effect_worked_example(worked_rows):
    model, scenarios = worked_rows
    reversed_cells = [WORKED_CELLS[0]] + WORKED_CELLS[:0:-1]
    assert render_cells(model, scenarios, TableDirection.CAUSE_TO_EFFECT) == reversed_cells


# --- the bundled corpus ---------------------------------------------------------

# Enumerated columns expected for each corpus row, in worksheet order:
# (scenario type, sub-type, causal factor types, AI characteristics).
UCA_SURFACE = "Unsafe Control Action"
EXEC_SURFACE = "Unsafe control action execution"
IMPROPER = "Control action executed improperly"

CORPUS_ENUM_CELLS = [
    (UCA_SURFACE, "Control action not provided",
     "Inadequate control algorithm", "Human error"),
    (UCA_SURFACE, "Control action not provided",
     "Inadequate control algorithm", "High value of AI creates dependency"),
    (UCA_SURFACE, "Providing control action leads to hazard",
     "Inadequate control algorithm", "Human error"),
    (UCA_SURFACE, "Control action not provided / Providing control action leads to hazard",
     "Inadequate control algorithm", "Uncertainty of AI capabilities, Human error"),
    (UCA_SURFACE, "Control action not provided",
     "Inadequate control algorithm; Controller process model failure",
     "Uncertainty of AI capabilities, Human error"),
    (EXEC_SURFACE, IMPROPER,
     "Inadequate operation of actuator", "Implementation issue"),
    (EXEC_SURFACE, IMPROPER,
     "Controller process model failure; Inadequate operation of controlled process",
     "Agency"),
    (EXEC_SURFACE, IMPROPER, "Controller process model failure", "Agency"),
    (EXEC_SURFACE, IMPROPER, "Incomplete process model", "Agency, Situational awareness"),
    (EXEC_SURFACE, IMPROPER, "Controller process model failure", "Agency, Situational awareness"),
    (EXEC_SURFACE, IMPROPER,
     "Controller process model failure; Inadequate operation of controlled process",
     "Agency"),
    (EXEC_SURFACE, IMPROPER,
     "Controller process model failure; Inadequate operation of controlled process",
     "Agency, Instrumental goals, Situational awareness"),
    (EXEC_SURFACE, IMPROPER,
     "Controller process model failure; Inadequate operation of controlled process",
     "Agency, Deception, Situational awareness"),
]


def test_corpus_enumerated_fields(fixture_model, fixture_scenarios):
    rows = build_table(fixture_scenarios, fixture_model, TableDirection.EFFECT_TO_CAUSE)
    rendered = list(csv.reader(io.StringIO(render_csv(rows, TableDirection.EFFECT_TO_CAUSE))))
    cells = [(row[3], row[4], row[5], row[7]) for row in rendered[1:]]
    assert cells == CORPUS_ENUM_CELLS


def test_corpus_matches_golden_file(fixture_model, fixture_scenarios):
    rows = build_table(fixture_scenarios, fixture_model, TableDirection.EFFECT_TO_CAUSE)
    golden = (GOLDEN_DIR / "effect_to_cause.csv").read_text(encoding="utf-8")
    assert render_csv(rows, TableDirection.EFFECT_TO_CAUSE) == golden


def test_corpus_spans_every_loop_position(fixture_scenarios):
    assert len(fixture_scenarios) == 13
    origins = Counter(s.origin_kind for s in fixture_scenarios)
    assert origins == {
        ComponentKind.CONTROLLER: 5,
        ComponentKind.ACTUATOR: 1,
        ComponentKind.CONTROLLED_PROCESS: 6,
        ComponentKind.SENSOR: 1,
    }


# --- enumeration arithmetic -----------------------------------------------------


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_every_control_action_yields_four_candidates(model):
    ucas = enumerate_ucas(model)
    assert len(ucas) == 4 * len(model.control_actions)
    per_action = Counter()
    for uca in ucas:
        per_action[uca.control_action] += 1
        assert uca.id == f"{uca.control_action}-{uca.uca_type.token}"
    for action_id in model.control_actions:
        assert per_action[action_id] == 4
    for action_id in model.control_actions:
        types = [u.uca_type for u in ucas if u.control_action == action_id]
        assert sorted(t.token for t in types) == sorted(t.token for t in UcaType)
    ids = [u.id for u in ucas]
    assert len(set(ids)) == len(ids)
    keys = [(u.control_action, u.uca_type.rank) for u in ucas]
    assert keys == sorted(keys)


# --- round-trip and determinism --------------------------------------------------


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_serialized_models_parse_back_identically(model):
    text = serialize_model(model)
    reparsed, diags = parse_model(text)
    assert diags == []
    assert model_fingerprint(reparsed) == model_fingerprint(model)
    assert serialize_model(reparsed) == text


@pytest.mark.parametrize("argv", READ_ONLY_COMMANDS, ids=lambda a: " ".join(a[:1] + a[3:]))
def test_repeated_runs_are_byte_identical(argv):
    assert run_cli(argv) == run_cli(argv)


BUNDLED_MODEL = MODEL_PATH.read_text(encoding="utf-8")
DECLARATIONS = [line for line in BUNDLED_MODEL.split("\n") if line.startswith("  ") and not line.lstrip().startswith("#")]


@pytest.fixture(scope="module")
def bundled_outputs():
    return [run_cli(argv) for argv in READ_ONLY_COMMANDS]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(DECLARATIONS))
def test_declaration_order_does_not_change_the_output(tmp_path, bundled_outputs, order):
    shuffled = tmp_path / "shuffled.stpa"
    shuffled.write_text(BUNDLED_MODEL[: BUNDLED_MODEL.index("{\n") + 2] + "\n".join(order) + "\n}\n", encoding="utf-8")
    runs = [run_cli([str(shuffled) if arg == str(MODEL_PATH) else arg for arg in argv]) for argv in READ_ONLY_COMMANDS]
    assert runs == bundled_outputs


def run_ledger_script(tmp_path, name):
    workdir = tmp_path / name
    workdir.mkdir()
    model = workdir / "m.stpa"
    model.write_text(WORKED_MODEL, encoding="utf-8")
    ledger = workdir / "ledger.jsonl"
    transcript = []
    base = ["--model", str(model)]
    script = [
        ["ledger", "add", str(ledger), *base, "--id", "V-1", "--description", "d",
         "--component", "AI", "--severity", "high", "--source", "incident",
         "--opened-at", "2026-01-01T01:00:00+00:00"],
        ["ledger", "add", str(ledger), *base, "--id", "V-2", "--description", "d",
         "--component", "C", "--severity", "low", "--source", "audit",
         "--opened-at", "2026-01-01T02:00:00+00:00"],
        ["ledger", "exposure", str(ledger), *base, "--as-of", "2026-01-01T03:00:00+00:00"],
        ["ledger", "resolve", str(ledger), *base, "--id", "V-1",
         "--closed-at", "2026-01-01T04:00:00+00:00"],
        ["ledger", "exposure", str(ledger), *base, "--as-of", "2026-01-01T05:00:00+00:00"],
    ]
    for argv in script:
        transcript.append(run_cli(argv))
    return transcript, ledger.read_bytes()


def test_ledger_script_is_reproducible(tmp_path):
    first = run_ledger_script(tmp_path, "first")
    second = run_ledger_script(tmp_path, "second")
    assert first == second
    codes = [entry[0] for entry in first[0]]
    assert codes == [0, 0, 0, 0, 0]


# --- classification defaults ------------------------------------------------------

DEFAULT_TYPES = {
    ComponentKind.ACTUATOR: ScenarioType.TYPE_B_IMPROPER_EXECUTION,
    ComponentKind.CONTROLLED_PROCESS: ScenarioType.TYPE_B_IMPROPER_EXECUTION,
    ComponentKind.CONTROLLER: ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
    ComponentKind.SENSOR: ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
}


@pytest.mark.parametrize("kind", sorted(DEFAULT_TYPES, key=lambda k: k.token))
def test_classification_defaults(kind):
    scenario_type, menu = classify_scenario(kind, {CausalFactorType.DELAY})
    assert scenario_type is DEFAULT_TYPES[kind]
    assert menu == list(SUBTYPES_FOR_TYPE[scenario_type])


@pytest.mark.parametrize("scenario_type", list(ScenarioType), ids=lambda t: t.token)
@pytest.mark.parametrize("sub_type", list(ScenarioSubType), ids=lambda s: s.token)
def test_pairing_legality_is_enforced_at_construction(scenario_type, sub_type):
    def build():
        return LossScenario(
            id="S-1",
            origin_component="P",
            origin_kind=ComponentKind.CONTROLLED_PROCESS,
            scenario_type=scenario_type,
            sub_types={sub_type},
            causal_factors={CausalFactorType.DELAY},
            description="pairing probe",
            uca="CA-1-not_provided",
        )

    if sub_type in SUBTYPES_FOR_TYPE[scenario_type]:
        assert sub_type in build().sub_types
    else:
        with pytest.raises(ValueError):
            build()


# --- ledger exposure arithmetic ----------------------------------------------------

T = lambda hour: datetime(2026, 1, 1, hour, 0, tzinfo=timezone.utc)


def test_severity_weights_table():
    assert [severity.weight for severity in RecordSeverity] == [1, 3, 9]


def record(record_id, component, severity, opened_hour):
    return VulnerabilityRecord(
        id=record_id,
        description="probe",
        component=component,
        severity=severity,
        opened_at=T(opened_hour),
        source=LedgerSource.AUDIT,
    )


def audit(ledger, at, expected_weighted, expected_open):
    """Check exposure against an independent recount, plus conservation."""
    summary = ledger_exposure(ledger, at)
    open_records = [r for r in ledger.records if r.is_open(at)]
    assert summary["open_count"] == len(open_records) == expected_open
    assert summary["weighted"] == sum(r.severity.weight for r in open_records)
    assert summary["weighted"] == expected_weighted
    retired = sum(
        r.severity.weight for r in ledger.records if not r.is_open(at)
    )
    total = sum(r.severity.weight for r in ledger.records)
    assert summary["weighted"] + retired == total


def test_exposure_arithmetic_through_a_scripted_sequence():
    model, diags = parse_model(WORKED_MODEL)
    assert diags == []
    ledger = Ledger.for_model(model)

    ledger = ledger_register(ledger, record("V-L", "C", RecordSeverity.LOW, 1))
    audit(ledger, T(1), expected_weighted=1, expected_open=1)

    ledger = ledger_register(ledger, record("V-M", "AI", RecordSeverity.MEDIUM, 2))
    audit(ledger, T(2), expected_weighted=4, expected_open=2)

    ledger = ledger_register(ledger, record("V-H", "AI", RecordSeverity.HIGH, 3))
    audit(ledger, T(3), expected_weighted=13, expected_open=3)
    audit(ledger, T(0), expected_weighted=0, expected_open=0)

    ledger = ledger_resolve(ledger, "V-M", T(4))
    audit(ledger, T(5), expected_weighted=10, expected_open=2)

    ledger = ledger_resolve(ledger, "V-H", T(6))
    audit(ledger, T(7), expected_weighted=1, expected_open=1)

    ledger = ledger_resolve(ledger, "V-L", T(8))
    audit(ledger, T(9), expected_weighted=0, expected_open=0)

    summary = ledger_exposure(ledger, T(9))
    assert summary == {"open_count": 0, "weighted": 0, "by_component": {}}
