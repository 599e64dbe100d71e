"""Growth checks: quadrupling the input must not multiply the time by 6 or more.

A linear stage reads about 4, a quadratic one about 16. These tests time
real work, so they run only on request and stay out of the default run:

    PYTHONPATH=src python -m pytest -m complexity tests/test_complexity.py
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timedelta, timezone

import pytest

from stpa_loc.analysis import ledger_load, trace_pathway, uca_id
from stpa_loc.dsl import parse_model, parse_scenarios, serialize_model
from stpa_loc.model import (
    CausalFactorType,
    Component,
    ComponentKind,
    ControlAction,
    ControlStructureModel,
    Hazard,
    LifecyclePhase,
    Loss,
    LossScenario,
    ScenarioSubType,
    ScenarioType,
    UcaAnnotation,
    UcaType,
)
from stpa_loc.report import TableDirection, build_table

pytestmark = pytest.mark.complexity

SMALL, LARGE = 250, 1000
BOUND = 6.0
REPEATS = 3


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

def best_time(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def growth(make_run) -> float:
    """t(LARGE) / t(SMALL), each the best of REPEATS runs."""
    return best_time(make_run(LARGE)) / best_time(make_run(SMALL))


def test_build_table_grows_linearly():
    def make_run(n):
        model, scenarios = synthetic(n)
        return lambda: build_table(
            scenarios, model, TableDirection.EFFECT_TO_CAUSE, include_loss=True
        )

    assert growth(make_run) < BOUND


def test_trace_pathway_over_all_scenarios_grows_linearly():
    def make_run(n):
        model, scenarios = synthetic(n)
        return lambda: [trace_pathway(scenario, model) for scenario in scenarios]

    assert growth(make_run) < BOUND



def test_parse_model_grows_linearly():
    def make_run(n):
        source = serialize_model(synthetic(n)[0])
        return lambda: parse_model(source)

    assert growth(make_run) < BOUND


def test_parse_scenarios_grows_linearly():
    def make_run(n):
        model, scenarios = synthetic(n)
        source = scenario_source(scenarios)
        assert parse_scenarios(source, model) == (scenarios, [])
        return lambda: parse_scenarios(source, model)

    assert growth(make_run) < BOUND

def test_ledger_load_grows_linearly(tmp_path):
    model, _ = synthetic(4)
    opened = datetime(2026, 1, 1, tzinfo=timezone.utc)

    def make_run(n):
        path = tmp_path / f"ledger-{n}.jsonl"
        lines = [
            json.dumps(
                {
                    "id": f"V-{i}",
                    "description": f"weakness {i}",
                    "component": "CP"[i % 2],
                    "severity": "low",
                    "opened_at": (opened + timedelta(minutes=i)).isoformat(),
                    "closed_at": None,
                    "source": "audit",
                }
            )
            for i in range(n)
        ]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return lambda: ledger_load(path, model)

    assert growth(make_run) < BOUND
