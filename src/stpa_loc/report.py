"""Characterization tables, pathway diagrams, and worksheet rendering.

Tables come in two reading directions. Effect-to-cause starts from the
hazard and walks back to the AI characteristics; cause-to-effect starts
from the characteristics and walks forward. Both hold the same eight
cells per scenario, only the column order differs. An optional ninth
column carries resolved loss descriptions for corpora that link them.

Renderers are pure text builders: same rows in, same bytes out. CSV is
RFC-4180-style with LF endings; markdown is a GitHub pipe table with a
reversible cell escape; JSON wraps the rows with the model fingerprint
and direction for downstream tooling.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .analysis import DanglingReference, Pathway, StageKind, resolve_scenario
from .model import (
    ControlStructureModel,
    LossScenario,
    Vocabulary,
    in_declaration_order,
    model_fingerprint,
)

__all__ = [
    "CharacterizationRow",
    "TableDirection",
    "build_table",
    "escape_cell",
    "render_csv",
    "render_json",
    "render_markdown",
    "render_pathway",
    "unescape_cell",
]


class TableDirection(Vocabulary):
    EFFECT_TO_CAUSE = "effect_to_cause"
    CAUSE_TO_EFFECT = "cause_to_effect"


@dataclass(frozen=True)
class CharacterizationRow:
    """One scenario, rendered to display text.

    All eight core fields are non-empty; cells with nothing to show hold
    "N/A". ``loss`` stays None unless the table was built with loss
    resolution turned on.
    """

    lifecycle: str
    hazard: str
    control_action: str
    scenario_type: str
    sub_type: str
    causal_factors: str
    detail: str
    ai_characteristics: str
    loss: str | None = None


# (header label, row attribute) in effect-to-cause order. The
# cause-to-effect order mirrors the walk: characteristics first, hazard
# last. The detail column keeps its table label "Loss scenario
# description" even though the catalog calls the same text "detail".
_E2C_COLUMNS = (
    ("Lifecycle phase (control loop identifier)", "lifecycle"),
    ("Hazard", "hazard"),
    ("Control action", "control_action"),
    ("Loss scenario type", "scenario_type"),
    ("Loss scenario sub-type", "sub_type"),
    ("Causal factor type(s)", "causal_factors"),
    ("Loss scenario description", "detail"),
    ("Key characteristics of AI underlying causal factor(s)", "ai_characteristics"),
)

_C2E_COLUMNS = (
    ("Lifecycle phase (control loop identifier)", "lifecycle"),
    ("Key characteristics of AI underlying causal factor(s)", "ai_characteristics"),
    ("Loss scenario description", "detail"),
    ("Causal factor type(s)", "causal_factors"),
    ("Loss scenario sub-type", "sub_type"),
    ("Loss scenario type", "scenario_type"),
    ("Control action", "control_action"),
    ("Hazard", "hazard"),
)

_LOSS_COLUMN = ("Loss", "loss")

# snake_case object keys for the JSON export, per header label
_JSON_KEYS = {
    "Lifecycle phase (control loop identifier)": "lifecycle_phase",
    "Hazard": "hazard",
    "Control action": "control_action",
    "Loss scenario type": "loss_scenario_type",
    "Loss scenario sub-type": "loss_scenario_sub_type",
    "Causal factor type(s)": "causal_factor_types",
    "Loss scenario description": "loss_scenario_description",
    "Key characteristics of AI underlying causal factor(s)": "key_characteristics_of_ai",
    "Loss": "loss",
}


def _columns(direction: TableDirection, with_loss: bool):
    if direction is TableDirection.EFFECT_TO_CAUSE:
        columns = list(_E2C_COLUMNS)
        if with_loss:
            # loss sits next to the hazard it flows from, as in the
            # worked-example table
            columns.insert(1, _LOSS_COLUMN)
    else:
        columns = list(_C2E_COLUMNS)
        if with_loss:
            columns.append(_LOSS_COLUMN)
    return columns


def _with_loss(rows: list[CharacterizationRow]) -> bool:
    return bool(rows) and all(row.loss is not None for row in rows)


def _surfaces(values, separator: str) -> str:
    return separator.join(v.surface for v in in_declaration_order(values))


def build_table(
    scenarios: list[LossScenario],
    model: ControlStructureModel,
    direction: TableDirection,
    include_loss: bool = False,
) -> list[CharacterizationRow]:
    """Resolve scenarios against the model into one display row each.

    Row order is part of the contract: effect-to-cause sorts by linked
    hazard ids then scenario id (rows without a hazard link trail);
    cause-to-effect sorts by the rendered characteristics cell then
    scenario id. Links are followed by
    :func:`~stpa_loc.analysis.resolve_scenario`. Raises
    :class:`~stpa_loc.analysis.DanglingReference` when a scenario's
    origin, UCA, hazard, or loss link does not resolve.
    """
    keyed: list[tuple[tuple, CharacterizationRow]] = []
    for scenario in scenarios:
        resolved = resolve_scenario(scenario, model)
        loss_cell = None
        if include_loss:
            loss_texts = []
            for loss_id in resolved.loss_ids:
                loss = model.losses.get(loss_id)
                if loss is None:
                    raise DanglingReference(
                        f"scenario {scenario.id} reaches unknown loss {loss_id!r}"
                    )
                loss_texts.append(loss.description)
            loss_cell = "; ".join(loss_texts) or "N/A"
        row = CharacterizationRow(
            lifecycle=model.lifecycle.surface,
            hazard="; ".join(hazard.description for hazard in resolved.hazards) or "N/A",
            control_action=resolved.uca.label if resolved.uca else "N/A",
            scenario_type=scenario.scenario_type.surface,
            sub_type=_surfaces(scenario.sub_types, " / "),
            causal_factors=_surfaces(scenario.causal_factors, "; "),
            detail=scenario.description,
            ai_characteristics=_surfaces(scenario.ai_characteristics, ", ") or "N/A",
            loss=loss_cell,
        )
        if direction is TableDirection.EFFECT_TO_CAUSE:
            hazard_ids = ",".join(hazard.id for hazard in resolved.hazards)
            key = (0 if resolved.hazards else 1, hazard_ids, scenario.id)
        else:
            key = (row.ai_characteristics, scenario.id)
        keyed.append((key, row))

    keyed.sort(key=lambda pair: pair[0])
    return [row for _, row in keyed]


def render_csv(rows: list[CharacterizationRow], direction: TableDirection) -> str:
    """RFC-4180-style CSV with LF endings; header always present."""
    columns = _columns(direction, _with_loss(rows))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow([label for label, _ in columns])
    for row in rows:
        writer.writerow([getattr(row, attr) for _, attr in columns])
    return out.getvalue()


def escape_cell(text: str) -> str:
    """Make arbitrary text safe inside a markdown pipe-table cell."""
    return text.replace("\\", "\\\\").replace("|", "\\|").replace("\n", "\\n")


def unescape_cell(text: str) -> str:
    """Invert :func:`escape_cell`."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "|":
                out.append("|")
            elif nxt == "n":
                out.append("\n")
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def render_markdown(rows: list[CharacterizationRow], direction: TableDirection) -> str:
    """GitHub pipe table, same column order as the CSV."""
    columns = _columns(direction, _with_loss(rows))
    lines = [
        "| " + " | ".join(escape_cell(label) for label, _ in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        cells = (escape_cell(getattr(row, attr)) for _, attr in columns)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_json(
    rows: list[CharacterizationRow],
    direction: TableDirection,
    model: ControlStructureModel,
) -> str:
    """JSON export: {model_fingerprint, direction, rows}, keys in column order."""
    columns = _columns(direction, _with_loss(rows))
    payload = {
        "model_fingerprint": model_fingerprint(model),
        "direction": direction.token,
        "rows": [
            {_JSON_KEYS[label]: getattr(row, attr) for label, attr in columns}
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def render_pathway(pathway: Pathway) -> str:
    """Single-line arrow diagram of a traced pathway.

    Loop stages show their annotation in brackets; hazard and loss
    terminals show linked ids in parentheses; unannotated stages are
    bare names.
    """
    parts = []
    for stage in pathway.stages:
        name = stage.kind.surface
        if not stage.annotation:
            parts.append(name)
        elif stage.kind in (StageKind.HAZARD, StageKind.LOSS):
            parts.append(f"{name}({stage.annotation})")
        else:
            parts.append(f"{name}[{stage.annotation}]")
    return " -> ".join(parts)
