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
import operator
import re
from dataclasses import dataclass
from json.encoder import encode_basestring as _encode  # what json.dumps(ensure_ascii=False) runs per string

from .analysis import Pathway, StageKind, _lookup, resolve_scenario
from .model import (
    ControlStructureModel,
    LossScenario,
    TableDirection,
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


# Row attribute -> (header label, JSON object key). The detail column keeps
# its table label "Loss scenario description" even though the catalog calls
# the same text "detail".
_COLUMNS = {
    "lifecycle": ("Lifecycle phase (control loop identifier)", "lifecycle_phase"),
    "hazard": ("Hazard", "hazard"),
    "control_action": ("Control action", "control_action"),
    "scenario_type": ("Loss scenario type", "loss_scenario_type"),
    "sub_type": ("Loss scenario sub-type", "loss_scenario_sub_type"),
    "causal_factors": ("Causal factor type(s)", "causal_factor_types"),
    "detail": ("Loss scenario description", "loss_scenario_description"),
    "ai_characteristics": (
        "Key characteristics of AI underlying causal factor(s)",
        "key_characteristics_of_ai",
    ),
    "loss": ("Loss", "loss"),
}

# Column order per direction. Cause-to-effect mirrors the walk: the
# lifecycle, then the effect-to-cause columns in reverse. The loss column,
# shown only when every row carries one, sits next to the hazard it flows
# from in effect-to-cause, as in the worked-example table, and so last in
# cause-to-effect.
_EFFECT_TO_CAUSE = (
    "lifecycle", "loss", "hazard", "control_action", "scenario_type", "sub_type",
    "causal_factors", "detail", "ai_characteristics",
)
_ORDER = {
    TableDirection.EFFECT_TO_CAUSE: _EFFECT_TO_CAUSE,
    TableDirection.CAUSE_TO_EFFECT: _EFFECT_TO_CAUSE[:1] + _EFFECT_TO_CAUSE[:0:-1],
}


def _columns(direction: TableDirection, rows: list[CharacterizationRow]) -> list[str]:
    """The row attributes to render, in column order."""
    with_loss = bool(rows) and all(row.loss is not None for row in rows)
    return [attr for attr in _ORDER[direction] if with_loss or attr != "loss"]


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
    :func:`~stpa_loc.analysis.resolve_scenario`, loss ids by its lookup. Raises
    :class:`~stpa_loc.analysis.DanglingReference` when a scenario's
    origin, UCA, hazard, or loss link does not resolve.
    """
    keyed: list[tuple[tuple, CharacterizationRow]] = []
    for scenario in scenarios:
        resolved = resolve_scenario(scenario, model)
        loss_cell = None
        if include_loss:
            losses = _lookup(scenario, "loss", resolved.loss_ids, model.losses)
            loss_cell = "; ".join(loss.description for loss in losses) or "N/A"
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
    columns = _columns(direction, rows)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow([_COLUMNS[attr][0] for attr in columns])
    for row in rows:
        writer.writerow([getattr(row, attr) for attr in columns])
    return out.getvalue()


def escape_cell(text: str) -> str:
    """Make arbitrary text safe inside a markdown pipe-table cell."""
    return text.replace("\\", "\\\\").replace("|", "\\|").replace("\n", "\\n")


# One escape: a backslash before a backslash, a pipe or an n. Any other
# backslash, a trailing one included, stands for itself.
_CELL_ESCAPE = re.compile(r"\\([\\|n])")


def unescape_cell(text: str) -> str:
    """Invert :func:`escape_cell`."""
    return _CELL_ESCAPE.sub(lambda m: "\n" if m[1] == "n" else m[1], text)


def render_markdown(rows: list[CharacterizationRow], direction: TableDirection) -> str:
    """GitHub pipe table, same column order as the CSV."""
    columns = _columns(direction, rows)
    lines = [
        "| " + " | ".join(escape_cell(_COLUMNS[attr][0]) for attr in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        cells = (escape_cell(getattr(row, attr)) for attr in columns)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_json(
    rows: list[CharacterizationRow],
    direction: TableDirection,
    model: ControlStructureModel,
) -> str:
    """JSON export: {model_fingerprint, direction, rows}, keys in column order.

    The text is ``json.dumps(payload, indent=2, ensure_ascii=False) + "\\n"``, built with its C string encoder.
    """
    columns = _columns(direction, rows)
    keys = [f"      {_encode(_COLUMNS[attr][1])}: " for attr in columns]
    cells = operator.attrgetter(*columns)
    fingerprint = _encode(model_fingerprint(model))
    texts = [f'{{\n  "model_fingerprint": {fingerprint},\n  "direction": "{direction.token}",\n  "rows": [']
    opening = "\n    {\n"
    for row in rows:
        texts.append(opening + ",\n".join(map(operator.add, keys, map(_encode, cells(row)))) + "\n    }")
        opening = ",\n    {\n"
    texts.append("\n  ]\n}\n" if rows else "]\n}\n")
    return "".join(texts)


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
