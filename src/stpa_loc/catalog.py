"""Causal-factor catalog: load, filter, and turn into analysis prompts.

The catalog is a tab-separated data file bundled with the package
(``data/catalog.tsv``).  Each row is one reusable loss-scenario pattern:
where in the control loop it originates, which scenario type and
sub-types it covers, which causal factor types it involves, and which
AI characteristics underlie it.  Free-text columns (hazard pattern,
control action pattern, detail, characteristic gloss) are kept exactly
as curated; enum-valued columns hold machine tokens, with ``|``
separating multiple values.

Loading is strict.  Any structural defect raises
:class:`CatalogFormatError` with the offending row number rather than
producing a half-loaded catalog.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .model import (
    AgentNature,
    AiCharacteristic,
    ComponentKind,
    ControlStructureModel,
    LifecyclePhase,
    ScenarioSubType,
    ScenarioType,
    CausalFactorType,
    SUBTYPES_FOR_TYPE,
)

__all__ = [
    "AGENTIC_CHARACTERISTICS",
    "Catalog",
    "CatalogEntry",
    "CatalogFormatError",
    "Prompt",
    "TABLE3_ROW_COUNT",
    "filter_entries",
    "generate_prompts",
    "load_catalog",
]

# The generic catalog section must hold exactly this many rows; loading
# the bundled file re-checks the count so a bad edit fails fast.
TABLE3_ROW_COUNT = 23

# The data file's columns, in order: header name, CatalogEntry field,
# vocabulary (None for free text) and whether the cell holds a
# "|"-separated set.
_COLUMNS = (
    ("id", "id", None, False),
    ("lifecycle", "lifecycle", LifecyclePhase, True),
    ("hazard", "hazard_pattern", None, False),
    ("control_action", "control_action_pattern", None, False),
    ("scenario_type", "scenario_type", ScenarioType, False),
    ("sub_types", "sub_types", ScenarioSubType, True),
    ("causal_factors", "causal_factors", CausalFactorType, True),
    ("detail", "detail", None, False),
    ("ai_characteristics", "ai_characteristics", AiCharacteristic, True),
    ("ai_characteristics_text", "ai_characteristics_text", None, False),
    ("origin_component", "origin_component", ComponentKind, False),
    ("source", "source", None, False),
)

_SOURCES = ("table3", "table4")

# Characteristics that presuppose a goal-pursuing process.  Prompts built
# from process-origin entries carrying any of these are only meaningful
# for components that actually contain AI.
AGENTIC_CHARACTERISTICS = frozenset(
    {
        AiCharacteristic.AGENCY,
        AiCharacteristic.AUTONOMY,
        AiCharacteristic.DECEPTION,
        AiCharacteristic.INNER_MISALIGNMENT,
        AiCharacteristic.INSTRUMENTAL_GOALS,
        AiCharacteristic.OUTER_MISALIGNMENT,
        AiCharacteristic.SITUATIONAL_AWARENESS,
    }
)


class CatalogFormatError(Exception):
    """Raised when the catalog data file is malformed.

    ``row`` is the 1-based line number in the data file (1 is the
    header), or ``None`` for file-level problems.
    """

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CatalogEntry:
    """One reusable loss-scenario pattern."""

    id: str
    lifecycle: frozenset[LifecyclePhase]
    hazard_pattern: str
    control_action_pattern: str
    scenario_type: ScenarioType
    sub_types: frozenset[ScenarioSubType]
    causal_factors: frozenset[CausalFactorType]
    detail: str
    ai_characteristics: frozenset[AiCharacteristic]
    ai_characteristics_text: str
    origin_component: ComponentKind
    source: str


@dataclass(frozen=True)
class Catalog:
    """Immutable, id-addressable collection of catalog entries."""

    entries: tuple[CatalogEntry, ...]

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, entry_id: str) -> CatalogEntry:
        for entry in self.entries:
            if entry.id == entry_id:
                return entry
        raise KeyError(entry_id)

    def __contains__(self, entry_id: str) -> bool:
        return any(entry.id == entry_id for entry in self.entries)


@dataclass(frozen=True)
class Prompt:
    """A guideword question to put to the analyst for one component."""

    catalog_ref: str
    component_id: str
    question: str


def _parse_row(cols: list[str], row: int) -> CatalogEntry:
    for (name, *_), cell in zip(_COLUMNS, cols):
        if not cell:
            raise CatalogFormatError(f"empty {name} column", row)
        if cell != cell.strip():
            raise CatalogFormatError(
                f"{name} column has leading or trailing whitespace", row
            )

    fields: dict[str, object] = {}
    for (name, field, vocabulary, multi), cell in zip(_COLUMNS, cols):
        if vocabulary is None:
            fields[field] = cell
            continue
        tokens = [part for part in cell.split("|") if part] if multi else [cell]
        values = []
        for token in tokens:
            try:
                values.append(vocabulary(token))
            except ValueError:
                raise CatalogFormatError(f"unknown {name} token {token!r}", row) from None
        if not values:
            raise CatalogFormatError(f"empty {name} column", row)
        fields[field] = frozenset(values) if multi else values[0]
    entry = CatalogEntry(**fields)

    illegal = entry.sub_types - set(SUBTYPES_FOR_TYPE[entry.scenario_type])
    if illegal:
        names = ", ".join(sorted(sub.token for sub in illegal))
        raise CatalogFormatError(
            f"sub_types [{names}] not legal for scenario_type"
            f" {entry.scenario_type.token!r}",
            row,
        )
    if entry.source not in _SOURCES:
        raise CatalogFormatError(f"unknown source {entry.source!r}", row)
    if entry.source == "table3":
        if LifecyclePhase.OPERATIONS not in entry.lifecycle:
            raise CatalogFormatError(
                "table3 entry must include the operations lifecycle", row
            )
        extra = entry.lifecycle - {LifecyclePhase.OPERATIONS, LifecyclePhase.DEPLOYMENT}
        if extra:
            names = ", ".join(sorted(phase.token for phase in extra))
            raise CatalogFormatError(
                f"table3 entry has unexpected lifecycle phases [{names}]", row
            )
    return entry


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load the bundled catalog, or a replacement file at ``path``.

    The bundled file is parsed once per process; ``path`` is read on every
    call. Raises :class:`CatalogFormatError` for structural problems or
    text that is not UTF-8, and ``OSError`` if ``path`` cannot be read.
    """
    if path is None:
        return _bundled_catalog()
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise CatalogFormatError(f"catalog file is not UTF-8 text ({exc.reason})") from None
    return _parse_catalog(text)


@functools.cache
def _bundled_catalog() -> Catalog:
    text = resources.files("stpa_loc.data").joinpath("catalog.tsv").read_text("utf-8")
    catalog = _parse_catalog(text)
    generic = sum(1 for entry in catalog if entry.source == "table3")
    if generic != TABLE3_ROW_COUNT:
        raise CatalogFormatError(
            f"bundled catalog must hold {TABLE3_ROW_COUNT} generic entries,"
            f" found {generic}"
        )
    return catalog


def _parse_catalog(text: str) -> Catalog:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CatalogFormatError("catalog file is empty")
    if tuple(lines[0].split("\t")) != tuple(name for name, *_ in _COLUMNS):
        raise CatalogFormatError(
            "header does not match the expected column layout", row=1
        )

    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    for offset, line in enumerate(lines[1:], start=2):
        if not line:
            raise CatalogFormatError("blank line inside catalog", row=offset)
        cols = line.split("\t")
        if len(cols) != len(_COLUMNS):
            raise CatalogFormatError(
                f"expected {len(_COLUMNS)} columns, found {len(cols)}", row=offset
            )
        entry = _parse_row(cols, offset)
        if entry.id in seen:
            raise CatalogFormatError(f"duplicate entry id {entry.id!r}", row=offset)
        seen.add(entry.id)
        entries.append(entry)
    return Catalog(entries=tuple(entries))


def filter_entries(
    catalog: Catalog,
    *,
    lifecycle: LifecyclePhase | None = None,
    origin_component: ComponentKind | None = None,
    causal_factor: CausalFactorType | None = None,
    ai_characteristic: AiCharacteristic | None = None,
    scenario_type: ScenarioType | None = None,
) -> list[CatalogEntry]:
    """Select entries matching every given criterion, ordered by id."""
    selected = []
    for entry in catalog:
        if lifecycle is not None and lifecycle not in entry.lifecycle:
            continue
        if origin_component is not None and entry.origin_component is not origin_component:
            continue
        if causal_factor is not None and causal_factor not in entry.causal_factors:
            continue
        if ai_characteristic is not None and ai_characteristic not in entry.ai_characteristics:
            continue
        if scenario_type is not None and entry.scenario_type is not scenario_type:
            continue
        selected.append(entry)
    selected.sort(key=lambda entry: entry.id)
    return selected


def generate_prompts(catalog: Iterable[CatalogEntry], model: ControlStructureModel) -> list[Prompt]:
    """Instantiate catalog entries as questions about the model's components.

    A component receives a prompt from every entry whose origin kind it
    has, provided the model's lifecycle phase is one the entry applies
    to.  Process-origin entries whose characteristics presuppose agency
    are suppressed for processes that do not contain AI.  Results are
    ordered by (component id, entry id).

    The model is assumed valid; feed it through validation first.
    """
    prompts: list[Prompt] = []
    entries = sorted(catalog, key=lambda entry: entry.id)
    for component_id in sorted(model.components):
        component = model.components[component_id]
        for entry in entries:
            if entry.origin_component is not component.kind:
                continue
            if model.lifecycle not in entry.lifecycle:
                continue
            if (
                entry.origin_component is ComponentKind.CONTROLLED_PROCESS
                and entry.ai_characteristics & AGENTIC_CHARACTERISTICS
                and component.agent_nature is not AgentNature.AI_CONTAINING
            ):
                continue
            prompts.append(
                Prompt(
                    catalog_ref=entry.id,
                    component_id=component_id,
                    question=(
                        f"Could {entry.detail} arise for {component.name}"
                        f" given {entry.ai_characteristics_text}?"
                    ),
                )
            )
    return prompts
