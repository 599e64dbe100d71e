"""Hazard-analysis operations over a validated control-structure model.

Four function families:

* UCA enumeration (`enumerate_ucas`) expands every control action into
  the four unsafe-provision candidates and merges analyst annotations.
* Scenario classification (`classify_scenario`, `match_catalog`)
  proposes the default scenario type and sub-type menu for a loop
  position and ranks catalog entries against a drafted scenario.
* Constraint derivation (`derive_constraints`) inverts confirmed UCAs
  into safety-constraint drafts by template.
* Pathway tracing (`trace_pathway`) lays a scenario's causal factors
  onto the control loop and appends the hazard/loss terminals that
  `resolve_scenario`, the link walk table building shares, finds.

The module also keeps the degradation ledger: a value-typed register of
open vulnerabilities anchored to one model fingerprint, with severity
weighting for exposure reporting and line-delimited JSON persistence.

All functions are pure; ledger mutators return a new ledger.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Container, Iterable

from .model import (
    CausalFactorType,
    ComponentKind,
    ControlStructureModel,
    Hazard,
    LedgerSource,
    LossScenario,
    RecordSeverity,
    SafetyConstraint,
    ScenarioSubType,
    ScenarioType,
    SUBTYPES_FOR_TYPE,
    UcaType,
    UnsafeControlAction,
    Vocabulary,
    AiCharacteristic,
    in_declaration_order,
    model_fingerprint,
    _require_valid,
)

__all__ = [
    "AnalysisError",
    "DanglingReference",
    "DuplicateId",
    "Ledger",
    "LedgerSource",
    "Pathway",
    "PathwayStage",
    "RecordSeverity",
    "ResolvedScenario",
    "StageKind",
    "UnconfirmedUca",
    "UnknownComponent",
    "UnknownComponentKind",
    "UnknownRecord",
    "VulnerabilityRecord",
    "classify_scenario",
    "derive_constraints",
    "enumerate_ucas",
    "ledger_exposure",
    "ledger_load",
    "ledger_register",
    "ledger_resolve",
    "ledger_save",
    "match_catalog",
    "resolve_scenario",
    "trace_pathway",
    "uca_id",
]


class AnalysisError(Exception):
    """Base class for analysis-layer failures."""


class LedgerFormatError(ValueError):
    """Raised when a ledger file is malformed.

    ``line`` is the 1-based line number in the ledger file. The message is
    the underlying parse or field error, unchanged.
    """

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(message)


class UnknownComponentKind(AnalysisError):
    """Component kind has no place in the classification map."""


class UnconfirmedUca(AnalysisError):
    """Constraint derivation was given a candidate with no hazards."""


class DanglingReference(AnalysisError):
    """A scenario or table references something the model lacks."""


class DuplicateId(AnalysisError):
    """Ledger already holds a record with this id."""


class UnknownComponent(AnalysisError):
    """Record names a component outside the anchored model."""


class UnknownRecord(AnalysisError):
    """No ledger record with the given id."""


# --------------------------------------------------------------------------
# UCA enumeration and constraint derivation


def uca_id(control_action_id: str, uca_type: UcaType) -> str:
    """Stable identifier for one (control action, provision mode) pair."""
    return f"{control_action_id}-{uca_type.token}"


def enumerate_ucas(model: ControlStructureModel) -> list[UnsafeControlAction]:
    """Expand every control action into its four UCA candidates.

    Results are ordered by (control action id, provision mode).  Where
    the model carries an ``annotate`` entry for the pair, its context
    and hazard links are merged in and the candidate is confirmed;
    otherwise the candidate has an empty context and no hazards.

    Raises :class:`~stpa_loc.model.InvalidModel` if the model does not
    validate cleanly.
    """
    _require_valid(model)
    return [
        _build_uca(model, ca_id, uca_type)
        for ca_id in sorted(model.control_actions)
        for uca_type in UcaType
    ]


def _build_uca(model: ControlStructureModel, ca_id: str, uca_type: UcaType) -> UnsafeControlAction:
    """The candidate for one pair, with its ``annotate`` entry merged in."""
    annotation = model.annotations.get((ca_id, uca_type))
    return UnsafeControlAction(
        id=uca_id(ca_id, uca_type),
        control_action=ca_id,
        label=model.control_actions[ca_id].label,
        uca_type=uca_type,
        context=annotation.context if annotation else "",
        hazards=annotation.hazards if annotation else frozenset(),
    )


_CONSTRAINT_TEMPLATES = {
    UcaType.NOT_PROVIDED: "{label} must be provided when {context}",
    UcaType.PROVIDED_CAUSES_HAZARD: "{label} must not be provided when {context}",
    UcaType.WRONG_TIME_OR_ORDER: (
        "{label} must be provided at the correct time/order relative to {context}"
    ),
    UcaType.WRONG_DURATION: (
        "{label} must be applied for the correct duration given {context}"
    ),
}


def derive_constraints(ucas: Iterable[UnsafeControlAction]) -> list[SafetyConstraint]:
    """Invert confirmed UCAs into safety-constraint drafts.

    One draft per UCA, in input order, with id ``SC-<uca id>``; each
    draft mitigates exactly the UCA's hazards and is enforced by its
    control action.  Raises :class:`UnconfirmedUca` if any input still
    has an empty hazard set.
    """
    drafts: list[SafetyConstraint] = []
    for uca in ucas:
        if not uca.hazards:
            raise UnconfirmedUca(
                f"UCA {uca.id} has no hazard links; confirm it before deriving"
            )
        text = _CONSTRAINT_TEMPLATES[uca.uca_type].format(
            label=uca.label, context=uca.context
        )
        drafts.append(
            SafetyConstraint(
                id=f"SC-{uca.id}",
                text=text,
                mitigates=uca.hazards,
                enforced_by=frozenset({uca.control_action}),
            )
        )
    return drafts


# --------------------------------------------------------------------------
# Scenario classification and catalog matching

_TYPE_FOR_KIND = {
    ComponentKind.CONTROLLER: ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
    ComponentKind.SENSOR: ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION,
    ComponentKind.ACTUATOR: ScenarioType.TYPE_B_IMPROPER_EXECUTION,
    ComponentKind.CONTROLLED_PROCESS: ScenarioType.TYPE_B_IMPROPER_EXECUTION,
}


def classify_scenario(
    origin_component_kind: ComponentKind,
    causal_factors: Iterable[CausalFactorType],
) -> tuple[ScenarioType, list[ScenarioSubType]]:
    """Default scenario type and legal sub-type menu for a loop position.

    Controller- and sensor-origin scenarios default to unsafe control
    actions; actuator- and process-origin scenarios default to improper
    execution.  The returned sub-types are the full legal menu for that
    type; the analyst narrows, and may override the type per scenario.

    Raises :class:`UnknownComponentKind` for kinds outside the loop and
    ``ValueError`` for an empty factor set.
    """
    factors = frozenset(causal_factors)
    if not factors:
        raise ValueError("causal_factors must be non-empty")
    scenario_type = _TYPE_FOR_KIND.get(origin_component_kind)
    if scenario_type is None:
        raise UnknownComponentKind(
            f"no classification for component kind {origin_component_kind.token!r}"
        )
    return scenario_type, list(SUBTYPES_FOR_TYPE[scenario_type])


def match_catalog(scenario: LossScenario, catalog) -> list:
    """Rank catalog entries against a drafted scenario.

    An entry matches when its origin kind equals the scenario's origin
    kind and both the causal-factor sets and the AI-characteristic sets
    intersect.  Matches are ordered by total overlap (factor overlap
    plus characteristic overlap) descending, ties broken by entry id.
    """
    matches = []
    for entry in catalog:
        if entry.origin_component is not scenario.origin_kind:
            continue
        factor_overlap = len(entry.causal_factors & scenario.causal_factors)
        char_overlap = len(entry.ai_characteristics & scenario.ai_characteristics)
        if factor_overlap == 0 or char_overlap == 0:
            continue
        matches.append((factor_overlap + char_overlap, entry))
    matches.sort(key=lambda pair: (-pair[0], pair[1].id))
    return [entry for _, entry in matches]


# --------------------------------------------------------------------------
# Scenario resolution

@dataclass(frozen=True)
class ResolvedScenario:
    """A scenario's UCA, its hazards in id order, and their sorted loss ids."""

    uca: UnsafeControlAction | None
    hazards: tuple[Hazard, ...]
    loss_ids: tuple[str, ...]


def resolve_scenario(scenario: LossScenario, model: ControlStructureModel) -> ResolvedScenario:
    """Follow origin -> UCA -> hazards -> loss ids by key, for tables and pathways.

    Raises :class:`DanglingReference` for an unknown origin, UCA or hazard.
    """
    if scenario.origin_component not in model.components:
        raise DanglingReference(
            f"scenario {scenario.id} origin {scenario.origin_component!r}"
            " is not a model component"
        )
    if not scenario.uca:
        return ResolvedScenario(uca=None, hazards=(), loss_ids=())
    uca = _resolve_uca(scenario.uca, model)
    hazards = []
    for hazard_id in sorted(uca.hazards):
        if hazard_id not in model.hazards:
            raise DanglingReference(f"scenario {scenario.id} reaches unknown hazard {hazard_id!r}")
        hazards.append(model.hazards[hazard_id])
    loss_ids = tuple(sorted(set().union(*(hazard.leads_to for hazard in hazards))))
    return ResolvedScenario(uca, tuple(hazards), loss_ids)


def _resolve_uca(uca_ref: str, model: ControlStructureModel) -> UnsafeControlAction:
    # no UCA type token contains "-", so the last "-" ends the action id
    ca_id, dash, token = uca_ref.rpartition("-")
    if dash and token in UcaType.tokens() and ca_id in model.control_actions:
        return _build_uca(model, ca_id, UcaType(token))
    raise DanglingReference(f"UCA {uca_ref!r} does not resolve in the model")


# --------------------------------------------------------------------------
# Pathway tracing


class StageKind(Vocabulary):
    """Positions a causal pathway can pass through, in loop order."""

    CONTROLLED_PROCESS = "controlled_process", "ControlledProcess"
    SENSOR = "sensor", "Sensor"
    FEEDBACK_SIGNAL = "feedback_signal", "FeedbackSignal"
    CONTROLLER = "controller", "Controller"
    PROCESS_MODEL_DEFECT = "process_model_defect", "ProcessModelDefect"
    CONTROL_ALGORITHM_DEFECT = "control_algorithm_defect", "ControlAlgorithmDefect"
    CONTROL_ACTION_SIGNAL = "control_action_signal", "ControlActionSignal"
    ACTUATOR = "actuator", "Actuator"
    HAZARD = "hazard", "Hazard"
    LOSS = "loss", "Loss"


@dataclass(frozen=True)
class PathwayStage:
    kind: StageKind
    annotation: str = ""


@dataclass(frozen=True)
class Pathway:
    """Ordered walk from the earliest implicated loop position to loss."""

    scenario: str
    stages: tuple[PathwayStage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("pathway must have at least one stage")
        if self.stages[-1].kind not in (StageKind.HAZARD, StageKind.LOSS):
            raise ValueError("pathway must end at a hazard or loss")
        ranks = [stage.kind.rank for stage in self.stages]
        if ranks != sorted(ranks) or len(set(ranks)) != len(ranks):
            raise ValueError("pathway stages must follow loop order without repeats")


# Which loop position each causal factor type implicates.
_STAGE_FOR_FACTOR = {
    CausalFactorType.INADEQUATE_OPERATION_OF_CONTROLLED_PROCESS: StageKind.CONTROLLED_PROCESS,
    CausalFactorType.INADEQUATE_OPERATION_OF_SENSOR: StageKind.SENSOR,
    CausalFactorType.FEEDBACK_INCORRECT_MISSING_DELAYED: StageKind.SENSOR,
    CausalFactorType.FLAWED_PROCESS_MODEL: StageKind.PROCESS_MODEL_DEFECT,
    CausalFactorType.INCOMPLETE_PROCESS_MODEL: StageKind.PROCESS_MODEL_DEFECT,
    CausalFactorType.INADEQUATE_CONTROL_ALGORITHM: StageKind.CONTROL_ALGORITHM_DEFECT,
    CausalFactorType.CONTROL_ACTION_INCORRECT_MISSING_DELAYED: StageKind.ACTUATOR,
    CausalFactorType.INADEQUATE_OPERATION_OF_ACTUATOR: StageKind.ACTUATOR,
    CausalFactorType.AUTHENTICATION_ISSUE: StageKind.ACTUATOR,
    CausalFactorType.DELAY: StageKind.ACTUATOR,
}

_CONTROLLER_SIDE = (StageKind.PROCESS_MODEL_DEFECT, StageKind.CONTROL_ALGORITHM_DEFECT)


def trace_pathway(scenario: LossScenario, model: ControlStructureModel) -> Pathway:
    """Lay a scenario's causal factors onto the loop and walk to loss.

    Each factor marks its loop position; positions are visited in loop
    order starting at the earliest implicated one, annotated with the
    factor tokens that put them there.  A controller-side defect stage
    is followed by the outgoing control-action signal.  A deception
    characteristic marks the controlled process, which fabricates what
    the rest of the loop observes.  Hazard and loss terminals carry the
    ids linked through the scenario's UCA, when one is attached.

    Links come from :func:`resolve_scenario`, which raises
    :class:`DanglingReference` for an unresolvable origin, UCA or hazard.
    """
    resolved = resolve_scenario(scenario, model)
    annotations: dict[StageKind, list[str]] = {}
    for factor in in_declaration_order(scenario.causal_factors):
        annotations.setdefault(_STAGE_FOR_FACTOR[factor], []).append(factor.token)
    if AiCharacteristic.DECEPTION in scenario.ai_characteristics:
        annotations.setdefault(StageKind.CONTROLLED_PROCESS, []).append(
            AiCharacteristic.DECEPTION.token
        )

    if any(kind in annotations for kind in _CONTROLLER_SIDE):
        annotations.setdefault(StageKind.CONTROL_ACTION_SIGNAL, [])
    stages = [
        PathwayStage(kind=kind, annotation=", ".join(annotations[kind]))
        for kind in in_declaration_order(annotations)
    ]
    hazard_ids = ", ".join(hazard.id for hazard in resolved.hazards)
    stages.append(PathwayStage(kind=StageKind.HAZARD, annotation=hazard_ids))
    stages.append(PathwayStage(kind=StageKind.LOSS, annotation=", ".join(resolved.loss_ids)))
    return Pathway(scenario=scenario.id, stages=tuple(stages))


# --------------------------------------------------------------------------
# Degradation ledger


def _require_utc(name: str, value: datetime) -> datetime:
    if value.tzinfo is None:
        raise ValueError(f"{name} must be timezone-aware")
    try:
        return value.astimezone(timezone.utc)
    except OverflowError:  # a moment within a day of year 1 or 9999
        raise ValueError(f"{name} is out of range in UTC: {value.isoformat()}") from None


@dataclass(frozen=True)
class VulnerabilityRecord:
    """One known weakness in the deployed control structure."""

    id: str
    description: str
    component: str
    severity: RecordSeverity
    opened_at: datetime
    source: LedgerSource
    closed_at: datetime | None = None

    def __post_init__(self):
        object.__setattr__(self, "opened_at", _require_utc("opened_at", self.opened_at))
        if self.closed_at is not None:
            closed = _require_utc("closed_at", self.closed_at)
            if closed < self.opened_at:
                raise ValueError("closed_at must not precede opened_at")
            object.__setattr__(self, "closed_at", closed)

    def is_open(self, as_of: datetime) -> bool:
        as_of = _require_utc("as_of", as_of)
        if self.opened_at > as_of:
            return False
        return self.closed_at is None or self.closed_at > as_of


@dataclass(frozen=True)
class Ledger:
    """Vulnerability records anchored to one model snapshot."""

    model_fingerprint: str
    components: frozenset[str]
    records: tuple[VulnerabilityRecord, ...] = ()

    @classmethod
    def for_model(cls, model: ControlStructureModel) -> "Ledger":
        return cls(
            model_fingerprint=model_fingerprint(model),
            components=frozenset(model.components),
        )

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, record_id: str) -> VulnerabilityRecord:
        for record in self.records:
            if record.id == record_id:
                return record
        raise KeyError(record_id)


def ledger_register(ledger: Ledger, record: VulnerabilityRecord) -> Ledger:
    """Append a record; the ledger value itself is never mutated.

    Raises :class:`DuplicateId` when the id is taken and
    :class:`UnknownComponent` when the record's component is not part of
    the anchored model.
    """
    _check_admissible(record, {existing.id for existing in ledger.records}, ledger)
    return replace(ledger, records=ledger.records + (record,))


def _check_admissible(record: VulnerabilityRecord, taken_ids: Container[str], ledger: Ledger) -> None:
    if record.id in taken_ids:
        raise DuplicateId(f"ledger already holds record {record.id!r}")
    if record.component not in ledger.components:
        raise UnknownComponent(
            f"record {record.id} names unknown component {record.component!r}"
        )


def ledger_resolve(ledger: Ledger, record_id: str, closed_at: datetime) -> Ledger:
    """Close an open record at ``closed_at``.

    Raises :class:`UnknownRecord` if the id is absent and ``ValueError``
    if the record is already closed or ``closed_at`` precedes the
    record's opening.
    """
    for index, record in enumerate(ledger.records):
        if record.id != record_id:
            continue
        if record.closed_at is not None:
            raise ValueError(f"record {record_id!r} is already closed")
        closed = replace(record, closed_at=closed_at)
        records = ledger.records[:index] + (closed,) + ledger.records[index + 1 :]
        return replace(ledger, records=records)
    raise UnknownRecord(f"no ledger record {record_id!r}")


def ledger_exposure(ledger: Ledger, as_of: datetime) -> dict:
    """Summarize open records at a point in time.

    Returns ``open_count`` (records open at ``as_of``), ``weighted``
    (sum of severity weights: Low=1, Medium=3, High=9), and
    ``by_component`` (open record ids per component, sorted).
    """
    open_records = [record for record in ledger.records if record.is_open(as_of)]
    by_component: dict[str, list[str]] = {}
    for record in open_records:
        by_component.setdefault(record.component, []).append(record.id)
    for ids in by_component.values():
        ids.sort()
    return {
        "open_count": len(open_records),
        "weighted": sum(record.severity.weight for record in open_records),
        "by_component": dict(sorted(by_component.items())),
    }


def _record_to_json(record: VulnerabilityRecord) -> dict:
    return {
        "id": record.id,
        "description": record.description,
        "component": record.component,
        "severity": record.severity.token,
        "opened_at": record.opened_at.isoformat(),
        "closed_at": record.closed_at.isoformat() if record.closed_at else None,
        "source": record.source.token,
    }


def _record_from_json(payload: object) -> VulnerabilityRecord:
    """Build a record from one decoded ledger line.

    Raises ``KeyError`` for a missing field and ``ValueError`` for a line
    that is not a JSON object or a field of the wrong type or value.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"ledger line is not a JSON object: {payload!r}")

    def text(name: str) -> str:
        value = payload[name]
        if not isinstance(value, str):
            raise ValueError(f"ledger field {name!r} is not a string: {value!r}")
        return value

    closed_at = text("closed_at") if payload.get("closed_at") is not None else None
    return VulnerabilityRecord(
        id=text("id"),
        description=text("description"),
        component=text("component"),
        severity=RecordSeverity(text("severity")),
        opened_at=datetime.fromisoformat(text("opened_at")),
        closed_at=datetime.fromisoformat(closed_at) if closed_at else None,
        source=LedgerSource(text("source")),
    )


def ledger_save(ledger: Ledger, path: str | Path) -> None:
    """Write records as line-delimited JSON, one object per line.

    The records go to a temporary file in the ledger's directory, which
    is synced and then renamed over the ledger, so a failed or interrupted
    save leaves the old ledger whole.
    """
    lines = [
        json.dumps(_record_to_json(record), ensure_ascii=False)
        for record in ledger.records
    ]
    target = Path(os.path.realpath(path))  # replace a symlink's target, not the link
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
            handle.flush()
            os.fsync(handle.fileno())
        if target.exists():
            os.chmod(temp, target.stat().st_mode & 0o7777)  # keep the ledger's permissions
        os.replace(temp, target)
    except OSError as exc:
        if exc.filename == os.fspath(temp):  # name the ledger, not the temporary file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
    finally:
        temp.unlink(missing_ok=True)  # already gone after a successful replace


def ledger_load(path: str | Path, model: ControlStructureModel) -> Ledger:
    """Rebuild a ledger from disk, re-anchoring to ``model``.

    Every stored record passes :func:`ledger_register`'s checks in one
    pass, so a record naming a component the current model no longer
    has fails with :class:`UnknownComponent`, a repeated id with
    :class:`DuplicateId`. A line that is not UTF-8, not JSON, nested too
    deeply or not a well-formed record raises :class:`LedgerFormatError`.
    """
    ledger = Ledger.for_model(model)
    records: dict[str, VulnerabilityRecord] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LedgerFormatError(str(exc), Path(path).read_bytes().count(b"\n", 0, exc.start) + 1) from exc
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = _record_from_json(json.loads(line))
        except RecursionError:
            raise LedgerFormatError(f"line {number}: JSON nested too deeply", number) from None
        except (ValueError, KeyError) as exc:
            raise LedgerFormatError(str(exc), number) from exc
        _check_admissible(record, records, ledger)
        records[record.id] = record
    return replace(ledger, records=tuple(records.values()))
