"""Core domain model for control-structure hazard analysis.

Closed vocabularies, immutable model values, structural validation, and
content fingerprinting. Validation reports problems as Diagnostic values
rather than exceptions so callers can collect every issue in one pass.

Validation rule codes (emitted by validate_model):

    BadIdentifier             id does not match the identifier grammar      Error
    KeyMismatch               collection key differs from the item's id     Error
    DuplicateId               one id names two different entities           Error
    EmptyDescription          loss/hazard/constraint text is blank          Error
    ConstraintNoHazard        constraint has an empty mitigates set         Error
    MissingController         no Controller component declared              Error
    MissingControlledProcess  no ControlledProcess component declared       Error
    DanglingLossRef           hazard leads_to names an unknown loss         Error
    DanglingHazardRef         constraint/annotation names unknown hazard    Error
    DanglingComponentRef      action/feedback endpoint is unknown           Error
    DanglingControlActionRef  constraint/annotation names unknown action    Error
    WrongComponentKind        endpoint exists but has the wrong kind        Error
    HazardNoLoss              hazard has an empty leads_to set              Error
    HazardIdClashesLoss       a hazard id equals a loss id                  Error
    HazardDescribesLoss       hazard text duplicates a loss description     Error
    UnlinkedHazard            hazard unused by constraints/annotations      Warning
"""

from __future__ import annotations

import functools
import json
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

# The identifier grammar, shared by validate_model and the lexer in dsl.py.
IDENTIFIER = r"[A-Za-z][A-Za-z0-9_-]*"
MAX_IDENTIFIER_LENGTH = 64
IDENTIFIER_RE = re.compile(IDENTIFIER)


class InvalidModel(Exception):
    """Raised by operations that require a model free of Error diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        summary = "; ".join(d.message for d in diagnostics[:3])
        if len(diagnostics) > 3:
            summary += f" (+{len(diagnostics) - 3} more)"
        super().__init__(f"model has validation errors: {summary}")


# --------------------------------------------------------------------------
# Closed vocabularies
#
# Every vocabulary value has two text representations: a machine token used
# by the modeling language and the data files (the enum value), and a
# display surface form used when rendering tables. Each member declares
# both, as ``MEMBER = "token", "Surface form"``; a member declared with a
# token alone has an empty surface form. Tokens round-trip:
# Cls(member.token) is member. ``rank`` is a member's position in the
# declaration order of its vocabulary.
# --------------------------------------------------------------------------


class Vocabulary(Enum):
    def __new__(cls, token: str, surface: str = ""):
        member = object.__new__(cls)
        member._value_ = member.token = token
        member.surface = surface
        member.rank = len(cls.__members__)  # the members declared before this one
        return member

    @classmethod
    @functools.cache
    def tokens(cls) -> tuple[str, ...]:
        return tuple(_token_table(cls))


class LifecyclePhase(Vocabulary):
    DESIGN = "design", "Design"
    DEVELOPMENT = "development", "Development"
    DEPLOYMENT = "deployment", "Deployment"
    OPERATIONS = "operations", "Operations"
    SYSTEM_UPDATE = "system_update", "System update"
    DECOMMISSIONING = "decommissioning", "Decommissioning"


class ComponentKind(Vocabulary):
    CONTROLLER = "controller", "Controller"
    CONTROLLED_PROCESS = "controlled_process", "Controlled process"
    ACTUATOR = "actuator", "Actuator"
    SENSOR = "sensor", "Sensor"
    ENVIRONMENT = "environment", "Environment"


class AgentNature(Vocabulary):
    HUMAN = "human", "Human"
    AUTOMATED = "automated", "Automated"
    AI_CONTAINING = "ai_containing", "AI-containing"


class UcaType(Vocabulary):
    NOT_PROVIDED = "not_provided", "Not provided"
    PROVIDED_CAUSES_HAZARD = "provided_causes_hazard", "Provided causes hazard"
    WRONG_TIME_OR_ORDER = "wrong_time_or_order", "Wrong time or order"
    WRONG_DURATION = "wrong_duration", "Wrong duration"


class ScenarioType(Vocabulary):
    TYPE_A_UNSAFE_CONTROL_ACTION = "type_a", "Unsafe Control Action"
    TYPE_B_IMPROPER_EXECUTION = "type_b", "Unsafe control action execution"


class ScenarioSubType(Vocabulary):
    CA_NOT_PROVIDED = "not_provided", "Control action not provided"
    CA_LEADS_TO_HAZARD = "leads_to_hazard", "Providing control action leads to hazard"
    CA_WRONG_TIME_OR_ORDER = "wrong_time_or_order", "Control action - wrong time or order"
    CA_WRONG_DURATION = "wrong_duration", "Control action provided for wrong duration"
    CA_NOT_EXECUTED = "not_executed", "Control action not executed"
    CA_EXECUTED_IMPROPERLY = "executed_improperly", "Control action executed improperly"


# Sub-types legal for each scenario type. Constructing a LossScenario with a
# pairing outside this table is rejected.
SUBTYPES_FOR_TYPE: dict[ScenarioType, tuple[ScenarioSubType, ...]] = {
    ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION: (
        ScenarioSubType.CA_NOT_PROVIDED,
        ScenarioSubType.CA_LEADS_TO_HAZARD,
        ScenarioSubType.CA_WRONG_TIME_OR_ORDER,
        ScenarioSubType.CA_WRONG_DURATION,
    ),
    ScenarioType.TYPE_B_IMPROPER_EXECUTION: (
        ScenarioSubType.CA_NOT_EXECUTED,
        ScenarioSubType.CA_EXECUTED_IMPROPERLY,
    ),
}


class CausalFactorType(Vocabulary):
    INADEQUATE_CONTROL_ALGORITHM = "inadequate_control_algorithm", "Inadequate control algorithm"
    FLAWED_PROCESS_MODEL = "flawed_process_model", "Controller process model failure"
    INCOMPLETE_PROCESS_MODEL = "incomplete_process_model", "Incomplete process model"
    INADEQUATE_OPERATION_OF_CONTROLLED_PROCESS = (
        "inadequate_operation_of_controlled_process",
        "Inadequate operation of controlled process",
    )
    INADEQUATE_OPERATION_OF_ACTUATOR = "inadequate_operation_of_actuator", "Inadequate operation of actuator"
    INADEQUATE_OPERATION_OF_SENSOR = "inadequate_operation_of_sensor", "Inadequate operation of sensor"
    FEEDBACK_INCORRECT_MISSING_DELAYED = (
        "feedback_incorrect_missing_delayed",
        "Provided feedback incorrect, missing, delayed",
    )
    CONTROL_ACTION_INCORRECT_MISSING_DELAYED = (
        "control_action_incorrect_missing_delayed",
        "Control action incorrect, missing, delayed",
    )
    AUTHENTICATION_ISSUE = "authentication_issue", "Authentication issue"
    DELAY = "delay", "Delay"


class AiCharacteristic(Vocabulary):
    OUTER_MISALIGNMENT = "outer_misalignment", "Outer misalignment"
    INNER_MISALIGNMENT = "inner_misalignment", "Inner misalignment"
    AGENCY = "agency", "Agency"
    DECEPTION = "deception", "Deception"
    INSTRUMENTAL_GOALS = "instrumental_goals", "Instrumental goals"
    SITUATIONAL_AWARENESS = "situational_awareness", "Situational awareness"
    DYNAMIC_CHANGE = "dynamic_change", "Dynamic change"
    DISTRIBUTION_SHIFT = "distribution_shift", "Distribution shift"
    INSCRUTABILITY = "inscrutability", "Inscrutability"
    AUTONOMY = "autonomy", "Autonomy"
    CAPABILITY_UNCERTAINTY = "capability_uncertainty", "Uncertainty of AI capabilities"
    SPEED_ASYMMETRY = "speed_asymmetry", "Speed asymmetry"
    BREADTH_DEPTH_KNOWLEDGE = "breadth_depth_knowledge", "Breadth and depth of knowledge"
    BREADTH_DEPTH_REASONING = "breadth_depth_reasoning", "Breadth and depth of reasoning"
    OUTPACES_REGULATION = "outpaces_regulation", "AI development outpaces regulation"
    DEPENDENCY_VALUE = "dependency_value", "High value of AI creates dependency"
    HUMAN_ERROR = "human_error", "Human error"
    ENFORCEMENT_GAP = "enforcement_gap", "Lack of enforcement capabilities"
    IMPLEMENTATION_ISSUE = "implementation_issue", "Implementation issue"


class TableDirection(Vocabulary):
    EFFECT_TO_CAUSE = "effect_to_cause"
    CAUSE_TO_EFFECT = "cause_to_effect"


class RecordSeverity(Vocabulary):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def weight(self) -> int:
        return _SEVERITY_WEIGHTS[self]


# Geometric spacing so one High outweighs several Lows.
_SEVERITY_WEIGHTS = {
    RecordSeverity.LOW: 1,
    RecordSeverity.MEDIUM: 3,
    RecordSeverity.HIGH: 9,
}


class LedgerSource(Vocabulary):
    AUDIT = "audit"
    CHANGE_MANAGEMENT = "change_management"
    INCIDENT = "incident"


def in_declaration_order(values: Iterable[Vocabulary]) -> list:
    """Sort vocabulary members by their declaration position.

    Set-valued fields render in this order so output is stable no matter
    how the set was assembled.
    """
    return sorted(values, key=operator.attrgetter("rank"))


@functools.cache
def _token_table(cls: type[Vocabulary]) -> dict[str, Vocabulary]:
    """Each token of ``cls`` and its member: ``cls(token)`` without the enum's lookup frames."""
    return {member.token: member for member in cls}


# --------------------------------------------------------------------------
# Diagnostics
# --------------------------------------------------------------------------


class Severity(Vocabulary):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1 or self.length < 1:
            raise ValueError("span line/column/length must be >= 1")


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    rule_code: str
    message: str
    span: SourceSpan | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


def format_diagnostic(diag: Diagnostic, default_file: str = "<model>") -> str:
    """Render one diagnostic for terminal output.

    With a span: ``file:line:col: severity[rule_code]: message``. Without
    one (structural checks carry no source position) the location part is
    just the file name.
    """
    if diag.span is not None:
        where = f"{diag.span.file}:{diag.span.line}:{diag.span.column}"
    else:
        where = default_file
    return f"{where}: {diag.severity.token}[{diag.rule_code}]: {diag.message}"


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


# --------------------------------------------------------------------------
# Model entities
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    id: str
    name: str
    kind: ComponentKind
    agent_nature: AgentNature = AgentNature.AUTOMATED
    notes: str = ""


@dataclass(frozen=True)
class Loss:
    id: str
    description: str


@dataclass(frozen=True)
class Hazard:
    id: str
    description: str
    leads_to: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "leads_to", frozenset(self.leads_to))


@dataclass(frozen=True)
class SafetyConstraint:
    id: str
    text: str
    mitigates: frozenset[str]
    enforced_by: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mitigates", frozenset(self.mitigates))
        object.__setattr__(self, "enforced_by", frozenset(self.enforced_by))


@dataclass(frozen=True)
class ControlAction:
    id: str
    label: str
    source: str
    target: str
    via: str | None = None


@dataclass(frozen=True)
class FeedbackChannel:
    id: str
    label: str
    source: str
    target: str
    via: str | None = None


@dataclass(frozen=True)
class UcaAnnotation:
    """Analyst-supplied context for one (control action, UCA type) pair."""

    control_action: str
    uca_type: UcaType
    context: str
    hazards: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hazards", frozenset(self.hazards))


@dataclass(frozen=True)
class UnsafeControlAction:
    id: str
    control_action: str
    label: str
    uca_type: UcaType
    context: str = ""
    hazards: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hazards", frozenset(self.hazards))

    @property
    def is_confirmed(self) -> bool:
        """Candidates become confirmed once the analyst links hazards."""
        return bool(self.hazards)

    @property
    def status(self) -> str:
        return "confirmed" if self.is_confirmed else "candidate"


@dataclass(frozen=True)
class LossScenario:
    id: str
    origin_component: str
    origin_kind: ComponentKind
    scenario_type: ScenarioType
    sub_types: frozenset[ScenarioSubType]
    causal_factors: frozenset[CausalFactorType]
    description: str
    uca: str | None = None
    ai_characteristics: frozenset[AiCharacteristic] = frozenset()
    catalog_refs: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sub_types", frozenset(self.sub_types))
        object.__setattr__(self, "causal_factors", frozenset(self.causal_factors))
        object.__setattr__(self, "ai_characteristics", frozenset(self.ai_characteristics))
        object.__setattr__(self, "catalog_refs", frozenset(self.catalog_refs))
        if not self.causal_factors:
            raise ValueError(f"scenario {self.id}: causal_factors must be non-empty")
        if not self.sub_types:
            raise ValueError(f"scenario {self.id}: sub_types must be non-empty")
        illegal = in_declaration_order(self.sub_types.difference(SUBTYPES_FOR_TYPE[self.scenario_type]))
        if illegal:
            raise ValueError(
                f"scenario {self.id}: sub-type {illegal[0].token} is not legal for {self.scenario_type.token}"
            )
        if self.scenario_type is ScenarioType.TYPE_A_UNSAFE_CONTROL_ACTION and self.uca is None:
            raise ValueError(f"scenario {self.id}: type_a scenarios must reference a UCA")


@dataclass(frozen=True)
class ControlStructureModel:
    """A control structure, keyed by id in each collection.

    A model is a value: its validation result, its fingerprint and each
    scenario resolution it serves are computed once, on first use, so its
    mappings must not be mutated after construction. Build a changed model
    with ``dataclasses.replace``, which starts with none of them.
    """

    name: str
    lifecycle: LifecyclePhase
    components: Mapping[str, Component] = field(default_factory=dict)
    losses: Mapping[str, Loss] = field(default_factory=dict)
    hazards: Mapping[str, Hazard] = field(default_factory=dict)
    constraints: Mapping[str, SafetyConstraint] = field(default_factory=dict)
    control_actions: Mapping[str, ControlAction] = field(default_factory=dict)
    feedback_channels: Mapping[str, FeedbackChannel] = field(default_factory=dict)
    annotations: Mapping[tuple[str, UcaType], UcaAnnotation] = field(default_factory=dict)

    @classmethod
    def from_items(
        cls,
        name: str,
        lifecycle: LifecyclePhase,
        components: Iterable[Component] = (),
        losses: Iterable[Loss] = (),
        hazards: Iterable[Hazard] = (),
        constraints: Iterable[SafetyConstraint] = (),
        control_actions: Iterable[ControlAction] = (),
        feedback_channels: Iterable[FeedbackChannel] = (),
        annotations: Iterable[UcaAnnotation] = (),
    ) -> ControlStructureModel:
        return cls(
            name=name,
            lifecycle=lifecycle,
            components={c.id: c for c in components},
            losses={l.id: l for l in losses},
            hazards={h.id: h for h in hazards},
            constraints={s.id: s for s in constraints},
            control_actions={a.id: a for a in control_actions},
            feedback_channels={f.id: f for f in feedback_channels},
            annotations={(a.control_action, a.uca_type): a for a in annotations},
        )

    @functools.cached_property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        """validate_model's result for this model; the two share one slot."""
        return tuple(validate_model(self))

    @functools.cached_property
    def _fingerprint(self) -> str:
        return _digest(self)

    @functools.cached_property
    def _resolutions(self) -> dict:
        """analysis.resolve_scenario's result per ``uca:`` reference that resolved."""
        return {}


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


def _err(code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message)


def _warn(code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message)


def _normalized(text: str) -> str:
    return " ".join(text.split()).casefold()


# The model collection that holds each category of declared id, in diagnostic order.
_COLLECTIONS = {
    "component": "components",
    "loss": "losses",
    "hazard": "hazards",
    "constraint": "constraints",
    "control action": "control_actions",
    "feedback channel": "feedback_channels",
}


def _id_collections(model: ControlStructureModel) -> tuple[tuple[str, Mapping], ...]:
    """The id-keyed collections with their categories, in diagnostic order."""
    return tuple((category, getattr(model, name)) for category, name in _COLLECTIONS.items())


# The component kind that a channel's source, target and via must name, per category.
_ENDPOINT_KINDS = {
    "control action": (ComponentKind.CONTROLLER, ComponentKind.CONTROLLED_PROCESS, ComponentKind.ACTUATOR),
    "feedback channel": (ComponentKind.CONTROLLED_PROCESS, ComponentKind.CONTROLLER, ComponentKind.SENSOR),
}

# The rule code for an id-list reference to an undeclared id, per category of the id.
_DANGLING = {"loss": "DanglingLossRef", "hazard": "DanglingHazardRef", "control action": "DanglingControlActionRef"}


def _dangling(model: ControlStructureModel, owner: str, what: str, refs: Iterable[str]) -> list[Diagnostic]:
    """One Error per id of ``refs``, in sorted order, that the model declares no ``what`` for."""
    known = getattr(model, _COLLECTIONS[what])
    found = []
    for ref in sorted(refs):
        if ref not in known:
            found.append(_err(_DANGLING[what], f"{owner} undefined {what} {ref}"))
    return found


def _require_valid(model: ControlStructureModel) -> None:
    """Raise InvalidModel when the model's diagnostics include any Error."""
    errors = [d for d in model.diagnostics if d.is_error]
    if errors:
        raise InvalidModel(errors)


def validate_model(model: ControlStructureModel) -> list[Diagnostic]:
    """Check every structural invariant, returning one diagnostic per violation.

    Never raises; an empty result means the model is well-formed. Output
    order is deterministic for a given model. The checks run once per
    model: the result is kept as ``model.diagnostics``, and a later call,
    or a read of that attribute, returns it.
    """
    cached = model.__dict__.get("diagnostics")
    if cached is None:
        cached = model.__dict__["diagnostics"] = tuple(_check(model))
    return list(cached)


def _check(model: ControlStructureModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    # identifier shape and key consistency
    for category, collection in _id_collections(model):
        for key, item in sorted(collection.items()):
            if len(item.id) > MAX_IDENTIFIER_LENGTH or not IDENTIFIER_RE.fullmatch(item.id):
                diags.append(_err("BadIdentifier", f"{category} id {item.id!r} is not a legal identifier"))
            if key != item.id:
                diags.append(_err("KeyMismatch", f"{category} keyed as {key} but declares id {item.id}"))

    # one flat namespace: an id may name only one entity
    seen: dict[str, str] = {}
    for category, collection in _id_collections(model):
        for item_id in sorted(collection):
            if item_id not in seen:
                seen[item_id] = category
            elif {category, seen[item_id]} == {"hazard", "loss"}:
                diags.append(_err("HazardIdClashesLoss", f"hazard id {item_id} collides with a loss id"))
            else:
                diags.append(
                    _err("DuplicateId", f"id {item_id} declared as both {seen[item_id]} and {category}")
                )

    # topology: the loop needs at least one controller and one process
    kinds = {c.kind for c in model.components.values()}
    if ComponentKind.CONTROLLER not in kinds:
        diags.append(_err("MissingController", "model declares no controller component"))
    if ComponentKind.CONTROLLED_PROCESS not in kinds:
        diags.append(_err("MissingControlledProcess", "model declares no controlled process component"))

    loss_texts = {_normalized(l.description) for l in model.losses.values() if l.description.strip()}

    for loss in (model.losses[k] for k in sorted(model.losses)):
        if not loss.description.strip():
            diags.append(_err("EmptyDescription", f"loss {loss.id} has an empty description"))

    for hazard in (model.hazards[k] for k in sorted(model.hazards)):
        if not hazard.description.strip():
            diags.append(_err("EmptyDescription", f"hazard {hazard.id} has an empty description"))
        elif _normalized(hazard.description) in loss_texts:
            # a hazard is a state/condition, not an outcome restated
            diags.append(
                _err("HazardDescribesLoss", f"hazard {hazard.id} restates a loss description verbatim")
            )
        if not hazard.leads_to:
            diags.append(_err("HazardNoLoss", f"hazard {hazard.id} links to no loss"))
        diags += _dangling(model, f"hazard {hazard.id} leads_to", "loss", hazard.leads_to)

    for constraint in (model.constraints[k] for k in sorted(model.constraints)):
        if not constraint.text.strip():
            diags.append(_err("EmptyDescription", f"constraint {constraint.id} has empty text"))
        if not constraint.mitigates:
            diags.append(_err("ConstraintNoHazard", f"constraint {constraint.id} mitigates no hazard"))
        diags += _dangling(model, f"constraint {constraint.id} mitigates", "hazard", constraint.mitigates)
        diags += _dangling(model, f"constraint {constraint.id} enforced_by", "control action", constraint.enforced_by)

    for category, kinds in _ENDPOINT_KINDS.items():
        channels = getattr(model, _COLLECTIONS[category])
        for channel in (channels[k] for k in sorted(channels)):
            owner = f"{category} {channel.id}"
            for role, expected in zip(("source", "target", "via"), kinds):
                ref = getattr(channel, role)
                if ref is None:
                    if role != "via":
                        diags.append(_err("DanglingComponentRef", f"{owner}: missing {role} component"))
                elif (component := model.components.get(ref)) is None:
                    diags.append(_err("DanglingComponentRef", f"{owner}: {role} references undefined component {ref}"))
                elif component.kind is not expected:
                    message = f"{owner}: {role} {ref} must be a {expected.token}, found {component.kind.token}"
                    diags.append(_err("WrongComponentKind", message))

    annotation_keys = sorted(model.annotations, key=lambda k: (k[0], k[1].token))
    for key in annotation_keys:
        annotation = model.annotations[key]
        owner = f"annotation ({annotation.control_action}, {annotation.uca_type.token})"
        if key != (annotation.control_action, annotation.uca_type):
            diags.append(_err("KeyMismatch", f"{owner} stored under key {key}"))
        if annotation.control_action not in model.control_actions:
            diags.append(
                _err("DanglingControlActionRef", f"{owner} references undefined control action")
            )
        diags += _dangling(model, f"{owner} references", "hazard", annotation.hazards)

    # hazards nothing points at are probably analysis gaps
    used_hazards: set[str] = set()
    for constraint in model.constraints.values():
        used_hazards |= constraint.mitigates
    for annotation in model.annotations.values():
        used_hazards |= annotation.hazards
    for hazard_id in sorted(model.hazards):
        if hazard_id not in used_hazards:
            diags.append(
                _warn("UnlinkedHazard", f"hazard {hazard_id} is not referenced by any constraint or annotation")
            )

    return diags


# --------------------------------------------------------------------------
# Fingerprinting
# --------------------------------------------------------------------------


def model_fingerprint(model: ControlStructureModel) -> str:
    """Content digest of a valid model, independent of declaration order,
    computed once per model.

    Raises InvalidModel, on every call, when validate_model reports any Error.
    """
    _require_valid(model)
    return model._fingerprint


def _digest(model: ControlStructureModel) -> str:
    import hashlib  # imported here: it loads OpenSSL, which most commands never need

    payload = {
        "name": model.name,
        "lifecycle": model.lifecycle.token,
        "components": [
            [c.id, c.kind.token, c.agent_nature.token, c.name, c.notes]
            for _, c in sorted(model.components.items())
        ],
        "losses": [[l.id, l.description] for _, l in sorted(model.losses.items())],
        "hazards": [
            [h.id, h.description, sorted(h.leads_to)] for _, h in sorted(model.hazards.items())
        ],
        "constraints": [
            [s.id, s.text, sorted(s.mitigates), sorted(s.enforced_by)]
            for _, s in sorted(model.constraints.items())
        ],
        "control_actions": [
            [a.id, a.label, a.source, a.target, a.via or ""]
            for _, a in sorted(model.control_actions.items())
        ],
        "feedback_channels": [
            [f.id, f.label, f.source, f.target, f.via or ""]
            for _, f in sorted(model.feedback_channels.items())
        ],
        "annotations": [
            [a.control_action, a.uca_type.token, a.context, sorted(a.hazards)]
            for _, a in sorted(
                model.annotations.items(), key=lambda kv: (kv[0][0], kv[0][1].token)
            )
        ],
    }
    canonical = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
