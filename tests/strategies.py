"""Hypothesis strategies: valid control-structure models and edits of input text.

The model generator only produces models that pass validation with no Errors
(warnings such as UnlinkedHazard are fine), so property tests can feed
them straight into fingerprinting and enumeration. Display names equal
ids because the modeling language has no separate name slot.
"""

from __future__ import annotations

import operator
import string

from hypothesis import strategies as st

from conftest import MODEL_PATH, SCENARIOS_PATH
from stpa_loc.model import (
    AgentNature,
    Component,
    ComponentKind,
    ControlAction,
    ControlStructureModel,
    FeedbackChannel,
    Hazard,
    LifecyclePhase,
    Loss,
    SafetyConstraint,
    UcaAnnotation,
    UcaType,
)

# the language of [A-Za-z][A-Za-z0-9_-]{0,15}, drawn as text: st.from_regex
# drew the same ids about ten times slower
identifiers = st.builds(
    operator.add,
    st.sampled_from(string.ascii_letters),
    st.text(alphabet=string.ascii_letters + string.digits + "_-", max_size=15),
)

# newlines cannot appear inside DSL strings; everything else is legal
_text_chars = st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\n\r"
)
# validation requires descriptions with visible content, so whitespace-only
# draws get a printable prefix
free_text = st.text(alphabet=_text_chars, min_size=1, max_size=40).map(
    lambda s: s if s.strip() else "t" + s
)


@st.composite
def models(draw) -> ControlStructureModel:
    pool = draw(st.lists(identifiers, unique=True, min_size=6, max_size=26))

    def take(count: int) -> list[str]:
        taken, pool[:] = pool[:count], pool[count:]
        return taken

    n_controllers = draw(st.integers(1, min(2, max(1, len(pool) - 5))))
    controllers = take(n_controllers)
    processes = take(draw(st.integers(1, 2)))
    actuators = take(draw(st.integers(0, 2)))
    sensors = take(draw(st.integers(0, 2)))
    losses = take(draw(st.integers(0, 3)))
    hazards = take(draw(st.integers(0, 3))) if losses else []
    constraints = take(draw(st.integers(0, 2))) if hazards else []
    n_actions = draw(st.integers(0, min(3, len(pool))))
    actions = take(n_actions)
    feedbacks = take(draw(st.integers(0, min(2, len(pool)))))

    components = []
    for kind, ids in (
        (ComponentKind.CONTROLLER, controllers),
        (ComponentKind.CONTROLLED_PROCESS, processes),
        (ComponentKind.ACTUATOR, actuators),
        (ComponentKind.SENSOR, sensors),
    ):
        for cid in ids:
            components.append(
                Component(
                    id=cid,
                    name=cid,
                    kind=kind,
                    agent_nature=draw(st.sampled_from(list(AgentNature))),
                    notes=draw(st.one_of(st.just(""), free_text)),
                )
            )

    loss_items = [
        Loss(id=lid, description="loss " + draw(free_text)) for lid in losses
    ]
    hazard_items = [
        Hazard(
            id=hid,
            description="hazard " + draw(free_text),
            leads_to=frozenset(
                draw(st.sets(st.sampled_from(losses), min_size=1, max_size=len(losses)))
            ),
        )
        for hid in hazards
    ]
    constraint_items = [
        SafetyConstraint(
            id=sid,
            text=draw(free_text),
            mitigates=frozenset(
                draw(st.sets(st.sampled_from(hazards), min_size=1, max_size=len(hazards)))
            ),
            enforced_by=frozenset(
                draw(st.sets(st.sampled_from(actions), max_size=len(actions)))
                if actions
                else set()
            ),
        )
        for sid in constraints
    ]
    action_items = [
        ControlAction(
            id=aid,
            label=draw(free_text),
            source=draw(st.sampled_from(controllers)),
            target=draw(st.sampled_from(processes)),
            via=draw(st.sampled_from(actuators + [None])) if actuators else None,
        )
        for aid in actions
    ]
    feedback_items = [
        FeedbackChannel(
            id=fid,
            label=draw(free_text),
            source=draw(st.sampled_from(processes)),
            target=draw(st.sampled_from(controllers)),
            via=draw(st.sampled_from(sensors + [None])) if sensors else None,
        )
        for fid in feedbacks
    ]

    annotation_items = []
    if actions:
        pairs = draw(
            st.sets(
                st.tuples(st.sampled_from(actions), st.sampled_from(list(UcaType))),
                max_size=4,
            )
        )
        for ca_id, uca_type in sorted(pairs, key=lambda p: (p[0], p[1].token)):
            annotation_items.append(
                UcaAnnotation(
                    control_action=ca_id,
                    uca_type=uca_type,
                    context=draw(free_text),
                    hazards=frozenset(
                        draw(st.sets(st.sampled_from(hazards), max_size=len(hazards)))
                        if hazards
                        else set()
                    ),
                )
            )

    return ControlStructureModel.from_items(
        name=draw(free_text),
        lifecycle=draw(st.sampled_from(list(LifecyclePhase))),
        components=components,
        losses=loss_items,
        hazards=hazard_items,
        constraints=constraint_items,
        control_actions=action_items,
        feedback_channels=feedback_items,
        annotations=annotation_items,
    )


# Edits of model and scenario text, for the fast-prefix differential tests.

EDIT_PIECES = [
    '"', "\\", "\\q", '\\"', "#", "{", "}", ":", ",", "\n", "\r", "\t", " ", "  ", "\x0c", "é", "x", "-",
    "\n  , X", "\n  {kind: ai}", "\n  via X", "\n  hazards X", "\n  enforced_by X", "\n  # c\n  , X",
    "\n  # c\n\n  via X", "\n\t# c\n  hazards X", "\n  # c\n  {notes: \"n\"}", "\n  # c\n  enforced_by X",
    "x" * 65, "CA-" + "x" * 85, "loss L-1 \"dup\"\n", "uca: ", "not_provided", "true", "kind: ", "scenario",
    "bogus_word",
]

edits = st.lists(
    st.tuples(
        st.integers(0, 999),
        st.sampled_from(["insert", "end-of-line", "replace", "delete"]),
        st.sampled_from(EDIT_PIECES),
    ),
    min_size=1,
    max_size=3,
)


def apply_edits(text: str, steps) -> str:
    for where, how, piece in steps:
        at = where * len(text) // 1000
        if how == "end-of-line":
            at = text.find("\n", at)
            at = len(text) if at < 0 else at
        if how in ("insert", "end-of-line"):
            text = text[:at] + piece + text[at:]
        elif how == "replace":
            text = text[:at] + piece + text[at + 1:]
        else:
            text = text[:at] + text[at + len(piece):]
    return text


# Edits of file bytes, for the CLI fuzz test.

FUZZ_PIECES = [
    b'"', b"\\", b"\\q", b"{", b"}", b":", b",", b"\n", b"\r", b"\t", b" ", b"#", b"\xff", b"\xc3", "é".encode(),
    b"x" * 70, b"-", b"null", b"[", b"]", b"[" * 3000, b"0001-01-01T00:00:00+01:00", b"9999-12-31T23:59:59-01:00",
    b"\n  via X", b"\n  , X", b"\n\t# c", b"uca: CA-1-not_provided", b"catalog: NO-SUCH-ENTRY", b"type_b",
    b"origin: Ghost", b'"component": "Ghost"', b'"severity": 3', b'"id": "V-1"', b"scenario", b"system",
]

byte_edits = st.lists(
    st.tuples(st.integers(0, 999), st.sampled_from(["insert", "replace", "delete"]), st.sampled_from(FUZZ_PIECES)),
    max_size=4,
)


def mutate(data: bytes, steps) -> bytes:
    for where, how, piece in steps:
        at = where * len(data) // 1000
        if how == "insert":
            data = data[:at] + piece + data[at:]
        elif how == "replace":
            data = data[:at] + piece + data[at + len(piece):]
        else:
            data = data[:at] + data[at + len(piece):]
    return data


# Commands that read the bundled files and write nothing, for the determinism
# tests: repeated runs, hash seeds and declaration order.

READ_ONLY_COMMANDS = [
    ["validate", str(MODEL_PATH)],
    ["ucas", str(MODEL_PATH)],
    ["ucas", str(MODEL_PATH), "--confirmed-only"],
    ["prompts", str(MODEL_PATH)],
    ["prompts", str(MODEL_PATH), "--component", "ChatMonitor"],
    ["prompts", str(MODEL_PATH), "--characteristic", "deception"],
    ["prompts", str(MODEL_PATH), "--characteristic", "agency"],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH)],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--direction", "cause-to-effect"],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--format", "md"],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--format", "json"],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--format", "json", "--include-loss"],
    ["report", str(MODEL_PATH), str(SCENARIOS_PATH), "--include-loss"],
]
