"""Parser and canonical serializer for the `.stpa` modeling language.

Model grammar:

    model := "system" STRING "{" item* "}"
    item  := "lifecycle" ":" PHASE
           | ("controller"|"process"|"actuator"|"sensor"|"environment") IDENT attrs?
           | "loss" IDENT STRING
           | "hazard" IDENT STRING "leads_to" IDENT ("," IDENT)*
           | "constraint" IDENT STRING "mitigates" id-list ("enforced_by" id-list)?
           | "control_action" IDENT STRING "from" IDENT "to" IDENT ("via" IDENT)?
           | "feedback" IDENT STRING "from" IDENT "to" IDENT ("via" IDENT)?
           | "annotate" IDENT UCA_TYPE "context" STRING ("hazards" id-list)?
    attrs := "{" ("kind" ":" WORD | "contains_ai" ":" BOOL | "notes" ":" STRING)* "}"

Comments run from `#` to end of line. Strings are double-quoted with
backslash escapes for `"` and `\\` only, and may not span lines. The
component declaration keyword fixes its structural kind; the `kind:` attr
sets the agent nature (human | automated | ai), with `contains_ai: true`
shorthand for `kind: ai`. A missing `lifecycle` item defaults to
operations. Display names are not part of the grammar: a component's name
is its id.

The lexer is one `re.finditer` pass over a master pattern, `_LEXEME`.

Loss scenarios live in a companion file with the same lexical rules:

    file     := "scenarios" STRING? "{" scenario* "}"
    scenario := "scenario" IDENT "{" sfield* "}"
    sfield   := "origin" ":" IDENT | "uca" ":" IDENT
              | "type" ":" WORD | "sub_types" ":" word-list
              | "factors" ":" word-list | "characteristics" ":" word-list
              | "catalog" ":" id-list | "description" ":" STRING

Diagnostic rule codes:

    UnexpectedToken     token stream diverges from the grammar          Error
    UnknownKeyword      item keyword not in the grammar                 Error
    UnknownAttribute    attr key not in {kind, contains_ai, notes}      Error
    UnknownEnumToken    token outside a closed vocabulary               Error
    UnterminatedString  string still open at end of line                Error
    BadEscape           backslash escape other than \\" or \\\\         Error
    BadIdentifier       identifier longer than 64 characters            Error
    DuplicateId         id already declared in this file                Error
    DuplicateAnnotation (control action, UCA type) annotated twice      Error
    MissingField        scenario lacks a required field                 Error
    IllegalScenario     scenario fields violate a model invariant       Error
    DanglingComponentRef scenario origin is not a model component       Error
    TabIndent           tab character used in indentation               Warning
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import (
    IDENTIFIER,
    MAX_IDENTIFIER_LENGTH,
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
    LossScenario,
    SafetyConstraint,
    ScenarioSubType,
    ScenarioType,
    Severity,
    SourceSpan,
    UcaAnnotation,
    UcaType,
    validate_model,
)

_COMPONENT_KEYWORDS = {
    "controller": ComponentKind.CONTROLLER,
    "process": ComponentKind.CONTROLLED_PROCESS,
    "actuator": ComponentKind.ACTUATOR,
    "sensor": ComponentKind.SENSOR,
    "environment": ComponentKind.ENVIRONMENT,
}

_KEYWORD_FOR_KIND = {kind: word for word, kind in _COMPONENT_KEYWORDS.items()}

_AGENT_WORDS = {
    "human": AgentNature.HUMAN,
    "automated": AgentNature.AUTOMATED,
    "ai": AgentNature.AI_CONTAINING,
}

_WORD_FOR_AGENT = {nature: word for word, nature in _AGENT_WORDS.items()}

_ITEM_KEYWORDS = frozenset(_COMPONENT_KEYWORDS) | {
    "lifecycle",
    "loss",
    "hazard",
    "constraint",
    "control_action",
    "feedback",
    "annotate",
}


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

IDENT = "IDENT"
STRING = "STRING"
LBRACE = "LBRACE"
RBRACE = "RBRACE"
COLON = "COLON"
COMMA = "COMMA"
EOF = "EOF"

_PUNCTUATION = {"{": LBRACE, "}": RBRACE, ":": COLON, ",": COMMA}

# One named alternative per lexeme, tried in order at each position. A string
# runs to its closing quote or stops before the end of the line; a backslash
# and the character after it, unless that is a newline, always travel together.
_LEXEME = re.compile(
    r"(?P<NEWLINE>\n)"
    r"|(?P<BLANK>[ \t\r]+)"
    r"|(?P<COMMENT>#[^\n]*)"
    r"|(?P<PUNCT>[{}:,])"
    r'|(?P<STRING>"(?P<BODY>(?:[^"\\\n]+|\\.?)*)(?P<CLOSE>"?))'
    rf"|(?P<IDENT>{IDENTIFIER})"
    r"|(?P<OTHER>.)"
)
_ESCAPE = re.compile(r'\\(["\\]?)')


class Token(NamedTuple):
    kind: str
    text: str
    value: str
    span: SourceSpan


def _lex(source: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line = 1
    line_start = 0
    m = None
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        start = m.start()
        col = start - line_start + 1
        if kind == "BLANK":
            blank = m.group()
            if start == line_start and "\t" in blank:
                span = SourceSpan(file, line, col + blank.index("\t"), 1)
                diags.append(Diagnostic(Severity.WARNING, "TabIndent", "tab used in indentation", span))
        elif kind == "IDENT":
            word = m.group()
            span = SourceSpan(file, line, col, len(word))
            if len(word) > MAX_IDENTIFIER_LENGTH:
                message = f"identifier {word[:16]}... exceeds {MAX_IDENTIFIER_LENGTH} characters"
                diags.append(Diagnostic(Severity.ERROR, "BadIdentifier", message, span))
            tokens.append(Token(IDENT, word, word, span))
        elif kind == "PUNCT":
            char = m.group()
            tokens.append(Token(_PUNCTUATION[char], char, char, SourceSpan(file, line, col, 1)))
        elif kind == "STRING":
            text = m.group("BODY")
            if "\\" in text:
                for escape in _ESCAPE.finditer(text):
                    if not escape.group(1):
                        at = start + 1 + escape.start()
                        message = f"unsupported escape sequence \\{source[at + 1:at + 2]}"
                        span = SourceSpan(file, line, at - line_start + 1, 2)
                        diags.append(Diagnostic(Severity.ERROR, "BadEscape", message, span))
                text = _ESCAPE.sub(lambda escape: escape.group(1) or "\\", text)
            span = SourceSpan(file, line, col, m.end() - start)
            if not m.group("CLOSE"):
                message = "string not closed before end of line"
                diags.append(Diagnostic(Severity.ERROR, "UnterminatedString", message, span))
            tokens.append(Token(STRING, text, text, span))
        elif kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind == "OTHER":
            message = f"unexpected character {m.group()!r}"
            diags.append(Diagnostic(Severity.ERROR, "UnexpectedToken", message, SourceSpan(file, line, col, 1)))
    # input that ends inside a comment puts the end-of-input token at its '#'
    end = m.start() if m is not None and m.lastgroup == "COMMENT" else len(source)
    tokens.append(Token(EOF, "", "", SourceSpan(file, line, end - line_start + 1, 1)))
    return tokens, diags


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.diags = diags
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not EOF:
            self.pos += 1
        return tok

    def error(self, code: str, message: str, tok: Token) -> None:
        self.diags.append(Diagnostic(Severity.ERROR, code, message, tok.span))

    def expect(self, kind: str, what: str) -> Token | None:
        tok = self.peek()
        if tok.kind == kind:
            return self.advance()
        shown = tok.text or "end of input"
        self.error("UnexpectedToken", f"expected {what}, found {shown!r}", tok)
        return None

    def expect_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == IDENT and tok.text == word:
            self.advance()
            return True
        shown = tok.text or "end of input"
        self.error("UnexpectedToken", f"expected keyword {word!r}, found {shown!r}", tok)
        return False

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == IDENT and tok.text == word

    def ident_list(self) -> list[str]:
        items: list[str] = []
        first = self.expect(IDENT, "an identifier")
        if first is None:
            return items
        items.append(first.text)
        while self.peek().kind == COMMA:
            self.advance()
            nxt = self.expect(IDENT, "an identifier")
            if nxt is None:
                break
            items.append(nxt.text)
        return items

    def sync_to(self, keywords: frozenset[str]) -> None:
        """Skip ahead to the next plausible declaration start."""
        while True:
            tok = self.peek()
            if tok.kind in (RBRACE, EOF):
                return
            if tok.kind == IDENT and tok.text in keywords:
                return
            self.advance()

    # -- vocabulary helpers --------------------------------------------------

    def enum_token(self, cls, what: str) -> object | None:
        tok = self.expect(IDENT, f"a {what} token")
        if tok is None:
            return None
        try:
            return cls(tok.text)
        except ValueError:
            expected = ", ".join(cls.tokens())
            self.error("UnknownEnumToken", f"unknown {what} {tok.text!r} (expected one of: {expected})", tok)
            return None

    def enum_token_list(self, cls, what: str) -> list | None:
        values = []
        value = self.enum_token(cls, what)
        if value is None:
            return None
        values.append(value)
        while self.peek().kind == COMMA:
            self.advance()
            value = self.enum_token(cls, what)
            if value is None:
                return None
            values.append(value)
        return values


class _ModelParser(_Parser):
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        super().__init__(tokens, diags)
        self.name = ""
        self.lifecycle = LifecyclePhase.OPERATIONS
        self.components: dict[str, Component] = {}
        self.losses: dict[str, Loss] = {}
        self.hazards: dict[str, Hazard] = {}
        self.constraints: dict[str, SafetyConstraint] = {}
        self.control_actions: dict[str, ControlAction] = {}
        self.feedback_channels: dict[str, FeedbackChannel] = {}
        self.annotations: dict[tuple[str, UcaType], UcaAnnotation] = {}
        self.namespace: dict[str, str] = {}

    def claim_id(self, tok: Token, category: str) -> bool:
        if tok.text in self.namespace:
            self.error(
                "DuplicateId",
                f"id {tok.text} already declared as a {self.namespace[tok.text]}",
                tok,
            )
            return False
        self.namespace[tok.text] = category
        return True

    def parse(self) -> ControlStructureModel:
        if self.expect_keyword("system"):
            name_tok = self.expect(STRING, "the system name string")
            if name_tok is not None:
                self.name = name_tok.value
            self.expect(LBRACE, "'{'")
            while True:
                tok = self.peek()
                if tok.kind in (RBRACE, EOF):
                    break
                self.item()
            self.expect(RBRACE, "'}'")
        return ControlStructureModel(
            name=self.name,
            lifecycle=self.lifecycle,
            components=self.components,
            losses=self.losses,
            hazards=self.hazards,
            constraints=self.constraints,
            control_actions=self.control_actions,
            feedback_channels=self.feedback_channels,
            annotations=self.annotations,
        )

    def item(self) -> None:
        tok = self.peek()
        if tok.kind != IDENT:
            self.error("UnexpectedToken", f"expected a declaration, found {tok.text!r}", tok)
            self.advance()
            self.sync_to(_ITEM_KEYWORDS)
            return
        word = tok.text
        if word == "lifecycle":
            self.advance()
            self.expect(COLON, "':'")
            phase = self.enum_token(LifecyclePhase, "lifecycle phase")
            if phase is not None:
                self.lifecycle = phase
        elif word in _COMPONENT_KEYWORDS:
            self.component_item(_COMPONENT_KEYWORDS[word])
        elif word == "loss":
            self.loss_item()
        elif word == "hazard":
            self.hazard_item()
        elif word == "constraint":
            self.constraint_item()
        elif word == "control_action":
            self.channel_item(control=True)
        elif word == "feedback":
            self.channel_item(control=False)
        elif word == "annotate":
            self.annotate_item()
        else:
            self.error("UnknownKeyword", f"unknown declaration keyword {word!r}", tok)
            self.advance()
            self.sync_to(_ITEM_KEYWORDS)

    def component_item(self, kind: ComponentKind) -> None:
        self.advance()
        id_tok = self.expect(IDENT, "a component id")
        if id_tok is None:
            self.sync_to(_ITEM_KEYWORDS)
            return
        nature = AgentNature.AUTOMATED
        notes = ""
        if self.peek().kind == LBRACE:
            self.advance()
            while self.peek().kind not in (RBRACE, EOF):
                attr_tok = self.expect(IDENT, "an attribute name")
                if attr_tok is None:
                    break
                self.expect(COLON, "':'")
                if attr_tok.text == "kind":
                    word_tok = self.expect(IDENT, "an agent nature word")
                    if word_tok is not None:
                        if word_tok.text in _AGENT_WORDS:
                            nature = _AGENT_WORDS[word_tok.text]
                        else:
                            self.error(
                                "UnknownEnumToken",
                                f"unknown agent nature {word_tok.text!r} (expected human, automated or ai)",
                                word_tok,
                            )
                elif attr_tok.text == "contains_ai":
                    word_tok = self.expect(IDENT, "true or false")
                    if word_tok is not None:
                        if word_tok.text == "true":
                            nature = AgentNature.AI_CONTAINING
                        elif word_tok.text == "false":
                            nature = AgentNature.AUTOMATED
                        else:
                            self.error(
                                "UnknownEnumToken",
                                f"expected true or false, found {word_tok.text!r}",
                                word_tok,
                            )
                elif attr_tok.text == "notes":
                    note_tok = self.expect(STRING, "a notes string")
                    if note_tok is not None:
                        notes = note_tok.value
                else:
                    self.error("UnknownAttribute", f"unknown attribute {attr_tok.text!r}", attr_tok)
                    if self.peek().kind in (IDENT, STRING):
                        self.advance()
            self.expect(RBRACE, "'}'")
        if self.claim_id(id_tok, "component"):
            self.components[id_tok.text] = Component(
                id=id_tok.text, name=id_tok.text, kind=kind, agent_nature=nature, notes=notes
            )

    def loss_item(self) -> None:
        self.advance()
        id_tok = self.expect(IDENT, "a loss id")
        text_tok = self.expect(STRING, "the loss description")
        if id_tok is None or text_tok is None:
            self.sync_to(_ITEM_KEYWORDS)
            return
        if self.claim_id(id_tok, "loss"):
            self.losses[id_tok.text] = Loss(id=id_tok.text, description=text_tok.value)

    def hazard_item(self) -> None:
        self.advance()
        id_tok = self.expect(IDENT, "a hazard id")
        text_tok = self.expect(STRING, "the hazard description")
        if id_tok is None or text_tok is None or not self.expect_keyword("leads_to"):
            self.sync_to(_ITEM_KEYWORDS)
            return
        losses = self.ident_list()
        if self.claim_id(id_tok, "hazard"):
            self.hazards[id_tok.text] = Hazard(
                id=id_tok.text, description=text_tok.value, leads_to=frozenset(losses)
            )

    def constraint_item(self) -> None:
        self.advance()
        id_tok = self.expect(IDENT, "a constraint id")
        text_tok = self.expect(STRING, "the constraint text")
        if id_tok is None or text_tok is None or not self.expect_keyword("mitigates"):
            self.sync_to(_ITEM_KEYWORDS)
            return
        mitigates = self.ident_list()
        enforced_by: list[str] = []
        if self.at_keyword("enforced_by"):
            self.advance()
            enforced_by = self.ident_list()
        if self.claim_id(id_tok, "constraint"):
            self.constraints[id_tok.text] = SafetyConstraint(
                id=id_tok.text,
                text=text_tok.value,
                mitigates=frozenset(mitigates),
                enforced_by=frozenset(enforced_by),
            )

    def channel_item(self, control: bool) -> None:
        what = "control action" if control else "feedback channel"
        self.advance()
        id_tok = self.expect(IDENT, f"a {what} id")
        label_tok = self.expect(STRING, f"the {what} label")
        if id_tok is None or label_tok is None or not self.expect_keyword("from"):
            self.sync_to(_ITEM_KEYWORDS)
            return
        source_tok = self.expect(IDENT, "the source component id")
        if source_tok is None or not self.expect_keyword("to"):
            self.sync_to(_ITEM_KEYWORDS)
            return
        target_tok = self.expect(IDENT, "the target component id")
        if target_tok is None:
            self.sync_to(_ITEM_KEYWORDS)
            return
        via: str | None = None
        if self.at_keyword("via"):
            self.advance()
            via_tok = self.expect(IDENT, "the via component id")
            if via_tok is not None:
                via = via_tok.text
        if not self.claim_id(id_tok, what):
            return
        if control:
            self.control_actions[id_tok.text] = ControlAction(
                id=id_tok.text, label=label_tok.value, source=source_tok.text, target=target_tok.text, via=via
            )
        else:
            self.feedback_channels[id_tok.text] = FeedbackChannel(
                id=id_tok.text, label=label_tok.value, source=source_tok.text, target=target_tok.text, via=via
            )

    def annotate_item(self) -> None:
        self.advance()
        ca_tok = self.expect(IDENT, "a control action id")
        if ca_tok is None:
            self.sync_to(_ITEM_KEYWORDS)
            return
        uca_type = self.enum_token(UcaType, "UCA type")
        if uca_type is None or not self.expect_keyword("context"):
            self.sync_to(_ITEM_KEYWORDS)
            return
        context_tok = self.expect(STRING, "the context string")
        if context_tok is None:
            self.sync_to(_ITEM_KEYWORDS)
            return
        hazards: list[str] = []
        if self.at_keyword("hazards"):
            self.advance()
            hazards = self.ident_list()
        key = (ca_tok.text, uca_type)
        if key in self.annotations:
            self.error(
                "DuplicateAnnotation",
                f"control action {ca_tok.text} already annotated for {uca_type.token}",
                ca_tok,
            )
            return
        self.annotations[key] = UcaAnnotation(
            control_action=ca_tok.text, uca_type=uca_type, context=context_tok.value, hazards=frozenset(hazards)
        )


def parse_model(source_text: str, file: str = "<stpa>") -> tuple[ControlStructureModel, list[Diagnostic]]:
    """Parse `.stpa` source into a model plus diagnostics.

    Syntax problems never raise; they are reported as Error diagnostics and
    the returned model covers whatever parsed cleanly. Reference resolution
    is validate_model's job, so a hazard may mention a loss that was never
    declared without upsetting the parser.
    """
    tokens, diags = _lex(source_text, file)
    parser = _ModelParser(tokens, diags)
    model = parser.parse()
    return model, diags


# --------------------------------------------------------------------------
# Canonical serialization
# --------------------------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _id_list(ids) -> str:
    return ", ".join(sorted(ids))


def serialize_model(model: ControlStructureModel) -> str:
    """Write a model back out in canonical form.

    Items are grouped by category and sorted by id, one per line with
    two-space indentation, so any two equal models serialize to identical
    text. Component display names are not representable in the grammar and
    are canonicalized to the component id. Raises InvalidModel when the
    model has validation errors.
    """
    errors = [d for d in validate_model(model) if d.is_error]
    if errors:
        raise InvalidModel(errors)
    lines = [f"system {_quote(model.name)} {{"]
    lines.append(f"  lifecycle: {model.lifecycle.token}")
    for _, component in sorted(model.components.items()):
        attrs = []
        if component.agent_nature is not AgentNature.AUTOMATED:
            attrs.append(f"kind: {_WORD_FOR_AGENT[component.agent_nature]}")
        if component.notes:
            attrs.append(f"notes: {_quote(component.notes)}")
        suffix = f" {{{' '.join(attrs)}}}" if attrs else ""
        lines.append(f"  {_KEYWORD_FOR_KIND[component.kind]} {component.id}{suffix}")
    for _, loss in sorted(model.losses.items()):
        lines.append(f"  loss {loss.id} {_quote(loss.description)}")
    for _, hazard in sorted(model.hazards.items()):
        lines.append(
            f"  hazard {hazard.id} {_quote(hazard.description)} leads_to {_id_list(hazard.leads_to)}"
        )
    for _, constraint in sorted(model.constraints.items()):
        line = f"  constraint {constraint.id} {_quote(constraint.text)} mitigates {_id_list(constraint.mitigates)}"
        if constraint.enforced_by:
            line += f" enforced_by {_id_list(constraint.enforced_by)}"
        lines.append(line)
    for _, action in sorted(model.control_actions.items()):
        line = f"  control_action {action.id} {_quote(action.label)} from {action.source} to {action.target}"
        if action.via is not None:
            line += f" via {action.via}"
        lines.append(line)
    for _, channel in sorted(model.feedback_channels.items()):
        line = f"  feedback {channel.id} {_quote(channel.label)} from {channel.source} to {channel.target}"
        if channel.via is not None:
            line += f" via {channel.via}"
        lines.append(line)
    for key in sorted(model.annotations, key=lambda k: (k[0], k[1].rank)):
        annotation = model.annotations[key]
        line = (
            f"  annotate {annotation.control_action} {annotation.uca_type.token}"
            f" context {_quote(annotation.context)}"
        )
        if annotation.hazards:
            line += f" hazards {_id_list(annotation.hazards)}"
        lines.append(line)
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Scenario files
# --------------------------------------------------------------------------


class _ScenarioParser(_Parser):
    _KEYWORDS = frozenset({"scenario"})
    _FIELDS = frozenset(
        {"origin", "uca", "type", "sub_types", "factors", "characteristics", "catalog", "description"}
    )

    def __init__(self, tokens: list[Token], diags: list[Diagnostic], model: ControlStructureModel):
        super().__init__(tokens, diags)
        self.model = model
        self.scenarios: list[LossScenario] = []
        self.seen_ids: set[str] = set()

    def parse(self) -> list[LossScenario]:
        if not self.expect_keyword("scenarios"):
            return self.scenarios
        if self.peek().kind == STRING:
            self.advance()
        self.expect(LBRACE, "'{'")
        while self.peek().kind not in (RBRACE, EOF):
            if self.at_keyword("scenario"):
                self.scenario_item()
            else:
                tok = self.peek()
                self.error("UnknownKeyword", f"expected 'scenario', found {tok.text!r}", tok)
                self.advance()
                self.sync_to(self._KEYWORDS)
        self.expect(RBRACE, "'}'")
        return self.scenarios

    def scenario_item(self) -> None:
        self.advance()
        id_tok = self.expect(IDENT, "a scenario id")
        if id_tok is None or self.expect(LBRACE, "'{'") is None:
            self.sync_to(self._KEYWORDS)
            return
        fields: dict[str, object] = {}
        broken = False
        while self.peek().kind not in (RBRACE, EOF):
            field_tok = self.expect(IDENT, "a scenario field name")
            if field_tok is None or self.expect(COLON, "':'") is None:
                broken = True
                break
            name = field_tok.text
            if name not in self._FIELDS:
                self.error("UnknownKeyword", f"unknown scenario field {name!r}", field_tok)
                broken = True
                break
            value: object | None
            if name in ("origin", "uca"):
                tok = self.expect(IDENT, "an identifier")
                value = tok.text if tok is not None else None
            elif name == "type":
                value = self.enum_token(ScenarioType, "scenario type")
            elif name == "sub_types":
                value = self.enum_token_list(ScenarioSubType, "scenario sub-type")
            elif name == "factors":
                value = self.enum_token_list(CausalFactorType, "causal factor")
            elif name == "characteristics":
                value = self.enum_token_list(AiCharacteristic, "AI characteristic")
            elif name == "catalog":
                value = self.ident_list() or None
            else:
                tok = self.expect(STRING, "the description string")
                value = tok.value if tok is not None else None
            if value is None:
                broken = True
                break
            fields[name] = value
        self.expect(RBRACE, "'}'")
        if broken:
            return
        if id_tok.text in self.seen_ids:
            self.error("DuplicateId", f"scenario id {id_tok.text} already declared", id_tok)
            return
        self.seen_ids.add(id_tok.text)
        missing = [f for f in ("origin", "type", "sub_types", "factors", "description") if f not in fields]
        if missing:
            self.error(
                "MissingField",
                f"scenario {id_tok.text} is missing required field(s): {', '.join(missing)}",
                id_tok,
            )
            return
        origin_id = fields["origin"]
        component = self.model.components.get(origin_id)
        if component is None:
            self.error(
                "DanglingComponentRef",
                f"scenario {id_tok.text} origin {origin_id} is not a model component",
                id_tok,
            )
            return
        try:
            scenario = LossScenario(
                id=id_tok.text,
                origin_component=origin_id,
                origin_kind=component.kind,
                scenario_type=fields["type"],
                sub_types=frozenset(fields["sub_types"]),
                causal_factors=frozenset(fields["factors"]),
                ai_characteristics=frozenset(fields.get("characteristics", [])),
                description=fields["description"],
                uca=fields.get("uca"),
                catalog_refs=frozenset(fields.get("catalog", [])),
            )
        except ValueError as exc:
            self.error("IllegalScenario", str(exc), id_tok)
            return
        self.scenarios.append(scenario)


def parse_scenarios(
    source_text: str, model: ControlStructureModel, file: str = "<stpa>"
) -> tuple[list[LossScenario], list[Diagnostic]]:
    """Parse a scenario file against the model it analyzes.

    Scenario origins resolve immediately (the origin's component kind is
    baked into each LossScenario); UCA references are plain ids checked
    later by ``analysis.resolve_scenario``, behind tables and pathways.
    """
    tokens, diags = _lex(source_text, file)
    parser = _ScenarioParser(tokens, diags, model)
    scenarios = parser.parse()
    return scenarios, diags
