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

Parsing alternates between a fast prefix and a token path. After a
well-formed `system "..." {` or `scenarios ... {` header, each one-line model
item, or `scenario` block with its fields in grammar order, that lexes without
a diagnostic and that the next significant line does not extend (`,`, `{`,
`via`, `enforced_by`, `hazards`) is one pattern match, built straight into its
record. At a line that is not, the token path takes over up to the first word
of the next line that the prefix takes: one `re.finditer` pass over a master
pattern, `_LEXEME`, then recursive descent. If the parser is at item level at
that word, the prefix takes over again; if an item took the word, the token
path lexes on to the next such line. Tokens carry their positions; a
`SourceSpan` is built only for a diagnostic.
Diagnostics come out as without the prefix: the lexer's first, then the
parser's in source order.

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
    BadIdentifier       identifier longer than 64 characters (87 for    Error
                        a scenario's uca: value)
    DuplicateId         id already declared in this file                Error
    DuplicateAnnotation (control action, UCA type) annotated twice      Error
    MissingField        scenario lacks a required field                 Error
    IllegalScenario     scenario fields violate a model invariant       Error
    DanglingComponentRef scenario origin is not a model component       Error
    TabIndent           tab character used in indentation               Warning
"""

from __future__ import annotations

import functools
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
    _require_valid,
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

# The model collection that holds each category of declared id.
_COLLECTIONS = {
    "component": "components",
    "loss": "losses",
    "hazard": "hazards",
    "constraint": "constraints",
    "control action": "control_actions",
    "feedback channel": "feedback_channels",
}

# Component attrs that set the agent nature: their words, what the parser
# expects after the colon, and its complaint about any other word.
_NATURE_ATTRS = {
    "kind": (_AGENT_WORDS, "an agent nature word", "unknown agent nature {!r} (expected human, automated or ai)"),
    "contains_ai": (
        {"true": AgentNature.AI_CONTAINING, "false": AgentNature.AUTOMATED},
        "true or false",
        "expected true or false, found {!r}",
    ),
}

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
MORE = "MORE"  # ends a stretch of tokens that the rest of the file follows

_PUNCTUATION = {"{": LBRACE, "}": RBRACE, ":": COLON, ",": COMMA}

# One named alternative per lexeme, tried in order at each position. A newline
# takes the next line's indentation with it, and a token the blanks after it,
# so the only blank run matched on its own indents the first line. A string
# runs to its closing quote or stops before the end of the line; a backslash
# and the character after it, unless that is a newline, always travel together.
_LEXEME = re.compile(
    r"(?P<NEWLINE>\n[ \t\r]*)"
    r"|(?P<BLANK>[ \t\r]+)"
    r"|(?P<COMMENT>#[^\n]*)"
    r"|(?:(?P<PUNCT>[{}:,])"
    r'|(?P<STRING>"(?P<BODY>(?:[^"\\\n]+|\\.?)*)(?P<CLOSE>"?))'
    rf"|(?P<IDENT>{IDENTIFIER})"
    r"|(?P<OTHER>.))[ \t\r]*"
)
_ESCAPE = re.compile(r'\\(["\\]?)')

# A scenario's `uca:` value is an id printed by `stpa-loc ucas`: a control
# action id, a "-" and a UCA type token, so it may be that much longer.
_UCA_ID_LIMIT = MAX_IDENTIFIER_LENGTH + 1 + max(map(len, UcaType.tokens()))


class Token(NamedTuple):
    kind: str
    text: str
    file: str
    line: int
    column: int
    length: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.column, self.length)


def _unescape(text: str) -> str:
    return _ESCAPE.sub(lambda escape: escape.group(1) or "\\", text) if "\\" in text else text


def _lex(
    source: str, file: str, uca_limit: int = MAX_IDENTIFIER_LENGTH, pos: int = 0, line: int = 1, end: int | None = None
) -> tuple[list[Token], list[Diagnostic]]:
    """Tokens and lexer diagnostics of ``source`` from ``pos``, a line start;
    given ``end``, a later line start, up to the first word of that line and a
    MORE token whose ``length`` holds ``end``."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line_start = pos
    end = len(source) if end is None else end
    m = None
    for m in _LEXEME.finditer(source, pos):
        kind = m.lastgroup
        start = m.start()
        col = start - line_start + 1
        if kind == "IDENT":
            word = m.group(kind)
            tok = Token(IDENT, word, file, line, col, len(word))
            if len(word) > MAX_IDENTIFIER_LENGTH:
                after_uca = [t[:2] for t in tokens[-2:]] == [(IDENT, "uca"), (COLON, ":")]
                limit = uca_limit if after_uca else MAX_IDENTIFIER_LENGTH
                if len(word) > limit:
                    message = f"identifier {word[:16]}... exceeds {limit} characters"
                    diags.append(Diagnostic(Severity.ERROR, "BadIdentifier", message, tok.span))
            tokens.append(tok)
            if start >= end:
                tokens.append(Token(MORE, "", file, line, col, end))
                return tokens, diags
        elif kind == "NEWLINE" or kind == "BLANK":
            if kind == "NEWLINE":
                line += 1
                line_start = start + 1
            indent = m.group()
            if "\t" in indent:
                span = SourceSpan(file, line, start + indent.index("\t") - line_start + 1, 1)
                diags.append(Diagnostic(Severity.WARNING, "TabIndent", "tab used in indentation", span))
        elif kind == "PUNCT":
            char = m.group(kind)
            tokens.append(Token(_PUNCTUATION[char], char, file, line, col, 1))
        elif kind == "STRING":
            text = m.group("BODY")
            if "\\" in text:
                for escape in _ESCAPE.finditer(text):
                    if not escape.group(1):
                        at = start + 1 + escape.start()
                        message = f"unsupported escape sequence \\{source[at + 1:at + 2]}"
                        span = SourceSpan(file, line, at - line_start + 1, 2)
                        diags.append(Diagnostic(Severity.ERROR, "BadEscape", message, span))
                text = _unescape(text)
            tok = Token(STRING, text, file, line, col, m.end(kind) - start)
            if not m.group("CLOSE"):
                message = "string not closed before end of line"
                diags.append(Diagnostic(Severity.ERROR, "UnterminatedString", message, tok.span))
            tokens.append(tok)
        elif kind == "OTHER":
            message = f"unexpected character {m.group(kind)!r}"
            diags.append(Diagnostic(Severity.ERROR, "UnexpectedToken", message, SourceSpan(file, line, col, 1)))
    # input that ends inside a comment puts the end-of-input token at its '#'
    end = m.start() if m is not None and m.lastgroup == "COMMENT" else len(source)
    tokens.append(Token(EOF, "", file, line, end - line_start + 1, 1))
    return tokens, diags


@functools.cache
def _fast_patterns(kind: str) -> tuple[re.Pattern[str], re.Pattern[str]]:
    """The fast prefix's header and item patterns for a "model" or a
    "scenarios" file, compiled on the first parse of one, not at import."""
    end = r"(?![A-Za-z0-9_-])"
    ident, uca_id = (rf"[A-Za-z][A-Za-z0-9_-]{{0,{n - 1}}}{end}" for n in (MAX_IDENTIFIER_LENGTH, _UCA_ID_LIMIT))
    rest = r"[ ]*(?:#[^\n]*)?\n"

    def string(name: str) -> str:
        return rf'"(?P<{name}>[^"\\\n]*(?:\\["\\][^"\\\n]*)*)"'

    def words(cls) -> str:
        return f"(?:{'|'.join(cls.tokens())}){end}"

    def listing(item: str) -> str:
        return rf"{item}(?:[ ]*,[ ]*{item})*"

    def field(name: str, value: str) -> str:
        return rf"[ \n]*{name}[ ]*:[ ]*(?P<{name}>{value})"

    ids = listing(ident)
    model_line = (
        rf"(?P<lifecycle>lifecycle[ ]*:[ ]*(?P<phase>{words(LifecyclePhase)}))"
        rf"|(?P<component>(?P<keyword>{'|'.join(_COMPONENT_KEYWORDS)})[ ]+(?P<component_id>{ident})"
        rf"(?:[ ]*\{{[ ]*(?:(?:kind[ ]*:[ ]*(?P<kind>{'|'.join(_AGENT_WORDS)})"
        rf"|contains_ai[ ]*:[ ]*(?P<ai>true|false)){end}[ ]*)?(?:notes[ ]*:[ ]*{string('component_text')}[ ]*)?\}})?)"
        rf"|(?P<loss>loss[ ]+(?P<loss_id>{ident})[ ]*{string('loss_text')})"
        rf"|(?P<hazard>hazard[ ]+(?P<hazard_id>{ident})[ ]*{string('hazard_text')}"
        rf"[ ]*leads_to[ ]+(?P<leads_to>{ids}))"
        rf"|(?P<constraint>constraint[ ]+(?P<constraint_id>{ident})[ ]*{string('constraint_text')}"
        rf"[ ]*mitigates[ ]+(?P<mitigates>{ids})(?:[ ]+enforced_by[ ]+(?P<enforced_by>{ids}))?)"
        rf"|(?P<channel>(?P<channel_kind>control_action|feedback)[ ]+(?P<channel_id>{ident})"
        rf"[ ]*{string('channel_text')}[ ]*from[ ]+(?P<source>{ident})[ ]+to[ ]+(?P<target>{ident})"
        rf"(?:[ ]+via[ ]+(?P<via>{ident}))?)"
        rf"|(?P<annotate>annotate[ ]+(?P<annotate_id>{ident})[ ]+(?P<uca_type>{words(UcaType)})[ ]+context[ ]*"
        rf"{string('annotate_text')}(?:[ ]*hazards[ ]+(?P<hazards>{ids}))?)"
    )
    scenario = (
        rf"(?P<scenario>scenario[ ]+(?P<id>{ident})[ ]*\{{{field('origin', ident)}(?:{field('uca', uca_id)})?"
        rf"{field('type', words(ScenarioType))}{field('sub_types', listing(words(ScenarioSubType)))}"
        rf"{field('factors', listing(words(CausalFactorType)))}"
        rf"(?:{field('characteristics', listing(words(AiCharacteristic)))})?(?:{field('catalog', ids)})?"
        rf"[ \n]*description[ ]*:[ ]*{string('description')}[ \n]*\}})"
    )
    # A model line counts only if the next significant line starts another item
    # or ends the body or the file; `,`, `{`, `via`, `enforced_by` or `hazards`
    # there would extend it. Tabs may indent the lines looked at, which the token
    # path then takes. The bare `{rest}` alternatives take blank and comment
    # lines; the model's has no lookahead, so a run of them is linear.
    item_ends = rf"(?:[ \t]*(?:#[^\n]*)?\n)*[ \t]*(?:}}|(?:#[^\n]*)?\Z|(?!(?:via|enforced_by|hazards){end})[A-Za-z])"
    if kind == "model":
        header, item = rf"system[ ]*{string('name')}", rf"[ ]*(?:(?:{model_line}){rest}(?={item_ends})|{rest})"
    else:
        header, item = rf"scenarios[ ]*(?:{string('title')})?", rf"[ ]*(?:{scenario})?{rest}"
    return re.compile(rf"(?:{rest})*[ ]*{header}[ ]*\{{{rest}"), re.compile(item)


def _split(ids: str | None) -> list[str]:
    return ids.replace(" ", "").split(",") if ids else []


def _group_token(m: re.Match[str], group: str, file: str, line: int, line_start: int) -> Token:
    return Token(IDENT, m[group], file, line, m.start(group) - line_start + 1, m.end(group) - m.start(group))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.diags = diags
        self.pos = 0

    def run(self, source: str, file: str, header: re.Pattern[str], item: re.Pattern[str], uca_limit: int):
        """Parse ``source``: records straight from the header and item matches,
        and the token path wherever they stop, up to the next item they take."""
        self.source, self.file, self.item_pattern, self.uca_limit = source, file, item, uca_limit
        self.lex_diags: list[Diagnostic] = []
        m = header.match(source)
        if m is None:
            self.lex(0, 1)
        else:
            self.fast_item(m, file, 1, 0)
            self.resume(m.end(), 1 + source.count("\n", 0, m.end()))
        result = self.parse(in_body=m is not None)
        more = self.tokens[-1]
        if more.kind is MORE:  # parsing ended before the last stretch: lex it for its diagnostics
            self.lex_diags += _lex(source, file, uca_limit, more.length, more.line)[1]
        self.diags[:0] = self.lex_diags  # every lexer diagnostic comes first
        return result

    def resume(self, pos: int, line: int) -> None:
        """Take the items from ``pos``, a line start, then lex from where they stop."""
        source, item = self.source, self.item_pattern
        m = item.match(source, pos)
        while m is not None:
            if m.lastgroup is not None:
                self.fast_item(m, self.file, line, pos)
            line += source.count("\n", pos, m.end())
            pos = m.end()
            m = item.match(source, pos)
        self.lex(pos, line)

    def lex(self, pos: int, line: int) -> None:
        """Tokens from ``pos``, a line start, to the first word of the next line
        that the item pattern takes (blank and comment lines do not count)."""
        source, end = self.source, pos
        while end := source.find("\n", end) + 1:
            m = self.item_pattern.match(source, end)
            if m is not None and m.lastgroup is not None:
                break
        self.tokens, diags = _lex(source, self.file, self.uca_limit, pos, line, end or None)
        self.lex_diags += diags
        self.pos = 0

    def at_item(self) -> bool:
        """Whether the item loop goes on; at a line the item pattern takes, the prefix takes it first."""
        while self.peek().kind not in (RBRACE, EOF):
            more = self.tokens[self.pos + 1]
            if more.kind is not MORE:
                return True
            self.resume(more.length, more.line)
        return False

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is MORE:  # an item took the first word of the line at its offset
            self.lex(tok.length, tok.line)
            self.pos = 1
            return self.peek()
        return tok

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
        tok = self.expect(IDENT, "an identifier")
        while tok is not None:
            items.append(tok.text)
            if self.peek().kind != COMMA:
                break
            self.advance()
            tok = self.expect(IDENT, "an identifier")
        return items

    def sync_to(self, keywords: frozenset[str]) -> None:
        """Skip ahead to the next plausible declaration start."""
        tok = self.peek()
        while tok.kind not in (RBRACE, EOF) and not (tok.kind == IDENT and tok.text in keywords):
            self.advance()
            tok = self.peek()

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
        values = [self.enum_token(cls, what)]
        while values[-1] is not None and self.peek().kind == COMMA:
            self.advance()
            values.append(self.enum_token(cls, what))
        return None if values[-1] is None else values


class _ModelParser(_Parser):
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        super().__init__(tokens, diags)
        self.name = ""
        self.lifecycle = LifecyclePhase.OPERATIONS
        self.collections: dict[str, dict] = {name: {} for name in (*_COLLECTIONS.values(), "annotations")}
        self.namespace: dict[str, str] = {}

    def claim_id(self, tok: Token, category: str, record: object) -> None:
        if tok.text in self.namespace:
            self.error("DuplicateId", f"id {tok.text} already declared as a {self.namespace[tok.text]}", tok)
            return
        self.namespace[tok.text] = category
        self.collections[_COLLECTIONS[category]][tok.text] = record

    def annotate(self, ca_tok: Token, uca_type: UcaType, context: str, hazards: list[str]) -> None:
        key = (ca_tok.text, uca_type)
        annotations = self.collections["annotations"]
        if key in annotations:
            message = f"control action {ca_tok.text} already annotated for {uca_type.token}"
            self.error("DuplicateAnnotation", message, ca_tok)
            return
        annotations[key] = UcaAnnotation(
            control_action=ca_tok.text, uca_type=uca_type, context=context, hazards=frozenset(hazards)
        )

    def fast_item(self, m: re.Match[str], file: str, line: int, line_start: int) -> None:
        kind = m.lastgroup
        if kind == "name":
            self.name = _unescape(m["name"])
        elif kind == "lifecycle":
            self.lifecycle = LifecyclePhase(m["phase"])
        else:
            # a declaration's id group is <kind>_id and its string <kind>_text
            tok = _group_token(m, f"{kind}_id", file, line, line_start)
            text = _unescape(m[f"{kind}_text"] or "")
            if kind == "component":
                nature = AgentNature.AI_CONTAINING if m["ai"] == "true" else _AGENT_WORDS[m["kind"] or "automated"]
                record = Component(tok.text, tok.text, _COMPONENT_KEYWORDS[m["keyword"]], nature, text)
                self.claim_id(tok, kind, record)
            elif kind == "loss":
                self.claim_id(tok, kind, Loss(tok.text, text))
            elif kind == "hazard":
                self.claim_id(tok, kind, Hazard(tok.text, text, frozenset(_split(m["leads_to"]))))
            elif kind == "constraint":
                mitigates, enforced_by = frozenset(_split(m["mitigates"])), frozenset(_split(m["enforced_by"]))
                self.claim_id(tok, kind, SafetyConstraint(tok.text, text, mitigates, enforced_by))
            elif kind == "channel":
                self.channel(tok, m["channel_kind"] == "control_action", text, m["source"], m["target"], m["via"])
            else:
                self.annotate(tok, UcaType(m["uca_type"]), text, _split(m["hazards"]))

    def parse(self, in_body: bool = False) -> ControlStructureModel:
        if in_body or self.expect_keyword("system"):
            if not in_body:
                name_tok = self.expect(STRING, "the system name string")
                if name_tok is not None:
                    self.name = name_tok.text
                self.expect(LBRACE, "'{'")
            while self.at_item():
                self.item()
            self.expect(RBRACE, "'}'")
        return ControlStructureModel(name=self.name, lifecycle=self.lifecycle, **self.collections)

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
                if attr_tok.text in _NATURE_ATTRS:
                    words, what, complaint = _NATURE_ATTRS[attr_tok.text]
                    word_tok = self.expect(IDENT, what)
                    if word_tok is not None and word_tok.text in words:
                        nature = words[word_tok.text]
                    elif word_tok is not None:
                        self.error("UnknownEnumToken", complaint.format(word_tok.text), word_tok)
                elif attr_tok.text == "notes":
                    note_tok = self.expect(STRING, "a notes string")
                    if note_tok is not None:
                        notes = note_tok.text
                else:
                    self.error("UnknownAttribute", f"unknown attribute {attr_tok.text!r}", attr_tok)
                    if self.peek().kind in (IDENT, STRING):
                        self.advance()
            self.expect(RBRACE, "'}'")
        component = Component(id=id_tok.text, name=id_tok.text, kind=kind, agent_nature=nature, notes=notes)
        self.claim_id(id_tok, "component", component)

    def loss_item(self) -> None:
        self.advance()
        id_tok = self.expect(IDENT, "a loss id")
        text_tok = self.expect(STRING, "the loss description")
        if id_tok is None or text_tok is None:
            self.sync_to(_ITEM_KEYWORDS)
            return
        self.claim_id(id_tok, "loss", Loss(id=id_tok.text, description=text_tok.text))

    def hazard_item(self) -> None:
        self.advance()
        id_tok = self.expect(IDENT, "a hazard id")
        text_tok = self.expect(STRING, "the hazard description")
        if id_tok is None or text_tok is None or not self.expect_keyword("leads_to"):
            self.sync_to(_ITEM_KEYWORDS)
            return
        losses = self.ident_list()
        hazard = Hazard(id=id_tok.text, description=text_tok.text, leads_to=frozenset(losses))
        self.claim_id(id_tok, "hazard", hazard)

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
        constraint = SafetyConstraint(
            id=id_tok.text, text=text_tok.text, mitigates=frozenset(mitigates), enforced_by=frozenset(enforced_by)
        )
        self.claim_id(id_tok, "constraint", constraint)

    def channel(self, tok: Token, control: bool, label: str, source: str, target: str, via: str | None) -> None:
        what, cls = ("control action", ControlAction) if control else ("feedback channel", FeedbackChannel)
        self.claim_id(tok, what, cls(id=tok.text, label=label, source=source, target=target, via=via))

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
        self.channel(id_tok, control, label_tok.text, source_tok.text, target_tok.text, via)

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
        self.annotate(ca_tok, uca_type, context_tok.text, hazards)


def parse_model(source_text: str, file: str = "<stpa>") -> tuple[ControlStructureModel, list[Diagnostic]]:
    """Parse `.stpa` source into a model plus diagnostics.

    Syntax problems never raise; they are reported as Error diagnostics and
    the returned model covers whatever parsed cleanly. Reference resolution
    is validate_model's job, so a hazard may mention a loss that was never
    declared without upsetting the parser.
    """
    parser = _ModelParser([], [])
    return parser.run(source_text, file, *_fast_patterns("model"), MAX_IDENTIFIER_LENGTH), parser.diags


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
    _require_valid(model)
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
    for keyword, channels in (("control_action", model.control_actions), ("feedback", model.feedback_channels)):
        for _, channel in sorted(channels.items()):
            line = f"  {keyword} {channel.id} {_quote(channel.label)} from {channel.source} to {channel.target}"
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

    def fast_item(self, m: re.Match[str], file: str, line: int, line_start: int) -> None:
        if m.lastgroup == "scenario":
            fields = {
                "origin": m["origin"],
                "uca": m["uca"],
                "type": ScenarioType(m["type"]),
                "sub_types": [ScenarioSubType(word) for word in _split(m["sub_types"])],
                "factors": [CausalFactorType(word) for word in _split(m["factors"])],
                "characteristics": [AiCharacteristic(word) for word in _split(m["characteristics"])],
                "catalog": _split(m["catalog"]),
                "description": _unescape(m["description"]),
            }
            self.add_scenario(_group_token(m, "id", file, line, line_start), fields)

    def parse(self, in_body: bool = False) -> list[LossScenario]:
        if not (in_body or self.expect_keyword("scenarios")):
            return self.scenarios
        if not in_body:
            if self.peek().kind == STRING:
                self.advance()
            self.expect(LBRACE, "'{'")
        while self.at_item():
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
                value = tok.text if tok is not None else None
            if value is None:
                broken = True
                break
            fields[name] = value
        self.expect(RBRACE, "'}'")
        if not broken:
            self.add_scenario(id_tok, fields)

    def add_scenario(self, id_tok: Token, fields: dict[str, object]) -> None:
        if id_tok.text in self.seen_ids:
            self.error("DuplicateId", f"scenario id {id_tok.text} already declared", id_tok)
            return
        self.seen_ids.add(id_tok.text)
        missing = [f for f in ("origin", "type", "sub_types", "factors", "description") if f not in fields]
        if missing:
            message = f"scenario {id_tok.text} is missing required field(s): {', '.join(missing)}"
            self.error("MissingField", message, id_tok)
            return
        origin_id = fields["origin"]
        component = self.model.components.get(origin_id)
        if component is None:
            message = f"scenario {id_tok.text} origin {origin_id} is not a model component"
            self.error("DanglingComponentRef", message, id_tok)
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
    A ``uca:`` value may exceed the 64-character identifier limit by the
    "-" and UCA type token that ``uca_id`` appends; every other identifier
    keeps the limit.
    """
    parser = _ScenarioParser([], [], model)
    return parser.run(source_text, file, *_fast_patterns("scenarios"), _UCA_ID_LIMIT), parser.diags
