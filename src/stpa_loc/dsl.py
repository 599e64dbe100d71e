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

Parsing alternates between a token path and a fast prefix. The token path
reads the `system "..." {` or `scenarios ... {` header and any `lifecycle`
item: one `re.finditer` pass over a master pattern, `_LEXEME`, then recursive
descent. The prefix takes the declarations that repeat: each one-line model
item, or `scenario` block with its fields in grammar order, that lexes without
a diagnostic and that the next significant line does not extend (`,`, `{`,
`via`, `enforced_by`, `hazards`) is one pattern match, built straight into its
record; a model item builds no token. A vocabulary token there is any
lowercase word, which its vocabulary's token dict checks after the match; a
word the dict lacks, or a model id or annotated pair declared before, sends
the line to the token path, which reports it. Each stretch of the token path
ends where the next line the prefix takes begins. If the parser is at item level there, the prefix takes over again; if
an item runs on, the token path lexes its next stretch. Tokens carry their
positions; a `SourceSpan` is built only for a diagnostic.
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
    _COLLECTIONS,
    _require_valid,
    _token_table,
)

_COMPONENT_KEYWORDS = {
    "controller": ComponentKind.CONTROLLER,
    "process": ComponentKind.CONTROLLED_PROCESS,
    "actuator": ComponentKind.ACTUATOR,
    "sensor": ComponentKind.SENSOR,
    "environment": ComponentKind.ENVIRONMENT,
}

_KEYWORD_FOR_KIND = {kind: word for word, kind in _COMPONENT_KEYWORDS.items()}

# Each channel keyword, the category of id it declares and its record type.
_CHANNELS = {"control_action": ("control action", ControlAction), "feedback": ("feedback channel", FeedbackChannel)}

_AGENT_WORDS = {
    "human": AgentNature.HUMAN,
    "automated": AgentNature.AUTOMATED,
    "ai": AgentNature.AI_CONTAINING,
}

_WORD_FOR_AGENT = {nature: word for word, nature in _AGENT_WORDS.items()}

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

_WORD = "[a-z_]+"  # a vocabulary token in the fast prefix; the enum lookup after the match checks it


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
    """Tokens and lexer diagnostics of ``source`` from ``pos``, a line start,
    to ``end``, a later line start, or to the end of input and its EOF token."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line_start = pos
    m = None
    for m in _LEXEME.finditer(source, pos, len(source) if end is None else end):
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
    if end is None:  # input that ends inside a comment puts the end-of-input token at its '#'
        at = m.start() if m is not None and m.lastgroup == "COMMENT" else len(source)
        tokens.append(Token(EOF, "", file, line, at - line_start + 1, 1))
    return tokens, diags


@functools.cache
def _fast_pattern(kind: str) -> re.Pattern[str]:
    """The fast prefix's item pattern for a "model" or a "scenarios" file,
    compiled on the first parse of one, not at import."""
    end = r"(?![A-Za-z0-9_-])"
    ident, uca_id = (rf"[A-Za-z][A-Za-z0-9_-]{{0,{n - 1}}}{end}" for n in (MAX_IDENTIFIER_LENGTH, _UCA_ID_LIMIT))
    word = rf"{_WORD}{end}"
    rest = r"[ ]*(?:#[^\n]*)?\n"

    def string(name: str) -> str:
        return rf'"(?P<{name}>[^"\\\n]*(?:\\["\\][^"\\\n]*)*)"'

    def listing(item: str) -> str:
        return rf"{item}(?:[ ]*,[ ]*{item})*"

    def field(name: str, value: str) -> str:
        return rf"[ \n]*{name}[ ]*:[ ]*(?P<{name}>{value})"

    ids = listing(ident)
    model_line = (
        rf"(?P<component>(?P<keyword>{'|'.join(_COMPONENT_KEYWORDS)})[ ]+(?P<component_id>{ident})"
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
        rf"|(?P<annotate>annotate[ ]+(?P<annotate_id>{ident})[ ]+(?P<uca_type>{word})[ ]+context[ ]*"
        rf"{string('annotate_text')}(?:[ ]*hazards[ ]+(?P<hazards>{ids}))?)"
    )
    scenario = (
        rf"(?P<scenario>scenario[ ]+(?P<id>{ident})[ ]*\{{{field('origin', ident)}(?:{field('uca', uca_id)})?"
        rf"{field('type', word)}{field('sub_types', listing(word))}{field('factors', listing(word))}"
        rf"(?:{field('characteristics', listing(word))})?(?:{field('catalog', ids)})?"
        rf"[ \n]*description[ ]*:[ ]*{string('description')}[ \n]*\}})"
    )
    # A model line counts only if the next significant line starts another item
    # or ends the body or the file; `,`, `{`, `via`, `enforced_by` or `hazards`
    # there would extend it. Tabs may indent the lines looked at, which the token
    # path then takes. The bare `{rest}` alternatives take blank and comment
    # lines; the model's has no lookahead, so a run of them is linear.
    item_ends = rf"(?:[ \t]*(?:#[^\n]*)?\n)*[ \t]*(?:}}|(?:#[^\n]*)?\Z|(?!(?:via|enforced_by|hazards){end})[A-Za-z])"
    if kind == "model":
        return re.compile(rf"[ ]*(?:(?:{model_line}){rest}(?={item_ends})|{rest})")
    return re.compile(rf"[ ]*(?:{scenario})?{rest}")


def _split(ids: str | None) -> list[str]:
    return ids.replace(" ", "").split(",") if ids else []


def _words(cls, words: str | None) -> list:
    """The members of ``cls`` a fast-prefix word list names, by dict; a word it lacks raises the enum's ValueError."""
    members = _token_table(cls)
    return [members.get(word) or cls(word) for word in _split(words)]


def _group_token(m: re.Match[str], group: str, file: str, line: int, line_start: int) -> Token:
    return Token(IDENT, m[group], file, line, m.start(group) - line_start + 1, m.end(group) - m.start(group))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    kind: str  # the file kind whose fast pattern the parser uses
    uca_limit = MAX_IDENTIFIER_LENGTH  # the longest uca: value the lexer lets pass
    ITEMS: dict  # each declaration keyword and the handler that reads the rest of its item

    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.diags = diags
        self.pos = 0

    def run(self, source: str, file: str):
        """Parse ``source``: the token path reads the header and each line that
        the item matches do not take, up to the start of the next one they take."""
        self.item_pattern = _fast_pattern(self.kind)
        self.source, self.file = source, file
        self.lex_diags: list[Diagnostic] = []
        self.lex(0, 1)
        result = self.parse()
        if self.end is not None:  # parsing ended before the last stretch: lex the rest for its diagnostics
            self.lex_diags += _lex(source, file, self.uca_limit, self.end, self.end_line)[1]
        self.diags[:0] = self.lex_diags  # every lexer diagnostic comes first
        return result

    def resume(self, pos: int, line: int) -> None:
        """Take the items from ``pos``, a line start, then lex from where they
        stop: at a line they do not match or whose word no vocabulary holds."""
        source, item = self.source, self.item_pattern
        m = item.match(source, pos)
        while m is not None:
            if m.lastgroup is not None:
                try:  # fast_item raises before it changes any state: at a word no vocabulary holds or a taken id
                    self.fast_item(m, line, pos)
                except ValueError:
                    break
            line += source.count("\n", pos, m.end())
            pos = m.end()
            m = item.match(source, pos)
        self.lex(pos, line)

    def lex(self, pos: int, line: int) -> None:
        """Tokens from ``pos``, a line start, to ``end`` and ``end_line``: the start of
        the next line that the item pattern takes (not a blank or comment line) or None."""
        source, end, self.end_line = self.source, pos, line
        while end := source.find("\n", end) + 1:
            self.end_line += 1
            m = self.item_pattern.match(source, end)
            if m is not None and m.lastgroup is not None:
                break
        self.end = end or None
        self.tokens, diags = _lex(source, self.file, self.uca_limit, pos, line, self.end)
        self.lex_diags += diags
        self.pos = 0

    def at_item(self) -> bool:
        """Whether the item loop goes on; where a stretch ends, the prefix takes the items there first."""
        while self.pos == len(self.tokens):
            self.resume(self.end, self.end_line)
        return self.tokens[self.pos].kind not in (RBRACE, EOF)

    def body(self) -> None:
        self.expect(LBRACE, "'{'")
        while self.at_item():
            self.item()
        self.expect(RBRACE, "'}'")
        if (tok := self.peek()).kind is not EOF:  # only blank and comment lines may follow the body
            self.unexpected("end of input", tok)

    def item(self) -> None:
        """Run the handler of the item's keyword, or complain and skip to the next keyword."""
        tok = self.advance()
        handler = self.ITEMS.get(tok.text) if tok.kind == IDENT else None
        if handler is None:
            self.stray(tok)
            self.sync_to()
        else:
            handler(self, tok.text)

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        while self.pos == len(self.tokens):  # an item runs on past the stretch
            self.lex(self.end, self.end_line)
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not EOF:
            self.pos += 1
        return tok

    def error(self, code: str, message: str, tok: Token) -> None:
        self.diags.append(Diagnostic(Severity.ERROR, code, message, tok.span))

    def unexpected(self, what: str, tok: Token) -> None:
        found = "end of input" if tok.kind is EOF else tok.text
        self.error("UnexpectedToken", f"expected {what}, found {found!r}", tok)

    def expect(self, kind: str, what: str) -> Token | None:
        tok = self.peek()
        if tok.kind == kind:
            return self.advance()
        self.unexpected(what, tok)
        return None

    def expect_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == IDENT and tok.text == word:
            self.advance()
            return True
        self.unexpected(f"keyword {word!r}", tok)
        return False

    def at(self, kind: str, text: str | None = None) -> bool:
        """Whether a ``kind`` token (reading ``text``) comes next, short of the
        stretch's end: the item keyword there is not what a lookahead wants."""
        if self.pos == len(self.tokens):
            return False
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def ident_list(self) -> list[str]:
        items: list[str] = []
        tok = self.expect(IDENT, "an identifier")
        while tok is not None:
            items.append(tok.text)
            if not self.at(COMMA):
                break
            self.advance()
            tok = self.expect(IDENT, "an identifier")
        return items

    def ids_after(self, keyword: str) -> list[str]:
        """The id list after an optional ``keyword``; none if the next token is not it."""
        if not self.at(IDENT, keyword):
            return []
        self.advance()
        return self.ident_list()

    def sync_to(self) -> None:
        """Skip ahead to the next declaration keyword, or to the end of the
        stretch, where a line that starts with an item keyword begins."""
        while self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            if tok.kind in (RBRACE, EOF) or (tok.kind == IDENT and tok.text in self.ITEMS):
                return
            self.pos += 1

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
        while values[-1] is not None and self.at(COMMA):
            self.advance()
            values.append(self.enum_token(cls, what))
        return None if values[-1] is None else values


class _ModelParser(_Parser):
    kind = "model"

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
        self.claim(tok.text, category, record)

    def claim(self, item_id: str, category: str, record: object) -> None:
        self.namespace[item_id] = category
        self.collections[_COLLECTIONS[category]][item_id] = record

    def annotate(self, ca_tok: Token, uca_type: UcaType, context: str, hazards: list[str]) -> None:
        key = (ca_tok.text, uca_type)
        annotations = self.collections["annotations"]
        if key in annotations:
            message = f"control action {ca_tok.text} already annotated for {uca_type.token}"
            self.error("DuplicateAnnotation", message, ca_tok)
            return
        annotations[key] = UcaAnnotation(ca_tok.text, uca_type, context, frozenset(hazards))

    def fast_item(self, m: re.Match[str], line: int, line_start: int) -> None:
        # A declaration's id group is <kind>_id and its string <kind>_text. No
        # token is built: a taken id or annotated pair is a ValueError, and the
        # token path reads the line again and reports it at the id's token.
        kind = m.lastgroup
        item_id = m[f"{kind}_id"]
        text = _unescape(m[f"{kind}_text"] or "")
        if kind == "annotate":
            key = (item_id, _words(UcaType, m["uca_type"])[0])
            if key in self.collections["annotations"]:
                raise ValueError(f"control action {item_id} already annotated")
            self.collections["annotations"][key] = UcaAnnotation(*key, text, frozenset(_split(m["hazards"])))
            return
        if item_id in self.namespace:
            raise ValueError(f"id {item_id} already declared")
        if kind == "component":
            nature = AgentNature.AI_CONTAINING if m["ai"] == "true" else _AGENT_WORDS[m["kind"] or "automated"]
            self.claim(item_id, kind, Component(item_id, item_id, _COMPONENT_KEYWORDS[m["keyword"]], nature, text))
        elif kind == "loss":
            self.claim(item_id, kind, Loss(item_id, text))
        elif kind == "hazard":
            self.claim(item_id, kind, Hazard(item_id, text, frozenset(_split(m["leads_to"]))))
        elif kind == "constraint":
            mitigates, enforced_by = frozenset(_split(m["mitigates"])), frozenset(_split(m["enforced_by"]))
            self.claim(item_id, kind, SafetyConstraint(item_id, text, mitigates, enforced_by))
        else:
            what, cls = _CHANNELS[m["channel_kind"]]
            self.claim(item_id, what, cls(item_id, text, m["source"], m["target"], m["via"]))

    def parse(self) -> ControlStructureModel:
        if self.expect_keyword("system"):
            name_tok = self.expect(STRING, "the system name string")
            if name_tok is not None:
                self.name = name_tok.text
            self.body()
        return ControlStructureModel(name=self.name, lifecycle=self.lifecycle, **self.collections)

    def stray(self, tok: Token) -> None:
        if tok.kind != IDENT:
            self.unexpected("a declaration", tok)
        else:
            self.error("UnknownKeyword", f"unknown declaration keyword {tok.text!r}", tok)

    def lifecycle_item(self, _word: str) -> None:
        self.expect(COLON, "':'")
        phase = self.enum_token(LifecyclePhase, "lifecycle phase")
        if phase is not None:
            self.lifecycle = phase

    def component_item(self, word: str) -> None:
        id_tok = self.expect(IDENT, "a component id")
        if id_tok is None:
            self.sync_to()
            return
        nature = AgentNature.AUTOMATED
        notes = ""
        if self.at(LBRACE):
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
        component = Component(id_tok.text, id_tok.text, _COMPONENT_KEYWORDS[word], nature, notes)
        self.claim_id(id_tok, "component", component)

    def declaration(self, what: str, text_what: str, keyword: str | None = None) -> tuple[Token, Token] | None:
        """The id and text tokens after an item keyword, and its next ``keyword``
        if one is given; None, after a sync to the next item, if they are not there."""
        id_tok = self.expect(IDENT, f"a {what} id")
        text_tok = self.expect(STRING, text_what)
        if id_tok is None or text_tok is None or (keyword is not None and not self.expect_keyword(keyword)):
            self.sync_to()
            return None
        return id_tok, text_tok

    def loss_item(self, _word: str) -> None:
        if head := self.declaration("loss", "the loss description"):
            self.claim_id(head[0], "loss", Loss(head[0].text, head[1].text))

    def hazard_item(self, _word: str) -> None:
        if head := self.declaration("hazard", "the hazard description", "leads_to"):
            self.claim_id(head[0], "hazard", Hazard(head[0].text, head[1].text, frozenset(self.ident_list())))

    def constraint_item(self, _word: str) -> None:
        if head := self.declaration("constraint", "the constraint text", "mitigates"):
            mitigates, enforced_by = frozenset(self.ident_list()), frozenset(self.ids_after("enforced_by"))
            self.claim_id(head[0], "constraint", SafetyConstraint(head[0].text, head[1].text, mitigates, enforced_by))

    def channel_item(self, word: str) -> None:
        what, cls = _CHANNELS[word]
        if not (head := self.declaration(what, f"the {what} label", "from")):
            return
        source_tok = self.expect(IDENT, "the source component id")
        target_tok = source_tok and self.expect_keyword("to") and self.expect(IDENT, "the target component id")
        if not target_tok:
            self.sync_to()
            return
        via: str | None = None
        if self.at(IDENT, "via"):
            self.advance()
            via_tok = self.expect(IDENT, "the via component id")
            if via_tok is not None:
                via = via_tok.text
        self.claim_id(head[0], what, cls(head[0].text, head[1].text, source_tok.text, target_tok.text, via))

    def annotate_item(self, _word: str) -> None:
        ca_tok = self.expect(IDENT, "a control action id")
        uca_type = ca_tok and self.enum_token(UcaType, "UCA type")
        context_tok = uca_type and self.expect_keyword("context") and self.expect(STRING, "the context string")
        if not context_tok:
            self.sync_to()
            return
        self.annotate(ca_tok, uca_type, context_tok.text, self.ids_after("hazards"))

    ITEMS = {
        "lifecycle": lifecycle_item,
        **dict.fromkeys(_COMPONENT_KEYWORDS, component_item),
        "loss": loss_item,
        "hazard": hazard_item,
        "constraint": constraint_item,
        **dict.fromkeys(("control_action", "feedback"), channel_item),
        "annotate": annotate_item,
    }


def parse_model(source_text: str, file: str = "<stpa>") -> tuple[ControlStructureModel, list[Diagnostic]]:
    """Parse `.stpa` source into a model plus diagnostics.

    Syntax problems never raise; they are reported as Error diagnostics and
    the returned model covers whatever parsed cleanly. Reference resolution
    is validate_model's job, so a hazard may mention a loss that was never
    declared without upsetting the parser.
    """
    parser = _ModelParser([], [])
    return parser.run(source_text, file), parser.diags


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
    kind = "scenarios"
    uca_limit = _UCA_ID_LIMIT
    # each grammar field and the LossScenario argument it fills
    _FIELDS = {
        "origin": "origin_component",
        "uca": "uca",
        "type": "scenario_type",
        "sub_types": "sub_types",
        "factors": "causal_factors",
        "characteristics": "ai_characteristics",
        "catalog": "catalog_refs",
        "description": "description",
    }

    def __init__(self, tokens: list[Token], diags: list[Diagnostic], model: ControlStructureModel):
        super().__init__(tokens, diags)
        self.model = model
        self.scenarios: list[LossScenario] = []
        self.seen_ids: set[str] = set()

    def fast_item(self, m: re.Match[str], line: int, line_start: int) -> None:
        fields = {
            "origin_component": m["origin"],
            "uca": m["uca"],
            "scenario_type": _words(ScenarioType, m["type"])[0],
            "sub_types": _words(ScenarioSubType, m["sub_types"]),
            "causal_factors": _words(CausalFactorType, m["factors"]),
            "ai_characteristics": _words(AiCharacteristic, m["characteristics"]),
            "catalog_refs": _split(m["catalog"]),
            "description": _unescape(m["description"]),
        }
        self.add_scenario(_group_token(m, "id", self.file, line, line_start), fields)

    def parse(self) -> list[LossScenario]:
        if self.expect_keyword("scenarios"):
            if self.at(STRING):
                self.advance()
            self.body()
        return self.scenarios

    def stray(self, tok: Token) -> None:
        self.error("UnknownKeyword", f"expected 'scenario', found {tok.text!r}", tok)

    def scenario_item(self, _word: str) -> None:
        id_tok = self.expect(IDENT, "a scenario id")
        if id_tok is None or self.expect(LBRACE, "'{'") is None:
            self.sync_to()
            return
        fields: dict[str, object] = {}
        broken = False
        while self.peek().kind not in (RBRACE, EOF) and not self.at(IDENT, "scenario"):  # a block without '}' ends there
            field_tok = self.expect(IDENT, "a scenario field name")
            if field_tok is None or self.expect(COLON, "':'") is None:
                broken = True
                break
            name = field_tok.text
            if name not in self._FIELDS:
                self.error("UnknownKeyword", f"unknown scenario field {name!r}", field_tok)
                value = None
            elif name in ("origin", "uca"):
                value = (tok := self.expect(IDENT, "an identifier")) and tok.text
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
                value = (tok := self.expect(STRING, "the description string")) and tok.text
            if value is None:
                broken = True
                break
            fields[self._FIELDS[name]] = value
        if broken:  # the field's error is reported: skip the rest of the block, not the file's '}'
            self.skip_block()
        self.expect(RBRACE, "'}'")
        if not broken:
            self.add_scenario(id_tok, fields)

    def skip_block(self) -> None:
        """Skip to the block's '}', to a ``scenario <id> {`` that starts the next
        block, or to the end of the stretch; a bare ``scenario`` may be prose."""
        tokens = self.tokens
        while self.pos < len(tokens):
            tok = tokens[self.pos]
            if tok.kind in (RBRACE, EOF):
                return
            ahead = [t.kind for t in tokens[self.pos:self.pos + 3]]
            if ahead == [IDENT, IDENT, LBRACE] and tok.text == "scenario":
                return
            self.pos += 1

    def add_scenario(self, id_tok: Token, fields: dict[str, object]) -> None:
        if id_tok.text in self.seen_ids:
            self.error("DuplicateId", f"scenario id {id_tok.text} already declared", id_tok)
            return
        self.seen_ids.add(id_tok.text)
        required = ("origin", "type", "sub_types", "factors", "description")
        missing = [name for name in required if self._FIELDS[name] not in fields]
        if missing:
            message = f"scenario {id_tok.text} is missing required field(s): {', '.join(missing)}"
            self.error("MissingField", message, id_tok)
            return
        component = self.model.components.get(fields["origin_component"])
        if component is None:
            message = f"scenario {id_tok.text} origin {fields['origin_component']} is not a model component"
            self.error("DanglingComponentRef", message, id_tok)
            return
        try:
            scenario = LossScenario(id=id_tok.text, origin_kind=component.kind, **fields)
        except ValueError as exc:
            self.error("IllegalScenario", str(exc), id_tok)
            return
        self.scenarios.append(scenario)

    ITEMS = {"scenario": scenario_item}


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
    return parser.run(source_text, file), parser.diags
