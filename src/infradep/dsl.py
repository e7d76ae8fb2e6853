"""Text format for models: parser with spans/recovery, canonical serializer.

The grammar (full EBNF in docs/dsl.md):

    model      = "model" IDENT "{" item* "}"
    item       = param | var | transition | label
    param      = "param" IDENT "=" NUMBER ";"
    var        = "var" IDENT ":" ("{" IDENT {"," IDENT} "}" | "[" INT ".." INT "]")
                 "init" literal ";"
    transition = ("timed" IDENT "rate" rexpr | "immediate" IDENT "prio" INT "weight" NUMBER)
                 "when" guard "->" "{" assign* "}" [tagclause] ";"
    rexpr      = NUMBER | IDENT | NUMBER "*" IDENT | IDENT "*" NUMBER
    guard      = or-expression over comparisons IDENT op literal; "&&", "||", "!", parentheses
    assign     = IDENT ":=" (literal | IDENT "+" "1" | IDENT "-" "1") ";"
    label      = "label" IDENT ":=" guard ";"
    tagclause  = "tags" "(" IDENT {"," IDENT} ")"
    literal    = IDENT | ["-"] INT

Comments run from ``#`` to end of line; input is UTF-8.  One compiled
pattern, ``_TOKEN``, holds the lexical rules of docs/dsl.md: each of its
named alternatives is a token kind, and any other character is an
``UNEXPECTED_TOKEN`` error.  Parsing never raises: errors are returned,
several per run, and the parser resynchronizes at ``;`` boundaries.

The parser builds the model objects straight from the tokens: an IDENT
literal becomes a ``str`` and an INT literal an ``int``, whatever the
variable's type.  It checks only what a ``Model`` cannot represent (a
parameter declared twice, a shift that reads another variable); every name,
type and domain check is ``validate_model``'s, whose findings come back as
``ParseError``s placed at the offending word (the first occurrence of that
word in the item) or else at the item's name.  A file thus gets the same
codes as the same model built in Python.

``serialize_model`` emits one canonical form (fixed item order within
sections, shortest round-trip decimals), and ``parse_model(serialize_model(m))``
reproduces ``m`` structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import NamedTuple

from .model import (
    COMPARISON_OPS,
    And,
    Comparison,
    EnumDomain,
    Guard,
    Immediate,
    IntDomain,
    Label,
    Model,
    Not,
    Or,
    RateExpr,
    SetValue,
    Shift,
    Timed,
    Transition,
    Value,
    VariableDecl,
)
from .validate import ValidationReport, check_guard, validate_model

MAX_GUARD_DEPTH = 200

_SYMBOLS = (
    "==", "!=", "<=", ">=", "&&", "||", ":=", "->", "..",
    "{", "}", "[", "]", "(", ")", ",", ";", ":", "<", ">", "!", "=", "*", "+", "-",
)

# One alternative per token kind, tried in order; the group name is the
# kind.  Character classes are spelled out because ``\d`` and ``\w`` also
# match non-ASCII digits and letters.  A "." that starts ".." ends a
# number, and an exponent needs a digit, so "1..2" is INT ".." INT and
# "1e" is INT IDENT.  Any other character is an error of its own.
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|(?P<BLANK>[ \t\r]+)|(?P<COMMENT>#[^\n]*)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<NUMBER>[0-9]+(?:\.(?!\.)[0-9]*(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<SYM>" + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))) + ")"
    r"|(?P<ERROR>.)",
    re.DOTALL,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    offset: int
    length: int


@dataclass(frozen=True)
class ParseError:
    code: str  # parser: UNEXPECTED_TOKEN/BAD_LITERAL/DUPLICATE_NAME/TYPE_MISMATCH; else validation's
    message: str
    span: SourceSpan


class _Token(NamedTuple):
    kind: str  # IDENT | NUMBER | INT | SYM | EOF
    text: str
    span: SourceSpan


def _lex(text: str, errors: list[ParseError]) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start = 1, 0
    # A comment does not advance the column, which shows only in the EOF
    # column after a final comment with no newline.
    comment = 0
    for m in _TOKEN.finditer(text):
        kind, raw, start = m.lastgroup, m.group(), m.start()
        if kind == "NEWLINE":
            line, line_start, comment = line + 1, start + 1, 0
        elif kind == "COMMENT":
            comment = len(raw)
        elif kind != "BLANK":
            span = SourceSpan(line, start - line_start + 1, start, len(raw))
            if kind == "ERROR":
                errors.append(ParseError("UNEXPECTED_TOKEN", f"unexpected character {raw!r}", span))
            else:
                toks.append(_Token(kind, raw, span))
    n = len(text)
    toks.append(_Token("EOF", "", SourceSpan(line, n - line_start + 1 - comment, n, 0)))
    return toks


# ---------------------------------------------------------------------------
# Parser: tokens -> model objects


class _Parser:
    def __init__(self, toks: list[_Token], errors: list[ParseError]):
        self.toks = toks
        self.pos = 0
        self.errors = errors
        # First span of each identifier and literal read in the current item,
        # so validation findings can point at the offending word.
        self.words: dict[str, SourceSpan] = {}

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("SYM", "IDENT")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def error(self, message: str, token: _Token | None = None, code="UNEXPECTED_TOKEN"):
        tok = token or self.peek()
        self.errors.append(ParseError(code, message, tok.span))

    def expect(self, text: str) -> _Token | None:
        if self.at(text):
            return self.advance()
        self.error(f"expected {text!r}, found {self._describe()}")
        return None

    def expect_ident(self) -> _Token | None:
        if self.peek().kind == "IDENT":
            tok = self.advance()
            self.words.setdefault(tok.text, tok.span)
            return tok
        self.error(f"expected IDENT, found {self._describe()}")
        return None

    def _describe(self) -> str:
        t = self.peek()
        return "end of input" if t.kind == "EOF" else repr(t.text)

    def sync_to_semicolon(self):
        """Skip to the next ';' at the current brace depth (recovery)."""
        depth = 0
        while True:
            t = self.peek()
            if t.kind == "EOF":
                return
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                if depth == 0:
                    return  # let the model-level loop see the brace
                depth -= 1
            elif t.text == ";" and depth == 0:
                self.advance()
                return
            self.advance()

    # -- literals ----------------------------------------------------------

    def parse_int(self) -> int | None:
        neg = self.accept("-")
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return -int(tok.text) if neg else int(tok.text)
        if tok.kind == "NUMBER":
            self.advance()
            self.error(f"expected integer, found {tok.text!r}", tok, code="BAD_LITERAL")
            return None
        self.error(f"expected integer, found {self._describe()}")
        return None

    def parse_number(self) -> float | None:
        neg = self.accept("-")
        tok = self.peek()
        if tok.kind in ("INT", "NUMBER"):
            self.advance()
            return -float(tok.text) if neg else float(tok.text)
        self.error(f"expected number, found {self._describe()}")
        return None

    def parse_literal(self) -> Value | None:
        """IDENT | ["-"] INT: an enum value (a str) or an integer."""
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.expect_ident().text
        if tok.kind == "NUMBER":
            self.advance()
            self.error(f"expected an integer or enum-value literal, found {tok.text!r}", tok,
                       code="BAD_LITERAL")
            return None
        neg = self.accept("-")
        digits = self.peek()
        if digits.kind != "INT":
            self.error(f"expected literal, found {self._describe()}",
                       code="BAD_LITERAL" if neg else "UNEXPECTED_TOKEN")
            return None
        self.advance()
        value = -int(digits.text) if neg else int(digits.text)
        end = digits.span.offset + digits.span.length
        self.words.setdefault(str(value), replace(tok.span, length=end - tok.span.offset))
        return value

    def parse_names(self) -> list[str]:
        """IDENT {"," IDENT}; a missing name is reported and left out."""
        names = []
        while True:
            tok = self.expect_ident()
            if tok is not None:
                names.append(tok.text)
            if not self.accept(","):
                return names

    # -- guards -------------------------------------------------------------

    def parse_guard(self, depth: int = 0):
        terms = [self.parse_and(depth)]
        while self.accept("||"):
            terms.append(self.parse_and(depth))
        if any(t is None for t in terms):
            return None
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_and(self, depth: int):
        terms = [self.parse_unary(depth)]
        while self.accept("&&"):
            terms.append(self.parse_unary(depth))
        if any(t is None for t in terms):
            return None
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def parse_unary(self, depth: int):
        if depth > MAX_GUARD_DEPTH:
            self.error("guard expression nested too deeply")
            self.advance()
            return None
        if self.accept("!"):
            inner = self.parse_unary(depth + 1)
            return None if inner is None else Not(inner)
        if self.accept("("):
            inner = self.parse_guard(depth + 1)
            self.expect(")")
            return inner
        var = self.expect_ident()
        if var is None:
            self.advance()
            return None
        op = self.peek().text
        if op not in COMPARISON_OPS:
            self.error(f"expected comparison operator, found {self._describe()}")
            return None
        self.advance()
        value = self.parse_literal()
        return None if value is None else Comparison(var.text, op, value)

    # -- items (the text after ``keyword name``) ----------------------------

    def parse_param(self) -> float | None:
        value = self.parse_number() if self.expect("=") is not None else None
        self.expect(";")
        return value

    def parse_var(self, name: str) -> VariableDecl | None:
        self.expect(":")
        if self.accept("{"):
            domain = EnumDomain(tuple(self.parse_names()))
            self.expect("}")
        elif self.accept("["):
            lo = self.parse_int()
            self.expect("..")
            hi = self.parse_int()
            self.expect("]")
            domain = None if lo is None or hi is None else IntDomain(lo, hi)
        else:
            self.error(f"expected '{{' or '[', found {self._describe()}")
            return None
        self.expect("init")
        init = self.parse_literal()
        if init is None:
            return None
        self.expect(";")
        return None if domain is None else VariableDecl(name, domain, init)

    def parse_rate(self) -> RateExpr | None:
        """rexpr = NUMBER | IDENT | NUMBER '*' IDENT | IDENT '*' NUMBER."""
        if self.peek().kind == "IDENT":
            param = self.expect_ident().text
            coeff = self.parse_number() if self.accept("*") else 1.0
            return None if coeff is None else RateExpr(coeff, param)
        coeff = self.parse_number()
        if coeff is None:
            return None
        if not self.accept("*"):
            return RateExpr(coeff, None)
        param = self.expect_ident()
        return None if param is None else RateExpr(coeff, param.text)

    def parse_assign(self):
        var = self.expect_ident()
        self.expect(":=")
        if var is None:
            return None
        value = self.parse_literal()
        if isinstance(value, str) and (self.at("+") or self.at("-")):
            source = self.toks[self.pos - 1]
            sign = 1 if self.advance().text == "+" else -1
            one = self.peek()
            if one.kind != "INT" or one.text != "1":
                self.error(f"only +/- 1 shifts are allowed, found {self._describe()}",
                           code="BAD_LITERAL")
                self.expect(";")
                return None
            self.advance()
            self.expect(";")
            if value != var.text:
                # A Model has no way to say ``n := k + 1``: reported here.
                self.error(f"shift must read the assigned variable itself "
                           f"({var.text!r}), found {value!r}", source, code="TYPE_MISMATCH")
                return None
            return Shift(var.text, sign)
        self.expect(";")
        return None if value is None else SetValue(var.text, value)

    def parse_transition(self, name: str, timed: bool) -> Transition | None:
        kind = None
        if timed:
            rate = self.parse_rate() if self.expect("rate") is not None else None
            kind = None if rate is None else Timed(rate)
        else:
            prio = self.parse_int() if self.expect("prio") is not None else None
            weight = self.parse_number() if self.expect("weight") is not None else None
            if prio is not None and weight is not None:
                kind = Immediate(prio, weight)
        self.expect("when")
        guard = self.parse_guard()
        self.expect("->")
        self.expect("{")
        update = []
        while not self.at("}") and self.peek().kind != "EOF":
            a = self.parse_assign()
            if a is not None:
                update.append(a)
            elif not (self.at("}") or self.peek().kind == "IDENT"):
                break  # give up on this update block
        self.expect("}")
        tags: list[str] = []
        if self.accept("tags"):
            self.expect("(")
            tags = self.parse_names()
            self.expect(")")
        self.expect(";")
        if kind is None or guard is None:
            return None
        return Transition(name, kind, guard, tuple(update), frozenset(tags))

    def parse_label(self, name: str) -> Label | None:
        self.expect(":=")
        guard = self.parse_guard()
        self.expect(";")
        return None if guard is None else Label(name, guard)


# Item keyword -> the ``where`` prefix validation uses for that item.
_ITEM_KINDS = {
    "param": "param", "var": "var", "timed": "transition",
    "immediate": "transition", "label": "label",
}


def parse_model(text) -> Model | list[ParseError]:
    """Parse DSL text into a validated Model, or return all errors found."""
    try:
        return _parse_model_inner(text)
    except RecursionError:  # pragma: no cover - guarded by MAX_GUARD_DEPTH
        return [ParseError("UNEXPECTED_TOKEN", "input too deeply nested",
                           SourceSpan(1, 1, 0, 0))]


def _parse_model_inner(text) -> Model | list[ParseError]:
    if isinstance(text, (bytes, bytearray)):
        text = bytes(text).decode("utf-8", errors="replace")
    errors: list[ParseError] = []
    toks = _lex(text, errors)
    p = _Parser(toks, errors)

    if p.expect("model") is None:
        return errors or [ParseError("UNEXPECTED_TOKEN", "expected 'model'",
                                     toks[0].span)]
    name_tok = p.expect_ident()
    p.expect("{")

    parameters: dict[str, float] = {}
    items: dict[str, list] = {"var": [], "transition": [], "label": []}
    # Item key ("var x", "model m") -> span of its name; (item key, word)
    # -> span of the word's first occurrence in that item.
    spans: dict = {} if name_tok is None else {f"model {name_tok.text}": name_tok.span}

    while True:
        tok = p.peek()
        if tok.kind == "EOF":
            p.error("missing closing '}'")
            break
        if tok.text == "}":
            p.advance()
            break
        kind = _ITEM_KINDS.get(tok.text) if tok.kind == "IDENT" else None
        if kind is None:
            p.error(
                f"expected 'param', 'var', 'timed', 'immediate' or 'label', "
                f"found {p._describe()}"
            )
            p.advance()
            p.sync_to_semicolon()
            continue
        before = len(errors)
        p.advance()
        name = p.expect_ident()
        p.words = {}
        name_text = None if name is None else name.text
        if kind == "param":
            item = p.parse_param()
        elif kind == "var":
            item = p.parse_var(name_text)
        elif kind == "label":
            item = p.parse_label(name_text)
        else:
            item = p.parse_transition(name_text, tok.text == "timed")
        if name is not None and item is not None:
            where = f"{kind} {name_text}"
            spans[where] = name.span
            spans.update(((where, w), s) for w, s in p.words.items())
            if kind != "param":
                items[kind].append(item)
            elif name_text in parameters:
                # Parameters are a dict: a Model cannot hold the duplicate.
                p.error(f"parameter {name_text!r} declared twice", name, code="DUPLICATE_NAME")
            else:
                parameters[name_text] = item
        if len(errors) > before:
            # Resynchronize unless the failed item already stopped at a
            # plausible item boundary.
            nxt = p.peek()
            at_boundary = nxt.kind == "EOF" or nxt.text in (*_ITEM_KINDS, "}")
            if not at_boundary:
                p.sync_to_semicolon()

    if p.peek().kind != "EOF":
        p.error(f"unexpected input after closing '}}': {p._describe()}")

    if errors:
        return errors

    model = Model(
        name=name_tok.text,
        variables=tuple(items["var"]),
        parameters=parameters,
        transitions=tuple(items["transition"]),
        labels=tuple(items["label"]),
    )
    return _located(validate_model(model, spans=spans)) or model


def parse_guard_text(text: str, model: Model) -> Guard | list[ParseError]:
    """Parse a bare guard expression and check it against ``model``."""
    errors: list[ParseError] = []
    p = _Parser(_lex(text, errors), errors)
    guard = p.parse_guard()
    if p.peek().kind != "EOF":
        p.error(f"unexpected input after guard: {p._describe()}")
    if errors:
        return errors
    report = ValidationReport(spans={("guard", w): s for w, s in p.words.items()})
    check_guard(model, guard, "guard", report)
    return _located(report) or guard


def _located(report: ValidationReport) -> list[ParseError]:
    """Validation errors as parse errors; an issue with no span gets 1:1."""
    top = SourceSpan(1, 1, 0, 0)
    return [ParseError(i.code, i.message, i.span or top) for i in report.errors]


# ---------------------------------------------------------------------------
# Serialization


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _ser_guard(g: Guard) -> str:
    if isinstance(g, Comparison):
        return f"{g.var} {g.op} {g.value}"
    if isinstance(g, Not):
        return f"!({_ser_guard(g.term)})"
    if isinstance(g, (And, Or)):
        # Parenthesize a nested term of the same kind, so that the text
        # parses back to the same tree, and an Or inside an And ("&&" binds
        # tighter than "||").
        sep, nested = (" && ", (And, Or)) if isinstance(g, And) else (" || ", Or)
        return sep.join(f"({_ser_guard(t)})" if isinstance(t, nested) else _ser_guard(t)
                        for t in g.terms)
    raise TypeError(f"not a guard node: {g!r}")


def _ser_rate(r: RateExpr) -> str:
    if r.param is None:
        return _fmt_float(r.coeff)
    if r.coeff == 1.0:
        return r.param
    return f"{_fmt_float(r.coeff)} * {r.param}"


def _ser_assign(a) -> str:
    if isinstance(a, Shift):
        return f"{a.var} := {a.var} {'+' if a.delta > 0 else '-'} 1;"
    return f"{a.var} := {a.value};"


def serialize_model(model: Model) -> str:
    """Canonical text for ``model``: stable ordering and number formatting.

    ``parse_model(serialize_model(m))`` is structurally equal to ``m`` and
    serializing again reproduces the same bytes.
    """
    out = [f"model {model.name} {{"]
    for name, value in model.parameters.items():
        out.append(f"  param {name} = {_fmt_float(value)};")
    for v in model.variables:
        if isinstance(v.domain, EnumDomain):
            dom = "{" + ", ".join(v.domain.values) + "}"
        else:
            dom = f"[{v.domain.lo} .. {v.domain.hi}]"
        out.append(f"  var {v.name} : {dom} init {v.init};")
    for t in model.transitions:
        if t.is_timed:
            head = f"timed {t.name} rate {_ser_rate(t.kind.rate)}"
        else:
            head = f"immediate {t.name} prio {t.kind.priority} weight {_fmt_float(t.kind.weight)}"
        body = " ".join(_ser_assign(a) for a in t.update)
        body = f"{{ {body} }}" if t.update else "{ }"
        tagclause = f" tags ({', '.join(sorted(t.tags))})" if t.tags else ""
        out.append(f"  {head} when {_ser_guard(t.guard)} -> {body}{tagclause};")
    for l in model.labels:
        out.append(f"  label {l.name} := {_ser_guard(l.predicate)};")
    out.append("}")
    return "\n".join(out) + "\n"
