"""Text format for models: parser with spans/recovery, canonical serializer.

The grammar (full EBNF in docs/dsl.md):

    model      = "model" IDENT "{" item* "}"
    item       = param | var | transition | label
    param      = "param" IDENT "=" NUMBER ";"
    var        = "var" IDENT ":" ("{" IDENT {"," IDENT} "}" | "[" INT ".." INT "]")
                 "init" (IDENT | INT) ";"
    transition = ("timed" IDENT "rate" rexpr | "immediate" IDENT "prio" INT "weight" NUMBER)
                 "when" guard "->" "{" assign* "}" [tagclause] ";"
    rexpr      = NUMBER | IDENT | NUMBER "*" IDENT | IDENT "*" NUMBER
    guard      = or-expression over comparisons; "&&", "||", "!", parentheses
    assign     = IDENT ":=" (IDENT | INT | IDENT "+" "1" | IDENT "-" "1") ";"
    label      = "label" IDENT ":=" guard ";"
    tagclause  = "tags" "(" IDENT {"," IDENT} ")"

Comments run from ``#`` to end of line; input is UTF-8.  Parsing never
raises: errors are returned, several per run, and the parser resynchronizes
at ``;`` boundaries.  ``serialize_model`` emits one canonical form (fixed
item order within sections, shortest round-trip decimals), and
``parse_model(serialize_model(m))`` reproduces ``m`` structurally.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .model import (
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
    VariableDecl,
)
from .validate import validate_model

MAX_GUARD_DEPTH = 200

KEYWORDS = {
    "model", "param", "var", "init", "timed", "immediate",
    "rate", "prio", "weight", "when", "tags", "label",
}

_SYMBOLS = (
    "==", "!=", "<=", ">=", "&&", "||", ":=", "->", "..",
    "{", "}", "[", "]", "(", ")", ",", ";", ":", "<", ">", "!", "=", "*", "+", "-",
)

# ASCII only: ``str.isdigit`` would take "²" for a digit that ``int`` rejects.
_DIGITS = frozenset(string.digits)
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | _DIGITS


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    offset: int
    length: int


@dataclass(frozen=True)
class ParseError:
    code: str  # parser: UNEXPECTED_TOKEN/UNDECLARED_IDENT/TYPE_MISMATCH/DUPLICATE_NAME/BAD_LITERAL
    message: str
    span: SourceSpan
    hint: str | None = None


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT | NUMBER | INT | SYM | EOF
    text: str
    span: SourceSpan


def _lex(text: str, errors: list[ParseError]) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def span(start_off, start_line, start_col, length):
        return SourceSpan(start_line, start_col, start_off, length)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start, sl, sc = i, line, col
        if c in _IDENT_START:
            i += 1
            while i < n and text[i] in _IDENT_CHARS:
                i += 1
            toks.append(_Token("IDENT", text[start:i], span(start, sl, sc, i - start)))
            col += i - start
            continue
        if c in _DIGITS:
            i += 1
            while i < n and text[i] in _DIGITS:
                i += 1
            is_int = True
            if i < n and text[i] == "." and not text[i : i + 2] == "..":
                is_int = False
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j] in _DIGITS:
                    is_int = False
                    i = j + 1
                    while i < n and text[i] in _DIGITS:
                        i += 1
            raw = text[start:i]
            toks.append(_Token("INT" if is_int else "NUMBER", raw, span(start, sl, sc, i - start)))
            col += i - start
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Token("SYM", sym, span(start, sl, sc, len(sym))))
                i += len(sym)
                col += len(sym)
                break
        else:
            errors.append(
                ParseError(
                    "UNEXPECTED_TOKEN",
                    f"unexpected character {c!r}",
                    span(start, sl, sc, 1),
                )
            )
            i += 1
            col += 1
    toks.append(_Token("EOF", "", span(n, line, col, 0)))
    return toks


# ---------------------------------------------------------------------------
# Raw (unresolved) items produced by the syntax phase


@dataclass
class _RawVar:
    name: _Token
    enum_values: list[_Token] | None
    lo: int | None
    hi: int | None
    init: _Token


@dataclass
class _RawCmp:
    var: _Token
    op: str
    value: _Token


@dataclass
class _RawAssign:
    var: _Token
    rhs: _Token | None  # literal (IDENT/INT), or None for +/- 1 forms
    shift: int  # 0 for literal, else +1/-1
    shift_ident: _Token | None = None


@dataclass
class _RawTransition:
    name: _Token
    timed: bool
    rate_coeff: float
    rate_param: _Token | None
    prio: int
    weight: float
    guard: object
    assigns: list[_RawAssign]
    tags: list[_Token]


@dataclass
class _RawLabel:
    name: _Token
    guard: object


class _Parser:
    def __init__(self, toks: list[_Token], errors: list[ParseError]):
        self.toks = toks
        self.pos = 0
        self.errors = errors

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

    def error(self, message: str, token: _Token | None = None, code="UNEXPECTED_TOKEN", hint=None):
        tok = token or self.peek()
        self.errors.append(ParseError(code, message, tok.span, hint))

    def expect(self, text: str) -> _Token | None:
        if self.at(text):
            return self.advance()
        self.error(f"expected {text!r}, found {self._describe()}")
        return None

    def expect_kind(self, kind: str) -> _Token | None:
        if self.peek().kind == kind:
            return self.advance()
        self.error(f"expected {kind}, found {self._describe()}")
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
            try:
                v = float(tok.text)
            except ValueError:
                self.error(f"bad numeric literal {tok.text!r}", tok, code="BAD_LITERAL")
                return None
            return -v if neg else v
        self.error(f"expected number, found {self._describe()}")
        return None

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
        var = self.expect_kind("IDENT")
        if var is None:
            self.advance()
            return None
        op_tok = self.peek()
        if op_tok.text in ("==", "!=", "<", "<=", ">", ">="):
            self.advance()
        else:
            self.error(f"expected comparison operator, found {self._describe()}")
            return None
        value = self.peek()
        if value.kind == "IDENT":
            self.advance()
        elif value.kind == "INT" or value.text == "-":
            neg = self.accept("-")
            value = self.peek()
            if value.kind != "INT":
                self.error(f"expected literal, found {self._describe()}", code="BAD_LITERAL")
                return None
            self.advance()
            if neg:
                value = _Token("INT", "-" + value.text, value.span)
        elif value.kind == "NUMBER":
            self.advance()
            self.error(
                f"comparisons use integer or enum-value literals, found {value.text!r}",
                value,
                code="BAD_LITERAL",
            )
            return None
        else:
            self.error(f"expected literal, found {self._describe()}")
            return None
        return _RawCmp(var, op_tok.text, value)

    # -- items ---------------------------------------------------------------

    def parse_param(self):
        name = self.expect_kind("IDENT")
        ok = self.expect("=") is not None
        value = self.parse_number() if ok else None
        self.expect(";")
        if name is None or value is None:
            return None
        return (name, value)

    def parse_var(self):
        name = self.expect_kind("IDENT")
        self.expect(":")
        enum_values = None
        lo = hi = None
        if self.accept("{"):
            enum_values = []
            first = self.expect_kind("IDENT")
            if first is not None:
                enum_values.append(first)
            while self.accept(","):
                v = self.expect_kind("IDENT")
                if v is not None:
                    enum_values.append(v)
            self.expect("}")
        elif self.accept("["):
            lo = self.parse_int()
            self.expect("..")
            hi = self.parse_int()
            self.expect("]")
        else:
            self.error(f"expected '{{' or '[', found {self._describe()}")
            return None
        self.expect("init")
        init = self.peek()
        if init.kind == "IDENT":
            self.advance()
        elif init.kind == "INT" or init.text == "-":
            neg = self.accept("-")
            init = self.peek()
            if init.kind != "INT":
                self.error(f"expected init literal, found {self._describe()}", code="BAD_LITERAL")
                return None
            self.advance()
            if neg:
                init = _Token("INT", "-" + init.text, init.span)
        else:
            self.error(f"expected init value, found {self._describe()}")
            return None
        self.expect(";")
        if name is None or (enum_values is None and (lo is None or hi is None)):
            return None
        return _RawVar(name, enum_values, lo, hi, init)

    def parse_rate(self):
        """rexpr = NUMBER | IDENT | NUMBER '*' IDENT | IDENT '*' NUMBER."""
        tok = self.peek()
        if tok.kind == "IDENT":
            self.advance()
            if self.accept("*"):
                num = self.parse_number()
                if num is None:
                    return None
                return (num, tok)
            return (1.0, tok)
        num = self.parse_number()
        if num is None:
            return None
        if self.accept("*"):
            ident = self.expect_kind("IDENT")
            if ident is None:
                return None
            return (num, ident)
        return (num, None)

    def parse_assign(self):
        var = self.expect_kind("IDENT")
        self.expect(":=")
        if var is None:
            return None
        tok = self.peek()
        if tok.kind == "IDENT":
            self.advance()
            if self.at("+") or self.at("-"):
                sign = 1 if self.peek().text == "+" else -1
                self.advance()
                one = self.peek()
                if one.kind == "INT" and one.text == "1":
                    self.advance()
                    self.expect(";")
                    return _RawAssign(var, None, sign, shift_ident=tok)
                self.error(f"only +/- 1 shifts are allowed, found {self._describe()}",
                           code="BAD_LITERAL")
                self.expect(";")
                return None
            self.expect(";")
            return _RawAssign(var, tok, 0)
        if tok.kind == "INT" or tok.text == "-":
            neg = self.accept("-")
            tok = self.peek()
            if tok.kind != "INT":
                self.error(f"expected literal, found {self._describe()}", code="BAD_LITERAL")
                self.expect(";")
                return None
            self.advance()
            if neg:
                tok = _Token("INT", "-" + tok.text, tok.span)
            self.expect(";")
            return _RawAssign(var, tok, 0)
        self.error(f"expected assignment value, found {self._describe()}")
        self.expect(";")
        return None

    def parse_transition(self, timed: bool):
        name = self.expect_kind("IDENT")
        coeff, param = 1.0, None
        prio, weight = 0, 1.0
        ok = name is not None
        if timed:
            if self.expect("rate") is not None:
                rate = self.parse_rate()
                if rate is None:
                    ok = False
                else:
                    coeff, param = rate
            else:
                ok = False
        else:
            if self.expect("prio") is not None:
                p = self.parse_int()
                ok = ok and p is not None
                prio = p if p is not None else 0
            else:
                ok = False
            if self.expect("weight") is not None:
                w = self.parse_number()
                ok = ok and w is not None
                weight = w if w is not None else 1.0
            else:
                ok = False
        self.expect("when")
        guard = self.parse_guard()
        ok = ok and guard is not None
        self.expect("->")
        self.expect("{")
        assigns = []
        while not self.at("}") and self.peek().kind != "EOF":
            a = self.parse_assign()
            if a is not None:
                assigns.append(a)
            elif not (self.at("}") or self.peek().kind == "IDENT"):
                break  # give up on this update block
        self.expect("}")
        tags: list[_Token] = []
        if self.accept("tags"):
            self.expect("(")
            t = self.expect_kind("IDENT")
            if t is not None:
                tags.append(t)
            while self.accept(","):
                t = self.expect_kind("IDENT")
                if t is not None:
                    tags.append(t)
            self.expect(")")
        self.expect(";")
        if not ok:
            return None
        return _RawTransition(name, timed, coeff, param, prio, weight, guard, assigns, tags)

    def parse_label(self):
        name = self.expect_kind("IDENT")
        self.expect(":=")
        guard = self.parse_guard()
        self.expect(";")
        if name is None or guard is None:
            return None
        return _RawLabel(name, guard)


# ---------------------------------------------------------------------------
# Resolution: raw items -> typed model


class _Resolver:
    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        self.variables: list[VariableDecl] = []
        self.var_by_name: dict[str, VariableDecl] = {}
        self.parameters: dict[str, float] = {}

    def error(self, code, message, token: _Token):
        self.errors.append(ParseError(code, message, token.span))

    def add_param(self, name: _Token, value: float):
        if name.text in self.parameters:
            self.error("DUPLICATE_NAME", f"parameter {name.text!r} declared twice", name)
            return
        self.parameters[name.text] = value

    def add_var(self, raw: _RawVar):
        if raw.name.text in self.var_by_name:
            self.error("DUPLICATE_NAME", f"variable {raw.name.text!r} declared twice", raw.name)
            return
        if raw.enum_values is not None:
            values = tuple(t.text for t in raw.enum_values)
            seen = set()
            for t in raw.enum_values:
                if t.text in seen:
                    self.error("DUPLICATE_NAME", f"enum value {t.text!r} repeated", t)
                seen.add(t.text)
            domain = EnumDomain(values)
            if raw.init.kind != "IDENT":
                self.error("TYPE_MISMATCH",
                           f"enum variable {raw.name.text!r} needs an enum-value init", raw.init)
                return
            init = raw.init.text
            if init not in domain:
                self.error("BAD_LITERAL",
                           f"init {init!r} is not a value of this enum", raw.init)
                return
        else:
            domain = IntDomain(raw.lo, raw.hi)
            if raw.init.kind != "INT":
                self.error("TYPE_MISMATCH",
                           f"counter {raw.name.text!r} needs an integer init", raw.init)
                return
            init = int(raw.init.text)
            if init not in domain:
                self.error("BAD_LITERAL",
                           f"init {init} outside [{raw.lo}, {raw.hi}]", raw.init)
                return
        decl = VariableDecl(raw.name.text, domain, init)
        self.variables.append(decl)
        self.var_by_name[decl.name] = decl

    def resolve_guard(self, raw) -> Guard | None:
        if isinstance(raw, _RawCmp):
            decl = self.var_by_name.get(raw.var.text)
            if decl is None:
                self.error("UNDECLARED_IDENT",
                           f"undeclared variable {raw.var.text!r}", raw.var)
                return None
            if isinstance(decl.domain, EnumDomain):
                if raw.value.kind != "IDENT":
                    self.error("TYPE_MISMATCH",
                               f"enum variable {raw.var.text!r} compared to a number", raw.value)
                    return None
                if raw.op not in ("==", "!="):
                    self.error("TYPE_MISMATCH",
                               f"enum variable {raw.var.text!r} compared with {raw.op!r}", raw.var)
                    return None
                if raw.value.text not in decl.domain:
                    self.error("TYPE_MISMATCH",
                               f"{raw.value.text!r} is not a value of enum {raw.var.text!r}",
                               raw.value)
                    return None
                return Comparison(decl.name, raw.op, raw.value.text)
            if raw.value.kind != "INT":
                self.error("TYPE_MISMATCH",
                           f"counter {raw.var.text!r} compared to {raw.value.text!r}", raw.value)
                return None
            return Comparison(decl.name, raw.op, int(raw.value.text))
        if isinstance(raw, And):
            terms = tuple(self.resolve_guard(t) for t in raw.terms)
            return None if any(t is None for t in terms) else And(terms)
        if isinstance(raw, Or):
            terms = tuple(self.resolve_guard(t) for t in raw.terms)
            return None if any(t is None for t in terms) else Or(terms)
        if isinstance(raw, Not):
            inner = self.resolve_guard(raw.term)
            return None if inner is None else Not(inner)
        return None

    def resolve_assign(self, raw: _RawAssign):
        decl = self.var_by_name.get(raw.var.text)
        if decl is None:
            self.error("UNDECLARED_IDENT", f"undeclared variable {raw.var.text!r}", raw.var)
            return None
        if raw.shift != 0:
            if raw.shift_ident.text != decl.name:
                self.error("TYPE_MISMATCH",
                           f"shift must read the assigned variable itself "
                           f"({decl.name!r}), found {raw.shift_ident.text!r}",
                           raw.shift_ident)
                return None
            if not isinstance(decl.domain, IntDomain):
                self.error("TYPE_MISMATCH",
                           f"enum variable {decl.name!r} cannot be shifted", raw.var)
                return None
            return Shift(decl.name, raw.shift)
        if isinstance(decl.domain, EnumDomain):
            if raw.rhs.kind != "IDENT":
                self.error("TYPE_MISMATCH",
                           f"enum variable {decl.name!r} assigned a number", raw.rhs)
                return None
            if raw.rhs.text not in decl.domain:
                self.error("TYPE_MISMATCH",
                           f"{raw.rhs.text!r} is not a value of enum {decl.name!r}", raw.rhs)
                return None
            return SetValue(decl.name, raw.rhs.text)
        if raw.rhs.kind != "INT":
            self.error("TYPE_MISMATCH",
                       f"counter {decl.name!r} assigned {raw.rhs.text!r}", raw.rhs)
            return None
        return SetValue(decl.name, int(raw.rhs.text))

    def resolve_rate(self, raw: _RawTransition) -> RateExpr | None:
        if raw.rate_param is None:
            return RateExpr(raw.rate_coeff, None)
        if raw.rate_param.text not in self.parameters:
            self.error("UNDECLARED_IDENT",
                       f"rate references undeclared parameter {raw.rate_param.text!r}",
                       raw.rate_param)
            return None
        return RateExpr(raw.rate_coeff, raw.rate_param.text)


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
    name_tok = p.expect_kind("IDENT")
    p.expect("{")

    raw_params: list[tuple[_Token, float]] = []
    raw_vars: list[_RawVar] = []
    raw_transitions: list[_RawTransition] = []
    raw_labels: list[_RawLabel] = []
    spans: dict[str, SourceSpan] = {}

    while True:
        tok = p.peek()
        if tok.kind == "EOF":
            p.error("missing closing '}'")
            break
        if tok.text == "}":
            p.advance()
            break
        before = len(errors)
        if p.accept("param"):
            item = p.parse_param()
            if item is not None:
                raw_params.append(item)
                spans[f"param {item[0].text}"] = item[0].span
        elif p.accept("var"):
            item = p.parse_var()
            if item is not None:
                raw_vars.append(item)
                spans[f"var {item.name.text}"] = item.name.span
        elif p.accept("timed") or p.accept("immediate"):
            timed = p.toks[p.pos - 1].text == "timed"
            item = p.parse_transition(timed)
            if item is not None:
                raw_transitions.append(item)
                spans[f"transition {item.name.text}"] = item.name.span
        elif p.accept("label"):
            item = p.parse_label()
            if item is not None:
                raw_labels.append(item)
                spans[f"label {item.name.text}"] = item.name.span
        else:
            p.error(
                f"expected 'param', 'var', 'timed', 'immediate' or 'label', "
                f"found {p._describe()}"
            )
            p.advance()
            p.sync_to_semicolon()
            continue
        if len(errors) > before:
            # Resynchronize unless the failed item already stopped at a
            # plausible item boundary.
            nxt = p.peek()
            at_boundary = nxt.kind == "EOF" or nxt.text in (
                "param", "var", "timed", "immediate", "label", "}",
            )
            if not at_boundary:
                p.sync_to_semicolon()

    if p.peek().kind != "EOF":
        p.error(f"unexpected input after closing '}}': {p._describe()}")

    if errors:
        return errors

    # Resolution phase: names, types, literals.
    r = _Resolver(errors)
    for name_t, value in raw_params:
        r.add_param(name_t, value)
    for rv in raw_vars:
        r.add_var(rv)

    transitions: list[Transition] = []
    seen_t: set[str] = set()
    for rt in raw_transitions:
        if rt.name.text in seen_t:
            r.error("DUPLICATE_NAME", f"transition {rt.name.text!r} declared twice", rt.name)
            continue
        seen_t.add(rt.name.text)
        guard = r.resolve_guard(rt.guard)
        assigns = [r.resolve_assign(a) for a in rt.assigns]
        if rt.timed:
            rate = r.resolve_rate(rt)
            kind = Timed(rate) if rate is not None else None
        else:
            kind = Immediate(rt.prio, rt.weight)
        if guard is None or kind is None or any(a is None for a in assigns):
            continue
        transitions.append(
            Transition(
                rt.name.text,
                kind,
                guard,
                tuple(assigns),
                frozenset(t.text for t in rt.tags),
            )
        )

    labels: list[Label] = []
    seen_l: set[str] = set()
    for rl in raw_labels:
        if rl.name.text in seen_l:
            r.error("DUPLICATE_NAME", f"label {rl.name.text!r} declared twice", rl.name)
            continue
        seen_l.add(rl.name.text)
        guard = r.resolve_guard(rl.guard)
        if guard is not None:
            labels.append(Label(rl.name.text, guard))

    if errors:
        return errors

    model = Model(
        name=name_tok.text if name_tok else "model",
        variables=tuple(r.variables),
        parameters=r.parameters,
        transitions=tuple(transitions),
        labels=tuple(labels),
    )

    # Re-attach remaining validation findings to source positions.
    report = validate_model(model, spans=spans)
    if report.errors:
        top = SourceSpan(1, 1, 0, 0)
        return [
            ParseError(i.code, i.message, i.span if i.span else top)
            for i in report.errors
        ]
    return model


def parse_guard_text(text: str, model: Model) -> Guard | list[ParseError]:
    """Parse a bare guard expression against an existing model's variables."""
    errors: list[ParseError] = []
    toks = _lex(text, errors)
    p = _Parser(toks, errors)
    raw = p.parse_guard()
    if p.peek().kind != "EOF":
        p.error(f"unexpected input after guard: {p._describe()}")
    if errors or raw is None:
        return errors or [ParseError("UNEXPECTED_TOKEN", "empty guard",
                                     SourceSpan(1, 1, 0, 0))]
    r = _Resolver(errors)
    r.variables = list(model.variables)
    r.var_by_name = {v.name: v for v in model.variables}
    guard = r.resolve_guard(raw)
    if errors or guard is None:
        return errors
    return guard


# ---------------------------------------------------------------------------
# Serialization


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_value(v) -> str:
    return v if isinstance(v, str) else str(v)


def _ser_guard(g: Guard) -> str:
    if isinstance(g, Comparison):
        return f"{g.var} {g.op} {_fmt_value(g.value)}"
    if isinstance(g, Not):
        return f"!({_ser_guard(g.term)})"
    if isinstance(g, And):
        parts = []
        for t in g.terms:
            s = _ser_guard(t)
            parts.append(f"({s})" if isinstance(t, (And, Or)) else s)
        return " && ".join(parts)
    if isinstance(g, Or):
        parts = []
        for t in g.terms:
            s = _ser_guard(t)
            parts.append(f"({s})" if isinstance(t, Or) else s)
        return " || ".join(parts)
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
    return f"{a.var} := {_fmt_value(a.value)};"


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
        out.append(f"  var {v.name} : {dom} init {_fmt_value(v.init)};")
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
