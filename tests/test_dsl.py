"""Text format: parse/serialize laws, error spans, fuzz robustness."""

from __future__ import annotations

import collections
import hashlib
import pathlib
import re
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from infradep import (
    Comparison,
    EnumDomain,
    IntDomain,
    Label,
    Model,
    RateExpr,
    SetValue,
    Shift,
    Timed,
    Transition,
    VariableDecl,
    builtin_model,
    parse_guard_text,
    parse_model,
    serialize_model,
    validate_model,
    var_eq,
)

from .oracles import SplitMix64, by_name, explore_matches_oracle

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"

MINIMAL = "model m { var x : {a,b} init a; timed t rate 1.0 when x==a -> { x:=b; }; }"


def test_minimal_model_parses():
    m = parse_model(MINIMAL)
    assert isinstance(m, Model)
    assert len(m.variables) == 1
    assert len(m.transitions) == 1
    assert m.transitions[0].name == "t"


def test_undeclared_guard_variable_with_position():
    text = "model m {\n  var x : {a,b} init a;\n  timed t rate 1.0 when y==a -> { x:=b; };\n}"
    errors = parse_model(text)
    assert isinstance(errors, list)
    err = next(e for e in errors if e.code == "UNDECLARED_IDENT")
    assert err.span.line == 3
    assert err.span.column == text.splitlines()[2].index("y") + 1


def test_multiple_errors_reported():
    text = (
        "model m {\n"
        "  var x : {a,b} init a;\n"
        "  timed t1 rate 1.0 when y==a -> { x:=b; };\n"
        "  timed t2 rate 1.0 when z==a -> { x:=b; };\n"
        "}"
    )
    errors = parse_model(text)
    assert isinstance(errors, list)
    assert len([e for e in errors if e.code == "UNDECLARED_IDENT"]) == 2


def test_syntax_error_recovery_keeps_later_items():
    text = (
        "model m {\n"
        "  var x : {a,b} init a;\n"
        "  timed broken rate when -> ;\n"
        "  timed bad2 rate 1.0 when x == -> { };\n"
        "}"
    )
    errors = parse_model(text)
    assert isinstance(errors, list)
    assert len(errors) >= 2  # one per broken item, not a bail-out on the first


def test_duplicate_names_in_dsl():
    text = "model m { var x : {a,b} init a; var x : {c,d} init c; timed t rate 1.0 when x==a -> { }; }"
    errors = parse_model(text)
    assert isinstance(errors, list)
    assert any(e.code == "DUPLICATE_NAME" for e in errors)


def test_type_mismatch_in_dsl():
    text = "model m { var x : {a,b} init a; var n : [0..2] init 0; timed t rate 1.0 when n==a -> { }; }"
    errors = parse_model(text)
    assert isinstance(errors, list)
    assert any(e.code == "TYPE_MISMATCH" for e in errors)


def test_validation_errors_reattached():
    # Counter overflow is found by validation, after a clean parse.
    text = "model m { var n : [0..2] init 0; timed t rate 1.0 when n >= 0 -> { n := n + 1; }; }"
    errors = parse_model(text)
    assert isinstance(errors, list)
    err = next(e for e in errors if e.code == "OUT_OF_DOMAIN_UPDATE")
    assert err.span.line == 1
    assert err.span.column >= 1


def test_bad_literal():
    text = "model m { var n : [0..2.5] init 0; timed t rate 1.0 when n==0 -> { }; }"
    errors = parse_model(text)
    assert isinstance(errors, list)
    assert any(e.code == "BAD_LITERAL" for e in errors)
    # Digits and identifiers are ASCII: a superscript digit or an accented
    # letter is an unexpected character at its own position, not a crash.
    for text, bad in (
        ("model m { var n : [0..\u00b2] init 0; timed t rate 1.0 when n==0 -> { }; }", "\u00b2"),
        ("model m { var \u00e9 : {a,b} init a; timed t rate 1.0 when \u00e9==a -> { }; }",
         "\u00e9"),
    ):
        errors = parse_model(text)
        assert isinstance(errors, list), text
        err = next(e for e in errors if e.code == "UNEXPECTED_TOKEN")
        assert err.span.column == text.index(bad) + 1


def test_bad_init_is_one_finding_at_the_literal():
    # The variable stays declared, so its later uses raise nothing more.
    text = (
        "model m {\n"
        "  var x : {a, b} init c;\n"
        "  timed t rate 1.0 when x == a -> { x := b; };\n"
        "  label up := x == a;\n"
        "}\n"
    )
    errors = parse_model(text)
    assert isinstance(errors, list)
    assert [e.code for e in errors] == ["BAD_INIT"]
    line = text.splitlines()[1]
    assert (errors[0].span.line, errors[0].span.column) == (2, line.index(" c;") + 2)


def test_findings_point_at_the_offending_word():
    text = (
        "model m {\n"
        "  var x : {a, b} init a;\n"
        "  var n : [0 .. 2] init 0;\n"
        "  timed t rate mu when x == a -> { x := c; n := -3; } tags (bogus);\n"
        "}\n"
    )
    line = text.splitlines()[3]
    # A finding about the whole model sits at the model's name.
    empty = "\n\nmodel m { var x : [0..1] init 0; }"
    for text, expected in (
        (text, {
            ("TYPE_MISMATCH", 4, line.index("c;") + 1),
            ("OUT_OF_DOMAIN_UPDATE", 4, line.index("-3") + 1),
            ("UNDECLARED_IDENT", 4, line.index("mu") + 1),
            ("UNKNOWN_TAG", 4, line.index("bogus") + 1),
        }),
        (empty, {("NO_TRANSITIONS", 3, empty.splitlines()[2].index("m {") + 1)}),
    ):
        errors = parse_model(text)
        assert isinstance(errors, list), text
        assert {(e.code, e.span.line, e.span.column) for e in errors} == expected, text


# Malformed models, each as .gsts items and as the same Model built in
# Python: the front end must report exactly validation's codes.
_X = VariableDecl("x", EnumDomain(("a", "b")), "a")
_N = VariableDecl("n", IntDomain(0, 2), 0)
_X_TEXT = "var x : {a, b} init a;"
_N_TEXT = "var n : [0 .. 2] init 0;"
_T = Transition("t", Timed(RateExpr(1.0)), var_eq("x", "a"), (SetValue("x", "b"),))
_T_TEXT = "timed t rate 1.0 when x == a -> { x := b; };"


def _timed(guard="x == a", update="x := b;", rate="1.0"):
    return f"timed t rate {rate} when {guard} -> {{ {update} }};"


def _t(guard=var_eq("x", "a"), update=(SetValue("x", "b"),), rate=RateExpr(1.0)):
    return Transition("t", Timed(rate), guard, update)


_MALFORMED = {
    "bad_init": (
        f"var x : {{a, b}} init c; {_N_TEXT} {_T_TEXT}",
        dict(variables=(VariableDecl("x", EnumDomain(("a", "b")), "c"), _N)),
    ),
    "empty_range": (
        f"{_X_TEXT} var n : [3 .. 1] init 1; {_T_TEXT}",
        dict(variables=(_X, VariableDecl("n", IntDomain(3, 1), 1))),
    ),
    "enum_vs_number": (
        f"{_X_TEXT} {_N_TEXT} {_timed(guard='x == 1')}",
        dict(transitions=(_t(guard=var_eq("x", 1)),)),
    ),
    "enum_ordering": (
        f"{_X_TEXT} {_N_TEXT} {_timed(guard='x < b')}",
        dict(transitions=(_t(guard=Comparison("x", "<", "b")),)),
    ),
    "value_outside_enum": (
        f"{_X_TEXT} {_N_TEXT} {_timed(guard='x == c', update='x := d;')}",
        dict(transitions=(_t(guard=var_eq("x", "c"), update=(SetValue("x", "d"),)),)),
    ),
    "undeclared_in_guard": (
        f"{_X_TEXT} {_N_TEXT} {_timed(guard='y == a')}",
        dict(transitions=(_t(guard=var_eq("y", "a")),)),
    ),
    "undeclared_in_label": (
        f"{_X_TEXT} {_N_TEXT} {_T_TEXT} label l := y == a;",
        dict(labels=(Label("l", var_eq("y", "a")),)),
    ),
    "undeclared_in_update": (
        f"{_X_TEXT} {_N_TEXT} {_timed(update='y := a;')}",
        dict(transitions=(_t(update=(SetValue("y", "a"),)),)),
    ),
    "undeclared_rate_param": (
        f"{_X_TEXT} {_N_TEXT} {_timed(rate='mu')}",
        dict(transitions=(_t(rate=RateExpr(1.0, "mu")),)),
    ),
    "shift_on_enum": (
        f"{_X_TEXT} {_N_TEXT} {_timed(update='x := x + 1;')}",
        dict(transitions=(_t(update=(Shift("x", 1),)),)),
    ),
    "counter_assigned_name": (
        f"{_X_TEXT} {_N_TEXT} {_timed(update='n := a;')}",
        dict(transitions=(_t(update=(SetValue("n", "a"),)),)),
    ),
    "duplicate_variable": (
        f"{_X_TEXT} var x : [0 .. 1] init 0; {_T_TEXT}",
        dict(variables=(_X, VariableDecl("x", IntDomain(0, 1), 0))),
    ),
    "duplicate_transition": (
        f"{_X_TEXT} {_N_TEXT} {_T_TEXT} {_timed(guard='x == b', update='x := a;')}",
        dict(transitions=(_T, _t(guard=var_eq("x", "b"), update=(SetValue("x", "a"),)))),
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_front_end_reports_validation_codes(case):
    items, fields = _MALFORMED[case]
    model = Model(**{"name": "m", "variables": (_X, _N), "parameters": {},
                     "transitions": (_T,), **fields})
    expected = {e.code for e in validate_model(model).errors}
    assert expected
    errors = parse_model(f"model m {{ {items} }}")
    assert isinstance(errors, list)
    assert {e.code for e in errors} == expected


def test_roundtrip_builtins(models):
    for m in models.values():
        text = serialize_model(m)
        again = parse_model(text)
        assert isinstance(again, Model)
        assert again == m
        assert serialize_model(again) == text  # canonical form is a fixed point


def test_serialize_is_deterministic(model_a):
    assert serialize_model(model_a) == serialize_model(model_a)


def _digest_result(h, result) -> None:
    """Feed a parse result to ``h``: a Model by its canonical text (its repr
    prints hash-ordered tag sets), errors by every field."""
    if isinstance(result, Model):
        text = serialize_model(result)
    else:
        text = "".join(f"{e.code} {e.message!r} {e.span.line}:{e.span.column} "
                       f"{e.span.offset}+{e.span.length}\n" for e in result)
    h.update(text.encode() + b"\0")


# Every result of the front end on the shipped files and on the two fuzz
# corpora below must not change: each Model's canonical text, and each
# error's code, message and span.
PINNED_FRONT_END = {
    "shipped files": "823813092ec594de2c087ea9fd94e20de0e5fe3472bbcc79dda0dd717cc8a306",
    "byte fuzz": "424b2e7202e24c882452837c71e66ebda797ee57c7ea33836504f3ebc86c3c26",
    "word swaps": "0e46ba984960b6651d43052b9ac1e39d9b7784820463b7c57737f8fba6641f0b",
}


def test_fixture_files_match_constructors(models):
    # The packaged files define the built-ins; binding the default
    # parameters onto a file gives back that file.
    digest = hashlib.sha256()
    for name, model in models.items():
        packaged = (resources.files("infradep") / "models" / f"{name}.gsts").read_bytes()
        assert serialize_model(model).encode("utf-8") == packaged, name
        assert (MODELS_DIR / f"{name}.gsts").read_bytes() == packaged, name
        parsed = parse_model(packaged)
        assert isinstance(parsed, Model)
        assert parsed == model
        _digest_result(digest, parsed)
    assert digest.hexdigest() == PINNED_FRONT_END["shipped files"]


def test_comments_and_whitespace_ignored():
    text = (
        "model m {\n"
        "  # a comment line\n"
        "  var x : {a, b} init a;   # trailing comment\n"
        "  timed t rate 2.0 when x == a -> { x := b; };\n"
        "}\n"
    )
    m = parse_model(text)
    assert isinstance(m, Model)


def test_rate_expression_forms():
    text = (
        "model m { param mu = 4.0; var x : [0..1] init 0;\n"
        "  timed a rate mu when x == 0 -> { x := 1; };\n"
        "  timed b rate 0.5 * mu when x == 1 -> { x := 0; };\n"
        "  timed c rate mu * 0.5 when x == 1 -> { x := 0; };\n"
        "  timed d rate 3.0 when x == 1 -> { x := 0; };\n"
        "}"
    )
    m = parse_model(text)
    assert isinstance(m, Model)
    rates = {name: t.kind.rate.value(m.parameters) for name, t in by_name(m).items()}
    assert rates == {"a": 4.0, "b": 2.0, "c": 2.0, "d": 3.0}  # both orders accepted
    # Canonical form puts the coefficient first and round-trips.
    text2 = serialize_model(m)
    assert "rate 0.5 * mu" in text2
    assert parse_model(text2) == m


def test_parse_guard_text_against_model(model_a):
    guard = parse_guard_text("elec == e_lost || n_cfg >= 2", model_a)
    assert not isinstance(guard, list)
    bad = parse_guard_text("nothere == 1", model_a)
    assert isinstance(bad, list)
    assert bad[0].code == "UNDECLARED_IDENT"
    trailing = parse_guard_text("elec == e_lost )", model_a)
    assert [e.message for e in trailing] == ["unexpected input after guard: ')'"]


def test_guard_nested_too_deeply_is_an_error():
    # Past MAX_GUARD_DEPTH the parser reports the nesting at the first token
    # beyond the limit instead of recursing on.
    for guard in ("!" * 300, "(" * 300):
        errors = parse_model(f"model m {{ var x : {{a, b}} init a; "
                             f"timed t rate 1.0 when {guard} -> {{ x := b; }}; }}")
        assert isinstance(errors, list), guard
        assert (errors[0].message, errors[0].span.column) == (
            "guard expression nested too deeply", 257), guard


def test_serialize_rejects_a_node_that_is_not_a_guard(model_a):
    m = Model(name="m", variables=model_a.variables, parameters={},
              transitions=model_a.transitions, labels=(Label("up", "elec == e_lost"),))
    with pytest.raises(TypeError, match="not a guard node"):
        serialize_model(m)


# (text, tokens as (kind, text, column), lexer errors as (message, column))
_EDGE_TOKENS = [
    ("1.", [("NUMBER", "1.", 1), ("EOF", "", 3)], []),
    ("1.e5", [("NUMBER", "1.e5", 1), ("EOF", "", 5)], []),
    ("1..2", [("INT", "1", 1), ("SYM", "..", 2), ("INT", "2", 4), ("EOF", "", 5)], []),
    ("1e", [("INT", "1", 1), ("IDENT", "e", 2), ("EOF", "", 3)], []),
    ("1e+", [("INT", "1", 1), ("IDENT", "e", 2), ("SYM", "+", 3), ("EOF", "", 4)], []),
    ("1.5e-3x", [("NUMBER", "1.5e-3", 1), ("IDENT", "x", 7), ("EOF", "", 8)], []),
    ("1.2.3", [("NUMBER", "1.2", 1), ("INT", "3", 5), ("EOF", "", 6)],
     [("unexpected character '.'", 4)]),
    # Tab and carriage return are one column each; every character outside
    # ASCII letters, digits and the symbols is its own error.
    ("x\t\r\u00e9\ufffd>=", [("IDENT", "x", 1), ("SYM", ">=", 6), ("EOF", "", 8)],
     [("unexpected character '\u00e9'", 4), ("unexpected character '\ufffd'", 5)]),
    ("x\n  y", [("IDENT", "x", 1), ("IDENT", "y", 3), ("EOF", "", 4)], []),
    # The column does not advance inside a comment: EOF after a final
    # comment with no newline sits at the '#'.
    ("a # c", [("IDENT", "a", 1), ("EOF", "", 3)], []),
]


@pytest.mark.parametrize("text, tokens, errors", _EDGE_TOKENS)
def test_lexer_edge_tokens(text, tokens, errors):
    from infradep.dsl import _lex

    found = []
    toks = _lex(text, found)
    assert [(t.kind, t.text, t.span.column) for t in toks] == tokens
    assert [(e.message, e.span.column) for e in found] == errors
    assert toks[-1].span.offset == len(text)


def test_negative_literal_span_covers_sign_and_digits():
    text = "model m { var n : [0 .. 2] init -12; timed t rate 1.0 when n == 0 -> { n := 1; }; }"
    errors = parse_model(text)
    assert isinstance(errors, list)
    assert [e.code for e in errors] == ["BAD_INIT"]
    assert (errors[0].span.column, errors[0].span.length) == (text.index("-12") + 1, 3)


def test_parser_accepts_bytes():
    m = parse_model(MINIMAL.encode("utf-8"))
    assert isinstance(m, Model)
    got = parse_model(b"\xff\xfe garbage \x00")
    assert isinstance(got, list)


def test_fuzz_10k_byte_cases():
    # Deterministic fuzz corpus: random bytes, random printable soup, and
    # mutations of a valid model; the parser must never raise.
    rng = SplitMix64(0xF00D)
    base = serialize_model(builtin_model("accidental"))
    base_bytes = base.encode()
    alphabet = b"modelvarinttimedwhn{}[]();:=!&|<>#.,+-*_ 0123456789abctagsxyz\n\t\"'\\"
    crashes = 0
    digest = hashlib.sha256()
    for case in range(10_000):
        mode = case % 3
        length = rng.next_u64() % 120
        if mode == 0:
            data = bytes(rng.next_u64() & 0xFF for _ in range(length))
        elif mode == 1:
            data = bytes(alphabet[rng.next_u64() % len(alphabet)] for _ in range(length))
        else:
            data = bytearray(base_bytes)
            for _ in range(1 + rng.next_u64() % 8):
                pos = rng.next_u64() % len(data)
                data[pos] = rng.next_u64() & 0xFF
            data = bytes(data[: max(1, rng.next_u64() % len(data))])
        try:
            result = parse_model(data)
        except Exception:
            crashes += 1
            continue
        assert isinstance(result, (Model, list))
        _digest_result(digest, result)
        if isinstance(result, Model):
            # The parser checks almost nothing itself: whatever it returns
            # must be valid and survive the canonical round trip.
            assert validate_model(result).ok, data
            assert parse_model(serialize_model(result)) == result, data
    assert crashes == 0
    assert digest.hexdigest() == PINNED_FRONT_END["byte fuzz"]


_WORD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|-?[0-9]+(?:\.[0-9]+)?)")


def test_fuzz_word_swaps_return_only_valid_models():
    # Swap words of a valid model for other words of it: most results still
    # parse, so validation alone decides, and whatever comes back as a
    # Model must be valid, survive the canonical round trip, and explore
    # as the exhaustive oracle does.
    base = (
        "model m {\n"
        "  param mu = 2.0;\n"
        "  var x : {a, b} init a;\n"
        "  var n : [0 .. 2] init 0;\n"
        "  timed fail rate 0.5 * mu when x == a && n < 2 -> { x := b; n := n + 1; } tags (attack);\n"
        "  timed fix rate mu when x == b -> { x := a; } tags (restoration);\n"
        "  immediate reset prio 1 weight 1.0 when n == 2 && x == a -> { n := 0; };\n"
        "  label down := x == b || n >= 1;\n"
        "}\n"
    )
    parts = _WORD.split(base)  # words at the odd indices
    keywords = {"model", "param", "var", "init", "timed", "immediate",
                "rate", "prio", "weight", "when", "tags", "label"}
    spots = [i for i in range(1, len(parts), 2) if parts[i] not in keywords]
    vocabulary = sorted({parts[i] for i in spots} | {"c", "-1", "3", "0.0"})
    rng = SplitMix64(0xBEEF)
    accepted = rejected = 0
    explored = collections.Counter()
    digest = hashlib.sha256()
    for _ in range(1_000):
        mutant = list(parts)
        for _ in range(1 + rng.next_u64() % 2):
            spot = spots[rng.next_u64() % len(spots)]
            mutant[spot] = vocabulary[rng.next_u64() % len(vocabulary)]
        text = "".join(mutant)
        result = parse_model(text)
        _digest_result(digest, result)
        if isinstance(result, Model):
            accepted += 1
            assert validate_model(result).ok, text
            assert parse_model(serialize_model(result)) == result, text
            explored[explore_matches_oracle(result)] += 1
        else:
            rejected += 1
            assert result, text
    assert accepted > 50 and rejected > 50, (accepted, rejected)
    assert explored == {"several states": 94, "one state": 3, "immediate cycle": 1}, explored
    assert digest.hexdigest() == PINNED_FRONT_END["word swaps"]


@st.composite
def _guards(draw, depth=0):
    # Random guards over the accidental model's variables.
    if depth >= 3 or draw(st.booleans()):
        var, values = draw(
            st.sampled_from(
                [
                    ("info", ("i_working", "passive_latent", "active_latent")),
                    ("elec", ("e_working", "e_lost")),
                ]
            )
        )
        op = draw(st.sampled_from(["==", "!="]))
        from infradep import Comparison

        return Comparison(var, op, draw(st.sampled_from(values)))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        from infradep import Not

        return Not(draw(_guards(depth=depth + 1)))
    terms = draw(st.lists(_guards(depth=depth + 1), min_size=2, max_size=3))
    from infradep import And, Or

    return And(tuple(terms)) if kind == "and" else Or(tuple(terms))


@settings(max_examples=120, deadline=None)
@given(guard=_guards())
def test_guard_serialization_roundtrip(guard, model_a):
    from infradep.dsl import _ser_guard

    text = _ser_guard(guard)
    back = parse_guard_text(text, model_a)
    assert back == guard
