"""Text format: parse/serialize laws, error spans, fuzz robustness."""

from __future__ import annotations

import pathlib
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from infradep import (
    Model,
    parse_guard_text,
    parse_model,
    serialize_model,
)
from infradep.rng import SplitMix64

from .conftest import MODEL_CTORS

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


def test_roundtrip_builtins(models):
    for m in models.values():
        text = serialize_model(m)
        again = parse_model(text)
        assert isinstance(again, Model)
        assert again == m
        assert serialize_model(again) == text  # canonical form is a fixed point


def test_serialize_is_deterministic(model_a):
    assert serialize_model(model_a) == serialize_model(model_a)


def test_fixture_files_match_constructors(models):
    # The packaged files define the built-ins; binding the default
    # parameters onto a file gives back that file.
    for name, model in models.items():
        packaged = (resources.files("infradep") / "models" / f"{name}.gsts").read_bytes()
        assert serialize_model(model).encode("utf-8") == packaged, name
        assert (MODELS_DIR / f"{name}.gsts").read_bytes() == packaged, name
        parsed = parse_model(packaged)
        assert isinstance(parsed, Model)
        assert parsed == model


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
    assert m.rate_of(m.transition_map["a"]) == 4.0
    assert m.rate_of(m.transition_map["b"]) == 2.0
    assert m.rate_of(m.transition_map["c"]) == 2.0  # both orders accepted
    assert m.rate_of(m.transition_map["d"]) == 3.0
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


def test_parser_accepts_bytes():
    m = parse_model(MINIMAL.encode("utf-8"))
    assert isinstance(m, Model)
    got = parse_model(b"\xff\xfe garbage \x00")
    assert isinstance(got, list)


def test_fuzz_10k_byte_cases():
    # Deterministic fuzz corpus: random bytes, random printable soup, and
    # mutations of a valid model; the parser must never raise.
    rng = SplitMix64(0xF00D)
    base = serialize_model(MODEL_CTORS["accidental"]())
    base_bytes = base.encode()
    alphabet = b"modelvarinttimedwhn{}[]();:=!&|<>#.,+-*_ 0123456789abctagsxyz\n\t\"'\\"
    crashes = 0
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
            assert isinstance(result, (Model, list))
        except Exception:
            crashes += 1
    assert crashes == 0


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
