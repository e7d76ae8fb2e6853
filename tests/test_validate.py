"""Validator findings: codes, interval analysis, satisfiability warnings."""

from __future__ import annotations

import math

from infradep import (
    Comparison,
    EnumDomain,
    Immediate,
    IntDomain,
    Label,
    Model,
    Or,
    RateExpr,
    SetValue,
    Shift,
    Timed,
    Transition,
    VariableDecl,
    g_and,
    validate_model,
    var_eq,
)


def _counter_model(guard, update):
    return Model(
        name="m",
        variables=(
            VariableDecl("mode", EnumDomain(("a", "b")), "a"),
            VariableDecl("n_cfg", IntDomain(0, 2), 0),
        ),
        parameters={},
        transitions=(Transition("t", Timed(RateExpr(1.0)), guard, update),),
    )


def codes(report):
    return [e.code for e in report.errors]


def test_guarded_increment_ok():
    m = _counter_model(Comparison("n_cfg", "<", 2), (Shift("n_cfg", 1),))
    assert validate_model(m).ok


def test_unguarded_increment_flagged():
    # Guarded only by an enum condition: interval analysis sees n_cfg=2.
    m = _counter_model(var_eq("mode", "a"), (Shift("n_cfg", 1),))
    assert "OUT_OF_DOMAIN_UPDATE" in codes(validate_model(m))


def test_cross_enum_comparison_is_type_mismatch(model_a):
    bad = Model(
        name="m",
        variables=model_a.variables,
        parameters=dict(model_a.parameters),
        transitions=(
            Transition(
                "t",
                Timed(RateExpr(1.0)),
                var_eq("info", "e_lost"),  # e_lost belongs to the other enum
                (SetValue("info", "i_working"),),
            ),
        ),
    )
    assert "TYPE_MISMATCH" in codes(validate_model(bad))


def test_enum_ordering_comparison_rejected():
    m = _counter_model(Comparison("mode", "<", "b"), (SetValue("mode", "b"),))
    assert "TYPE_MISMATCH" in codes(validate_model(m))


def test_undeclared_variable():
    m = _counter_model(var_eq("ghost", "a"), (SetValue("mode", "b"),))
    assert "UNDECLARED_IDENT" in codes(validate_model(m))


def test_duplicate_names():
    m = Model(
        name="m",
        variables=(
            VariableDecl("x", IntDomain(0, 1), 0),
            VariableDecl("x", IntDomain(0, 1), 0),
        ),
        parameters={},
        transitions=(
            Transition("t", Timed(RateExpr(1.0)), var_eq("x", 0), (SetValue("x", 1),)),
            Transition("t", Timed(RateExpr(1.0)), var_eq("x", 1), (SetValue("x", 0),)),
        ),
    )
    assert codes(validate_model(m)).count("DUPLICATE_NAME") == 2


def test_bad_init_and_empty_enum():
    m = Model(
        name="m",
        variables=(
            VariableDecl("x", IntDomain(0, 2), 5),
            VariableDecl("e", EnumDomain(()), "a"),
        ),
        parameters={},
        transitions=(Transition("t", Timed(RateExpr(1.0)), var_eq("x", 0), ()),),
    )
    got = codes(validate_model(m))
    assert "BAD_INIT" in got and "EMPTY_ENUM" in got


def test_nonpositive_rate_and_weight():
    for rate in (0.0, math.inf):
        m = Model(
            name="m",
            variables=(VariableDecl("x", IntDomain(0, 1), 0),),
            parameters={"lam": 1.0},
            transitions=(
                Transition("t1", Timed(RateExpr(rate, "lam")), var_eq("x", 0), (SetValue("x", 1),)),
                Transition("t2", Immediate(0, 0.0), var_eq("x", 1), (SetValue("x", 0),)),
            ),
        )
        got = codes(validate_model(m))
        assert "INVALID_RATE" in got and "INVALID_WEIGHT" in got, rate


def test_nonpositive_parameter():
    for value in (-2.0, math.inf, math.nan):
        m = Model(
            name="m",
            variables=(VariableDecl("x", IntDomain(0, 1), 0),),
            parameters={"lam": value},
            transitions=(
                Transition("t", Timed(RateExpr(1.0, "lam")), var_eq("x", 0), (SetValue("x", 1),)),
            ),
        )
        assert "INVALID_PARAM" in codes(validate_model(m)), value


def test_no_transitions():
    m = Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 1), 0),),
        parameters={},
        transitions=(),
    )
    assert "NO_TRANSITIONS" in codes(validate_model(m))


def test_unknown_tag():
    m = Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 1), 0),),
        parameters={},
        transitions=(
            Transition(
                "t", Timed(RateExpr(1.0)), var_eq("x", 0), (SetValue("x", 1),),
                frozenset({"mystery"}),
            ),
        ),
    )
    assert "UNKNOWN_TAG" in codes(validate_model(m))


def test_unsatisfiable_guard_warns():
    m = _counter_model(
        g_and(var_eq("mode", "a"), var_eq("mode", "b")), (SetValue("mode", "b"),)
    )
    rep = validate_model(m)
    assert rep.ok
    assert any(w.code == "UNSATISFIABLE_GUARD" for w in rep.warnings)


def test_unsatisfiable_guard_warns_beside_a_huge_counter():
    # Each guard is scanned over the classes of its own variables, so a wide
    # counter elsewhere in the model does not switch the scan off.
    def twin(hi):
        return Model(
            name="m",
            variables=(
                VariableDecl("x", EnumDomain(("a", "b")), "a"),
                VariableDecl("n", IntDomain(0, hi), 0),
            ),
            parameters={},
            transitions=(
                Transition(
                    "t", Timed(RateExpr(1.0)), g_and(var_eq("x", "a"), var_eq("x", "b")),
                    (SetValue("x", "b"),),
                ),
                Transition("u", Timed(RateExpr(1.0)), Comparison("n", "<", hi), (Shift("n", 1),)),
            ),
        )

    small, huge = validate_model(twin(20)), validate_model(twin(2_000_000))
    assert small.ok and huge.ok
    found = [(w.code, w.message, w.where) for w in small.warnings]
    assert found == [
        ("UNSATISFIABLE_GUARD", "guard of 't' is unsatisfiable over the variable domains", "transition t")
    ]
    assert [(w.code, w.message, w.where) for w in huge.warnings] == found


def test_duplicate_assignment():
    m = _counter_model(var_eq("mode", "a"), (SetValue("mode", "b"), SetValue("mode", "a")))
    assert "DUPLICATE_ASSIGNMENT" in codes(validate_model(m))


def test_literal_assignment_out_of_range():
    m = _counter_model(var_eq("mode", "a"), (SetValue("n_cfg", 9),))
    assert "OUT_OF_DOMAIN_UPDATE" in codes(validate_model(m))


def test_builtins_validate_clean(models):
    for m in models.values():
        rep = validate_model(m)
        assert rep.ok, [f"{e.code}: {e.message}" for e in rep.errors]
        assert not rep.warnings, [w.message for w in rep.warnings]


def test_label_guard_checked(model_a):
    bad = Model(
        name="m",
        variables=model_a.variables,
        parameters=dict(model_a.parameters),
        transitions=model_a.transitions,
        labels=(Label("broken", var_eq("nope", "x")),),
    )
    assert "UNDECLARED_IDENT" in codes(validate_model(bad))


def _shift_model(hi):
    """One counter over [0, hi]: a guarded increment, and two shifts whose
    guards admit the value at the edge of the range."""
    return Model(
        name="m",
        variables=(VariableDecl("n", IntDomain(0, hi), 0),),
        parameters={},
        transitions=(
            Transition("inc", Timed(RateExpr(1.0)), Comparison("n", "<", hi), (Shift("n", 1),)),
            Transition("dec", Timed(RateExpr(1.0)), Comparison("n", ">=", 0), (Shift("n", -1),)),
            Transition(
                "bump",
                Timed(RateExpr(1.0)),
                Or((var_eq("n", 0), var_eq("n", hi))),
                (Shift("n", 1),),
            ),
        ),
    )


def test_huge_counter_range_validates_like_small_twin(monkeypatch):
    import infradep.validate as validate

    calls = []
    kleene = validate.eval_guard_kleene
    monkeypatch.setattr(
        validate, "eval_guard_kleene", lambda g, p: calls.append(p) or kleene(g, p)
    )
    big = validate_model(_shift_model(20_000_000))
    big_calls = len(calls)
    small = validate_model(_shift_model(20))
    # Both the update-domain projections and the satisfiability scan try one
    # value per guard class, however wide the range.
    assert len(calls) == 2 * big_calls

    def findings(rep, hi):
        return [
            (e.code, e.message.replace(str(hi), "HI"), e.where)
            for e in rep.errors + rep.warnings
        ]

    assert findings(big, 20_000_000) == findings(small, 20)
    assert findings(small, 20) == [
        ("OUT_OF_DOMAIN_UPDATE", "n := n - 1 can leave [0, HI] (guard admits n=0)", "transition dec"),
        ("OUT_OF_DOMAIN_UPDATE", "n := n + 1 can leave [0, HI] (guard admits n=HI)", "transition bump"),
    ]
