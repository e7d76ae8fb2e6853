"""Validator findings: codes, interval analysis, satisfiability warnings."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import infradep

from infradep import (
    And,
    Comparison,
    EnumDomain,
    Immediate,
    IntDomain,
    InvalidModelError,
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
    build_reachability_graph,
    builtin_model,
    estimate_occupancy,
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
        labels=(Label("x", var_eq("x", 0)), Label("x", var_eq("x", 1))),
    )
    assert [e.message for e in validate_model(m).errors if e.code == "DUPLICATE_NAME"] == [
        "variable 'x' declared twice",
        "transition 't' declared twice",
        "label 'x' declared twice",
    ]


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


def test_bool_init_of_a_counter_is_bad_init():
    # True == 1, but a bool is no counter value: a state would hold True
    # where its decoded code reads 1.
    m = replace(_counter_model(var_eq("mode", "a"), (SetValue("mode", "b"),)),
                variables=(VariableDecl("n_cfg", IntDomain(0, 2), True),))
    assert codes(validate_model(m)) == ["BAD_INIT"]


def test_counter_compared_with_a_bool_is_type_mismatch():
    m = _counter_model(Comparison("n_cfg", "==", True), (SetValue("mode", "b"),))
    assert [(e.code, e.message) for e in validate_model(m).errors] == [
        ("TYPE_MISMATCH", "counter 'n_cfg' compared against non-integer True"),
    ]


def test_counter_assigned_a_bool_is_type_mismatch():
    m = _counter_model(var_eq("mode", "a"), (SetValue("n_cfg", True),))
    assert [(e.code, e.message) for e in validate_model(m).errors] == [
        ("TYPE_MISMATCH", "counter 'n_cfg' assigned non-integer True"),
    ]


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


@pytest.mark.parametrize("weight, found", [
    (math.inf, [("INVALID_WEIGHT", "transition t1"), ("INVALID_WEIGHT", "transition t2")]),
    (1e308, [("INVALID_WEIGHT", "model m")]),
])
def test_immediate_weights_and_their_sum_must_be_finite(weight, found):
    # Each row's w / sum(w) must be a probability: inf / inf is nan, and
    # 1e308 / (1e308 + 1e308) is 0.0.  Explore refuses the model too.
    m = Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("a", "b", "c")), "a"),),
        parameters={},
        transitions=(
            Transition("t1", Immediate(1, weight), var_eq("x", "a"), (SetValue("x", "b"),)),
            Transition("t2", Immediate(1, weight), var_eq("x", "a"), (SetValue("x", "c"),)),
            Transition("back", Timed(RateExpr(1.0)), Not(var_eq("x", "a")), (SetValue("x", "a"),)),
        ),
    )
    with pytest.raises(InvalidModelError):
        build_reachability_graph(m)
    assert [(e.code, e.where) for e in validate_model(m).errors] == found


def test_explore_and_simulation_reuse_the_recorded_verdict(monkeypatch):
    # validate_model records its report on the model; the gate before
    # explore and simulation validates only a model without one, and a
    # replace() copy is a new model.
    import infradep.validate as validate

    calls = []
    inner = validate.validate_model
    monkeypatch.setattr(validate, "validate_model", lambda m, spans=None: calls.append(m) or inner(m, spans))
    m = replace(builtin_model("accidental"))
    build_reachability_graph(m)
    build_reachability_graph(m)
    estimate_occupancy(m, "state8", horizon=1.0, replications=2, seed=1)
    assert calls == [m]
    copy = replace(m)
    build_reachability_graph(copy)
    assert calls == [m, copy]
    # A recorded failing verdict stops explore without validating again.
    bad = replace(m, parameters={**m.parameters, "lambda_e": 0.0})
    validate.validate_model(bad)
    with pytest.raises(InvalidModelError):
        build_reachability_graph(bad)
    assert calls == [m, copy, bad]


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


def test_unknown_tags_reported_in_sorted_order():
    # Tags are a frozenset, whose iteration order follows string hashing;
    # hash seeds 1 and 4 iterate this set in different orders.
    script = (
        "from infradep import *\n"
        "t = Transition('t', Timed(RateExpr(1.0)), var_eq('x', 0), (SetValue('x', 1),),\n"
        "               frozenset({'zeta', 'alpha', 'mid', 'qq'}))\n"
        "m = Model(name='m', variables=(VariableDecl('x', IntDomain(0, 1), 0),),\n"
        "          parameters={}, transitions=(t,))\n"
        "print(*(e.message.split(\"'\")[1] for e in validate_model(m).errors))\n"
    )
    src = str(pathlib.Path(infradep.__file__).resolve().parent.parent)
    for seed in ("1", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.split() == ["alpha", "mid", "qq", "zeta"], seed


def test_shift_other_than_one_is_type_mismatch():
    m = _counter_model(Comparison("n_cfg", "<", 1), (Shift("n_cfg", 2),))
    assert [(e.code, e.message) for e in validate_model(m).errors] == [
        ("TYPE_MISMATCH", "increment of 'n_cfg' must be +1 or -1, got 2"),
    ]


def test_unsatisfiable_guard_warns():
    m = _counter_model(
        And((var_eq("mode", "a"), var_eq("mode", "b"))), (SetValue("mode", "b"),)
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
                    "t", Timed(RateExpr(1.0)), And((var_eq("x", "a"), var_eq("x", "b"))),
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

    calls, widths = [], []
    kleene, bits = validate.eval_guard_kleene, validate.eval_guards
    monkeypatch.setattr(
        validate, "eval_guard_kleene", lambda g, p: calls.append(p) or kleene(g, p)
    )
    monkeypatch.setattr(
        validate, "eval_guards", lambda g, u, n: widths.append(n) or bits(g, u, n)
    )
    big = validate_model(_shift_model(20_000_000))
    big_calls, big_widths = len(calls), list(widths)
    small = validate_model(_shift_model(20))
    # Both the update-domain projections and the satisfiability scan try one
    # value per guard class, however wide the range: the scan evaluates each
    # guard once, over as many points as it has classes.
    assert len(calls) == 2 * big_calls
    assert widths == 2 * big_widths == 2 * [2, 2, 3]

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
