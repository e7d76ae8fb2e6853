"""The firing table: one row per guard class, exact on every state."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infradep import (
    BUILTIN_MODELS,
    DEFAULT_PARAMS,
    And,
    Comparison,
    EnumDomain,
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
    build_reachability_graph,
    builtin_model,
    validate_model,
)

from .oracles import eval_guard, firings_raw

OPS = ("==", "!=", "<", "<=", ">", ">=")


@st.composite
def _variables(draw):
    out = []
    for k in range(draw(st.integers(1, 2))):
        values = draw(st.sampled_from((("a", "b"), ("a", "b", "c"))))
        out.append(VariableDecl(f"e{k}", EnumDomain(values), values[0]))
    for k in range(draw(st.integers(1, 2))):
        lo = draw(st.integers(-2, 2))
        hi = lo + draw(st.integers(0, 4))
        out.append(VariableDecl(f"n{k}", IntDomain(lo, hi), lo))
    return tuple(out)


def _guards(variables):
    def comparison(v):
        if isinstance(v.domain, EnumDomain):
            return st.builds(
                Comparison, st.just(v.name), st.sampled_from(("==", "!=")),
                st.sampled_from(v.domain.values),
            )
        # Literals reach past both ends of the range; non-integral and
        # integral floats fall between or on the integer cut points.
        literal = st.integers(v.domain.lo - 3, v.domain.hi + 3) | st.sampled_from((-0.5, 1.5, 2.0))
        return st.builds(Comparison, st.just(v.name), st.sampled_from(OPS), literal)

    leaves = st.one_of([comparison(v) for v in variables])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(And, st.lists(inner, min_size=2, max_size=3).map(tuple)),
            st.builds(Or, st.lists(inner, min_size=2, max_size=3).map(tuple)),
            st.builds(Not, inner),
        ),
        max_leaves=5,
    )


@st.composite
def _models(draw):
    variables = draw(_variables())
    guards = _guards(variables)
    kinds = st.builds(Timed, st.builds(RateExpr, st.sampled_from((0.5, 1.0, 3.0)))) | st.builds(
        Immediate, st.integers(0, 2), st.sampled_from((0.25, 1.0, 3.0))
    )
    transitions = tuple(
        Transition(f"t{k}", draw(kinds), draw(guards), ())
        for k in range(draw(st.integers(1, 5)))
    )
    labels = tuple(Label(f"l{k}", draw(guards)) for k in range(draw(st.integers(0, 3))))
    return Model("random", variables, {}, transitions, labels)


@settings(max_examples=100, deadline=None)
@given(model=_models(), order=st.randoms(use_true_random=False))
def test_table_matches_direct_guard_walk(model, order):
    # Rows are filled from whichever state of a class comes first, so visit
    # the domain in a random order; every other state must read a row that
    # equals its own direct evaluation.
    states = list(model.domain_product())
    order.shuffle(states)
    comp = model._compiled
    index = model.var_index
    for s in states:
        row = comp.row(s)
        firings, vanishing = firings_raw(model, s)
        assert row.vanishing == vanishing, s
        assert [model.transitions[i].name for i in row.chosen] == [t.name for t, _ in firings]
        assert list(row.values) == [value for _, value in firings]
        if vanishing:
            weights = [t.kind.weight for t, _ in firings]
            total = sum(weights)
            assert list(row.cumulative) == [sum(weights[: k + 1]) / total for k in range(len(weights))]
        assert row.labels == tuple(eval_guard(l.predicate, s, index) for l in model.labels)
    assert len(comp.table) <= len(states)


def _class_count(model):
    """Guard classes over the domain product: enum values times, for each
    counter, the runs between the cut points ``v`` and ``v + 1`` of its
    integer literals."""

    def comparisons(g):
        if isinstance(g, Comparison):
            yield g
        elif isinstance(g, (And, Or)):
            for t in g.terms:
                yield from comparisons(t)
        elif isinstance(g, Not):
            yield from comparisons(g.term)

    found = [
        c
        for g in [t.guard for t in model.transitions] + [l.predicate for l in model.labels]
        for c in comparisons(g)
    ]
    count = 1
    for v in model.variables:
        mentioned = [c for c in found if c.var == v.name]
        if not mentioned:
            continue
        if isinstance(v.domain, EnumDomain):
            count *= len(v.domain.values)
        else:
            cuts = sorted({p for c in mentioned if isinstance(c.value, int) for p in (c.value, c.value + 1)})
            count *= len({bisect_right(cuts, x) for x in range(v.domain.lo, v.domain.hi + 1)})
    return count


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_rows_filled_do_not_grow_with_k_max(name):
    # Explore and label evaluation fill one row per guard class they meet;
    # evaluating guards per state would make the count follow the states.
    rows = []
    for k_max in (20, 200):
        model = builtin_model(name, replace(DEFAULT_PARAMS, k_max=k_max))
        g = build_reachability_graph(model)
        g.label_sets
        assert len(model._compiled.table) <= _class_count(model)
        rows.append(len(model._compiled.table))
    assert rows[0] == rows[1]


def test_counter_compared_with_non_integer_literals_still_explores():
    # Validation rejects these literals, but exploring such a model keeps
    # its plain comparison semantics instead of failing in the cut points.
    m = Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 4), 0),),
        parameters={},
        transitions=(
            Transition(
                "up",
                Timed(RateExpr(1.0)),
                And((Comparison("x", "!=", "none"), Comparison("x", "<", 2.5))),
                (Shift("x", 1),),
            ),
            Transition("reset", Timed(RateExpr(1.0)), Comparison("x", "==", "none"), (SetValue("x", 0),)),
        ),
        labels=(Label("none", Comparison("x", "==", "none")), Label("high", Comparison("x", ">=", 1.5))),
    )
    assert {e.code for e in validate_model(m).errors} == {"TYPE_MISMATCH"}
    g = build_reachability_graph(m)
    assert g.states == ((0,), (1,), (2,), (3,))
    assert [(e.src, e.transition, e.dst) for e in g.edges] == [(0, "up", 1), (1, "up", 2), (2, "up", 3)]
    assert g.label_sets == {"none": frozenset(), "high": frozenset({2, 3})}
