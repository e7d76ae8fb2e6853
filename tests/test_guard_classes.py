"""The firing table: one row per guard class, exact on every state."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from infradep import (
    BUILTIN_MODELS,
    DEFAULT_PARAMS,
    And,
    Comparison,
    EnumDomain,
    Immediate,
    ImmediateCycleError,
    IntDomain,
    Label,
    Model,
    Not,
    Or,
    OutOfDomainError,
    RateExpr,
    SetValue,
    Shift,
    Timed,
    Transition,
    VariableDecl,
    build_reachability_graph,
    builtin_model,
    validate_model,
    var_eq,
)
from infradep.model import guard_predicate

from .oracles import domain_product, edge_tuples, eval_guard, exhaustive_reachability, firings_raw

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


def _updates(variables):
    """One to three assignments to distinct variables.  Now and then a
    literal lies outside its domain, and shifts are unguarded, so some
    reachable firings leave the domain."""

    # The simplest draws (first in each list) move a variable away from its
    # simplest value, so that the simplest models have several states.
    def assignment(v):
        if isinstance(v.domain, EnumDomain):
            return st.builds(SetValue, st.just(v.name), st.sampled_from(v.domain.values[::-1] * 4 + ("zzz",)))
        inside = tuple(v.domain)[::-1] * 3
        return st.builds(Shift, st.just(v.name), st.sampled_from((1, -1))) | st.builds(
            SetValue, st.just(v.name), st.sampled_from(inside + (v.domain.lo - 1, v.domain.hi + 1))
        )

    return st.lists(
        st.one_of([assignment(v) for v in variables]), min_size=1, max_size=3, unique_by=lambda a: a.var
    ).map(tuple)


@st.composite
def _models(draw):
    variables = draw(_variables())
    guards = _guards(variables)
    # Variables that no guard or label compares: an enum, and a counter
    # without cut points.
    free = (VariableDecl("u", EnumDomain(("a", "b")), "a"), VariableDecl("c", IntDomain(0, 2), 0))
    variables += tuple(v for v in free if draw(st.booleans()))
    updates = _updates(variables)
    timed = st.builds(Timed, st.builds(RateExpr, st.sampled_from((0.5, 1.0, 3.0))))
    kinds = timed | timed | st.builds(Immediate, st.integers(0, 2), st.sampled_from((0.25, 1.0, 3.0)))
    domains = {v.name: v.domain for v in variables}
    transitions = []
    for k in range(draw(st.integers(1, 5))):
        guard, update = draw(guards), draw(updates)
        # Keep about half the shifts inside their range by their guard.
        for a in update:
            if isinstance(a, Shift) and draw(st.booleans()):
                dom = domains[a.var]
                bound = Comparison(a.var, "<", dom.hi) if a.delta > 0 else Comparison(a.var, ">", dom.lo)
                guard = And((guard, bound))
        transitions.append(Transition(f"t{k}", draw(kinds), guard, update))
    transitions = tuple(transitions)
    labels = tuple(Label(f"l{k}", draw(guards)) for k in range(draw(st.integers(0, 3))))
    return Model("random", variables, {}, transitions, labels)


def _has_immediate_cycle(tangible, edges) -> bool:
    """Whether the edges between vanishing states close a cycle: strip
    vanishing states without a vanishing successor until none is left."""
    succ: dict = {}
    for src, _, dst, _ in edges:
        if src not in tangible and dst not in tangible:
            succ.setdefault(src, set()).add(dst)
    left = set(succ)
    while True:
        sinks = {s for s in left if not succ[s] & left}
        if not sinks:
            return bool(left)
        left -= sinks


def _explore_matches_oracle(model) -> str:
    """Check explore against the exhaustive oracle on ``model``: the same
    states in order, kinds and edges, or the same failure.  Returns which."""
    try:
        order, tangible, edges = exhaustive_reachability(model)
    except OutOfDomainError:
        with pytest.raises(OutOfDomainError):
            build_reachability_graph(model)
        return "leaves the domain"
    if _has_immediate_cycle(tangible, edges):
        with pytest.raises(ImmediateCycleError):
            build_reachability_graph(model)
        return "immediate cycle"
    g = build_reachability_graph(model)
    assert list(g.states) == order
    assert {s for s, t in zip(g.states, g.tangible) if t} == tangible
    names = [t.name for t in model.transitions]
    assert [
        (g.states[s], names[t], g.states[d], v)
        for s, t, d, v in zip(g.edge_src.tolist(), g.edge_transition.tolist(),
                              g.edge_dst.tolist(), g.edge_value.tolist())
    ] == edges
    return "one state" if len(order) == 1 else "several states"


@settings(max_examples=100, deadline=None)
@given(model=_models(), data=st.data())
def test_explore_matches_exhaustive_oracle(model, data):
    # Explore walks integer codes with per-class code steps; from each of
    # a few initial states it must agree with the oracle's plain tuples.
    inits = data.draw(st.lists(st.sampled_from(list(domain_product(model))), min_size=1, max_size=4))
    for init in inits:
        variables = tuple(replace(v, init=x) for v, x in zip(model.variables, init))
        event(_explore_matches_oracle(replace(model, variables=variables)))


@settings(max_examples=100, deadline=None)
@given(model=_models(), data=st.data(), order=st.randoms(use_true_random=False))
def test_table_matches_direct_guard_walk(model, data, order):
    # Rows are filled from whichever state of a class comes first, so visit
    # the domain in a random order; every other state must read a row that
    # equals its own direct evaluation.  The probe guard is drawn apart from
    # the model's, so its literals are mostly ones no model guard uses.
    states = list(domain_product(model))
    order.shuffle(states)
    comp = model._compiled
    index = model.var_index
    probe = data.draw(_guards(model.variables))
    holds = guard_predicate(model, probe)
    for s in states:
        assert holds(s) == eval_guard(probe, s, index), s
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
    assert [(s, t, d) for s, t, d, _ in edge_tuples(g)] == [(0, "up", 1), (1, "up", 2), (2, "up", 3)]
    assert g.label_sets == {"none": frozenset(), "high": frozenset({2, 3})}


def test_undeclared_variable_in_label_raises_at_explore():
    m = builtin_model("accidental")
    bad = replace(m, labels=m.labels + (Label("ghost", var_eq("nope", "x")),))
    with pytest.raises(KeyError):
        build_reachability_graph(bad)
