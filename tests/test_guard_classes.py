"""The firing table: one row per guard class, exact on every state."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from unittest import mock

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
    validate_model,
    var_eq,
)
from infradep import model as model_module
from infradep.model import PAGE_CLASSES, eval_guard_kleene, eval_guards, guard_predicate

from .oracles import (
    OutsideDomain,
    assert_label_sets_match_guards,
    domain_product,
    eval_guard,
    eval_guard_partial,
    exhaustive_reachability,
    explore_matches_oracle,
    firings_raw,
    moves,
)

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


def _guards(variables, valid=False):
    def comparison(v):
        if isinstance(v.domain, EnumDomain):
            return st.builds(
                Comparison, st.just(v.name), st.sampled_from(("==", "!=")),
                st.sampled_from(v.domain.values),
            )
        # Literals reach past both ends of the range; unless the model must
        # validate, non-integral and integral floats fall between or on the
        # integer cut points.
        literal = st.integers(v.domain.lo - 3, v.domain.hi + 3)
        if not valid:
            literal |= st.sampled_from((-0.5, 1.5, 2.0))
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


def _updates(variables, valid=False):
    """One to three assignments to distinct variables.  Unless the model
    must validate, now and then a literal lies outside its domain."""

    # The simplest draws (first in each list) move a variable away from its
    # simplest value, so that the simplest models have several states.
    def assignment(v):
        if isinstance(v.domain, EnumDomain):
            outside = () if valid else ("zzz",)
            return st.builds(SetValue, st.just(v.name), st.sampled_from(v.domain.values[::-1] * 4 + outside))
        inside = tuple(v.domain)[::-1] * 3
        outside = () if valid else (v.domain.lo - 1, v.domain.hi + 1)
        return st.builds(Shift, st.just(v.name), st.sampled_from((1, -1))) | st.builds(
            SetValue, st.just(v.name), st.sampled_from(inside + outside)
        )

    return st.lists(
        st.one_of([assignment(v) for v in variables]), min_size=1, max_size=3, unique_by=lambda a: a.var
    ).map(tuple)


@st.composite
def _models(draw, valid=False):
    """Random models; with ``valid``, only ones that validate."""
    variables = draw(_variables())
    guards = _guards(variables, valid)
    # Variables that no guard or label compares: an enum, and a counter
    # without cut points.
    free = (VariableDecl("u", EnumDomain(("a", "b")), "a"), VariableDecl("c", IntDomain(0, 2), 0))
    variables += tuple(v for v in free if draw(st.booleans()))
    updates = _updates(variables, valid)
    timed = st.builds(Timed, st.builds(RateExpr, st.sampled_from((0.5, 1.0, 3.0))))
    kinds = timed | timed | st.builds(Immediate, st.integers(0, 2), st.sampled_from((0.25, 1.0, 3.0)))
    domains = {v.name: v.domain for v in variables}
    transitions = []
    for k in range(draw(st.integers(1, 5))):
        guard, update = draw(guards), draw(updates)
        # Keep every shift (unless the model need not validate, about half
        # of them) inside its range by its guard.
        for a in update:
            if isinstance(a, Shift) and (valid or draw(st.booleans())):
                dom = domains[a.var]
                bound = Comparison(a.var, "<", dom.hi) if a.delta > 0 else Comparison(a.var, ">", dom.lo)
                guard = And((guard, bound))
        transitions.append(Transition(f"t{k}", draw(kinds), guard, update))
    transitions = tuple(transitions)
    labels = tuple(Label(f"l{k}", draw(guards)) for k in range(draw(st.integers(0, 3))))
    return Model("random", variables, {}, transitions, labels)


def _with_init(model, init):
    return replace(model, variables=tuple(replace(v, init=x) for v, x in zip(model.variables, init)))


@settings(max_examples=100, deadline=None)
@given(model=_models(valid=True), data=st.data())
def test_explore_matches_exhaustive_oracle(model, data):
    # Explore walks integer codes with per-class code steps; from each of
    # a few initial states it must agree with the oracle's plain tuples.
    # The initial states are drawn from those that some firing leaves, so
    # that few examples compare a single state (any state if none moves).
    states = list(domain_product(model))
    pool = [s for s in states if moves(model, s)] or states
    inits = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    for init in inits:
        m = _with_init(model, init)
        assert validate_model(m).ok
        event(explore_matches_oracle(m))


@settings(max_examples=100, deadline=None)
@given(model=_models(), data=st.data())
def test_walk_leaving_the_domain_fails_validation_and_explore(model, data):
    # The code steps assume that no firing leaves its variable's domain:
    # wherever the oracle's walk does, validation must report an error and
    # explore, which checks first, must refuse the model.
    inits = data.draw(st.lists(st.sampled_from(list(domain_product(model))), min_size=1, max_size=4))
    for init in inits:
        m = _with_init(model, init)
        try:
            exhaustive_reachability(m)
        except OutsideDomain:
            with pytest.raises(InvalidModelError):
                build_reachability_graph(m)
            assert validate_model(m).errors
            event("leaves the domain")
        else:
            event("stays in the domain")


@settings(max_examples=100, deadline=None)
@given(model=_models(), data=st.data(), order=st.randoms(use_true_random=False))
def test_table_matches_direct_guard_walk(model, data, order):
    # Rows are filled from whichever class comes first, so visit the domain
    # in a random order; every other state must read a row that equals its
    # own direct evaluation.  The probe guard is drawn apart from the
    # model's, so its literals are mostly ones no model guard uses.  A
    # second table has pages of at most 2 classes, so that each classed
    # variable past the first splits it into more pages.
    states = list(domain_product(model))
    order.shuffle(states)
    with mock.patch.object(model_module, "PAGE_CLASSES", 2):
        small = model_module._CompiledModel(model)
    tables = (model._compiled, small)
    index = model.var_index
    probe = data.draw(_guards(model.variables))
    holds = guard_predicate(model, probe)
    for s in states:
        assert holds(s) == eval_guard(probe, s, index), s
        firings, vanishing = firings_raw(model, s)
        for comp in tables:
            row = comp.rows[comp.row_id(s)]
            assert row.vanishing == vanishing, s
            assert [model.transitions[i].name for i in row.chosen] == [t.name for t, _ in firings]
            assert list(row.values) == [value for _, value in firings]
            if vanishing:
                weights = [t.kind.weight for t, _ in firings]
                total = sum(weights)
                assert list(row.cumulative) == [sum(weights[: k + 1]) / total for k in range(len(weights))]
            assert row.labels == tuple(eval_guard(l.predicate, s, index) for l in model.labels)
    for comp in tables:
        assert len(comp.table) <= len(states)
        # A page is evaluated once, when the first of its classes is met.
        assert len(comp.pages) == len({key[len(comp.places):] for key in comp.table})
    event(f"{len(small.pages)} pages of at most 2 classes")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_interpreter_matches_three_valued_oracle(data):
    # Some variables are unknown; the known ones take values of their
    # domain or, for a counter, one step past it.  The interpreter must
    # agree with the oracle at width 1 and at every point of a random
    # universe, which spreads each known variable over up to three values
    # and repeats the whole pattern up to three times.
    variables = data.draw(_variables())
    guards = data.draw(st.lists(_guards(variables), min_size=1, max_size=3))

    def value(v):
        if isinstance(v.domain, EnumDomain):
            return st.sampled_from(v.domain.values)
        return st.integers(v.domain.lo - 1, v.domain.hi + 1)

    known = data.draw(st.lists(st.sampled_from(variables), unique=True))
    partial = {v.name: data.draw(value(v)) for v in known}
    for guard in guards:
        assert eval_guard_kleene(guard, partial) == eval_guard_partial(guard, partial)
    universe, size = {}, 1
    for v in known:
        values = tuple(data.draw(st.lists(value(v), min_size=1, max_size=3)))
        universe[v.name] = (size, values)
        size *= len(values)
    size *= data.draw(st.integers(1, 3))
    for guard, (true, false) in zip(guards, eval_guards(guards, universe, size)):
        assert true >> size == false >> size == 0
        for p in range(size):
            point = {var: values[p // place % len(values)] for var, (place, values) in universe.items()}
            want = eval_guard_partial(guard, point)
            assert (true >> p & 1, false >> p & 1) == (want is True, want is False), (guard, point)


@settings(max_examples=100, deadline=None)
@given(model=_models(valid=True))
def test_unsatisfiable_guard_warned_iff_no_state_satisfies_it(model):
    report = validate_model(model)
    assert report.ok
    warned = {w.where for w in report.warnings if w.code == "UNSATISFIABLE_GUARD"}
    states = list(domain_product(model))
    for t in model.transitions:
        satisfiable = any(eval_guard(t.guard, s, model.var_index) for s in states)
        assert (f"transition {t.name}" in warned) == (not satisfiable), t
    event(f"{len(warned)} unsatisfiable")


def _bits_model(width):
    """``width`` two-valued enums, each set and reset by a timed transition,
    with an immediate that clears the lowest where the highest is set, and
    labels on the highest and on a mix: every class is one state."""
    bits = tuple(VariableDecl(f"b{k}", EnumDomain(("a", "b")), "a") for k in range(width))
    transitions = []
    for k in range(width):
        transitions.append(Transition(f"set{k}", Timed(RateExpr(1.0 + k)), var_eq(f"b{k}", "a"), (SetValue(f"b{k}", "b"),)))
        transitions.append(Transition(f"reset{k}", Timed(RateExpr(0.5)), var_eq(f"b{k}", "b"), (SetValue(f"b{k}", "a"),)))
    top = f"b{width - 1}"
    transitions.append(
        Transition("clear", Immediate(1, 1.0), And((var_eq(top, "b"), var_eq("b0", "b"))), (SetValue("b0", "a"),))
    )
    labels = (Label("high", var_eq(top, "b")), Label("mix", Or((var_eq("b0", "a"), Not(var_eq("b1", "b"))))))
    return Model("bits", bits, {}, tuple(transitions), labels)


def test_class_space_past_one_page_matches_oracle():
    # 13 two-valued enums make 8,192 classes: the low 12 fill one page of
    # 4,096 and the highest picks one of two pages.
    model = _bits_model(13)
    assert validate_model(model).ok
    assert explore_matches_oracle(model) == "several states"
    comp = model._compiled
    assert (comp.page_size, len(comp.places), len(comp.pages)) == (PAGE_CLASSES, 12, 2)
    assert_label_sets_match_guards(build_reachability_graph(model))


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_each_builtin_evaluates_one_page(name):
    # Every built-in's classes fit one page at any k_max, so the interpreter
    # runs once per model, over all guards and labels, and a row's fill
    # reads bits without calling it.
    for k_max in (2, 20, 200, 2000):
        model = builtin_model(name, replace(DEFAULT_PARAMS, k_max=k_max))
        assert validate_model(model).ok
        calls = []
        with mock.patch.object(model_module, "eval_guards", lambda *a: calls.append(a) or eval_guards(*a)):
            build_reachability_graph(model).label_sets
        comp = model._compiled
        assert (len(calls), len(comp.pages)) == (1, 1)
        assert len(calls[0][0]) == len(model.transitions) + len(model.labels)
        assert len(comp.rows) > 1


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


def test_undeclared_variable_in_label_raises_at_explore():
    m = builtin_model("accidental")
    bad = replace(m, labels=m.labels + (Label("ghost", var_eq("nope", "x")),))
    with pytest.raises(InvalidModelError) as info:
        build_reachability_graph(bad)
    assert [(e.code, e.where) for e in info.value.report.errors] == [("UNDECLARED_IDENT", "label ghost")]
