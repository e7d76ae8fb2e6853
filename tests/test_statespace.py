"""Reachability graphs, vanishing elimination, labels."""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from infradep import (
    And,
    Comparison,
    EnumDomain,
    Immediate,
    ImmediateCycleError,
    IntDomain,
    InvalidModelError,
    Label,
    Model,
    RateExpr,
    SetValue,
    Shift,
    StateLimitExceeded,
    Timed,
    Transition,
    VariableDecl,
    build_reachability_graph,
    eliminate_vanishing,
    label_sets,
    parse_model,
    var_eq,
)
from infradep.catalog import BUILTIN_MODELS, DEFAULT_PARAMS, builtin_model
from infradep.statespace import _restrict

from .oracles import (
    assert_label_sets_match_guards,
    ctmc_of,
    dense_eliminate,
    edge_tuples,
    exhaustive_reachability,
    hand_reduced_accidental,
    label_lists,
    out_sums,
)


def _flip(name, var, frm, to, rate=1.0):
    return Transition(name, Timed(RateExpr(rate)), var_eq(var, frm), (SetValue(var, to),))


def test_two_independent_flip_variables():
    m = Model(
        name="m",
        variables=(
            VariableDecl("x", EnumDomain(("a", "b")), "a"),
            VariableDecl("y", EnumDomain(("c", "d")), "c"),
        ),
        parameters={},
        transitions=(
            _flip("x_up", "x", "a", "b"),
            _flip("x_down", "x", "b", "a"),
            _flip("y_up", "y", "c", "d"),
            _flip("y_down", "y", "d", "c"),
        ),
    )
    g = build_reachability_graph(m)
    assert len(g.states) == 4
    assert all(g.tangible)
    assert len(g.edges) == 8


def test_numbering_is_bfs_in_declaration_order(model_a):
    g = build_reachability_graph(model_a)
    assert g.states[0] == ("i_working", "e_working", 0)
    # First successors follow the transition declaration order.
    assert g.states[1] == ("passive_latent", "e_working", 0)
    assert g.states[2] == ("active_latent", "e_working", 0)


def test_reordering_transitions_keeps_state_and_edge_sets(model_a):
    from dataclasses import replace

    g1 = build_reachability_graph(model_a)
    reordered = replace(model_a, transitions=tuple(reversed(model_a.transitions)))
    g2 = build_reachability_graph(reordered)
    assert set(g1.states) == set(g2.states)
    by_content_1 = {(g1.states[s], t, g1.states[d], v) for s, t, d, v in edge_tuples(g1)}
    by_content_2 = {(g2.states[s], t, g2.states[d], v) for s, t, d, v in edge_tuples(g2)}
    assert by_content_1 == by_content_2


def _arc_model(values, arcs, init=None):
    """One enum variable over ``values``; each arc ``(frm, to, kind)`` fires
    from ``x == frm`` to ``x := to``."""
    return Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(tuple(values)), init or values[0]),),
        parameters={},
        transitions=tuple(
            Transition(f"t{i}_{frm}_{to}", kind, var_eq("x", frm), (SetValue("x", to),))
            for i, (frm, to, kind) in enumerate(arcs)
        ),
    )


def _imm(weight=1.0):
    return Immediate(1, weight)


def _rate(rate):
    return Timed(RateExpr(rate))


def test_immediate_two_cycle_detected():
    two_cycle = _arc_model("ab", [("a", "b", _imm()), ("b", "a", _imm())])
    self_loop = _arc_model("ab", [("a", "a", _imm()), ("a", "b", _rate(1.0))])
    # The 3-cycle a -> b -> c -> a is entered only after a timed step from s.
    three_cycle = _arc_model(
        ["s", "a", "b", "c"],
        [("s", "a", _rate(1.0)), ("a", "b", _imm()), ("b", "c", _imm()), ("c", "a", _imm())],
    )
    for m, on_cycle in ((two_cycle, "ab"), (self_loop, "a"), (three_cycle, "abc")):
        with pytest.raises(ImmediateCycleError) as info:
            build_reachability_graph(m)
        assert cycle_states(info.value.message) == {f"x={v}" for v in on_cycle}


def cycle_states(message: str) -> set[str]:
    """The states an ``ImmediateCycleError`` message lists after its colon,
    each in parentheses, with only ", " between them."""
    listed = message.split(": ", 1)[1]
    states = re.findall(r"\(([^()]*)\)", listed)
    assert listed == ", ".join(f"({s})" for s in states), message
    return set(states)


# A timed step from s enters the immediate cycle a -> b -> a; y stays 0,
# so each state on the cycle prints as two variables.
TWO_VARIABLE_CYCLE = """
model m {
  var x : {s, a, b} init s;
  var y : [0..1] init 0;
  timed enter rate 1.0 when x == s -> { x := a; };
  immediate go prio 1 weight 1.0 when x == a -> { x := b; };
  immediate back prio 1 weight 1.0 when x == b -> { x := a; };
}
"""


def test_immediate_cycle_message_delimits_each_state():
    with pytest.raises(ImmediateCycleError) as info:
        build_reachability_graph(parse_model(TWO_VARIABLE_CYCLE))
    assert cycle_states(info.value.message) == {"x=a, y=0", "x=b, y=0"}


def test_eliminate_rejects_hand_built_cycle():
    # A graph built without the explorer's check must not hang the reduction.
    from infradep import ReachabilityGraph

    m = _arc_model("sab", [("s", "a", _rate(1.0)), ("a", "b", _imm()), ("b", "a", _imm())])
    g = ReachabilityGraph(
        model=m,
        states=(("s",), ("a",), ("b",)),
        tangible=(True, False, False),
        edge_src=np.array([0, 1, 2]),
        edge_dst=np.array([1, 2, 1]),
        edge_transition=np.array([0, 1, 2]),
        edge_value=np.array([1.0, 1.0, 1.0]),
        initial=0,
    )
    with pytest.raises(ImmediateCycleError):
        eliminate_vanishing(g)


def test_state_limit():
    from infradep import Comparison, Shift

    m = Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 99), 0),),
        parameters={},
        transitions=(
            Transition("inc", Timed(RateExpr(1.0)), Comparison("x", "<", 99), (Shift("x", 1),)),
        ),
    )
    with pytest.raises(StateLimitExceeded):
        build_reachability_graph(m, limit=10)
    # The cap counts states: 100 fit in a cap of 100, not in one of 99.
    assert len(build_reachability_graph(m, limit=100).states) == 100
    with pytest.raises(StateLimitExceeded):
        build_reachability_graph(m, limit=99)


def _two_var_model(update, init=(0, "a")):
    """A counter ``x`` over 0..4 and an enum ``e`` over a, b; one timed
    transition fires ``update`` from the initial state."""
    return Model(
        name="m",
        variables=(
            VariableDecl("x", IntDomain(0, 4), init[0]),
            VariableDecl("e", EnumDomain(("a", "b")), init[1]),
        ),
        parameters={},
        transitions=(Transition("t", _rate(1.0), var_eq("x", 0), update),),
    )


def _carry_model(delta):
    """Counter ``x`` over 0..1 and enum ``e`` over a, b.  Shifting ``x`` by
    ``delta`` twice leaves its range, and the code one step further is
    that of a state reachable by setting ``e``: no code arithmetic may
    mistake one for the other."""
    x0, e0, e1 = (0, "a", "b") if delta > 0 else (1, "b", "a")
    return Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 1), x0), VariableDecl("e", EnumDomain(("a", "b")), e0)),
        parameters={},
        transitions=(
            Transition("shift", _rate(1.0), var_eq("e", e0), (Shift("x", delta),)),
            Transition("flip", _rate(1.0), var_eq("e", e0), (SetValue("e", e1),)),
        ),
    )


def _enum_shift_model(*updates):
    """Enum ``x`` over a, b, and one transition per update, each enabled
    in ``x == a``: a ``Shift`` of ``x`` has no enum value to land on."""
    return Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("a", "b")), "a"),),
        parameters={},
        transitions=tuple(
            Transition(f"t{i}", _rate(1.0), var_eq("x", "a"), (u,)) for i, u in enumerate(updates)
        ),
    )


@pytest.mark.parametrize(
    "model, code",
    [
        (_two_var_model((SetValue("x", 99),)), "OUT_OF_DOMAIN_UPDATE"),
        (_two_var_model((SetValue("e", "zzz"),)), "TYPE_MISMATCH"),
        (_two_var_model((), init=(7, "a")), "BAD_INIT"),
        (_carry_model(1), "OUT_OF_DOMAIN_UPDATE"),
        (_carry_model(-1), "OUT_OF_DOMAIN_UPDATE"),
        (_enum_shift_model(Shift("x", 1)), "TYPE_MISMATCH"),
        (_enum_shift_model(SetValue("x", "b"), Shift("x", 1)), "TYPE_MISMATCH"),
        (_two_var_model((Shift("e", -1),)), "TYPE_MISMATCH"),
    ],
    ids=["counter-set", "enum-set", "init", "shift-up", "shift-down",
         "enum-shift", "enum-shift-onto-found-state", "enum-shift-unguarded"],
)
def test_explore_rejects_values_outside_the_domain(model, code):
    # Explore validates the model first, and validation finds each value
    # that a state could hold outside its variable's domain.
    with pytest.raises(InvalidModelError) as info:
        build_reachability_graph(model)
    assert [e.code for e in info.value.report.errors] == [code]


# Explore moves from a state's code to its target's code and row by
# arithmetic on the mixed radix; each model below drives one kind of step
# and checks the graph, label sets included, against the oracle's tuples.


def _assert_explore_matches_oracle(m):
    order, tangible, edges = exhaustive_reachability(m)
    g = build_reachability_graph(m)
    assert list(g.states) == order
    assert repr(list(g.states)) == repr(order)  # 1 == True and 2 == 2.0, but not in repr
    assert {s for s, t in zip(g.states, g.tangible) if t} == tangible
    assert [(g.states[s], t, g.states[d], v) for s, t, d, v in edge_tuples(g)] == edges
    assert_label_sets_match_guards(g)
    return g


def _counter_model(hi, transitions, labels=(), extra=()):
    """Counter ``x`` over 0..``hi`` from 0, the ``extra`` variables after it."""
    return Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, hi), 0),) + tuple(extra),
        parameters={},
        transitions=tuple(Transition(name, _rate(rate), guard, update)
                          for name, rate, guard, update in transitions),
        labels=tuple(labels),
    )


def _reset_model():
    # The classes of x are 0..1, 2, 3..8 and 9: the reset fires from 3..8,
    # where x takes six values, and from 9, where it takes one.
    return _counter_model(9, [
        ("up", 1.0, Comparison("x", "<", 9), (Shift("x", 1),)),
        ("reset", 2.0, Comparison("x", ">", 2), (SetValue("x", 0),)),
    ], labels=[Label("high", Comparison("x", ">", 2))])


def test_reset_from_a_wide_class_matches_oracle():
    g = _assert_explore_matches_oracle(_reset_model())
    assert len(g.states) == 10


def test_shifts_across_cuts_both_ways_match_oracle():
    # Cut points 0, 1, 3, 4, 6 and 7: both shifts cross into and out of
    # the one-value classes 0, 3 and 6 and the wider ones between them.
    g = _assert_explore_matches_oracle(_counter_model(6, [
        ("up", 1.0, Comparison("x", "<", 6), (Shift("x", 1),)),
        ("down", 2.0, Comparison("x", ">", 0), (Shift("x", -1),)),
    ], labels=[Label("mid", var_eq("x", 3))]))
    assert label_lists(g) == {"mid": [3]}


def test_enum_set_on_a_class_that_does_not_fix_it_matches_oracle():
    # No guard compares e, so a class holds every value of e and setting it
    # is no constant code step; x's shift crosses its cuts meanwhile.
    _assert_explore_matches_oracle(_counter_model(3, [
        ("step", 1.0, Comparison("x", "<", 3), (Shift("x", 1), SetValue("e", "b"))),
        ("back", 2.0, Comparison("x", ">", 0), (Shift("x", -1), SetValue("e", "c"))),
        ("home", 3.0, var_eq("x", 3), (SetValue("e", "a"),)),
    ], labels=[Label("top", var_eq("x", 3))], extra=[VariableDecl("e", EnumDomain(("a", "b", "c")), "a")]))


def test_one_transition_shifting_two_classed_counters_matches_oracle():
    # x's classes are 0, 1..2, 3, 4 and 5, y's 0, 1, 2, 3..4 and 5.
    # ``both`` and ``swap`` shift x and y together, in the same and in
    # opposite directions: from the class x in 1..2, y in 3..4, ``both``
    # takes (1, 3) to neither's next class, (2, 3) to x's, (1, 4) to y's
    # and (2, 4) to both, four targets in four classes.
    g = _assert_explore_matches_oracle(_counter_model(5, [
        ("both", 1.0, And((Comparison("x", "<", 5), Comparison("y", "<", 5))), (Shift("x", 1), Shift("y", 1))),
        ("swap", 2.0, And((Comparison("x", ">", 0), Comparison("y", "<", 5))), (Shift("x", -1), Shift("y", 1))),
        ("x_down", 3.0, Comparison("x", ">", 0), (Shift("x", -1),)),
        ("y_down", 5.0, Comparison("y", ">", 0), (Shift("y", -1),)),
    ], labels=[Label("x_high", Comparison("x", ">=", 3)), Label("y_high", Comparison("y", ">=", 2))],
        extra=[VariableDecl("y", IntDomain(0, 5), 0)]))
    assert len(g.states) == 36


def test_states_past_two_to_the_63_decode_exactly():
    # A domain product past 2^63 keeps its codes as Python ints, and every
    # state, found by a shift or a set, decodes to its exact values.
    big = 2**63 + 5
    m = Model(
        name="m",
        variables=(
            VariableDecl("x", IntDomain(0, 99999999999999999999), big),
            VariableDecl("e", EnumDomain(("a", "b")), "a"),
        ),
        parameters={},
        transitions=(
            Transition("up", _rate(1.0), Comparison("x", "<", big + 3), (Shift("x", 1),)),
            Transition("down", _rate(2.0), Comparison("x", ">", big), (Shift("x", -1),)),
            Transition("flip", _rate(3.0), var_eq("x", big + 3), (SetValue("e", "b"),)),
        ),
        labels=(Label("top", Comparison("x", ">=", big + 2)),),
    )
    # The oracle would enumerate the whole domain: the order is by hand.
    order = [(big + i, "a") for i in range(4)] + [(big + i, "b") for i in (3, 2, 1, 0)]
    g = build_reachability_graph(m)
    assert g.states.codes.dtype == object
    assert list(g.states) == order and repr(g.states) == repr(tuple(order))
    assert label_lists(g) == {"top": [2, 3, 4, 5]}
    assert eliminate_vanishing(g).states == tuple(order)


def test_states_are_decoded_once_and_only_when_read(monkeypatch):
    # The pipeline reads the states only through ``len``; the first other
    # read of a graph's states decodes them all at once, and the tuple is
    # kept.
    import infradep.statespace as statespace
    from infradep import graph_summary, mean_time_to_absorption, steady_state, transient

    calls = []
    decode_all = statespace._decode_all
    monkeypatch.setattr(statespace, "_decode_all", lambda *a: calls.append(1) or decode_all(*a))
    for name in BUILTIN_MODELS:
        g = build_reachability_graph(builtin_model(name, replace(DEFAULT_PARAMS, k_max=200)))
        c = eliminate_vanishing(g)
        steady_state(c)
        transient(c, 1.0)
        mean_time_to_absorption(c, c.label_sets["state8"], allow_defective=True)
        graph_summary(g)
        graph_summary(c)
        assert calls == [], name
        first = list(g.states)
        assert len(calls) == 1, name
        assert g.states[0] == first[0] and g.states == tuple(first) and len(calls) == 1
        list(c.states)
        assert len(calls) == 2, name
        calls.clear()


@pytest.mark.parametrize("lo, hi, init, delta", [(0, 2, 0, 1), (-1, 1, 0, -1)])
def test_unclassed_counter_shifted_past_its_bound_names_the_value(lo, hi, init, delta):
    # No guard compares x, so its class would span the whole range; the
    # guard admits the bound the shift leaves from, and explore's check
    # names it.
    m = Model(
        name="m",
        variables=(VariableDecl("e", EnumDomain(("a", "b")), "a"), VariableDecl("x", IntDomain(lo, hi), init)),
        parameters={},
        transitions=(Transition("t", _rate(1.0), var_eq("e", "a"), (Shift("x", delta),)),),
    )
    with pytest.raises(InvalidModelError) as info:
        build_reachability_graph(m)
    assert [(e.code, e.where) for e in info.value.report.errors] == [("OUT_OF_DOMAIN_UPDATE", "transition t")]
    assert f"guard admits x={hi if delta > 0 else lo}" in info.value.message


# Decodes per explore of a fresh model, by k_max: one per step outcome
# first met, which reads the target's row and, for a row no walk has met,
# fills its steps from the same tuple.
EXPLORE_DECODES = {
    "accidental": {2: 33, 2000: 34},
    "cascading-only": {2: 33, 2000: 34},
    "common-cause": {2: 39, 2000: 40},
    "attack": {2: 49, 2000: 51},
}


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_explore_encodes_once_and_fills_rows_per_class(name, monkeypatch):
    # Every step computes its target's code from the source's code, and its
    # target's row once per (row, step, whether a shifted counter leaves
    # its class), so no call follows the state count.
    for k_max, decodes in EXPLORE_DECODES[name].items():
        model = builtin_model(name, replace(DEFAULT_PARAMS, k_max=k_max))
        comp = model._compiled
        calls = {"encode": 0, "row_id": 0, "decode": 0}
        for method in calls:
            def counted(*args, _method=method, _inner=getattr(comp, method)):
                calls[_method] += 1
                return _inner(*args)
            monkeypatch.setattr(comp, method, counted)
        g = build_reachability_graph(model)
        assert len(g.states) > (8000 if k_max == 2000 else 30)
        assert calls["encode"] == 1
        assert calls["row_id"] <= len(comp.rows) + 2 * sum(len(row.chosen) for row in comp.rows)
        met = sum(row >= 0 for out in comp.steps for *_, known in out for row in known)
        assert calls["decode"] == met == decodes


def test_state_cap_raises_at_one_past_the_limit():
    # The cap counts states on every kind of step: the reset model has 10.
    m = _reset_model()
    assert len(build_reachability_graph(m, limit=10).states) == 10
    with pytest.raises(StateLimitExceeded) as info:
        build_reachability_graph(m, limit=9)
    assert info.value.limit == 9


def test_vanishing_probability_one_chain():
    # A --timed lam--> V, V --immediate--> B  =>  CTMC edge A->B at lam.
    m = Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("a", "v", "b")), "a"),),
        parameters={"lam": 2.5},
        transitions=(
            Transition("go", Timed(RateExpr(1.0, "lam")), var_eq("x", "a"), (SetValue("x", "v"),)),
            Transition("jump", Immediate(1, 1.0), var_eq("x", "v"), (SetValue("x", "b"),)),
        ),
    )
    c = eliminate_vanishing(build_reachability_graph(m))
    assert [s[0] for s in c.states] == ["a", "b"]
    q = c.generator.toarray()
    assert q[0, 1] == pytest.approx(2.5, abs=0)
    assert q[0, 0] == pytest.approx(-2.5, abs=0)
    assert q[1].sum() == 0.0  # absorbing


def test_vanishing_weight_split():
    # V --w=1--> B, V --w=3--> C  =>  rates lam/4 and 3 lam/4.
    m = Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("a", "v", "b", "c")), "a"),),
        parameters={"lam": 2.0},
        transitions=(
            Transition("go", Timed(RateExpr(1.0, "lam")), var_eq("x", "a"), (SetValue("x", "v"),)),
            Transition("to_b", Immediate(1, 1.0), var_eq("x", "v"), (SetValue("x", "b"),)),
            Transition("to_c", Immediate(1, 3.0), var_eq("x", "v"), (SetValue("x", "c"),)),
        ),
    )
    g = build_reachability_graph(m)
    vanishing_values = [v for s, _, _, v in edge_tuples(g) if not g.tangible[s]]
    assert sum(vanishing_values) == pytest.approx(1.0, abs=1e-12)
    c = eliminate_vanishing(g)
    idx = {s[0]: i for i, s in enumerate(c.states)}
    q = c.generator.toarray()
    assert q[idx["a"], idx["b"]] == pytest.approx(0.5, abs=1e-15)
    assert q[idx["a"], idx["c"]] == pytest.approx(1.5, abs=1e-15)


def test_accidental_reduction_matches_hand_composed_model(ctmc_a):
    # The weakening immediates, folded by eliminate_vanishing, must give
    # the same generator as a model where they were composed by hand.
    pre = ctmc_of(hand_reduced_accidental())
    assert set(pre.states) == set(ctmc_a.states)
    # No state with a working info status and a failed grid survives.
    for s in ctmc_a.states:
        assert not (s[0] == "i_working" and s[1] in ("partial_e_outage", "e_lost"))
    perm = [pre.states.index(s) for s in ctmc_a.states]
    qa = ctmc_a.generator.toarray()
    qp = pre.generator.toarray()[np.ix_(perm, perm)]
    assert np.abs(qa - qp).max() <= 1e-12


def test_outflow_preserved(graphs):
    # Total exit rate of every tangible state survives the reduction.
    for g in graphs.values():
        c = eliminate_vanishing(g)
        compact = {}
        for i, tang in enumerate(g.tangible):
            if tang:
                compact[i] = len(compact)
        q = c.generator
        out = out_sums(g)
        for old, new in compact.items():
            out_graph = out[old]
            out_ctmc = -q[new, new]
            if out_graph == 0:
                assert out_ctmc == 0
            else:
                assert abs(out_ctmc - out_graph) <= 1e-12 * out_graph


def test_identity_on_immediate_free_models(graphs):
    g = graphs["cascading-only"]
    c = eliminate_vanishing(g)
    assert c.states == g.states
    rates = {}
    for src, _, dst, value in edge_tuples(g):
        if src != dst:
            rates[(src, dst)] = rates.get((src, dst), 0.0) + value
    q = c.generator.tocoo()
    off = {(i, j): v for i, j, v in zip(q.row, q.col, q.data) if i != j and v != 0}
    assert off == pytest.approx(rates)


def test_initial_through_vanishing_chain():
    # A vanishing initial state turns into a distribution over tangibles.
    m = Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("v", "b", "c")), "v"),),
        parameters={},
        transitions=(
            Transition("to_b", Immediate(1, 1.0), var_eq("x", "v"), (SetValue("x", "b"),)),
            Transition("to_c", Immediate(1, 1.0), var_eq("x", "v"), (SetValue("x", "c"),)),
            Transition("tick", Timed(RateExpr(1.0)), var_eq("x", "b"), (SetValue("x", "c"),)),
        ),
    )
    c = eliminate_vanishing(build_reachability_graph(m))
    assert sorted(c.initial.tolist()) == [0.5, 0.5]


def test_label_sets_on_graph_and_ctmc(graphs, ctmcs):
    # Fully-working states: the counter can sit at 0 or, after a blackout
    # recovery that skipped configuration restoration, at its ceiling.
    # (n_cfg=1 forces a pass through e_weakened, which resets it.)
    c = ctmcs["accidental"]
    assert sorted(c.states[i] for i in c.label_sets["state1"]) == [
        ("i_working", "e_working", 0),
        ("i_working", "e_working", 2),
    ]


def test_label_sets_and_tangible_match_the_guards():
    # Each label is a sorted int64 array of the states where its guard
    # holds: on explored graphs and their chains, and on a hand-built graph
    # (no recorded row ids, kinds given as a tuple) and its chain.
    from infradep import ReachabilityGraph

    arcs = [("s", "a", _rate(1.0)), ("a", "b", _imm()), ("b", "s", _rate(3.0))]
    labels = (Label("away", Comparison("x", "!=", "s")), Label("mid", var_eq("x", "a")))
    hand = ReachabilityGraph(
        model=replace(_arc_model("sab", arcs), labels=labels),
        states=(("s",), ("a",), ("b",)),
        tangible=(True, False, True),
        edge_src=np.array([0, 1, 2]),
        edge_dst=np.array([1, 2, 0]),
        edge_transition=np.array([0, 1, 2]),
        edge_value=np.array([1.0, 1.0, 3.0]),
        initial=0,
    )
    assert hand.tangible.tolist() == [True, False, True]
    assert label_lists(hand) == {"away": [1, 2], "mid": [1]}
    assert label_lists(eliminate_vanishing(hand)) == {"away": [1], "mid": []}
    graphs = [hand] + [
        build_reachability_graph(builtin_model(name, replace(DEFAULT_PARAMS, k_max=k)))
        for name in BUILTIN_MODELS
        for k in (2, 20)
    ]
    for g in graphs:
        assert_label_sets_match_guards(g)
        assert_label_sets_match_guards(eliminate_vanishing(g))


def test_unsatisfiable_label_is_empty(model_a):
    from dataclasses import replace

    weird = replace(
        model_a,
        labels=model_a.labels
        + (Label("never", And((var_eq("info", "i_working"), var_eq("info", "i_weakened")))),),
    )
    g = build_reachability_graph(weird)
    assert label_sets(g)["never"].tolist() == []


def test_generator_row_sums_and_diagonal(ctmcs):
    for c in ctmcs.values():
        rows = np.abs(np.asarray(c.generator.sum(axis=1))).ravel()
        assert rows.max() <= 1e-12
        assert c.generator.diagonal().max() <= 0.0


def test_edges_replay_and_probabilities_sum(graphs):
    # Every edge's guard holds in its source and its target is the exact
    # firing result; vanishing out-probabilities sum to one.
    from .oracles import apply_update_raw, by_name, eval_guard

    for g in graphs.values():
        m = g.model
        transitions = by_name(m)
        edges = edge_tuples(g)
        for i, name, j, _ in edges:
            t = transitions[name]
            src = g.states[i]
            assert eval_guard(t.guard, src, m.var_index)
            assert apply_update_raw(m, src, t) == g.states[j]
        for i, tang in enumerate(g.tangible):
            out = [(name, value) for src, name, _, value in edges if src == i]
            if not tang:
                assert all(not transitions[name].is_timed for name, _ in out)
                assert abs(sum(value for _, value in out) - 1.0) <= 1e-12
            else:
                assert all(transitions[name].is_timed for name, _ in out)


def test_deceived_label_matches_componentwise_divergence(graphs):
    g = graphs["attack"]
    m = g.model
    i = m.var_index
    expected = [
        k
        for k, s in enumerate(g.states)
        if s[i["real_info"]] != s[i["app_info"]] or s[i["real_elec"]] != s[i["app_elec"]]
    ]
    assert label_sets(g)["deceived"].tolist() == expected


def _assert_matches_dense(m):
    c = eliminate_vanishing(build_reachability_graph(m))
    states, q, initial = dense_eliminate(m)
    assert sorted(c.states) == sorted(states)
    perm = [states.index(s) for s in c.states]
    assert np.abs(c.generator.toarray() - q[np.ix_(perm, perm)]).max() <= 1e-12
    assert np.abs(c.initial - initial[perm]).max() <= 1e-12
    return c


@pytest.mark.parametrize("name", ["accidental", "cascading-only", "common-cause", "attack"])
def test_builtin_elimination_matches_dense_oracle(name):
    from dataclasses import replace

    from infradep import DEFAULT_PARAMS, builtin_model

    p8s = (0.0, 0.5, 1.0) if name == "common-cause" else (DEFAULT_PARAMS.p8,)
    for k in (1, 2, 3):
        for p8 in p8s:
            _assert_matches_dense(builtin_model(name, replace(DEFAULT_PARAMS, k_max=k, p8=p8)))


def test_depth_three_chain_with_diamond():
    # s --2--> a; a splits 1:3 over b1 and b2, which merge again in c;
    # b2 also leaves half its mass to d; c splits evenly over d and e.
    m = _arc_model(
        ["s", "a", "b1", "b2", "c", "d", "e"],
        [("s", "a", _rate(2.0)), ("a", "b1", _imm(1.0)), ("a", "b2", _imm(3.0)),
         ("b1", "c", _imm()), ("b2", "c", _imm()), ("b2", "d", _imm()),
         ("c", "d", _imm()), ("c", "e", _imm()), ("d", "s", _rate(1.0)), ("e", "s", _rate(0.5))],
    )
    g = build_reachability_graph(m)
    assert any(not g.tangible[i] and not g.tangible[j] for i, _, j, _ in edge_tuples(g))
    c = _assert_matches_dense(m)
    idx = {s[0]: i for i, s in enumerate(c.states)}
    assert [s[0] for s in c.states] == ["s", "d", "e"]
    # P(d) = 1/4 * 1/2 + 3/4 * (1/2 + 1/2 * 1/2) = 11/16, P(e) = 5/16.
    q = c.generator.toarray()
    assert q[idx["s"], idx["d"]] == pytest.approx(2.0 * 11 / 16, abs=1e-15)
    assert q[idx["s"], idx["e"]] == pytest.approx(2.0 * 5 / 16, abs=1e-15)


def test_self_loop_mass_is_dropped():
    # s --3--> a; a returns to s with probability 1/3 and goes on to d with 2/3.
    # The returning rate 1 is invisible to the CTMC: s leaves at rate 2, not 3.
    m = _arc_model(
        ["s", "a", "d"],
        [("s", "a", _rate(3.0)), ("a", "s", _imm(1.0)), ("a", "d", _imm(2.0)),
         ("d", "s", _rate(1.0))],
    )
    g = build_reachability_graph(m)
    assert out_sums(g)[0] == 3.0
    c = _assert_matches_dense(m)
    q = c.generator.toarray()
    assert [s[0] for s in c.states] == ["s", "d"]
    assert q[0, 1] == pytest.approx(2.0, abs=1e-15)
    assert q[0, 0] == pytest.approx(-2.0, abs=1e-15)


def test_vanishing_initial_through_two_levels():
    # v0 splits 1:3 over v1a and v1b, which reach t1, t2 and t3 only.
    m = _arc_model(
        ["v0", "v1a", "v1b", "t1", "t2", "t3"],
        [("v0", "v1a", _imm(1.0)), ("v0", "v1b", _imm(3.0)),
         ("v1a", "t1", _imm()), ("v1a", "t2", _imm()),
         ("v1b", "t2", _imm(1.0)), ("v1b", "t3", _imm(2.0)),
         ("t1", "t2", _rate(1.0)), ("t2", "t3", _rate(1.0)), ("t3", "t1", _rate(1.0))],
    )
    c = _assert_matches_dense(m)
    assert [s[0] for s in c.states] == ["t1", "t2", "t3"]
    assert c.initial == pytest.approx([1 / 8, 3 / 8, 1 / 2], abs=1e-15)


def test_dropped_graph_is_freed_without_the_cycle_collector(model_a):
    # A graph and its model, the model's firing table and code steps
    # included, hold no reference cycle, so dropping them frees their
    # states and edges at once instead of at the next full collection.
    import gc
    import weakref
    from dataclasses import replace

    m = replace(model_a)
    g = build_reachability_graph(m)
    assert g.adjacency[0][1] > 0 and len(g.edges) == len(g.edge_src)
    assert any(resets for out in m._compiled.steps if out for _, resets, _, _ in out)
    g.label_sets
    eliminate_vanishing(g)
    refs = weakref.ref(g), weakref.ref(m), weakref.ref(m._compiled)
    gc.disable()
    try:
        del g, m
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_adjacency_lists_out_edges_in_order():
    # A hand-built graph need not group its edges by source.
    from infradep import ReachabilityGraph

    m = _arc_model("sab", [("s", "a", _rate(1.0)), ("a", "b", _rate(2.0)), ("b", "s", _rate(3.0))])
    g = ReachabilityGraph(
        model=m,
        states=(("s",), ("a",), ("b",)),
        tangible=(True, True, True),
        edge_src=np.array([2, 0, 2, 0]),
        edge_dst=np.array([0, 1, 1, 2]),
        edge_transition=np.array([2, 0, 1, 0]),
        edge_value=np.array([3.0, 1.0, 2.0, 1.0]),
        initial=0,
    )
    graphs = [g] + [
        build_reachability_graph(builtin_model(name, replace(DEFAULT_PARAMS, k_max=20)))
        for name in BUILTIN_MODELS
    ]
    for g in graphs:
        indptr, dst, transition = g.adjacency
        assert len(indptr) == len(g.states) + 1
        edges = edge_tuples(g)
        for i in range(len(g.states)):
            span = range(indptr[i], indptr[i + 1])
            out = [(d, t) for s, t, d, _ in edges if s == i]
            assert [(dst[k], transition[k]) for k in span] == out


def _graph_digest(g) -> str:
    h = hashlib.sha256()
    h.update(f"{g.states!r}\n{tuple(g.tangible.tolist())!r}\n".encode())
    for a in (g.edge_src, g.edge_dst, g.edge_transition, g.edge_value):
        h.update(a.dtype.str.encode() + b"\n" + a.tobytes())
    for name, idx in sorted(g.label_sets.items()):
        h.update(f"\n{name} {idx.tolist()}".encode())
    return h.hexdigest()


# Explore's output must not change by one bit: state numbering, kinds, the
# four edge arrays (bytes and dtypes) and the label sets.
PINNED_GRAPHS = {
    "accidental 2": "56e060748aea3447a4dfe280bb6f90fba92817642163b6661b2a70521d8854f5",
    "accidental 20": "f0c6ae8561e25267d5ea952b706eb6af2673e9801949be0a52c5048bc73fdc77",
    "accidental 200": "c540baf5d1744fda8dacbc288dcef7b7a2c1bc3d996758122f590bf6f6ac5bb0",
    "cascading-only 2": "56b9eb5993f646f8d2f0022590b9477844f3a717a8844c361f10e5bb2320bd60",
    "cascading-only 20": "f53cf6390502599f0b1183df2cb53d57a8ac7f2e023b8636629f006057c5a5d5",
    "cascading-only 200": "aaa8f083f22e543f2529f5845fbca8eef7827403b3bcaa6247b067ee480d7d1c",
    "common-cause 2": "adbcc0680124e4556e0ff75c00a67f3b34e1bc3091d36c32bf174ec3393de1a0",
    "common-cause 20": "18632d28c5c27b521d2d8d44fdd25a5420d73a8a3a21649738bdc4434292223f",
    "common-cause 200": "eea97742c00e8a26dd048a751ebdaaf55e8d55eea750a257c842e8bd959b201e",
    "attack 2": "a99e9845e5a7e12a0f554bc7f908b998e11b9221a2958031e1d13fbb668eebd9",
    "attack 20": "2a3f915a7400ca6ef831532eb47c212d11e190deed44a1a18cef4486d4532dda",
    "attack 200": "d6bc265a67f9aac5436b983c4f4f7bce2da9504ca3013ba6403d21818b1fa435",
}


@pytest.mark.parametrize("case", sorted(PINNED_GRAPHS))
def test_graphs_match_pinned_digests(case):
    name, k_max = case.split()
    g = build_reachability_graph(builtin_model(name, replace(DEFAULT_PARAMS, k_max=int(k_max))))
    assert _graph_digest(g) == PINNED_GRAPHS[case]


@st.composite
def _restrict_cases(draw):
    """A dense matrix with a zero diagonal, which rows and columns to keep
    (None, none or a random subset), a diagonal over those with zero and
    nonzero entries, and a scale or None."""
    n = draw(st.integers(0, 7))
    value = st.floats(1e-6, 1e6)
    a = np.array(draw(st.lists(st.one_of(st.just(0.0), value), min_size=n * n, max_size=n * n)))
    a = a.reshape(n, n)
    np.fill_diagonal(a, 0.0)
    keep = draw(st.one_of(
        st.none(),
        st.just(np.zeros(n, dtype=bool)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(lambda k: np.array(k, dtype=bool)),
    ))
    size = n if keep is None else int(keep.sum())
    entry = st.one_of(st.just(0.0), value.map(lambda x: -x), value)
    diag = np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=float)
    # A subnormal scale rounds some products to 0, which are not stored.
    scale = draw(st.one_of(st.none(), st.floats(1e-320, 1e300)))
    return a, keep, diag, scale


@settings(max_examples=200, deadline=None)
@given(case=_restrict_cases(), fmt=st.sampled_from((sp.csr_matrix, sp.csc_matrix)))
def test_restrict_matches_the_dense_principal_submatrix(case, fmt):
    # The kept block times the scale plus the diagonal, in the input's
    # format, with sorted indices, no duplicate and no stored zero: an
    # absorbing state's zero diagonal is not stored.
    a, keep, diag, scale = case
    idx = np.arange(len(a)) if keep is None else np.flatnonzero(keep)
    want = a[np.ix_(idx, idx)] * (1.0 if scale is None else scale) + np.diag(diag)
    m = fmt(a)
    got = _restrict(m, keep, diag, scale)
    assert type(got) is fmt
    assert got.shape == want.shape
    assert np.array_equal(got.toarray(), want)
    assert not (got.data == 0).any()
    for j in range(got.shape[0]):
        assert (np.diff(got.indices[got.indptr[j] : got.indptr[j + 1]]) > 0).all()
    # The input is left as it was.
    assert np.array_equal(m.toarray(), a)
