"""Reachability graphs, vanishing elimination, labels."""

from __future__ import annotations

import numpy as np
import pytest

from infradep import (
    EnumDomain,
    Immediate,
    ImmediateCycleError,
    IntDomain,
    Label,
    Model,
    RateExpr,
    SetValue,
    StateLimitExceeded,
    Timed,
    Transition,
    VariableDecl,
    build_reachability_graph,
    eliminate_vanishing,
    label_sets,
    var_eq,
)

from .oracles import ctmc_of, dense_eliminate, hand_reduced_accidental


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
    by_content_1 = {(g1.states[e.src], e.transition, g1.states[e.dst], e.value) for e in g1.edges}
    by_content_2 = {(g2.states[e.src], e.transition, g2.states[e.dst], e.value) for e in g2.edges}
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
        named = {part.strip() for part in info.value.message.split(":", 1)[1].split(",")}
        assert named == {f"x={v}" for v in on_cycle}


def test_eliminate_rejects_hand_built_cycle():
    # A graph built without the explorer's check must not hang the reduction.
    from infradep import Edge, ReachabilityGraph

    m = _arc_model("sab", [])
    g = ReachabilityGraph(
        model=m,
        states=(("s",), ("a",), ("b",)),
        tangible=(True, False, False),
        edges=(Edge(0, "go", 1, 1.0), Edge(1, "ab", 2, 1.0), Edge(2, "ba", 1, 1.0)),
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
    vanishing_edges = [e for e in g.edges if not g.tangible[e.src]]
    assert sum(e.value for e in vanishing_edges) == pytest.approx(1.0, abs=1e-12)
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
        for old, new in compact.items():
            out_graph = sum(e.value for e in g.out_edges[old])
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
    for e in g.edges:
        if e.src != e.dst:
            rates[(e.src, e.dst)] = rates.get((e.src, e.dst), 0.0) + e.value
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


def test_unsatisfiable_label_is_empty(model_a):
    from dataclasses import replace

    from infradep import g_and

    weird = replace(
        model_a,
        labels=model_a.labels
        + (Label("never", g_and(var_eq("info", "i_working"), var_eq("info", "i_weakened"))),),
    )
    g = build_reachability_graph(weird)
    assert label_sets(g)["never"] == frozenset()


def test_generator_row_sums_and_diagonal(ctmcs):
    for c in ctmcs.values():
        rows = np.abs(np.asarray(c.generator.sum(axis=1))).ravel()
        assert rows.max() <= 1e-12
        assert c.generator.diagonal().max() <= 0.0


def test_edges_replay_and_probabilities_sum(graphs):
    # Every edge's guard holds in its source and its target is the exact
    # firing result; vanishing out-probabilities sum to one.
    from infradep import apply_transition

    from .oracles import eval_guard

    for g in graphs.values():
        m = g.model
        for e in g.edges:
            t = m.transition_map[e.transition]
            src = g.states[e.src]
            assert eval_guard(t.guard, src, m.var_index)
            assert apply_transition(m, src, t) == g.states[e.dst]
        for i, tang in enumerate(g.tangible):
            out = g.out_edges[i]
            if not tang:
                assert all(not m.transition_map[e.transition].is_timed for e in out)
                assert abs(sum(e.value for e in out) - 1.0) <= 1e-12
            else:
                assert all(m.transition_map[e.transition].is_timed for e in out)


def test_deceived_label_matches_componentwise_divergence(graphs):
    g = graphs["attack"]
    m = g.model
    i = m.var_index
    expected = frozenset(
        k
        for k, s in enumerate(g.states)
        if s[i["real_info"]] != s[i["app_info"]] or s[i["real_elec"]] != s[i["app_elec"]]
    )
    assert label_sets(g)["deceived"] == expected


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
    assert any(not g.tangible[e.src] and not g.tangible[e.dst] for e in g.edges)
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
    assert sum(e.value for e in g.out_edges[0]) == 3.0
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
