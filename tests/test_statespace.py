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

from .oracles import ctmc_of, hand_reduced_accidental


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


def test_immediate_two_cycle_detected():
    m = Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("a", "b")), "a"),),
        parameters={},
        transitions=(
            Transition("go", Immediate(1, 1.0), var_eq("x", "a"), (SetValue("x", "b"),)),
            Transition("back", Immediate(1, 1.0), var_eq("x", "b"), (SetValue("x", "a"),)),
        ),
    )
    with pytest.raises(ImmediateCycleError):
        build_reachability_graph(m)


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
