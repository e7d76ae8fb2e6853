"""Core formalism: firing semantics, preemption, purity, domain closure."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infradep import (
    BUILTIN_MODELS,
    Immediate,
    IntDomain,
    InvalidModelError,
    Model,
    RateExpr,
    SetValue,
    Shift,
    Timed,
    Transition,
    VariableDecl,
    build_reachability_graph,
    initial_state,
    var_eq,
)

from .oracles import SplitMix64, apply_update_raw, by_name, firings_raw


def _explore_from(model: Model, state: tuple):
    """The reachability graph of ``model`` started in ``state``."""
    variables = tuple(replace(v, init=x) for v, x in zip(model.variables, state))
    return build_reachability_graph(replace(model, variables=variables))


def _out(g, i: int = 0) -> list[tuple[str, int]]:
    """``(transition name, target index)`` of each out-edge of state ``i``."""
    indptr, dst, names = g.adjacency
    return [(names[k], dst[k]) for k in range(indptr[i], indptr[i + 1])]


def test_initial_state_accidental(model_a):
    assert initial_state(model_a) == ("i_working", "e_working", 0)


def test_initial_state_single_var():
    m = Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 1), 1),),
        parameters={},
        transitions=(
            Transition("t", Timed(RateExpr(1.0)), var_eq("x", 1), (SetValue("x", 0),)),
        ),
    )
    assert initial_state(m) == (1,)


def test_initial_state_attack(models):
    m = models["attack"]
    assert initial_state(m) == ("none", "i_working", "e_working", "i_working", "e_working", 0)


def test_enabled_at_accidental_init(graphs):
    # Exactly the timed transitions whose guards cover (i_working, e_working).
    g = graphs["accidental"]
    assert [name for name, _ in _out(g)] == [
        "masked_passive", "masked_active", "signalled", "e_failure_normal",
    ]
    assert g.tangible[0]


def test_immediate_preempts_timed(model_a):
    g = _explore_from(model_a, ("i_working", "partial_e_outage", 0))
    assert [name for name, _ in _out(g)] == ["i_weaken"]
    assert not g.tangible[0]


def test_no_transition_enabled():
    m = Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 1), 0),),
        parameters={},
        transitions=(
            Transition("t", Timed(RateExpr(1.0)), var_eq("x", 1), (SetValue("x", 0),)),
        ),
    )
    g = build_reachability_graph(m)
    assert g.states == ((0,),) and g.tangible.tolist() == [True]
    assert _out(g) == []


def test_priority_preemption():
    low = Transition("low", Immediate(1, 1.0), var_eq("x", 0), (SetValue("x", 1),))
    high = Transition("high", Immediate(2, 1.0), var_eq("x", 0), (SetValue("x", 2),))
    m = Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 2), 0),),
        parameters={},
        transitions=(low, high),
    )
    g = build_reachability_graph(m)
    assert [name for name, _ in _out(g)] == ["high"]
    assert not g.tangible[0]


def test_apply_single_assignment(model_a):
    g = _explore_from(model_a, ("i_working", "e_working", 0))
    targets = {name: g.states[j] for name, j in _out(g)}
    assert targets["masked_passive"] == ("passive_latent", "e_working", 0)


def test_apply_increment(model_a):
    g = _explore_from(model_a, ("active_latent", "e_weakened", 1))
    targets = {name: g.states[j] for name, j in _out(g)}
    assert targets["cfg_change_more"] == ("active_latent", "e_weakened", 2)


def test_runtime_out_of_domain():
    # A shift that would leave its range when it fires makes the model
    # invalid, and explore checks the model before it fires anything.
    m = Model(
        name="m",
        variables=(VariableDecl("x", IntDomain(0, 1), 1),),
        parameters={},
        transitions=(
            Transition("t", Timed(RateExpr(1.0)), var_eq("x", 1), (Shift("x", 1),)),
        ),
    )
    with pytest.raises(InvalidModelError) as info:
        build_reachability_graph(m)
    assert [e.code for e in info.value.report.errors] == ["OUT_OF_DOMAIN_UPDATE"]


def test_enabled_never_mixes_kinds(graphs):
    # In every reachable state of every builtin model, the out-edges fire
    # timed transitions out of a tangible state and immediates of one
    # priority out of a vanishing one.
    for g in graphs.values():
        transitions = by_name(g.model)
        for i, tangible in enumerate(g.tangible):
            fired = [transitions[name] for name, _ in _out(g, i)]
            assert all(t.is_timed == tangible for t in fired)
            if not tangible:
                assert len({t.kind.priority for t in fired}) == 1


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BUILTIN_MODELS)), seed=st.integers(0, 2**63 - 1))
def test_random_walk_closure_and_frame_rule(graphs, name, seed):
    # Fuzz over reachable states: the explorer's out-edges are the oracle's
    # firings, and each edge's target is the oracle's update, inside the
    # domain, with untouched variables passed through bit-identically.
    g = graphs[name]
    model = g.model
    transitions = by_name(model)
    rng = SplitMix64(seed)
    i = g.initial
    for _ in range(60):
        s = g.states[i]
        out = _out(g, i)
        assert [n for n, _ in out] == [t.name for t, _ in firings_raw(model, s)[0]]
        if not out:
            break
        t_name, i = out[rng.next_u64() % len(out)]
        t = transitions[t_name]
        nxt = g.states[i]
        assert nxt == apply_update_raw(model, s, t)
        assert all(x in v.domain for x, v in zip(nxt, model.variables))
        touched = {a.var for a in t.update}
        for k, v in enumerate(model.variables):
            if v.name not in touched:
                assert nxt[k] is s[k] or nxt[k] == s[k]
