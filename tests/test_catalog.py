"""Built-in model structure: transition tables, parameters, reachability facts."""

from __future__ import annotations

import pytest

from infradep import (
    InvalidParamError,
    ModelParams,
    SetValue,
    accidental_model,
    build_reachability_graph,
    builtin_model,
    label_sets,
    var_eq,
)
from .oracles import apply_update_raw, by_name, eval_guard, exhaustive_reachability, firings_raw

ACCIDENTAL_TABLE = [
    "masked_passive",
    "masked_active",
    "signalled",
    "i_restoration",
    "e_failure_normal",
    "e_failure_escal_sev",
    "e_failure_escal_rest",
    "e_fail_accumulate",
    "cfg_change_first",
    "cfg_change_more",
    "cfg_overflow",
    "outage_constraint",
    "cfg_restoration",
    "e_restoration_fast",
    "e_restoration_slow",
    "i_weaken",
    "i_unweaken",
]


def test_accidental_transition_table(model_a):
    assert [t.name for t in model_a.transitions] == ACCIDENTAL_TABLE
    assert len(model_a.labels) == 8


def test_accumulation_transition_shape(model_a):
    t = by_name(model_a)["e_fail_accumulate"]
    assert t.guard == var_eq("elec", "partial_e_outage")
    assert t.update == (SetValue("elec", "e_lost"),)


def test_slow_restoration_rate_uses_rho():
    m = accidental_model(ModelParams(rho=0.5, mu_e=4.0))
    transitions = by_name(m)
    assert transitions["e_restoration_slow"].kind.rate.value(m.parameters) == pytest.approx(2.0)
    assert transitions["e_restoration_fast"].kind.rate.value(m.parameters) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(rho=0.0),
        dict(rho=1.5),
        dict(k_max=0),
        dict(lambda_e=-1.0),
        dict(mu_i=0.0),
        dict(p8=1.2),
        dict(lambda_e=float("inf")),
    ],
)
def test_invalid_params_rejected(bad):
    with pytest.raises(InvalidParamError):
        accidental_model(ModelParams(**bad))


def test_p8_extremes_drop_zero_rate_branch():
    only6 = builtin_model("common-cause", ModelParams(p8=0.0))
    names6 = {t.name for t in only6.transitions}
    assert "cc_to_6" in names6 and "cc_to_8" not in names6

    only8 = builtin_model("common-cause", ModelParams(p8=1.0))
    names8 = {t.name for t in only8.transitions}
    assert "cc_to_8" in names8 and "cc_to_6" not in names8


def test_common_cause_rates_split_lambda_cc(models):
    m = models["common-cause"]
    transitions = by_name(m)
    for name in ("cc_to_6", "cc_to_8"):
        assert transitions[name].kind.rate.value(m.parameters) == pytest.approx(0.0005)


def test_cc_enabled_in_normal_operation(models, graphs):
    m = models["common-cause"]
    from infradep import initial_state

    names = {t.name for t, _ in firings_raw(m, initial_state(m))[0]}
    assert {"cc_to_6", "cc_to_8"} <= names


def test_common_cause_outdegree_dominates_accidental(graphs):
    ga, gb = graphs["accidental"], graphs["common-cause"]
    (pa, _, _), (pb, _, _) = ga.adjacency, gb.adjacency
    index_a = {s: i for i, s in enumerate(ga.states)}
    index_b = {s: i for i, s in enumerate(gb.states)}
    shared = index_a.keys() & index_b.keys()
    assert shared
    for s in shared:
        ia, ib = index_a[s], index_b[s]
        if ga.tangible[ia] and gb.tangible[ib]:
            assert pb[ib + 1] - pb[ib] >= pa[ia + 1] - pa[ia]


def test_cascading_only_blackout_narrative_path(graphs):
    # state1 -> state2 (masked failure) -> state7 (unconfined e-failure).
    from infradep import initial_state

    g = graphs["cascading-only"]
    m = g.model
    path = [initial_state(m)]
    for name in ("masked_passive", "e_failure_escal_sev"):
        t = by_name(m)[name]
        assert t in [fired for fired, _ in firings_raw(m, path[-1])[0]]
        path.append(apply_update_raw(m, path[-1], t))
    index = {s: i for i, s in enumerate(g.states)}
    sets = label_sets(g)
    assert index[path[1]] in sets["state2"]
    assert index[path[2]] in sets["state7"]


def test_cascading_only_never_weakens(graphs):
    for s in graphs["cascading-only"].states:
        assert s[0] != "i_weakened"


def test_cascading_only_covers_projected_accidental_states(graphs):
    # Collapsing the weakening constraint onto the working status maps
    # every two-way-coupled state into the one-way model's state set.
    # The converse fails on exactly the states where a latent error sits
    # on top of a partial outage: two-way coupling re-routes those runs
    # through the instant weakening, so they never arise there.
    a0_states = set(graphs["cascading-only"].states)
    projected = {
        (("i_working" if s[0] == "i_weakened" else s[0]),) + s[1:]
        for s in graphs["accidental"].states
    }
    assert projected <= a0_states
    for s in a0_states - projected:
        assert s[0] in ("passive_latent", "active_latent")
        assert s[1] == "partial_e_outage"


def test_attack_detected_means_synced(graphs):
    g = graphs["attack"]
    m = g.model
    i = m.var_index
    for s in g.states:
        if s[i["attack"]] == "detected":
            assert s[i["real_info"]] == s[i["app_info"]]
            assert s[i["real_elec"]] == s[i["app_elec"]]


def test_attack_active_deception_hides_weakening(graphs):
    # While an active deception is on and configuration changes happened,
    # the grid looks untouched to the operator.
    g = graphs["attack"]
    m = g.model
    i = m.var_index
    seen = 0
    for s in g.states:
        if s[i["attack"]] == "active_dec" and s[i["n_cfg"]] >= 1:
            if s[i["real_elec"]] == "e_weakened" and s[i["app_elec"]] == "e_working":
                seen += 1
            assert s[i["app_info"]] == "i_working"
    assert seen > 0


def test_attack_state8_reachable_by_overflow(graphs):
    g = graphs["attack"]
    sets = label_sets(g)
    assert len(sets["state8"])


def test_every_builtin_matches_exhaustive_oracle(models, graphs):
    # BFS construction agrees with enumerate-the-domain-then-filter.
    for name, model in models.items():
        order, tangible, edges = exhaustive_reachability(model)
        g = graphs[name]
        assert set(g.states) == set(order)
        assert {s for i, s in enumerate(g.states) if g.tangible[i]} == tangible
        assert len(g.edges) == len(edges)


def test_model_b_adds_no_states(graphs):
    assert set(graphs["common-cause"].states) >= set(graphs["accidental"].states)
    # Common cause introduces extra reachable corners but no new statuses:
    # every new state only differs in already-existing value combinations.
    extra = set(graphs["common-cause"].states) - set(graphs["accidental"].states)
    for s in extra:
        assert s[0] in ("i_working", "passive_latent", "active_latent",
                        "partial_i_outage", "i_weakened")


def test_labels_reachable_in_accidental(graphs):
    sets = label_sets(graphs["accidental"])
    for name in ("state1", "state2", "state3", "state4", "state5", "state6",
                 "state7", "state8"):
        assert len(sets[name]), name


def test_guard_literal_k_follows_param():
    m = accidental_model(ModelParams(k_max=3))
    assert m.variable("n_cfg").domain.hi == 3
    guard = by_name(m)["cfg_overflow"].guard
    # The threshold is baked into the guard as a literal.
    assert eval_guard(guard, ("active_latent", "e_weakened", 3), m.var_index)
    assert not eval_guard(guard, ("active_latent", "e_weakened", 2), m.var_index)


# (states, tangible states, edges) of the reachability graphs, recorded from
# the Python constructors the packaged files replaced.
PINNED_SIZES = {
    ("accidental", 1, 0.5): (32, 28, 73),
    ("accidental", 3, 0.5): (40, 36, 91),
    ("accidental", 20, 0.5): (108, 104, 244),
    ("cascading-only", 1, 0.5): (32, 32, 95),
    ("cascading-only", 3, 0.5): (40, 40, 113),
    ("cascading-only", 20, 0.5): (108, 108, 266),
    ("common-cause", 1, 0.5): (32, 28, 121),
    ("common-cause", 3, 0.5): (64, 56, 243),
    ("common-cause", 20, 0.5): (336, 294, 1280),
    ("attack", 1, 0.5): (43, 43, 98),
    ("attack", 3, 0.5): (57, 57, 126),
    ("attack", 20, 0.5): (176, 176, 364),
    ("common-cause", 2, 0.0): (48, 42, 146),
    ("common-cause", 2, 1.0): (48, 42, 146),
}


def test_builtin_graph_sizes_pinned():
    for (name, k_max, p8), sizes in PINNED_SIZES.items():
        g = build_reachability_graph(builtin_model(name, ModelParams(k_max=k_max, p8=p8)))
        assert (len(g.states), sum(g.tangible), len(g.edges)) == sizes, (name, k_max, p8)
