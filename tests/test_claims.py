"""Qualitative claims as graph checks: suites, witnesses, rate invariance."""

from __future__ import annotations

import pytest

from infradep import (
    BUILTIN_MODELS,
    And,
    Comparison,
    InvalidArgError,
    ModelParams,
    Or,
    NotAttackModelError,
    UnknownLabelError,
    build_reachability_graph,
    builtin_model,
    eliminate_vanishing,
    export_dot,
    run_claims,
    var_eq,
)
from infradep.claims import (
    check_all_paths_contain,
    check_apparent_consistency,
    check_edge_coverage,
    check_path_exists,
    check_set_unreachable,
)
from infradep.export import graph_summary
from infradep.model import _CompiledModel

from .oracles import SplitMix64, assert_label_sets_match_guards, eval_guard


def test_all_builtin_suites_pass(graphs):
    for name, g in graphs.items():
        for res in run_claims(g):
            assert res.passed, f"{name}: {res.name}: {res.detail}"


def _count_label_evaluations(monkeypatch) -> list:
    """Patch the one label grouping, which ``g.label_sets`` runs (and
    ``statespace.states_where``, on a copy of the model); each call appends
    the model whose labels it grouped and the number of states."""
    import infradep.statespace as statespace

    calls = []
    real = statespace._label_sets_of_rows

    def counted(model, states, ids=None):
        calls.append((model, len(states)))
        return real(model, states, ids)

    monkeypatch.setattr(statespace, "_label_sets_of_rows", counted)
    return calls


def _own(calls, g) -> list:
    """The calls that grouped the labels of ``g``'s own model."""
    return [n for model, n in calls if model is g.model]


def test_run_claims_computes_label_sets_once(monkeypatch):
    calls = _count_label_evaluations(monkeypatch)
    for name in BUILTIN_MODELS:
        calls.clear()
        g = build_reachability_graph(builtin_model(name))
        run_claims(g)
        own = _own(calls, g)
        assert own == [len(g.states)], f"{g.model.name}: label sets computed {len(own)} times"


def test_pipeline_evaluates_label_guards_once(monkeypatch):
    # Explore, reduction, summary, DOT and the claim suite share the graph's
    # label sets; the CTMC's sets are the graph's, renumbered.
    calls = _count_label_evaluations(monkeypatch)
    for name in BUILTIN_MODELS:
        calls.clear()
        g = build_reachability_graph(builtin_model(name))
        c = eliminate_vanishing(g)
        for obj in (g, c):
            graph_summary(obj)
            export_dot(obj)
        run_claims(g)
        own = _own(calls, g)
        assert own == [len(g.states)], f"{g.model.name}: label guards evaluated {len(own)} times"
        # The sets grouped from the explorer's row ids, and the chain's
        # renumbered ones, hold the states where each label's guard holds.
        assert_label_sets_match_guards(g)
        assert_label_sets_match_guards(c)


def test_blackout_narrative_witness(graphs):
    res = check_path_exists(
        graphs["cascading-only"], "state1", "state7",
        via=("masked_passive", "e_failure_escal_sev"),
    )
    assert res.passed
    # Witness alternates states and transition names and passes through
    # the latent-error composite state.
    states = res.witness[::2]
    assert len(states) == 3
    assert states[1][0] == "passive_latent"


def test_path_without_via_finds_shortest(graphs):
    res = check_path_exists(graphs["accidental"], "state1", "state8")
    assert res.passed
    assert res.witness[0] == ("i_working", "e_working", 0)


def test_common_cause_jump_witness(graphs):
    res = check_path_exists(graphs["common-cause"], "state1", "state8", via=("cc_to_8",))
    assert res.passed


def test_latent_recovery_needs_no_grid_restoration(graphs):
    # From the latent-error state the grid may never have failed, so
    # recovery without any e-restoration exists: the cut check fails and
    # produces a counterexample path.
    res = check_all_paths_contain(
        graphs["accidental"], "state2", "state1",
        [frozenset({"e_restoration_fast", "e_restoration_slow"})],
    )
    assert not res.passed
    assert res.witness  # counterexample path avoiding both restorations
    used = set(res.witness[1::2])
    assert not (used & {"e_restoration_fast", "e_restoration_slow"})


def test_restoration_cut_sets(graphs):
    for src in ("state6", "state7", "state8"):
        res = check_all_paths_contain(
            graphs["accidental"], src, "state1",
            ["i_restoration", frozenset({"e_restoration_fast", "e_restoration_slow"})],
        )
        assert res.passed, res.detail


def test_apparent_consistency_detects_mutant(graphs):
    # Knock the apparent-status sync out of the detection transitions: the
    # check must fail and list offenders.
    from dataclasses import replace

    m = builtin_model("attack")
    mutated = []
    for t in m.transitions:
        if t.name.startswith("detection_"):
            t = replace(t, update=tuple(a for a in t.update if a.var != "app_elec"))
        mutated.append(t)
    mutant = replace(m, transitions=tuple(mutated))
    g = build_reachability_graph(mutant)
    res = check_apparent_consistency(g)
    assert not res.passed
    assert res.witness


def test_apparent_consistency_requires_attack_shape(graphs):
    with pytest.raises(NotAttackModelError):
        check_apparent_consistency(graphs["accidental"])


def test_unknown_label_raises(graphs):
    with pytest.raises(UnknownLabelError):
        check_path_exists(graphs["accidental"], "state1", "nosuch")


def test_set_unreachable_names_every_state_the_guard_holds_in(graphs):
    g = graphs["accidental"]
    guard = Or((Comparison("info", "==", "i_weakened"), Comparison("n_cfg", ">=", 2)))
    res = check_set_unreachable(g, guard, "probe")
    offenders = tuple(i for i, s in enumerate(g.states) if eval_guard(guard, s, g.model.var_index))
    assert offenders and not res.passed
    assert res.witness == offenders
    assert res.detail == f"{len(offenders)} reachable states match"


def test_set_unreachable_looks_up_one_row_per_class(monkeypatch):
    # The guard copy's classes are told apart from the graph's codes, and
    # each class's row is looked up once, not once per state: a guard on
    # ``info`` splits cascading-only's 828 states at k_max 200 into the four
    # values they hold, and no state is weakened.  With ``n_cfg > 150`` as
    # well, a counter splits at its cut points 150 and 151 too, and some
    # states offend.
    g = build_reachability_graph(builtin_model("cascading-only", ModelParams(k_max=200)))
    info, n = g.model.var_index["info"], g.model.var_index["n_cfg"]
    calls, row_id = [], _CompiledModel.row_id
    monkeypatch.setattr(_CompiledModel, "row_id", lambda comp, s: calls.append(s) or row_id(comp, s))
    for guard, class_of in (
        (var_eq("info", "i_weakened"), lambda s: s[info]),
        (And((var_eq("info", "active_latent"), Comparison("n_cfg", ">", 150))),
         lambda s: (s[info], (s[n] >= 150) + (s[n] >= 151))),
    ):
        calls.clear()
        res = check_set_unreachable(g, guard, "probe")
        offenders = tuple(i for i, s in enumerate(g.states) if eval_guard(guard, s, g.model.var_index))
        assert res.witness == offenders and res.passed == (not offenders)
        classes = set(map(class_of, g.states))
        assert len(calls) == len(set(map(class_of, calls))) == len(classes)
    assert (len(classes), len(offenders)) == (12, 53)


@pytest.mark.parametrize("guard, code", [
    (Comparison("nope", "==", 1), "UNDECLARED_IDENT"),
    (Comparison("elec", "<", 3), "TYPE_MISMATCH"),
    (Comparison("elec", "==", "bogus"), "TYPE_MISMATCH"),
], ids=["undeclared", "op", "value"])
def test_set_unreachable_refuses_a_guard_that_does_not_check(graphs, guard, code):
    with pytest.raises(InvalidArgError, match=rf"\[{code}\]"):
        check_set_unreachable(graphs["accidental"], guard, "probe")


def test_verdicts_invariant_under_rate_overrides(graphs):
    # Rates never appear in guards, so scaling them must not move any
    # verdict.  Randomized override grid with a fixed seed.
    base = {name: [r.passed for r in run_claims(g)] for name, g in graphs.items()}
    rng = SplitMix64(99)
    rate_fields = [
        f for f in ModelParams.__dataclass_fields__ if f not in ("rho", "k_max", "p8")
    ]
    for trial in range(3):
        overrides = {
            f: 10.0 ** ((rng.next_u64() % 2000) / 500.0 - 2.0) for f in rate_fields
        }
        overrides["rho"] = 0.1 + 0.8 * ((rng.next_u64() % 1000) / 1000.0)
        params = ModelParams(**overrides)
        for name in BUILTIN_MODELS:
            g = build_reachability_graph(builtin_model(name, params))
            verdicts = [r.passed for r in run_claims(g)]
            assert verdicts == base[name], (name, trial)


def test_unregistered_model_has_no_suite():
    from .oracles import two_state_chain

    g = build_reachability_graph(two_state_chain())
    with pytest.raises(UnknownLabelError):
        run_claims(g)


def test_edge_coverage_needs_both_exemptions(graphs):
    # Exempting only state6 leaves the state8 states uncovered: they have
    # no direct edge back into state6 (common cause is off inside them).
    # The offenders are those a walk over each state's out-edges finds.
    g = graphs["common-cause"]
    res = check_edge_coverage(g, "state6", exempt_labels=("state6",))
    assert not res.passed
    sets = {name: set(idx.tolist()) for name, idx in g.label_sets.items()}
    indptr, dst, _ = g.adjacency
    missing = tuple(
        i
        for i in range(len(g.states))
        if g.tangible[i]
        and i not in sets["state6"]
        and not any(dst[k] in sets["state6"] for k in range(indptr[i], indptr[i + 1]))
    )
    assert res.witness == missing and set(missing) <= sets["state8"]
    assert all(type(i) is int for i in missing)


def _counter_line(labels):
    """Counter ``x`` over 0..9 from 0, stepped up by ``up`` below 9."""
    from infradep import IntDomain, Model, RateExpr, Shift, Timed, Transition, VariableDecl
    from infradep.model import Comparison

    return Model(
        name="line",
        variables=(VariableDecl("x", IntDomain(0, 9), 0),),
        parameters={},
        transitions=(Transition("up", Timed(RateExpr(1.0)), Comparison("x", "<", 9), (Shift("x", 1),)),),
        labels=labels,
    )


def test_all_paths_check_fails_on_a_label_that_matches_no_state():
    # x never reaches 9 once ``up`` stops at 8: a cut between no states
    # and some, or some and none, is no verdict, so the check fails.
    from dataclasses import replace

    from infradep import Label, validate_model
    from infradep.model import Comparison

    m = _counter_line((Label("start", Comparison("x", "==", 0)), Label("top", Comparison("x", "==", 9))))
    m = replace(m, transitions=(replace(m.transitions[0], guard=Comparison("x", "<", 8)),))
    assert validate_model(m).ok
    g = build_reachability_graph(m)
    assert g.label_sets["top"].tolist() == []
    for frm, to in (("start", "top"), ("top", "start")):
        res = check_all_paths_contain(g, frm, to, ["up"])
        assert not res.passed
        assert res.detail == "label 'top' matches no state"


@pytest.mark.parametrize("via", [None, ("up",)])
def test_witness_does_not_follow_label_set_insertion_order(via):
    # States 0 and 8 each reach a target in one step.  Whichever order the
    # labels name them in, the label arrays hold them in state order and
    # the witness starts from state 0, naming states, not indices.
    from infradep import Label
    from infradep.model import Comparison, Or

    def either(a, b):
        return Or((Comparison("x", "==", a), Comparison("x", "==", b)))

    witnesses = set()
    for sources, targets in (((0, 8), (1, 9)), ((8, 0), (9, 1))):
        labels = (Label("from", either(*sources)), Label("to", either(*targets)))
        g = build_reachability_graph(_counter_line(labels))
        assert g.states == tuple((x,) for x in range(10))
        assert g.label_sets["from"].tolist() == [0, 8]
        witnesses.add(check_path_exists(g, "from", "to", via=via).witness)
    assert witnesses == {((0,), "up", (1,))}
