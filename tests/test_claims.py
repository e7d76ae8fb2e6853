"""Qualitative claims as graph checks: suites, witnesses, rate invariance."""

from __future__ import annotations

import pytest

from infradep import (
    ModelParams,
    NotAttackModelError,
    UnknownLabelError,
    accidental_model,
    attack_model,
    build_reachability_graph,
    cascading_only_model,
    check_all_paths_contain,
    check_apparent_consistency,
    check_edge_coverage,
    check_path_exists,
    common_cause_model,
    eliminate_vanishing,
    export_dot,
    run_claims,
)
from infradep.export import graph_summary
from infradep.rng import SplitMix64


def test_all_builtin_suites_pass(graphs):
    for name, g in graphs.items():
        for res in run_claims(g):
            assert res.passed, f"{name}: {res.name}: {res.detail}"


def _count_label_evaluations(monkeypatch) -> list:
    """Patch the one label grouping, which ``g.label_sets`` and
    ``label_sets(obj)`` both run; each call appends the number of states it
    grouped."""
    import infradep.statespace as statespace

    calls = []
    real = statespace._label_sets_of_rows

    def counted(comp, ids):
        calls.append(len(ids))
        return real(comp, ids)

    monkeypatch.setattr(statespace, "_label_sets_of_rows", counted)
    return calls


def test_run_claims_computes_label_sets_once(monkeypatch):
    calls = _count_label_evaluations(monkeypatch)
    for ctor in (accidental_model, cascading_only_model, common_cause_model, attack_model):
        calls.clear()
        g = build_reachability_graph(ctor())
        run_claims(g)
        assert len(calls) == 1, f"{g.model.name}: label sets computed {len(calls)} times"


def test_pipeline_evaluates_label_guards_once(monkeypatch):
    # Explore, reduction, summary, DOT and the claim suite share the graph's
    # label sets; the CTMC's sets are the graph's, renumbered.
    from infradep.statespace import label_sets

    calls = _count_label_evaluations(monkeypatch)
    for ctor in (accidental_model, cascading_only_model, common_cause_model, attack_model):
        calls.clear()
        g = build_reachability_graph(ctor())
        c = eliminate_vanishing(g)
        for obj in (g, c):
            graph_summary(obj)
            export_dot(obj)
        run_claims(g)
        assert len(calls) == 1, f"{g.model.name}: label guards evaluated {len(calls)} times"
        # The explorer's recorded row ids and ones recomputed per state agree.
        assert g.label_sets == label_sets(g)
        assert c.label_sets == label_sets(c)


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

    m = attack_model()
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


def test_verdicts_invariant_under_rate_overrides(graphs):
    # Rates never appear in guards, so scaling them must not move any
    # verdict.  Randomized override grid with a fixed seed.
    base = {name: [r.passed for r in run_claims(g)] for name, g in graphs.items()}
    rng = SplitMix64(99)
    ctors = {
        "accidental": accidental_model,
        "cascading-only": cascading_only_model,
        "common-cause": common_cause_model,
        "attack": attack_model,
    }
    rate_fields = [
        f for f in ModelParams.__dataclass_fields__ if f not in ("rho", "k_max", "p8")
    ]
    for trial in range(3):
        overrides = {
            f: 10.0 ** ((rng.next_u64() % 2000) / 500.0 - 2.0) for f in rate_fields
        }
        overrides["rho"] = 0.1 + 0.8 * ((rng.next_u64() % 1000) / 1000.0)
        params = ModelParams(**overrides)
        for name, ctor in ctors.items():
            g = build_reachability_graph(ctor(params))
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
    g = graphs["common-cause"]
    assert not check_edge_coverage(g, "state6", exempt_labels=("state6",)).passed


@pytest.mark.parametrize("via", [None, ("up",)])
def test_witness_does_not_follow_label_set_insertion_order(via):
    # States 0 and 8 each reach a target in one step.  Two frozensets with
    # these members iterate in their insertion order (8 and 0 share a hash
    # slot), and the witness must start from state 0 under either.
    from infradep import IntDomain, Label, Model, RateExpr, Shift, Timed, Transition, VariableDecl
    from infradep.model import Comparison

    m = Model(
        name="line",
        variables=(VariableDecl("x", IntDomain(0, 9), 0),),
        parameters={},
        transitions=(Transition("up", Timed(RateExpr(1.0)), Comparison("x", "<", 9), (Shift("x", 1),)),),
    )
    witnesses = set()
    for sources, targets in (((0, 8), (1, 9)), ((8, 0), (9, 1))):
        g = build_reachability_graph(m)
        assert g.states == tuple((x,) for x in range(10))
        g.__dict__["label_sets"] = {"from": frozenset(sources), "to": frozenset(targets)}
        assert list(g.label_sets["from"]) == list(sources)
        witnesses.add(check_path_exists(g, "from", "to", via=via).witness)
    assert witnesses == {((0,), "up", (1,))}
