"""The names ``import infradep`` exposes, and the ones it no longer does."""

from __future__ import annotations

import inspect

import pytest

import infradep

PUBLIC = {
    # catalog
    "BUILTIN_MODELS", "DEFAULT_PARAMS", "ModelParams", "accidental_model", "builtin_model",
    # claims
    "run_claims",
    # dsl
    "ParseError", "SourceSpan", "parse_guard_text", "parse_model", "serialize_model",
    # errors
    "EventCapExceeded", "ImmediateCycleError", "InfradepError", "InvalidArgError",
    "InvalidModelError", "InvalidParamError", "NoConvergenceError", "NotAttackModelError",
    "NotErgodicError", "StateLimitExceeded", "UnknownLabelError",
    "UnreachableTargetError",
    # export
    "export_dot", "export_results_json", "graph_summary",
    # model
    "And", "Comparison", "EnumDomain", "Guard", "Immediate", "IntDomain", "Label", "Model",
    "Not", "Or", "RateExpr", "SetValue", "Shift", "StateVector", "Timed", "Transition",
    "VariableDecl", "initial_state", "var_eq",
    # montecarlo
    "Estimate", "Event", "Trace", "estimate_occupancy", "estimate_time_to", "simulate",
    "trace_to_csv", "trace_to_jsonl",
    # rng
    "mix64",
    # solvers
    "Distribution", "MeasureResult", "SolverOptions", "label_probability",
    "mean_time_to_absorption", "steady_state", "transient",
    # statespace
    "Ctmc", "ReachabilityGraph", "build_reachability_graph", "eliminate_vanishing",
    "label_sets",
    # validate
    "ValidationIssue", "ValidationReport", "validate_model",
}

# Helpers that only tests called; the tests now read the explorer's graph
# or the independent oracles in ``tests/oracles.py`` instead.  The claim
# checks, ``CheckResult``, ``terminal_sccs`` and ``stream_seed`` stay in
# their modules but leave the package's names; the built-ins other than
# ``accidental_model`` are ``builtin_model(name)``.  Explore and simulation
# take only validated models, so nothing raises ``OutOfDomainError``.
# Every state predicate is a label read off the firing table, so
# ``guard_predicate`` is gone.
REMOVED = [
    (infradep, "apply_transition"),
    (infradep, "enabled_transitions"),
    (infradep, "is_vanishing"),
    (infradep, "g_or"),
    (infradep, "g_not"),
    (infradep, "var_ne"),
    (infradep, "GuardViolation"),
    (infradep, "SplitMix64"),
    (infradep.model, "apply_transition"),
    (infradep.model, "enabled_transitions"),
    (infradep.model, "is_vanishing"),
    (infradep.model, "g_or"),
    (infradep.model, "g_not"),
    (infradep.model, "var_ne"),
    (infradep.errors, "GuardViolation"),
    (infradep.rng, "SplitMix64"),
    (infradep.Model, "rate_of"),
    (infradep.Model, "transition_map"),
    (infradep.Model, "state_in_domain"),
    (infradep.Model, "domain_product"),
    (infradep.ReachabilityGraph, "state_index"),
    (infradep, "check_path_exists"),
    (infradep, "check_all_paths_contain"),
    (infradep, "check_set_unreachable"),
    (infradep, "check_edge_coverage"),
    (infradep, "check_apparent_consistency"),
    (infradep, "CheckResult"),
    (infradep, "terminal_sccs"),
    (infradep, "stream_seed"),
    (infradep, "attack_model"),
    (infradep, "cascading_only_model"),
    (infradep, "common_cause_model"),
    (infradep, "g_and"),
    (infradep, "var_in"),
    (infradep.catalog, "attack_model"),
    (infradep.catalog, "cascading_only_model"),
    (infradep.catalog, "common_cause_model"),
    (infradep.model, "g_and"),
    (infradep.model, "var_in"),
    (infradep.model, "Assignment"),
    (infradep.dsl, "KEYWORDS"),
    (infradep, "OutOfDomainError"),
    (infradep.errors, "OutOfDomainError"),
    (infradep.model, "guard_predicate"),
]


def test_public_names_are_exactly_the_listed_ones():
    exposed = {
        name for name, value in vars(infradep).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exposed == PUBLIC
    for name in sorted(PUBLIC):
        assert getattr(infradep, name) is not None, name


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in REMOVED])
def test_removed_name_is_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(owner, name)
