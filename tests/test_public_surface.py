"""The names ``import infradep`` exposes, and the ones it no longer does."""

from __future__ import annotations

import inspect

import pytest

import infradep

PUBLIC = {
    # catalog
    "BUILTIN_MODELS", "DEFAULT_PARAMS", "ModelParams", "accidental_model", "attack_model",
    "builtin_model", "cascading_only_model", "common_cause_model",
    # claims
    "CheckResult", "check_all_paths_contain", "check_apparent_consistency",
    "check_edge_coverage", "check_path_exists", "check_set_unreachable", "run_claims",
    # dsl
    "ParseError", "SourceSpan", "parse_guard_text", "parse_model", "serialize_model",
    # errors
    "EventCapExceeded", "ImmediateCycleError", "InfradepError", "InvalidArgError",
    "InvalidModelError", "InvalidParamError", "NoConvergenceError", "NotAttackModelError",
    "NotErgodicError", "OutOfDomainError", "StateLimitExceeded", "UnknownLabelError",
    "UnreachableTargetError",
    # export
    "export_dot", "export_results_json", "graph_summary",
    # model
    "And", "Comparison", "EnumDomain", "Guard", "Immediate", "IntDomain", "Label", "Model",
    "Not", "Or", "RateExpr", "SetValue", "Shift", "StateVector", "Timed", "Transition",
    "VariableDecl", "g_and", "initial_state", "var_eq", "var_in",
    # montecarlo
    "Estimate", "Event", "Trace", "estimate_occupancy", "estimate_time_to", "simulate",
    "trace_to_csv", "trace_to_jsonl",
    # rng
    "mix64", "stream_seed",
    # solvers
    "Distribution", "MeasureResult", "SolverOptions", "label_probability",
    "mean_time_to_absorption", "steady_state", "terminal_sccs", "transient",
    # statespace
    "Ctmc", "ReachabilityGraph", "build_reachability_graph", "eliminate_vanishing",
    "label_sets",
    # validate
    "ValidationIssue", "ValidationReport", "validate_model",
}

# Helpers that only tests called; the tests now read the explorer's graph
# or the independent oracles in ``tests/oracles.py`` instead.
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
