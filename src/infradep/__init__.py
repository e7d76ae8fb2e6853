"""Stochastic models of interdependency failures between an electricity
infrastructure and its supporting information infrastructure.

The package couples a small guarded-transition-system formalism (timed
exponential events racing in tangible states, weighted immediate events in
vanishing states) with exact CTMC analysis, Monte Carlo simulation, a text
format, DOT export, and executable qualitative claims about the built-in
models.
"""

from .catalog import (
    BUILTIN_MODELS,
    DEFAULT_PARAMS,
    ModelParams,
    accidental_model,
    attack_model,
    builtin_model,
    cascading_only_model,
    common_cause_model,
)
from .claims import (
    CheckResult,
    check_all_paths_contain,
    check_apparent_consistency,
    check_edge_coverage,
    check_path_exists,
    check_set_unreachable,
    run_claims,
)
from .dsl import ParseError, SourceSpan, parse_guard_text, parse_model, serialize_model
from .errors import (
    EventCapExceeded,
    ImmediateCycleError,
    InfradepError,
    InvalidArgError,
    InvalidModelError,
    InvalidParamError,
    NoConvergenceError,
    NotAttackModelError,
    NotErgodicError,
    OutOfDomainError,
    StateLimitExceeded,
    UnknownLabelError,
    UnreachableTargetError,
)
from .export import export_dot, export_results_json, graph_summary
from .model import (
    And,
    Comparison,
    EnumDomain,
    Guard,
    Immediate,
    IntDomain,
    Label,
    Model,
    Not,
    Or,
    RateExpr,
    SetValue,
    Shift,
    StateVector,
    Timed,
    Transition,
    VariableDecl,
    g_and,
    initial_state,
    var_eq,
    var_in,
)
from .montecarlo import (
    Estimate,
    Event,
    Trace,
    estimate_occupancy,
    estimate_time_to,
    simulate,
    trace_to_csv,
    trace_to_jsonl,
)
from .rng import mix64, stream_seed
from .solvers import (
    Distribution,
    MeasureResult,
    SolverOptions,
    label_probability,
    mean_time_to_absorption,
    steady_state,
    terminal_sccs,
    transient,
)
from .statespace import (
    Ctmc,
    ReachabilityGraph,
    build_reachability_graph,
    eliminate_vanishing,
    label_sets,
)
from .validate import ValidationIssue, ValidationReport, validate_model

__version__ = "0.1.0"
