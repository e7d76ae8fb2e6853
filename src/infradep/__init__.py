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
    builtin_model,
)
from .claims import run_claims
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
    initial_state,
    var_eq,
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
from .rng import mix64
from .solvers import (
    Distribution,
    MeasureResult,
    SolverOptions,
    label_probability,
    mean_time_to_absorption,
    steady_state,
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
