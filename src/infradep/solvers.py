"""Exact numerical measures on a CTMC.

Production paths are sparse: steady state by a direct LU solve of the
balance equations on the terminal strongly-connected component, factored
under a minimum-degree order on A^T + A (Davis 2006, ch. 7), transients by
uniformization (Reibman & Trivedi 1988), absorption times by a sparse
linear solve under SuperLU's default order.  Dense counterparts live in the
test suite as oracles.

Uniformization runs at the fixed rate 1.05 times the largest exit rate and
weights the powers of the uniformized chain by a Poisson window that drops
at most ``POISSON_TAIL`` of the mass; each step multiplies a column vector
by the transposed uniformized matrix, formed once per call.  The window's
edges come from Poisson tail bounds (Fox & Glynn 1988), so its length is
known before anything is allocated; a window longer than
``MAX_POISSON_TERMS`` is refused with ``InvalidArgError``.  The only
tunable is the steady-state residual gate in ``SolverOptions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import (
    InvalidArgError,
    NoConvergenceError,
    NotErgodicError,
    UnknownLabelError,
    UnreachableTargetError,
)
from .statespace import Ctmc


@dataclass(frozen=True)
class SolverOptions:
    steady_tol: float = 1e-10  # residual bound for ||pi Q||_inf


DEFAULT_OPTIONS = SolverOptions()

POISSON_TAIL = 1e-9  # Poisson mass the transient window may discard
# Longest Poisson window transient builds (32 MB of weights).  Lambda t up
# to about 9e10 fits; beyond that the run would take ~Lambda t matrix steps.
MAX_POISSON_TERMS = 4_000_000
# Share of its largest entry by which an absorption solution may pass its
# range ([0, 1] for a hit probability, >= 0 for a time) through rounding.
RANGE_SLACK = 1e-9


@dataclass
class Distribution:
    """Probabilities over tangible states at one time (inf = steady)."""

    probs: np.ndarray
    time: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.min(initial=0.0) < -1e-14:
            raise InvalidArgError(f"distribution entry below -1e-14: {p.min()}")
        self.probs = np.clip(p, 0.0, None)


@dataclass(frozen=True)
class MeasureResult:
    name: str
    value: float
    method: str  # steady | transient | mtta | simulation
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Structure helpers


def terminal_sccs(ctmc: Ctmc) -> list[np.ndarray]:
    """Strongly-connected components with no outgoing rate, by state index."""
    adj = ctmc.generator > 0
    ncomp, labels = csgraph.connected_components(adj, directed=True, connection="strong")
    coo = adj.tocoo()
    leaving = labels[coo.row] != labels[coo.col]
    has_exit = np.zeros(ncomp, dtype=bool)
    has_exit[labels[coo.row[leaving]]] = True
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(~has_exit)]


def _reachable_from(q: sp.csr_matrix, sources: np.ndarray, forward: bool = True) -> np.ndarray:
    """States reachable from ``sources`` under generator ``q`` (or, backwards,
    that reach them)."""
    n = q.shape[0]
    coo = (q > 0).tocoo()
    src, dst = (coo.row, coo.col) if forward else (coo.col, coo.row)
    sources = np.asarray(sources, dtype=src.dtype)
    # A virtual super-source (index n) with an edge to every source.
    rows = np.concatenate([src, np.full(len(sources), n, dtype=src.dtype)])
    cols = np.concatenate([dst, sources])
    adj = sp.csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n + 1, n + 1))
    order = csgraph.breadth_first_order(adj, n, directed=True, return_predecessors=False)
    seen = np.zeros(n + 1, dtype=bool)
    seen[order] = True
    return seen[:n]


# ---------------------------------------------------------------------------
# Steady state


def steady_state(ctmc: Ctmc, options: SolverOptions = DEFAULT_OPTIONS) -> Distribution:
    """Long-run distribution pi with pi Q = 0, sum(pi) = 1.

    Requires a unique terminal strongly-connected component (an
    irreducible chain is the special case where it covers every state);
    the stationary distribution is computed on that component by a sparse
    LU solve and is zero elsewhere.  A residual ``||pi Q||_inf`` above
    ``steady_tol``, or a singular system, raises ``NoConvergenceError``.
    """
    terms = terminal_sccs(ctmc)
    if len(terms) != 1:
        raise NotErgodicError(
            f"chain has {len(terms)} terminal strongly-connected components; "
            "steady state is not unique"
        )
    scc = terms[0]
    sub = ctmc.generator[np.ix_(scc, scc)].tocsr()

    pi_sub = _solve_balance(sub)
    residual = float(np.abs(pi_sub @ sub).max())
    if not residual <= options.steady_tol:  # also catches a NaN residual
        raise NoConvergenceError(
            f"steady-state residual {residual:.3e} above {options.steady_tol}",
            residual=residual,
        )
    pi = np.zeros(ctmc.n)
    pi[scc] = pi_sub
    return Distribution(
        pi,
        math.inf,
        metadata={"residual": residual, "terminal_scc_size": int(len(scc))},
    )


def _solve_balance(q: sp.csr_matrix) -> np.ndarray:
    """Normalised solution of pi Q = 0 on an irreducible generator.

    The last balance equation is redundant: drop it, pin the last state's
    weight to 1, solve the rest with a sparse LU factorisation, normalise.
    The factorisation orders columns by minimum degree on A^T + A
    (``MMD_AT_PLUS_A``): on common-cause at k_max 2000 it keeps L+U at
    about 0.2M nonzeros, where SuperLU's default COLAMD order fills in
    4.3M.  It costs a few milliseconds more on the near-banded chains.
    """
    m = q.shape[0]
    if m == 1:
        return np.ones(1)
    qt = q.T.tocsc()
    try:
        lu = spla.splu(qt[:-1, :-1], permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as e:  # SuperLU: the factor is exactly singular
        raise NoConvergenceError(f"steady-state system is singular: {e}", residual=math.nan) from e
    x = lu.solve(-qt[:-1, -1].toarray().ravel())
    pi = np.append(x, 1.0)
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# Transient analysis


def _poisson_window(mean: float):
    """Left/right truncation and normalized weights for Poisson(mean).

    With L = ln(2 / POISSON_TAIL), the mass beyond mean + L/3 +
    sqrt(L^2/9 + 2 L mean) (Bernstein) and below mean - sqrt(2 L mean)
    (Chernoff) is at most POISSON_TAIL / 2 on each side.  Weights are
    products of the ratios between neighbouring terms, taken outward from
    the mode, so they stay well-scaled for any mean; each end is then
    trimmed while the mass cut off stays within POISSON_TAIL / 2.
    """
    log_tail = math.log(2.0 / POISSON_TAIL)
    above = log_tail / 3 + math.sqrt(log_tail**2 / 9 + 2 * log_tail * mean)
    below = math.sqrt(2 * log_tail * mean)
    terms = above + below + 3  # at least right - left + 1
    if not terms <= MAX_POISSON_TERMS:  # also catches an infinite mean
        raise InvalidArgError(
            f"uniformization needs a Poisson window of about {terms:.3g} terms for "
            f"Lambda*t = {mean:.6g}; at most {MAX_POISSON_TERMS} are allowed"
        )
    mode = int(mean)
    left = max(0, math.floor(mean - below))
    right = math.ceil(mean + above)
    up = np.cumprod(mean / np.arange(mode + 1, right + 1))  # w[k+1] = w[k] mean/(k+1)
    down = np.cumprod(np.arange(mode, left, -1) / mean)  # w[k-1] = w[k] k/mean
    w = np.concatenate([down[::-1], [1.0], up])
    cut = POISSON_TAIL / 2 * w.sum()
    lo = int(np.searchsorted(np.cumsum(w), cut, side="right"))
    hi = len(w) - int(np.searchsorted(np.cumsum(w[::-1]), cut, side="right"))
    w = w[lo:hi]
    return left + lo, left + hi - 1, w / w.sum()


def transient(ctmc: Ctmc, t: float) -> Distribution:
    """Distribution at time ``t`` by uniformization.

    p(t) = sum_k Poisson(Lambda t)[k] * p(0) P^k with P = I + Q/Lambda and
    Lambda = 1.05 * the largest exit rate; the Poisson series is truncated
    to discard at most ``POISSON_TAIL`` mass.  P^T is formed in CSR once,
    and each step computes P^T v, the same sums in the same order as the
    row-vector product v P.  Iteration stops early once the powers have
    converged (their difference is non-expansive under a stochastic P).
    """
    if not (math.isfinite(t) and t >= 0):
        raise InvalidArgError(f"time must be finite and >= 0, got {t}")
    p0 = ctmc.initial.astype(float)
    lam = float((-ctmc.generator.diagonal()).max()) * 1.05 if ctmc.n else 0.0
    if t == 0 or lam <= 0:
        dist = Distribution(p0.copy(), t)
        dist.metadata = {"uniformization_rate": lam, "poisson_terms": 0, "steps": 0}
        return dist

    left, right, weights = _poisson_window(lam * t)
    # For a 1-D left operand, ``v @ p`` would transpose p on every step.
    pt = (sp.eye(ctmc.n, format="csr") + ctmc.generator / lam).T.tocsr()

    result = np.zeros_like(p0)
    v = p0
    steps = 0
    for k in range(right + 1):
        if k >= left:
            result += weights[k - left] * v
        if k == right:
            break
        nxt = pt @ v
        steps += 1
        if float(np.abs(nxt - v).sum()) <= 1e-14:
            # Remaining Poisson mass multiplies an (effectively) fixed vector.
            if k + 1 >= left:
                result += weights[k + 1 - left :].sum() * nxt
            else:
                result += nxt  # the whole window is still ahead
            v = nxt
            break
        v = nxt

    dist = Distribution(result, t)
    dist.metadata = {
        "uniformization_rate": lam,
        "poisson_terms": [int(left), int(right)],
        "steps": steps,
    }
    return dist


# ---------------------------------------------------------------------------
# Absorption


def resolve_target(ctmc: Ctmc, target) -> np.ndarray:
    """Resolve a target (label name or index set) to sorted state indices."""
    if isinstance(target, str):
        if target not in ctmc.label_sets:
            raise UnknownLabelError(f"no label {target!r} on model {ctmc.model.name!r}")
        idx = sorted(ctmc.label_sets[target])
    else:
        idx = sorted(int(i) for i in target)
        if idx and (idx[0] < 0 or idx[-1] >= ctmc.n):
            raise InvalidArgError("target state index out of range")
    return np.asarray(idx, dtype=int)


def mean_time_to_absorption(ctmc: Ctmc, target, allow_defective: bool = False) -> MeasureResult:
    """Expected first-hitting time of ``target`` from the initial distribution.

    Target states are made absorbing and the expected hitting times solve
    the standard linear system.  If the target is hit with probability
    below one this raises ``UnreachableTargetError`` unless
    ``allow_defective`` is set, in which case the conditional mean given
    absorption is returned together with the hit probability.
    """
    tgt = resolve_target(ctmc, target)
    if len(tgt) == 0:
        raise UnreachableTargetError("target set is empty", hit_probability=0.0)

    in_target = np.zeros(ctmc.n, dtype=bool)
    in_target[tgt] = True

    # Absorb the target: discard its outgoing rates.
    q = (sp.diags((~in_target).astype(float)) @ ctmc.generator).tocsr()
    q.eliminate_zeros()
    q.sort_indices()

    start = np.flatnonzero(ctmc.initial > 0)
    reachable = _reachable_from(q, start)
    can_reach = _reachable_from(q, tgt, forward=False)
    defective = bool((reachable & ~can_reach & ~in_target).any())

    relevant = np.flatnonzero(reachable & can_reach & ~in_target)
    sub = q[np.ix_(relevant, relevant)].tocsc()

    if not defective:
        if len(relevant):
            # SuperLU's default order: MMD on A^T + A made these solves
            # slower on every built-in at k_max 2000.
            h = spla.spsolve(sub, -np.ones(len(relevant)))
            residual = float(np.abs(sub @ h + 1.0).max())
            _require_in_range(h, 0.0, math.inf, "mean hitting time", residual)
            value = float(ctmc.initial[relevant] @ h)  # target states contribute 0
        else:
            residual, value = 0.0, 0.0  # initial mass already in the target
        return MeasureResult(
            name="mtta",
            value=value,
            method="mtta",
            metadata={
                "residual": residual,
                "target_states": int(len(tgt)),
                "hit_probability": 1.0,
            },
        )

    # Defective case: the hit probability a of each relevant state, from
    # Q'a = -(rates into the target), then the conditional mean E[time | hit]
    # restricted to states that can still reach the target.
    into_target = np.asarray(q[relevant][:, np.flatnonzero(in_target)].sum(axis=1)).ravel()
    a = spla.spsolve(sub, -into_target)
    residual = float(np.abs(sub @ a + into_target).max()) if len(relevant) else 0.0
    _require_in_range(a, 0.0, 1.0, "hit probability", residual)
    hit = float(ctmc.initial[relevant] @ a) + float(ctmc.initial[in_target].sum())
    if not allow_defective:
        raise UnreachableTargetError(
            f"target hit with probability {hit:.6g} < 1 from the initial "
            "distribution (pass allow_defective to get the conditional mean)",
            hit_probability=hit,
        )
    g = spla.spsolve(sub, -a)
    residual = float(np.abs(sub @ g + a).max()) if len(relevant) else 0.0
    _require_in_range(g, 0.0, math.inf, "hit-weighted mean hitting time", residual)
    num = float(ctmc.initial[relevant] @ g)
    return MeasureResult(
        name="mtta",
        value=num / hit,
        method="mtta",
        metadata={
            "residual": residual,
            "target_states": int(len(tgt)),
            "hit_probability": hit,
            "conditional": True,
        },
    )


def _require_in_range(x: np.ndarray, lo: float, hi: float, what: str, residual: float):
    """Raise ``NoConvergenceError`` unless every entry of ``x`` is finite and
    in ``[lo, hi]``, give or take ``RANGE_SLACK`` times its largest entry
    (at least 1): a hitting-time system so ill-conditioned that rounding
    swamps its solution shows itself this way, while its residual can stay
    small next to the entries' size.  The slack passes the rounding of a
    sound solve, such as a hit probability of 1 + 4e-14."""
    finite = np.isfinite(x)
    slack = RANGE_SLACK * max(1.0, float(np.abs(x[finite]).max(initial=0.0)))
    ok = finite & (x >= lo - slack) & (x <= hi + slack)
    if not ok.all():
        bad = x[~ok][0]
        raise NoConvergenceError(
            f"{what} {bad:.6g} is outside [{lo:g}, {hi:g}]: the absorption "
            f"system is too ill-conditioned to solve (residual {residual:.3g})",
            residual=residual,
        )


# ---------------------------------------------------------------------------
# Label measures


def label_probability(dist: Distribution, label_set, name: str = "label_probability") -> MeasureResult:
    """Probability mass of a state-index set under ``dist``."""
    idx = sorted(int(i) for i in label_set)
    if any(i < 0 or i >= len(dist.probs) for i in idx):
        raise InvalidArgError("label state index out of range")
    value = float(dist.probs[idx].sum()) if idx else 0.0
    method = "steady" if math.isinf(dist.time) else "transient"
    meta = dict(getattr(dist, "metadata", {}))
    if not math.isinf(dist.time):
        meta["time"] = dist.time
    return MeasureResult(name=name, value=value, method=method, metadata=meta)
