"""Exact numerical measures on a CTMC.

Production paths are sparse: steady state by a direct LU solve of the
balance equations on the terminal strongly-connected component, factored
under a minimum-degree order on A^T + A (Davis 2006, ch. 7), transients by
uniformization (Reibman & Trivedi 1988), absorption times by a sparse
linear solve under SuperLU's default order: one LU factorization per
target set serves every right-hand side (the mean hitting times, or the
hit probabilities and the hit-weighted times of a defective target).
Dense counterparts live in the test suite as oracles.

Each solver reads what the chain derives once and caches: its rates
(positive entries only, no diagonal), their CSC copy ``incoming``, the
exit rates and the generator.  The searches run on the rates as they
are.  ``statespace._restrict`` assembles every system (Davis 2006, ch.
2): a hitting-time or partial steady-state system is the rates of its
kept rows and columns renumbered, with minus each exit rate on the
diagonal, and the uniformized P^T the scaled incoming rates with
1 - exit / Lambda on the diagonal.

Uniformization runs at the fixed rate 1.05 times the largest exit rate and
weights the powers of the uniformized chain by a Poisson window that drops
at most ``POISSON_TAIL`` of the mass; each step multiplies a column vector
by the transposed uniformized matrix, formed once per call.  The window's
edges come from Poisson tail bounds (Fox & Glynn 1988), so its length is
known before anything is allocated; a window longer than
``MAX_POISSON_TERMS``, or one whose powers would take more than
``MAX_TRANSIENT_WORK`` matrix entries, is refused with
``InvalidArgError``.  A step
multiplies only the rows the vector can have reached (the idea behind
adaptive uniformization, van Moorsel & Sanders 1994, at a fixed rate): a
bound computed once from the rates' structure says how far a vector
that is zero past index m can spread in one step, and the step uses the
smallest leading block of the transposed matrix on a doubling ladder
(``MIN_RUNG`` rows, twice that, ..., all of it) that covers the bound.
Rows and terms left out are exact zeros, so results are bit-identical to
stepping every row; ``row_steps`` in the metadata counts the rows
multiplied.  Steps run in batches on one block: each step calls scipy's
compiled CSR kernel, the one ``op @ v`` ends in, without its Python-level
dispatch, and the early-stop test and the Poisson sum run once per batch
over all of its steps, in step order, so results and ``steps`` are those
of one step at a time.

The only tunable is the steady-state residual gate in ``SolverOptions``.
``MIN_RUNG``, ``STEP_BATCH`` and ``BATCH_ENTRIES`` are internal constants
that no option sets; results and ``steps`` do not depend on them, and
``row_steps`` depends on ``MIN_RUNG`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from .errors import (
    InvalidArgError,
    NoConvergenceError,
    NotErgodicError,
    UnknownLabelError,
    UnreachableTargetError,
)
from .statespace import Ctmc, _entry_rows, _masked_indptr, _restrict, _row_sums


@dataclass(frozen=True)
class SolverOptions:
    steady_tol: float = 1e-10  # residual bound for ||pi Q||_inf


DEFAULT_OPTIONS = SolverOptions()

POISSON_TAIL = 1e-9  # Poisson mass the transient window may discard
# Longest Poisson window transient builds (32 MB of weights).  Lambda t up
# to about 9e10 fits; beyond that the run would take ~Lambda t matrix steps.
MAX_POISSON_TERMS = 4_000_000
# Most work transient takes on, in matrix entries: the window's last power
# times the entries of P^T, a step counting as at least STEP_WORK_FLOOR
# entries.  On a 2-core Xeon the compiled kernel takes about 1.1-1.3 ns an
# entry on a large P^T, and a step on a small one about 1.2-2.4 us whatever
# its size, so the largest calls admitted took 2.0-2.5 s there, on chains of
# 162, 246 and 136,067 entries.
MAX_TRANSIENT_WORK = 1_000_000_000
STEP_WORK_FLOOR = 1_000
# Share of its largest entry by which a linear solve's solution may pass its
# range ([0, 1] for a probability, >= 0 for a time) through rounding.
RANGE_SLACK = 1e-9
# Most negative steady-state probability taken for rounding and clipped to 0.
STEADY_FLOOR = -1e-14
# Smallest leading block of P^T a transient step multiplies.  It was sized
# for ``op @ v``, whose dispatch cost a few microseconds whatever the
# block; the kernel called directly costs under 1 us plus about 1 us per
# 1,000 entries, so a smaller block would now save a few microseconds a
# step.  It stays, as ``row_steps`` counts its rows and is pinned in tests.
MIN_RUNG = 1024
# Most steps transient takes in one batch, and most vector entries a
# batch's steps write (at least one step): a 1,024-row block takes 32
# steps a batch, a 28,014-row one 1.  A block's buffers hold about twice
# BATCH_ENTRIES entries plus three rows (0.5 MB at 1,024 rows).
STEP_BATCH = 32
BATCH_ENTRIES = 32_768


@dataclass
class Distribution:
    """Probabilities over tangible states at one time (inf = steady)."""

    probs: np.ndarray
    time: float
    metadata: dict = field(default_factory=dict)


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
    adj = ctmc.rates
    ncomp, labels = csgraph.connected_components(adj, directed=True, connection="strong")
    src, dst = labels[_entry_rows(adj.indptr)], labels[adj.indices]
    has_exit = np.zeros(ncomp, dtype=bool)
    has_exit[src[src != dst]] = True
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(~has_exit)]


def _reachable(indptr, indices, sources: np.ndarray) -> np.ndarray:
    """States reachable from ``sources`` along the entries of a compressed
    sparse matrix (an entry in row ``i`` at index ``j`` is an edge
    ``i -> j``)."""
    n = len(indptr) - 1
    # A virtual super-source (index n) with an edge to every source.
    ptr = np.append(indptr, indptr[-1] + len(sources))
    dst = np.concatenate([indices, np.asarray(sources, dtype=indices.dtype)])
    adj = sp.csr_matrix((np.ones(len(dst)), dst, ptr), shape=(n + 1, n + 1))
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
    ``steady_tol``, a singular system, an entry above 1 (as
    ``_require_in_range`` allows for rounding) or below ``STEADY_FLOOR``
    raises ``NoConvergenceError``; entries between ``STEADY_FLOOR`` and 0
    are clipped to 0.
    """
    terms = terminal_sccs(ctmc)
    if len(terms) != 1:
        raise NotErgodicError(
            f"chain has {len(terms)} terminal strongly-connected components; "
            "steady state is not unique"
        )
    scc = terms[0]
    if len(scc) == ctmc.n:
        sub = ctmc.generator
    else:
        in_scc = np.zeros(ctmc.n, dtype=bool)
        in_scc[scc] = True
        sub = _restrict(ctmc.rates, in_scc, -ctmc.exit[in_scc])

    qt = sub.T  # Q^T in CSC, on the arrays of Q
    pi_sub = _solve_balance(qt)
    residual = float(np.abs(qt @ pi_sub).max())
    if not residual <= options.steady_tol:  # also catches a NaN residual
        raise NoConvergenceError(
            f"steady-state residual {residual:.3e} above {options.steady_tol}",
            residual=residual,
        )
    _require_in_range(pi_sub, 0.0, 1.0, "steady-state probability", residual, STEADY_FLOOR)
    pi = np.zeros(ctmc.n)
    pi[scc] = np.clip(pi_sub, 0.0, None)
    return Distribution(
        pi,
        math.inf,
        metadata={"residual": residual, "terminal_scc_size": int(len(scc))},
    )


def _solve_balance(qt: sp.csc_matrix) -> np.ndarray:
    """Normalised solution of pi Q = 0 on an irreducible generator, given
    its transpose ``qt`` in CSC.

    The last balance equation is redundant: drop it, pin the last state's
    weight to 1, solve the rest with a sparse LU factorisation, normalise.
    The factorisation orders columns by minimum degree on A^T + A
    (``MMD_AT_PLUS_A``): on common-cause at k_max 2000 it keeps L+U at
    about 0.2M nonzeros, where SuperLU's default COLAMD order fills in
    4.3M.  It costs a few milliseconds more on the near-banded chains.
    """
    m = qt.shape[0]
    if m == 1:
        return np.ones(1)
    lu = _lu(qt[:-1, :-1], "MMD_AT_PLUS_A", "steady-state system")
    # The last column of Q^T (the last state's rates) but its diagonal.
    rates = np.zeros(m)
    entries = slice(qt.indptr[-2], qt.indptr[-1])
    rates[qt.indices[entries]] = qt.data[entries]
    x = lu.solve(-rates[:-1])
    pi = np.append(x, 1.0)
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# Transient analysis


def _window_edges(mean: float) -> tuple[int, int]:
    """The first and last power of the Poisson(mean) window, before its
    ends are trimmed.

    With L = ln(2 / POISSON_TAIL), the mass beyond mean + L/3 +
    sqrt(L^2/9 + 2 L mean) (Bernstein) and below mean - sqrt(2 L mean)
    (Chernoff) is at most POISSON_TAIL / 2 on each side.  A window longer
    than ``MAX_POISSON_TERMS`` raises ``InvalidArgError``.
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
    return max(0, math.floor(mean - below)), math.ceil(mean + above)


def _poisson_window(mean: float):
    """Left/right truncation and normalized weights for Poisson(mean).

    The window runs between ``_window_edges``.  Weights are products of
    the ratios between neighbouring terms, taken outward from the mode, so
    they stay well-scaled for any mean; each end is then trimmed while the
    mass cut off stays within POISSON_TAIL / 2.
    """
    left, right = _window_edges(mean)
    mode = int(mean)
    up = np.cumprod(mean / np.arange(mode + 1, right + 1))  # w[k+1] = w[k] mean/(k+1)
    down = np.cumprod(np.arange(mode, left, -1) / mean)  # w[k-1] = w[k] k/mean
    w = np.concatenate([down[::-1], [1.0], up])
    cut = POISSON_TAIL / 2 * w.sum()
    lo = int(np.searchsorted(np.cumsum(w), cut, side="right"))
    hi = len(w) - int(np.searchsorted(np.cumsum(w[::-1]), cut, side="right"))
    w = w[lo:hi]
    return left + lo, left + hi - 1, w / w.sum()


def _reach_bound(rates: sp.csr_matrix, rows: int) -> np.ndarray:
    """``reach[i]`` for the first ``rows`` states: one past the highest
    index among states 0..i and every state they have an edge to under
    ``rates``.

    A vector that is zero from index ``m`` on stays zero from index
    ``reach[m - 1]`` on after one step of the uniformized chain, whatever
    the state order.
    """
    # The running maximum over the column indices in row order, read at
    # each row's end (the leading 0 stands in for rows before any entry).
    ends = rates.indptr[1 : rows + 1]
    seen = np.maximum.accumulate(np.concatenate(([0], rates.indices[: ends[-1]])))[ends]
    return np.maximum(seen, np.arange(rows)) + 1


def _rung(pt: sp.csr_matrix, rows: int) -> sp.csr_matrix:
    """The smallest leading block of ``pt`` on the doubling ladder
    ``MIN_RUNG * 2**j`` with at least ``rows`` rows; ``pt`` itself once
    that reaches its size."""
    size = MIN_RUNG
    while size < rows:
        size *= 2
    return pt if size >= pt.shape[0] else pt[:size, :size]


def _pad(x: np.ndarray, size: int) -> np.ndarray:
    return x if len(x) == size else np.concatenate([x, np.zeros(size - len(x))])


def transient(ctmc: Ctmc, t: float) -> Distribution:
    """Distribution at time ``t`` by uniformization.

    p(t) = sum_k Poisson(Lambda t)[k] * p(0) P^k with P = I + Q/Lambda and
    Lambda = 1.05 * the largest exit rate; the Poisson series is truncated
    to discard at most ``POISSON_TAIL`` mass.  P^T is formed in CSR once
    per call, from the chain's ``incoming`` rates, and each step computes
    P^T v, the same sums in the same order as the row-vector product v P.
    Iteration stops early once the powers have converged (their
    difference is non-expansive under a stochastic P).

    A step multiplies only the rows of P^T that can be nonzero.  With v
    zero from index m on, P^T v is zero from ``reach[m - 1]`` on
    (``_reach_bound``, computed over a block's rows when it is cut), so
    the step uses the leading square block of P^T from a doubling ladder
    that covers that bound, built when first needed; v and the
    accumulated sum grow with it.  Every product or
    term left out is an exact zero, so the result is bit-identical to
    stepping all rows.  ``row_steps`` in the metadata counts the rows
    multiplied over all steps.

    Steps run in batches of up to ``STEP_BATCH`` on one block, and of at
    most about ``BATCH_ENTRIES`` vector entries; a batch also ends where
    the block must grow.  Each step writes P^T v into the next row of a
    zeroed buffer through scipy's CSR kernel, the call ``op @ v`` ends in.
    After the batch, the stop test runs on all its steps at once, steps
    past the first that passes it are dropped (``steps`` and ``row_steps``
    count only the steps kept), and the kept Poisson terms are added in
    step order.  The sums and their order are those of one step at a
    time, so the results and counts are too.

    The work is bounded before the Poisson weights are allocated: a call
    whose window's last power times the entries of P^T (each step counted
    as at least ``STEP_WORK_FLOOR`` entries) passes ``MAX_TRANSIENT_WORK``
    raises ``InvalidArgError``, as a window past ``MAX_POISSON_TERMS``
    does.
    """
    if not (math.isfinite(t) and t >= 0):
        raise InvalidArgError(f"time must be finite and >= 0, got {t}")
    p0 = ctmc.initial.astype(float)
    n = ctmc.n
    lam = 1.05 * float(ctmc.exit.max(initial=0.0))
    if t == 0 or lam <= 0:
        dist = Distribution(p0.copy(), t)
        dist.metadata = {
            "uniformization_rate": lam,
            "poisson_terms": [0, 0],
            "steps": 0,
            "row_steps": 0,
        }
        return dist

    # P in CSC, whose transpose is P^T in CSR on the same arrays.
    scale = 1 / lam
    pt = _restrict(ctmc.incoming, None, 1.0 - ctmc.exit * scale, scale).T
    right = _window_edges(lam * t)[1]
    work = right * max(pt.nnz, STEP_WORK_FLOOR)
    if work > MAX_TRANSIENT_WORK:
        raise InvalidArgError(
            f"uniformization needs up to {right} steps on {pt.nnz} matrix entries for "
            f"Lambda*t = {lam * t:.6g}, {work:.3g} entries counting each step as at least "
            f"{STEP_WORK_FLOOR}; at most {MAX_TRANSIENT_WORK:.3g} are allowed"
        )
    left, right, weights = _poisson_window(lam * t)
    top = 1 + int(np.flatnonzero(p0).max(initial=0))  # v is zero from here on
    op = _rung(pt, top)
    size = op.shape[0]
    reach = _reach_bound(ctmc.rates, size) if size < n else None
    v = p0[:size]
    result = np.zeros(size)
    buf = None
    k = steps = row_steps = 0  # v holds p0 P^k; result the terms below k
    while True:
        if k < right and size < n and reach[top - 1] > size:  # the next step's rung
            op = _rung(pt, int(reach[top - 1]))
            size = op.shape[0]
            reach = _reach_bound(ctmc.rates, size) if size < n else None
            v, result, buf = _pad(v, size), _pad(result, size), None
        if buf is None:
            # The rung's buffers: row j + 1 of buf holds p0 P^(k + j) in a
            # batch from power k, row 0 the running sum while terms are
            # added; gaps holds the steps' differences.
            most = min(STEP_BATCH, max(1, BATCH_ENTRIES // size))
            buf = np.empty((most + 2, size))
            rows = list(buf)
            gaps = np.empty((most, size))
        m = min(most, right - k)
        if size < n:
            for j in range(m):  # the batch ends before a step that outgrows the rung
                bound = int(reach[top - 1])
                if bound > size:
                    m = j
                    break
                top = bound
        rows[1][:] = v
        buf[2 : m + 2] = 0  # the kernel adds P^T v into its output
        for j in range(1, m + 1):
            csr_matvec(size, size, op.indptr, op.indices, op.data, rows[j], rows[j + 1])
        gap = np.subtract(buf[2 : m + 2], buf[1 : m + 1], out=gaps[:m])
        converged = np.flatnonzero(np.abs(gap, out=gap).sum(axis=1) <= 1e-14)
        stopped = len(converged) > 0
        kept = int(converged[0]) + 1 if stopped else m
        steps += kept
        row_steps += kept * size
        # The Poisson terms of powers k + first .. k + last - 1 (the window's
        # last power too if the batch reached it) are weighted in place and
        # added to result in order: a reduction over the rows of a C-ordered
        # array with two columns or more adds whole rows one after another
        # (one column would be summed pairwise, but a chain that steps has
        # two states or more).  Row ``first``, the spare row 0 or a power
        # below the window, takes the running sum.
        first = max(0, left - k)
        last = kept + (not stopped and k + m == right)
        if first < last:
            buf[first] = result
            terms = buf[first + 1 : last + 1]
            np.multiply(weights[k + first - left : k + last - left, None], terms, out=terms)
            np.add.reduce(buf[first : last + 1], axis=0, out=result)
        k += kept
        v = rows[kept + 1]
        if stopped:
            # Remaining Poisson mass multiplies an (effectively) fixed vector.
            if k >= left:
                result += weights[k - left :].sum() * v
            else:
                result += v  # the whole window is still ahead
            break
        if k == right:
            break

    dist = Distribution(_pad(result, n), t)
    dist.metadata = {
        "uniformization_rate": lam,
        "poisson_terms": [int(left), int(right)],
        "steps": steps,
        "row_steps": row_steps,
    }
    return dist


# ---------------------------------------------------------------------------
# Absorption


def resolve_target(ctmc: Ctmc, target) -> np.ndarray:
    """Resolve a target (label name or index set) to sorted state indices."""
    if isinstance(target, str):
        if target not in ctmc.label_sets:
            raise UnknownLabelError(f"no label {target!r} on model {ctmc.model.name!r}")
        return ctmc.label_sets[target]
    return _sorted_indices(target, ctmc.n, "target state index out of range")


def _sorted_indices(members, n: int, message: str) -> np.ndarray:
    """The integers ``members`` as a sorted int64 array, read once; raises
    ``InvalidArgError`` (``message``) unless each lies in ``[0, n)``."""
    try:
        idx = np.sort(np.asarray(members, np.int64) if isinstance(members, np.ndarray)
                      else np.fromiter(members, dtype=np.int64))
    except OverflowError:  # beyond int64, so out of range
        raise InvalidArgError(message) from None
    if len(idx) and (idx[0] < 0 or idx[-1] >= n):
        raise InvalidArgError(message)
    return idx


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
    relevant, defective, into_target = _hitting_system(ctmc, in_target)
    sub = _restrict(ctmc.incoming, relevant, -ctmc.exit[relevant])
    # SuperLU's default order: MMD on A^T + A, which steady uses, made
    # these solves slower on every built-in at k_max 2000.
    solve = _lu(sub, "COLAMD", "hitting-time system").solve if sub.shape[0] else None

    if not defective:
        h, residual = _checked_solve(solve, sub, -np.ones(sub.shape[0]), math.inf,
                                     "mean hitting time")
        return MeasureResult(
            name="mtta",
            value=float(ctmc.initial[relevant] @ h),  # target states contribute 0
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
    a, _ = _checked_solve(solve, sub, -into_target, 1.0, "hit probability")
    hit = float(ctmc.initial[relevant] @ a) + float(ctmc.initial[in_target].sum())
    if not allow_defective:
        raise UnreachableTargetError(
            f"target hit with probability {hit:.6g} < 1 from the initial "
            "distribution (pass allow_defective to get the conditional mean)",
            hit_probability=hit,
        )
    g, residual = _checked_solve(solve, sub, -a, math.inf, "hit-weighted mean hitting time")
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


def _hitting_system(ctmc: Ctmc, in_target: np.ndarray):
    """``(relevant, defective, into_target)`` for the target ``in_target``
    made absorbing: the non-target states reachable from the initial
    distribution that can reach the target, whether a reachable state
    cannot, and, for a defective target only (else None), each relevant
    state's total rate into the target.  Edges are the rates outside the
    target's rows, which the forward search cuts; the backward one, over
    ``ctmc.incoming``, starts from every target state, so it needs no cut."""
    r = ctmc.rates
    lengths = np.diff(r.indptr)
    cut = np.zeros_like(r.indptr)
    np.cumsum(np.where(in_target, 0, lengths), out=cut[1:])
    reachable = _reachable(cut, r.indices[np.repeat(~in_target, lengths)],
                           np.flatnonzero(ctmc.initial > 0))
    can_reach = _reachable(ctmc.incoming.indptr, ctmc.incoming.indices, np.flatnonzero(in_target))
    relevant = reachable & can_reach & ~in_target
    if not (reachable & ~can_reach & ~in_target).any():
        return relevant, False, None
    # Each relevant row's rates into the target, summed in index order.
    into = np.repeat(relevant, lengths) & in_target[r.indices]
    into_target = _row_sums(_masked_indptr(r.indptr, into), r.data[into])
    return relevant, True, into_target[relevant]


def _lu(a: sp.csc_matrix, order: str, what: str):
    """SuperLU's factorization of ``a`` under the column order ``order``;
    an exactly singular ``a`` (``what``) raises ``NoConvergenceError``."""
    try:
        return spla.splu(a, permc_spec=order)
    except RuntimeError as e:  # SuperLU: the factor is exactly singular
        raise NoConvergenceError(f"{what} is singular: {e}", residual=math.nan) from e


def _checked_solve(solve, sub, b: np.ndarray, hi: float, what: str) -> tuple[np.ndarray, float]:
    """``x = solve(b)``, the solution of ``sub @ x = b``, and its residual,
    the largest entry of ``|sub @ x - b|``; raises unless ``x`` lies in
    ``[0, hi]`` (see ``_require_in_range``).  An empty system has the empty
    solution and residual 0."""
    if not len(b):
        return np.zeros(0), 0.0
    x = solve(b)
    residual = float(np.abs(sub @ x - b).max())
    _require_in_range(x, 0.0, hi, what, residual)
    return x, residual


def _require_in_range(x: np.ndarray, lo: float, hi: float, what: str, residual: float,
                      floor: float = -math.inf):
    """Raise ``NoConvergenceError`` naming the worst entry unless every entry
    of ``x`` is finite, at least ``floor`` and in ``[lo, hi]``, give or take
    ``RANGE_SLACK`` times its largest entry (at least 1): a hitting-time or
    balance system so ill-conditioned that rounding swamps its solution
    shows itself this way, while its residual can stay small next to the
    entries' size.  The slack passes the rounding of a sound solve, such as
    a hit probability of 1 + 4e-14."""
    finite = np.isfinite(x)
    slack = RANGE_SLACK * max(1.0, float(np.abs(x[finite]).max(initial=0.0)))
    ok = finite & (x >= lo - slack) & (x <= hi + slack) & (x >= floor)
    if not ok.all():
        # A non-finite entry is the worst, else the one furthest outside.
        bad = x[~finite][0] if not finite.all() else x[np.argmax(np.maximum(lo - x, x - hi))]
        raise NoConvergenceError(
            f"{what} {bad:.6g} is outside [{lo:g}, {hi:g}]: the linear "
            f"system is too ill-conditioned to solve (residual {residual:.3g})",
            residual=residual,
        )


# ---------------------------------------------------------------------------
# Label measures


def label_probability(dist: Distribution, label_set, name: str = "label_probability") -> MeasureResult:
    """Probability mass of a state-index set under ``dist``."""
    idx = _sorted_indices(label_set, len(dist.probs), "label state index out of range")
    value = float(dist.probs[idx].sum())
    method = "steady" if math.isinf(dist.time) else "transient"
    meta = dict(getattr(dist, "metadata", {}))
    if not math.isinf(dist.time):
        meta["time"] = dist.time
    return MeasureResult(name=name, value=value, method=method, metadata=meta)
