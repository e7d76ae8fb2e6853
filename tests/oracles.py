"""Independent oracles used across the test suite.

These deliberately avoid the production code paths: guards are evaluated
by a two-valued walker of their own on every state (not the program's
three-valued interpreter, run once per guard class), reachability is
computed by enumerating the whole variable-domain product and filtering,
and the numeric oracles are dense (Gaussian elimination, matrix
exponential, dense linear solves) gated to small chains.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

from infradep import (
    And,
    Comparison,
    Immediate,
    IntDomain,
    Label,
    Model,
    Not,
    Or,
    OutOfDomainError,
    RateExpr,
    SetValue,
    Shift,
    Timed,
    Transition,
    VariableDecl,
    eliminate_vanishing,
    var_eq,
)

DENSE_LIMIT = 512


# ---------------------------------------------------------------------------
# Interpreted guards

_CMP_FNS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_guard(guard, state: tuple, index) -> bool:
    """Walk the guard tree on one state; the independent counterpart of
    ``eval_guard_kleene`` and the firing table's per-class rows."""
    if isinstance(guard, Comparison):
        return _CMP_FNS[guard.op](state[index[guard.var]], guard.value)
    if isinstance(guard, And):
        return all(eval_guard(t, state, index) for t in guard.terms)
    if isinstance(guard, Or):
        return any(eval_guard(t, state, index) for t in guard.terms)
    if isinstance(guard, Not):
        return not eval_guard(guard.term, state, index)
    raise TypeError(f"not a guard node: {guard!r}")


# ---------------------------------------------------------------------------
# Exhaustive-domain reachability


def apply_update_raw(model: Model, s: tuple, t: Transition) -> tuple:
    out = list(s)
    index = model.var_index
    for a in t.update:
        i = index[a.var]
        if isinstance(a, SetValue):
            out[i] = a.value
        else:
            out[i] = out[i] + a.delta
    return tuple(out)


def firings_raw(model: Model, s: tuple):
    """(transition, value) pairs enabled in s under preemption semantics."""
    index = model.var_index
    immediates = [
        t
        for t in model.transitions
        if isinstance(t.kind, Immediate) and eval_guard(t.guard, s, index)
    ]
    if immediates:
        top = max(t.kind.priority for t in immediates)
        chosen = [t for t in immediates if t.kind.priority == top]
        total = sum(t.kind.weight for t in chosen)
        return [(t, t.kind.weight / total) for t in chosen], True
    timed = [
        t
        for t in model.transitions
        if isinstance(t.kind, Timed) and eval_guard(t.guard, s, index)
    ]
    return [(t, t.kind.rate.value(model.parameters)) for t in timed], False


def exhaustive_reachability(model: Model):
    """Enumerate the full domain product, then filter by reachability.

    Returns (reachable states in visit order, tangible set, edge list).
    Raises ``OutOfDomainError`` if the initial state or the target of a
    reachable firing lies outside the domain product.
    """
    all_states = list(itertools.product(*(tuple(v.domain) for v in model.variables)))
    adjacency = {}
    vanishing = set()
    for s in all_states:
        firings, is_vanishing = firings_raw(model, s)
        if is_vanishing:
            vanishing.add(s)
        adjacency[s] = [(t.name, apply_update_raw(model, s, t), value) for t, value in firings]

    init = tuple(v.init for v in model.variables)
    if init not in adjacency:
        raise OutOfDomainError(f"initial state {init} is outside the domain")
    seen = {init}
    order = [init]
    frontier = [init]
    edges = []
    while frontier:
        nxt = []
        for s in frontier:
            for name, dst, value in adjacency[s]:
                if dst not in adjacency:
                    raise OutOfDomainError(f"{name} leaves the domain: {s} -> {dst}")
                edges.append((s, name, dst, value))
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(dst)
                    order.append(dst)
        frontier = nxt
    tangible = {s for s in seen if s not in vanishing}
    return order, tangible, edges


# ---------------------------------------------------------------------------
# Dense numeric oracles


def dense_eliminate(model: Model):
    """Tangible states, generator and initial distribution by dense algebra.

    The counterpart of ``eliminate_vanishing``: W sums the exhaustive edge
    list's values, the absorption is ``solve(I - W_VV, W_VT)``, and the
    generator is ``W_TT + W_TV X`` with its diagonal replaced by minus the
    off-diagonal row sums.
    """
    order, tangible, edges = exhaustive_reachability(model)
    assert len(order) <= DENSE_LIMIT
    index = {s: i for i, s in enumerate(order)}
    w = np.zeros((len(order), len(order)))
    for src, _, dst, value in edges:
        w[index[src], index[dst]] += value
    t = [i for i, s in enumerate(order) if s in tangible]
    v = [i for i, s in enumerate(order) if s not in tangible]
    x = np.zeros((len(v), len(t)))
    if v:
        x = np.linalg.solve(np.eye(len(v)) - w[np.ix_(v, v)], w[np.ix_(v, t)])
    q = w[np.ix_(t, t)] + w[np.ix_(t, v)] @ x
    np.fill_diagonal(q, 0.0)
    q -= np.diag(q.sum(axis=1))
    initial = np.zeros(len(t))
    if 0 in t:  # order[0] is the initial state
        initial[t.index(0)] = 1.0
    else:
        initial = x[v.index(0)]
    return tuple(order[i] for i in t), q, initial



def _closure_bool(adj: np.ndarray) -> np.ndarray:
    """Transitive-reflexive closure by repeated boolean squaring."""
    n = adj.shape[0]
    r = adj | np.eye(n, dtype=bool)
    while True:
        nxt = r | (r @ r)
        if (nxt == r).all():
            return r
        r = nxt


def dense_terminal_sccs(q: np.ndarray) -> list[np.ndarray]:
    adj = q > 0
    reach = _closure_bool(adj)
    n = q.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        comp = np.flatnonzero(reach[i] & reach[:, i])
        seen[comp] = True
        comps.append(comp)
    terminal = []
    for comp in comps:
        inside = np.zeros(n, dtype=bool)
        inside[comp] = True
        if not adj[comp][:, ~inside].any():
            terminal.append(comp)
    return terminal


def dense_steady(ctmc) -> np.ndarray:
    """Stationary distribution by Gaussian elimination on the terminal SCC."""
    q = ctmc.generator.toarray()
    assert q.shape[0] <= DENSE_LIMIT
    terms = dense_terminal_sccs(q)
    assert len(terms) == 1, "oracle needs a unique terminal SCC"
    scc = terms[0]
    sub = q[np.ix_(scc, scc)]
    m = len(scc)
    a = sub.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi_sub = np.linalg.solve(a, b)
    pi = np.zeros(q.shape[0])
    pi[scc] = pi_sub
    return pi


def dense_transient(ctmc, t: float) -> np.ndarray:
    q = ctmc.generator.toarray()
    assert q.shape[0] <= DENSE_LIMIT
    return ctmc.initial @ scipy.linalg.expm(q * t)


def dense_mtta(ctmc, target_idx) -> float:
    """Expected hitting time by a dense linear solve (hit probability 1)."""
    q = ctmc.generator.toarray()
    assert q.shape[0] <= DENSE_LIMIT
    n = q.shape[0]
    target = np.zeros(n, dtype=bool)
    target[sorted(target_idx)] = True
    q_abs = q.copy()
    q_abs[target, :] = 0.0
    keep = np.flatnonzero(~target)
    sub = q_abs[np.ix_(keep, keep)]
    h = np.linalg.solve(sub, -np.ones(len(keep)))
    return float(ctmc.initial[keep] @ h)


# ---------------------------------------------------------------------------
# Small helper models


def two_state_chain(lam: float = 1.0, mu: float = 3.0) -> Model:
    """0 --lam--> 1, 1 --mu--> 0."""
    return Model(
        name="two_state",
        variables=(VariableDecl("x", IntDomain(0, 1), 0),),
        parameters={"lam": lam, "mu": mu},
        transitions=(
            Transition("up", Timed(RateExpr(1.0, "lam")), var_eq("x", 0), (SetValue("x", 1),)),
            Transition("down", Timed(RateExpr(1.0, "mu")), var_eq("x", 1), (SetValue("x", 0),)),
        ),
        labels=(Label("one", var_eq("x", 1)), Label("zero", var_eq("x", 0))),
    )


def birth_chain(rates) -> Model:
    """0 -> 1 -> ... -> n absorbing, one rate per hop."""
    n = len(rates)
    transitions = tuple(
        Transition(
            f"hop{i}",
            Timed(RateExpr(float(r))),
            var_eq("x", i),
            (Shift("x", 1),),
        )
        for i, r in enumerate(rates)
    )
    return Model(
        name="birth_chain",
        variables=(VariableDecl("x", IntDomain(0, n), 0),),
        parameters={},
        transitions=transitions,
        labels=(Label("end", var_eq("x", n)),),
    )


def two_state_transient_closed_form(lam: float, mu: float, t: float) -> float:
    """P(state 1 at t | start 0) = lam/(lam+mu) * (1 - exp(-(lam+mu) t))."""
    return lam / (lam + mu) * (1.0 - np.exp(-(lam + mu) * t))


def ctmc_of(model: Model):
    from infradep import build_reachability_graph

    return eliminate_vanishing(build_reachability_graph(model))


def hand_reduced_accidental(params=None):
    """The accidental model with the weakening immediates pre-composed.

    Timed transitions whose targets would enable the instant weakening
    (plain e-failures from the working status, i-restoration under a
    failed grid) get the weakening folded into their own updates, and the
    immediates are dropped.  Its reachability graph is vanishing-free and
    must match ``eliminate_vanishing`` of the real model entrywise.
    """
    from infradep import DEFAULT_PARAMS, accidental_model, g_and, var_in

    p = params or DEFAULT_PARAMS
    base = accidental_model(p)
    transitions = []
    for t in base.transitions:
        if t.name in ("i_weaken", "i_unweaken"):
            continue
        if t.name == "e_failure_normal":
            transitions.append(
                Transition(
                    "e_failure_normal_w",
                    t.kind,
                    g_and(var_eq("info", "i_working"), var_eq("elec", "e_working")),
                    (SetValue("elec", "partial_e_outage"), SetValue("info", "i_weakened")),
                    t.tags,
                )
            )
            transitions.append(
                Transition(
                    "e_failure_normal_k",
                    t.kind,
                    g_and(var_eq("info", "i_weakened"), var_eq("elec", "e_working")),
                    (SetValue("elec", "partial_e_outage"),),
                    t.tags,
                )
            )
            continue
        if t.name == "i_restoration":
            transitions.append(
                Transition(
                    "i_restoration_clean",
                    t.kind,
                    g_and(
                        var_eq("info", "partial_i_outage"),
                        var_in("elec", ("e_working", "e_weakened")),
                    ),
                    (SetValue("info", "i_working"),),
                    t.tags,
                )
            )
            transitions.append(
                Transition(
                    "i_restoration_weaken",
                    t.kind,
                    g_and(
                        var_eq("info", "partial_i_outage"),
                        var_in("elec", ("partial_e_outage", "e_lost")),
                    ),
                    (SetValue("info", "i_weakened"),),
                    t.tags,
                )
            )
            continue
        transitions.append(t)
    return Model(
        name="accidental_prereduced",
        variables=base.variables,
        parameters=base.parameters,
        transitions=tuple(transitions),
        labels=base.labels,
    )
