"""Reachability-graph construction and reduction to a CTMC.

States are explored breadth-first from the initial state, expanding
neighbours in transition-declaration order, so state numbering is
deterministic for a given model.  Vanishing states (those with an enabled
immediate transition) carry probability-annotated edges; tangible states
carry rate-annotated edges.  ``eliminate_vanishing`` folds the vanishing
states away, redistributing each timed rate over the tangible states its
immediate chains can reach.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ImmediateCycleError, InvalidArgError, StateLimitExceeded
from .model import Model, StateVector, initial_state

DEFAULT_STATE_LIMIT = 1_000_000
STATE_LIMIT_ENV = "INFRADEP_STATE_LIMIT"


def state_limit() -> int:
    """The state cap from ``INFRADEP_STATE_LIMIT`` (unset or empty: the default).

    Raises ``InvalidArgError`` unless the setting is a positive integer.
    """
    raw = os.environ.get(STATE_LIMIT_ENV)
    if not raw:
        return DEFAULT_STATE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise InvalidArgError(f"{STATE_LIMIT_ENV} must be a positive integer, got {raw!r}")
    return limit


@dataclass(frozen=True)
class Edge:
    src: int
    transition: str
    dst: int
    value: float  # rate when src is tangible, probability when vanishing


@dataclass(frozen=True)
class ReachabilityGraph:
    model: Model
    states: tuple[StateVector, ...]
    tangible: tuple[bool, ...]
    edges: tuple[Edge, ...]
    initial: int

    @cached_property
    def out_edges(self) -> tuple[tuple[Edge, ...], ...]:
        buckets: list[list[Edge]] = [[] for _ in self.states]
        for e in self.edges:
            buckets[e.src].append(e)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def state_index(self) -> dict[StateVector, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def label_sets(self) -> dict[str, frozenset[int]]:
        """``label_sets(self)``, computed once per graph."""
        return label_sets(self)

    def tangible_count(self) -> int:
        return sum(self.tangible)

    def vanishing_count(self) -> int:
        return len(self.states) - sum(self.tangible)


@dataclass(eq=False)
class Ctmc:
    """Tangible-only chain with sparse generator Q (rows sum to zero)."""

    model: Model
    states: tuple[StateVector, ...]
    generator: sp.csr_matrix
    initial: np.ndarray
    label_sets: dict[str, frozenset[int]]

    @property
    def n(self) -> int:
        return len(self.states)


def build_reachability_graph(model: Model, limit: int | None = None) -> ReachabilityGraph:
    """Breadth-first closure of the model's firing relation.

    Raises ``StateLimitExceeded`` beyond ``limit`` states (default from the
    ``INFRADEP_STATE_LIMIT`` environment variable, else one million) and
    ``ImmediateCycleError`` if the vanishing states contain a cycle.
    """
    cap = state_limit() if limit is None else limit
    comp = model._compiled
    transitions = model.transitions

    init = initial_state(model)
    index: dict[StateVector, int] = {init: 0}
    states: list[StateVector] = [init]
    tangible: list[bool] = []
    edges: list[Edge] = []
    queue: deque[int] = deque([0])

    while queue:
        si = queue.popleft()
        s = states[si]
        vanishing, chosen = comp.firing(s)
        tangible.append(not vanishing)
        if vanishing:
            total_w = sum(transitions[i].kind.weight for i in chosen)
            fired = [(i, transitions[i].kind.weight / total_w) for i in chosen]
        else:
            fired = [(i, model.rate_of(transitions[i])) for i in chosen]
        for ti, value in fired:
            dst = comp.updates[ti](s)
            di = index.get(dst)
            if di is None:
                if len(states) >= cap:
                    raise StateLimitExceeded(
                        f"state space exceeds {cap} states", limit=cap
                    )
                di = len(states)
                index[dst] = di
                states.append(dst)
                queue.append(di)
            edges.append(Edge(si, transitions[ti].name, di, value))

    graph = ReachabilityGraph(
        model=model,
        states=tuple(states),
        tangible=tuple(tangible),
        edges=tuple(edges),
        initial=0,
    )
    _check_vanishing_acyclic(graph)
    return graph


def _check_vanishing_acyclic(g: ReachabilityGraph):
    # Iterative DFS over the vanishing-to-vanishing subgraph.
    color = {}  # 0 in progress, 1 done
    for start, tang in enumerate(g.tangible):
        if tang or start in color:
            continue
        stack = [(start, iter(g.out_edges[start]))]
        color[start] = 0
        while stack:
            node, it = stack[-1]
            found = False
            for e in it:
                nxt = e.dst
                if g.tangible[nxt]:
                    continue
                c = color.get(nxt)
                if c == 0:
                    cyc = " -> ".join(
                        g.model.format_state(g.states[n]) for n, _ in stack
                    )
                    raise ImmediateCycleError(
                        f"cycle of vanishing states detected: {cyc}"
                    )
                if c is None:
                    color[nxt] = 0
                    stack.append((nxt, iter(g.out_edges[nxt])))
                    found = True
                    break
            if not found:
                color[node] = 1
                stack.pop()


def _vanishing_absorption(g: ReachabilityGraph) -> dict[int, dict[int, float]]:
    """For each vanishing state, its absorption distribution over tangibles.

    The vanishing subgraph is acyclic (checked beforehand), so states are
    resolved in reverse topological order of their immediate edges.
    """
    vanishing = [i for i, t in enumerate(g.tangible) if not t]
    # Kahn's algorithm on vanishing-to-vanishing edges.
    outdeg = {v: 0 for v in vanishing}
    preds: dict[int, list[int]] = {v: [] for v in vanishing}
    for v in vanishing:
        for e in g.out_edges[v]:
            if not g.tangible[e.dst]:
                outdeg[v] += 1
                preds[e.dst].append(v)
    order = [v for v in vanishing if outdeg[v] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for p in preds[v]:
            outdeg[p] -= 1
            if outdeg[p] == 0:
                order.append(p)

    memo: dict[int, dict[int, float]] = {}
    for v in order:  # all successors of v are already resolved
        out: dict[int, float] = {}
        for e in g.out_edges[v]:
            if g.tangible[e.dst]:
                out[e.dst] = out.get(e.dst, 0.0) + e.value
            else:
                for t, q in memo[e.dst].items():
                    out[t] = out.get(t, 0.0) + e.value * q
        memo[v] = out
    return memo


def eliminate_vanishing(g: ReachabilityGraph) -> Ctmc:
    """Reduce the graph to a CTMC over its tangible states.

    Each timed edge into a vanishing state hands its rate to the tangible
    states reachable through the immediate chains, weighted by chain
    probability; total outflow of every tangible state is preserved.
    Rate mass that flows back to its own source would be a CTMC-invisible
    self-loop and is dropped.
    """
    _check_vanishing_acyclic(g)
    absorption = _vanishing_absorption(g)

    tangible_ids = [i for i, t in enumerate(g.tangible) if t]
    compact = {old: new for new, old in enumerate(tangible_ids)}
    n = len(tangible_ids)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for old in tangible_ids:
        src = compact[old]
        acc: dict[int, float] = {}
        for e in g.out_edges[old]:
            if g.tangible[e.dst]:
                acc[e.dst] = acc.get(e.dst, 0.0) + e.value
            else:
                for t, q in absorption[e.dst].items():
                    acc[t] = acc.get(t, 0.0) + e.value * q
        for dst_old, rate in acc.items():
            dst = compact[dst_old]
            if dst == src:
                continue
            rows.append(src)
            cols.append(dst)
            vals.append(rate)

    off = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    generator = (off + sp.diags(diag, format="csr")).tocsr()

    initial = np.zeros(n)
    if g.tangible[g.initial]:
        initial[compact[g.initial]] = 1.0
    else:
        for t, q in absorption[g.initial].items():
            initial[compact[t]] += q

    states = tuple(g.states[i] for i in tangible_ids)
    labels = _label_sets_for_states(g.model, states)
    return Ctmc(
        model=g.model,
        states=states,
        generator=generator,
        initial=initial,
        label_sets=labels,
    )


def _label_sets_for_states(model: Model, states) -> dict[str, frozenset[int]]:
    comp = model._compiled
    return {
        name: frozenset(i for i, s in enumerate(states) if fn(s))
        for name, fn in comp.label_guards.items()
    }


def label_sets(obj, model: Model | None = None) -> dict[str, frozenset[int]]:
    """Map each model label to the indices of states satisfying it.

    Works on a ``ReachabilityGraph`` (all states) or a ``Ctmc`` (tangible
    states).  Sets may overlap and states may match no label.
    """
    model = model or obj.model
    return _label_sets_for_states(model, obj.states)
