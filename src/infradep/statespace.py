"""Reachability-graph construction and reduction to a CTMC.

States are explored breadth-first from the initial state, expanding
neighbours in transition-declaration order, so state numbering is
deterministic for a given model.  Vanishing states (those with an enabled
immediate transition) carry probability-annotated edges; tangible states
carry rate-annotated edges.  The explorer walks integer state codes (a
mixed radix over the variables' domain positions; see ``model``) and keys
its state index by them.  Each state's row in the model's firing table,
one row per guard class (the states on which every guard comparison has
the same truth value), carries one step per chosen transition: where the
update moves every state of the class by the same domain positions, an
edge's target code is the source code plus a constant, and where the
class fixes the target's class, the target's row id is stored after its
first use.  Only the other steps apply the update to the state tuple and
encode the result, which rejects a value outside its domain.  A state's
tuple is built once, when it is found, and its row id recorded then.
The explorer records only the row ids and each edge's target.  The edge
sources, transition indices and values, the state kinds and the label
sets are then gathered from the rows with numpy, keyed by those ids.
The edges are kept as four
arrays; ``g.edges`` builds ``Edge`` objects from them only when asked for
its items, and ``g.adjacency`` lists them per source state.
``eliminate_vanishing`` folds the vanishing states away with two sparse
products over the edge-weight matrix, handing each timed rate to the
tangible states its immediate chains can reach.
A graph groups its states into label sets once (``g.label_sets``); the
CTMC reduced from it carries the same sets renumbered over its states.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

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


@dataclass(frozen=True, eq=False)
class ReachabilityGraph:
    """States in BFS order, their kinds, and the edges as parallel arrays:
    edge ``k`` fires ``model.transitions[edge_transition[k]]`` from state
    ``edge_src[k]`` to state ``edge_dst[k]`` with ``edge_value[k]`` (a rate
    out of a tangible state, a probability out of a vanishing one)."""

    model: Model
    states: tuple[StateVector, ...]
    tangible: tuple[bool, ...]
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_transition: np.ndarray
    edge_value: np.ndarray
    initial: int
    # Each state's firing-table row id (``model._compiled.rows``), as the
    # explorer recorded it; None on a hand-built graph.
    row_ids: np.ndarray | None = None

    @property
    def edges(self) -> "EdgeView":
        return EdgeView(self)

    @cached_property
    def _edge_objects(self) -> tuple[Edge, ...]:
        names = [t.name for t in self.model.transitions]
        return tuple(
            Edge(src, names[t], dst, value)
            for src, t, dst, value in zip(
                self.edge_src.tolist(),
                self.edge_transition.tolist(),
                self.edge_dst.tolist(),
                self.edge_value.tolist(),
            )
        )

    @cached_property
    def out_edges(self) -> tuple[tuple[Edge, ...], ...]:
        buckets: list[list[Edge]] = [[] for _ in self.states]
        for e in self.edges:
            buckets[e.src].append(e)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def adjacency(self) -> tuple[list[int], list[int], list[str]]:
        """``(indptr, dst, transition)``: the out-edges of state ``i`` are
        positions ``indptr[i]:indptr[i + 1]`` of the target-index and
        transition-name lists, in the order of ``out_edges[i]``."""
        order = np.argsort(self.edge_src, kind="stable")
        indptr = np.zeros(len(self.states) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_src, minlength=len(self.states)), out=indptr[1:])
        names = [t.name for t in self.model.transitions]
        return (
            indptr.tolist(),
            self.edge_dst[order].tolist(),
            [names[t] for t in self.edge_transition[order].tolist()],
        )

    @cached_property
    def state_index(self) -> dict[StateVector, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def label_sets(self) -> dict[str, frozenset[int]]:
        """``label_sets(self)``, computed once per graph, from the recorded
        row ids when the explorer built the graph."""
        ids = _row_ids(self) if self.row_ids is None else self.row_ids
        return _label_sets_of_rows(self.model._compiled, ids)

    @cached_property
    def _weights(self) -> tuple[np.ndarray, int, sp.csr_matrix]:
        """``(order, nt, W)``: the state indices with the ``nt`` tangible ones
        first, and ``W[i, j]``, the summed values of the edges from state
        ``order[i]`` to state ``order[j]``."""
        tangible = np.asarray(self.tangible, dtype=bool)
        order = np.argsort(~tangible, kind="stable")
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        w = sp.csr_matrix(
            (self.edge_value, (position[self.edge_src], position[self.edge_dst])),
            shape=(len(order),) * 2,
        )
        return order, int(tangible.sum()), w

    def tangible_count(self) -> int:
        return sum(self.tangible)

    def vanishing_count(self) -> int:
        return len(self.states) - sum(self.tangible)


class EdgeView(Sequence):
    """A graph's edges as ``Edge`` objects, which the graph builds on first
    access to an item and keeps; the length is read from the edge arrays.
    The view is made afresh on each ``g.edges`` so that the graph holds no
    reference back to itself and is freed as soon as it is dropped."""

    def __init__(self, graph: ReachabilityGraph):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.edge_src)

    def __getitem__(self, k):
        return self._graph._edge_objects[k]

    def __iter__(self):
        return iter(self._graph._edge_objects)


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
    ``INFRADEP_STATE_LIMIT`` environment variable, else one million),
    ``OutOfDomainError`` if the initial state or a reachable firing holds a
    value outside its variable's domain, and ``ImmediateCycleError`` if the
    vanishing states contain a cycle.
    """
    cap = state_limit() if limit is None else limit
    comp = model._compiled
    row_id, rows, updates = comp.row_id, comp.rows, comp.updates
    encode, steps = comp.encode, comp.steps
    init = initial_state(model)
    index: dict[int, int] = {encode(init): 0}
    codes = list(index)
    states: list[StateVector] = [init]  # with codes, the BFS queue, read in order
    # Discovery order is state order, so recording each state's row id when
    # it is found numbers the rows as reading them off the queue would.
    ids, dst = array("q", [row_id(init)]), array("q")

    si = 0
    while si < len(states):
        s, code, rid = states[si], codes[si], ids[si]
        out = steps[rid]
        if out is None:
            out = comp.fill_steps(rid, s)
        for step in out:
            ti, delta, target_row = step
            if delta is None:
                target = updates[ti](s)
                t = encode(target)
            else:
                t = code + delta
            di = index.get(t)
            if di is None:
                if len(states) >= cap:
                    raise StateLimitExceeded(
                        f"state space exceeds {cap} states", limit=cap
                    )
                di = index[t] = len(states)
                codes.append(t)
                if delta is not None:
                    target = updates[ti](s)
                states.append(target)
                if target_row is None:
                    target_row = row_id(target)
                elif target_row < 0:
                    target_row = step[2] = row_id(target)
                ids.append(target_row)
            dst.append(di)
        si += 1

    # Edge k is the j-th chosen transition of its source's row: lay the
    # rows' chosen indices and values out flat and gather from them.
    ids = np.frombuffer(ids, dtype=np.int64)
    width = np.fromiter((len(r.chosen) for r in rows), dtype=np.int64, count=len(rows))
    row_start = np.cumsum(width) - width
    chosen = np.fromiter(chain.from_iterable(r.chosen for r in rows), dtype=np.int64)
    values = np.fromiter(chain.from_iterable(r.values for r in rows), dtype=np.float64)
    vanishing = np.fromiter((r.vanishing for r in rows), dtype=bool, count=len(rows))
    out_degree = width[ids]
    first_edge = np.cumsum(out_degree) - out_degree
    flat = np.repeat(row_start[ids] - first_edge, out_degree) + np.arange(len(dst))

    graph = ReachabilityGraph(
        model=model,
        states=tuple(states),
        tangible=tuple((~vanishing[ids]).tolist()),
        edge_src=np.repeat(np.arange(len(states), dtype=np.int64), out_degree),
        edge_dst=np.frombuffer(dst, dtype=np.int64),
        edge_transition=chosen[flat],
        edge_value=values[flat],
        initial=0,
        row_ids=ids,
    )
    _check_vanishing_acyclic(graph)
    return graph


def _check_vanishing_acyclic(g: ReachabilityGraph):
    """Raise ``ImmediateCycleError`` naming the states of one immediate cycle."""
    order, nt, w = g._weights
    w_vv = w[nt:, nt:]
    if not w_vv.shape[0]:
        return
    count, comp = csgraph.connected_components(w_vv, directed=True, connection="strong")
    on_cycle = (np.bincount(comp, minlength=count)[comp] > 1) | (w_vv.diagonal() != 0)
    if on_cycle.any():
        members = order[nt:][comp == comp[np.argmax(on_cycle)]]
        names = ", ".join(g.model.format_state(g.states[i]) for i in members)
        raise ImmediateCycleError(f"cycle of vanishing states detected: {names}")


def eliminate_vanishing(g: ReachabilityGraph) -> Ctmc:
    """Reduce the graph to a CTMC over its tangible states.

    With ``W`` the edge weights (rates out of tangible states T,
    probabilities out of vanishing states V), the absorption of each
    vanishing state is ``X = (I - W_VV)^-1 W_VT`` and the generator's
    off-diagonal part is ``W_TT + W_TV X``.  ``W_VV`` is acyclic, so the
    series ``X = sum_k W_VV^k W_VT`` ends after the longest immediate chain.
    Rate mass that flows back to its own source would be a CTMC-invisible
    self-loop and is dropped, so that state's exit rate shrinks by it.
    """
    _check_vanishing_acyclic(g)
    order, nt, w = g._weights
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    absorption = term = w[nt:, :nt]
    w_vv = w[nt:, nt:]
    while (term := w_vv @ term).nnz:
        absorption = absorption + term
    reduced = w[:nt, :nt] + w[:nt, nt:] @ absorption
    off = reduced - sp.diags(reduced.diagonal(), format="csr")
    diag = -np.asarray(off.sum(axis=1)).ravel()
    generator = off + sp.diags(diag, format="csr")

    initial = np.zeros(nt)
    if g.tangible[g.initial]:
        initial[position[g.initial]] = 1.0
    else:
        row = absorption[position[g.initial] - nt]
        initial[row.indices] = row.data

    tangible = np.asarray(g.tangible, dtype=bool)
    sets = {}
    for name, members in g.label_sets.items():
        idx = np.fromiter(members, dtype=np.int64, count=len(members))
        sets[name] = frozenset(position[idx[tangible[idx]]].tolist())
    return Ctmc(
        model=g.model,
        states=tuple(g.states[i] for i in order[:nt]),
        generator=generator,
        initial=initial,
        label_sets=sets,
    )


def label_sets(obj) -> dict[str, frozenset[int]]:
    """Map each model label to the indices of ``obj.states`` satisfying it.

    Reads the label truth values from the model's firing table, one row per
    guard class, over a ``ReachabilityGraph`` (all states) or a ``Ctmc``
    (tangible states).  Sets may overlap and states may match no label.  A
    graph caches the result as ``g.label_sets``, and the CTMC reduced from
    it inherits the sets renumbered.
    """
    return _label_sets_of_rows(obj.model._compiled, _row_ids(obj))


def _row_ids(obj) -> np.ndarray:
    """The firing-table row id of each of ``obj.states``."""
    return np.fromiter(map(obj.model._compiled.row_id, obj.states), dtype=np.int64,
                       count=len(obj.states))


def _label_sets_of_rows(comp, ids: np.ndarray) -> dict[str, frozenset[int]]:
    """Each label's states, given each state's row id ``ids[i]`` in ``comp``."""
    truth = np.array([r.labels for r in comp.rows], dtype=bool).reshape(
        len(comp.rows), len(comp.labels)
    )
    member = truth[ids]
    return {
        l.name: frozenset(np.flatnonzero(member[:, j]).tolist()) for j, l in enumerate(comp.labels)
    }
