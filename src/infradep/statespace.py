"""Reachability-graph construction and reduction to a CTMC.

Only a valid model is explored: ``build_reachability_graph`` passes it
through ``require_valid`` first, which reuses the verdict ``validate_model``
recorded on the model, if any.  States are explored breadth-first from the
initial state, expanding neighbours in transition-declaration order, so
state numbering is deterministic for a given model.  Vanishing states (those with an enabled
immediate transition) carry probability-annotated edges; tangible states
carry rate-annotated edges.  The explorer runs the model's walker
(``model._Walk``) over every reachable state: it keys states by integer
code (a mixed radix over the variables' domain positions; see ``model``),
records each state's firing-table row id and calls back with each edge's
target.  The edge sources, transition indices and values, the state
kinds and the label sets are then gathered from the rows with numpy,
keyed by those ids.  A graph's and a chain's states are a view of their
codes (``_States``).
A graph keeps its edges only as four arrays (source, target, transition
index, value); ``g.adjacency`` lists them per source state.
``eliminate_vanishing`` folds the vanishing states away with two sparse
products over the edge-weight matrix, handing each timed rate to the
tangible states its immediate chains can reach.  The CTMC keeps those
rates with each self-loop dropped: a canonical CSR (sorted indices, no
duplicates, no stored zero) of positive rates between distinct states,
with no diagonal.  Each state's exit rate (its row's sum), the rates in
CSC (``incoming``) and the generator are derived from it when first read
and cached on the chain; ``_restrict`` assembles the generator and every
solver system from the rates.  The
check that the vanishing states hold no cycle runs once per graph and is
cached on it, for the explorer and the eliminator alike.
A graph's kinds are one boolean array (``g.tangible``).  A graph groups
its states into label sets once (``g.label_sets``), each a sorted int64
index array; the CTMC reduced from it carries the same arrays renumbered
over its states.
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
from scipy.sparse._sparsetools import csr_column_index1, csr_column_index2
from scipy.sparse._sparsetools import csr_plus_csr, csr_row_index

from .errors import ImmediateCycleError, InvalidArgError
from .model import Model, StateVector, _Walk, initial_state
from .validate import require_valid

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


class _States(Sequence):
    """A read-only sequence of states, as their codes: ``len`` reads them,
    and the first other read decodes them all (``_decode_all``) into a
    tuple, kept.  Built from a tuple of states (a hand-built graph's or
    chain's), it has no codes.  It compares and prints as the tuple.  It
    holds the model's ``_CompiledModel.digits``, not the graph or the
    firing table, so it makes no cycle and keeps no table alive."""

    def __init__(self, codes: np.ndarray | None, digits, states: tuple | None = None):
        self.codes, self._digits, self._tuple = codes, digits, states

    @property
    def _all(self) -> tuple[StateVector, ...]:
        if self._tuple is None:
            self._tuple = _decode_all(self._digits, self.codes)
        return self._tuple

    def __len__(self) -> int:
        return len(self._tuple if self.codes is None else self.codes)

    def __getitem__(self, i):
        return self._all[i]

    def __iter__(self):
        return iter(self._all)

    def __eq__(self, other) -> bool:
        return self._all == (other._all if isinstance(other, _States) else other)

    def __repr__(self) -> str:
        return repr(self._all)

    def take(self, idx: np.ndarray) -> _States:
        """The states at positions ``idx``, as a view of the same kind."""
        if self.codes is None:
            return _States(None, None, tuple(map(self._tuple.__getitem__, idx.tolist())))
        return _States(self.codes[idx], self._digits)


def _decode_all(digits, codes: np.ndarray) -> tuple[StateVector, ...]:
    """The states ``_CompiledModel.decode`` gives for ``codes`` (int64, or
    Python ints past 2^63), decoded a variable at a time over the array."""
    columns = []
    for _, radix, table in digits:
        columns.append(map(table.__getitem__, (codes % radix).tolist()))
        codes = codes // radix
    return tuple(zip(*columns)) if columns else ((),) * len(codes)


def _as_states(obj):
    """Make a hand-built graph's or chain's tuple of states a view."""
    if not isinstance(obj.states, _States):
        object.__setattr__(obj, "states", _States(None, None, tuple(obj.states)))


@dataclass(frozen=True, eq=False)
class ReachabilityGraph:
    """States in BFS order (a view of their codes), their kinds, and the
    edges as parallel arrays: edge ``k`` fires
    ``model.transitions[edge_transition[k]]`` from state
    ``edge_src[k]`` to state ``edge_dst[k]`` with ``edge_value[k]`` (a rate
    out of a tangible state, a probability out of a vanishing one);
    ``tangible`` is a boolean array (a hand-built graph's tuple becomes one)."""

    model: Model
    states: _States
    tangible: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_transition: np.ndarray
    edge_value: np.ndarray
    initial: int
    # Each state's firing-table row id (``model._compiled.rows``), as the
    # explorer recorded it; None on a hand-built graph.
    row_ids: np.ndarray | None = None

    def __post_init__(self):
        _as_states(self)
        object.__setattr__(self, "tangible", np.asarray(self.tangible, dtype=bool))

    @property
    def edges(self) -> range:
        """The edge ids ``0 .. len(edge_src) - 1``."""
        return range(len(self.edge_src))

    @cached_property
    def adjacency(self) -> tuple[list[int], list[int], list[str]]:
        """``(indptr, dst, transition)``: the out-edges of state ``i`` are
        positions ``indptr[i]:indptr[i + 1]`` of the target-index and
        transition-name lists, in the order of the edge arrays."""
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
    def label_sets(self) -> dict[str, np.ndarray]:
        """Each label's states, grouped once per graph from the row ids the
        explorer recorded (a hand-built graph looks each state's row up)."""
        comp, ids = self.model._compiled, self.row_ids
        if ids is None:
            ids = np.fromiter(map(comp.row_id, self.states), dtype=np.int64, count=len(self.states))
        return _label_sets_of_rows(comp, ids)

    @cached_property
    def _weights(self) -> tuple[np.ndarray, int, sp.csr_matrix]:
        """``(order, nt, W)``: the state indices with the ``nt`` tangible ones
        first, and ``W[i, j]``, the summed values of the edges from state
        ``order[i]`` to state ``order[j]``."""
        tangible = self.tangible
        order = np.argsort(~tangible, kind="stable")
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        w = sp.csr_matrix(
            (self.edge_value, (position[self.edge_src], position[self.edge_dst])),
            shape=(len(order),) * 2,
        )
        return order, int(tangible.sum()), w

    @cached_property
    def _immediate_cycle(self) -> str | None:
        """The states of one cycle of vanishing states, formatted, or None."""
        order, nt, w = self._weights
        w_vv = w[nt:, nt:]
        if not w_vv.shape[0]:
            return None
        count, comp = csgraph.connected_components(w_vv, directed=True, connection="strong")
        on_cycle = (np.bincount(comp, minlength=count)[comp] > 1) | (w_vv.diagonal() != 0)
        if not on_cycle.any():
            return None
        members = order[nt:][comp == comp[np.argmax(on_cycle)]]
        return ", ".join(self.model.format_state(self.states[i]) for i in members)

    def tangible_count(self) -> int:
        return int(self.tangible.sum())

    def vanishing_count(self) -> int:
        return len(self.states) - self.tangible_count()


@dataclass(eq=False)
class Ctmc:
    """Tangible-only chain: ``rates[i, j]`` is the rate from state ``i`` to
    a distinct state ``j``, a canonical CSR of positive entries only, with
    no diagonal.  ``states`` is a view of the states' codes; ``label_sets``
    maps each label to its states as a sorted int64 index array."""

    model: Model
    states: _States
    rates: sp.csr_matrix
    initial: np.ndarray
    label_sets: dict[str, np.ndarray]

    __post_init__ = _as_states

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def exit(self) -> np.ndarray:
        """Each state's total rate out, its row of ``rates`` summed in index
        order."""
        return _row_sums(self.rates.indptr, self.rates.data)

    @cached_property
    def generator(self) -> sp.csr_matrix:
        """The generator Q: ``rates`` with minus each nonzero exit rate on
        the diagonal (rows sum to zero)."""
        return _restrict(self.rates, None, -self.exit)

    @cached_property
    def incoming(self) -> sp.csc_matrix:
        """``rates`` in CSC: column ``j`` holds the rates into state ``j``."""
        return self.rates.tocsc()


def build_reachability_graph(model: Model, limit: int | None = None) -> ReachabilityGraph:
    """Breadth-first closure of the model's firing relation.

    Raises ``InvalidModelError`` unless the model validates,
    ``StateLimitExceeded`` beyond ``limit`` states (default from the
    ``INFRADEP_STATE_LIMIT`` environment variable, else one million) and
    ``ImmediateCycleError`` if the vanishing states contain a cycle.
    """
    require_valid(model)
    cap = state_limit() if limit is None else limit
    comp = model._compiled
    walk, dst = _Walk(comp, initial_state(model), cap), array("q")
    walk.expand(0, None, dst.append)
    codes, rows = walk.codes, comp.rows

    # Edge k is the j-th chosen transition of its source's row: lay the
    # rows' chosen indices and values out flat and gather from them.
    ids = np.frombuffer(walk.row_ids, dtype=np.int64)
    width = np.fromiter((len(r.chosen) for r in rows), dtype=np.int64, count=len(rows))
    row_start = np.cumsum(width) - width
    chosen = np.fromiter(chain.from_iterable(r.chosen for r in rows), dtype=np.int64)
    values = np.fromiter(chain.from_iterable(r.values for r in rows), dtype=np.float64)
    vanishing = np.fromiter((r.vanishing for r in rows), dtype=bool, count=len(rows))
    out_degree = width[ids]
    first_edge = np.cumsum(out_degree) - out_degree
    flat = np.repeat(row_start[ids] - first_edge, out_degree) + np.arange(len(dst))

    dtype = np.int64 if comp.size < 2**63 else object  # else codes of Python ints
    graph = ReachabilityGraph(
        model=model,
        states=_States(np.fromiter(codes, dtype, len(codes)), comp.digits),
        tangible=~vanishing[ids],
        edge_src=np.repeat(np.arange(len(codes), dtype=np.int64), out_degree),
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
    if g._immediate_cycle is not None:
        raise ImmediateCycleError(f"cycle of vanishing states detected: {g._immediate_cycle}")


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
    while w_vv.nnz and (term := w_vv @ term).nnz:
        absorption = absorption + term
    reduced = w[:nt, :nt] + w[:nt, nt:] @ absorption
    reduced.sort_indices()  # a no-op unless the product's rows came out unsorted

    initial = np.zeros(nt)
    if g.tangible[g.initial]:
        initial[position[g.initial]] = 1.0
    else:
        row = absorption[position[g.initial] - nt]
        initial[row.indices] = row.data

    # The tangible states keep their index order, so each array stays sorted.
    return Ctmc(
        model=g.model,
        states=g.states.take(order[:nt]),
        rates=_without_self_loops(reduced),
        initial=initial,
        label_sets={name: position[idx[g.tangible[idx]]] for name, idx in g.label_sets.items()},
    )


def _without_self_loops(reduced: sp.csr_matrix) -> sp.csr_matrix:
    """``reduced`` with its diagonal entries dropped.  A sparse sum stores no
    duplicate and no zero, so sorted rows come out canonical."""
    rows = _entry_rows(reduced.indptr)
    off = reduced.indices != rows
    if off.all():
        return reduced
    return sp.csr_matrix(
        (reduced.data[off], reduced.indices[off], _masked_indptr(reduced.indptr, off)),
        shape=reduced.shape,
    )


def _row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Each row's sum of the entries of a compressed sparse matrix, in index
    order (as ``sum(axis=1)`` adds them); 0 for an empty row."""
    sums = np.zeros(len(indptr) - 1)
    nonempty = np.flatnonzero(np.diff(indptr))
    if len(nonempty):
        sums[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return sums


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row (in CSC, the column) of each entry of a compressed sparse
    matrix with row pointer ``indptr``, in the pointer's dtype."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr))


def _masked_indptr(indptr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The row pointer of the entries of a CSR matrix that ``keep`` selects."""
    kept = np.zeros(len(keep) + 1, dtype=indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return kept[indptr]


def _restrict(m, keep: np.ndarray | None, diag: np.ndarray, scale: float | None = None):
    """The principal submatrix of ``m`` on the rows and columns ``keep``
    selects (all of them for None), renumbered in order, with its entries
    times ``scale`` (if given) and ``diag[r]`` stored at ``(r, r)`` wherever
    it is nonzero, in ``m``'s format.

    ``m`` is a canonical CSR or CSC matrix that stores no diagonal, and so
    is the result but for its diagonal.  Scipy's compiled kernels run on
    plain arrays: the index kernels ``m[idx][:, idx]`` ends in copy the
    kept rows, then their kept columns (``idx`` is sorted: its argsort is
    ``arange``), and the CSR sum merges in the diagonal, storing no zero.
    """
    indptr, indices, data, dtype = m.indptr, m.indices, m.data, m.indices.dtype
    if keep is not None:
        idx = np.flatnonzero(keep).astype(dtype)
        k, rows_ptr = len(idx), np.zeros(len(idx) + 1, dtype)
        np.cumsum(indptr[idx + 1] - indptr[idx], out=rows_ptr[1:])
        rows = np.empty(rows_ptr[-1], dtype), np.empty(rows_ptr[-1])
        csr_row_index(k, idx, indptr, indices, data, *rows)
        counts, indptr = np.zeros(len(keep), dtype), np.empty(k + 1, dtype)
        csr_column_index1(k, idx, k, len(keep), rows_ptr, rows[0], counts, indptr)
        indices, data = np.empty(indptr[-1], dtype), np.empty(indptr[-1])
        csr_column_index2(np.arange(k, dtype=dtype), counts, len(rows[0]), *rows, indices, data)
    size, on = len(diag), diag != 0
    diag_ptr = np.concatenate((np.zeros(1, dtype), np.cumsum(on, dtype=dtype)))
    ptr, out_indices = np.empty(size + 1, dtype), np.empty(len(indices) + diag_ptr[-1], dtype)
    out = np.empty(len(out_indices))
    csr_plus_csr(size, size, indptr, indices, data if scale is None else data * scale, diag_ptr,
                 np.flatnonzero(on).astype(dtype), diag[on], ptr, out_indices, out)
    return m.__class__((out[: ptr[-1]], out_indices[: ptr[-1]], ptr), shape=(size, size))


def label_sets(obj) -> dict[str, np.ndarray]:
    """Map each model label to the indices of ``obj.states`` satisfying it,
    as a sorted int64 array, over a ``ReachabilityGraph`` (all states) or a
    ``Ctmc`` (tangible states): ``obj.label_sets``.  Sets may overlap and
    states may match no label.
    """
    return obj.label_sets


def _label_sets_of_rows(comp, ids: np.ndarray) -> dict[str, np.ndarray]:
    """Each label's states, given each state's row id ``ids[i]`` in ``comp``."""
    truth = np.array([r.labels for r in comp.rows], dtype=bool).reshape(
        len(comp.rows), len(comp.labels)
    )
    member = truth[ids]
    return {l.name: np.flatnonzero(member[:, j]) for j, l in enumerate(comp.labels)}
