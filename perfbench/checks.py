"""Correctness checks on the program's outputs.

Each check returns a list of error strings; an empty list means the output
passed.  Every check compares against a computation made here, apart from
the program, or against a property the method must have.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

import oracle

STEADY_ATOL = 1e-6  # max |pi - direct solve|; power iteration stops at a residual, not an error
TRANSIENT_ATOL = 1e-8  # uniformization discards at most 1e-9 Poisson mass
EXACT_RTOL = 1e-8  # sparse direct solves of the same system
ORACLE_ATOL = 1e-9  # program versus the dense chain folded from the enumeration
TRACE_RTOL = 1e-9  # trace files re-integrated versus the printed estimate
HALF_WIDTHS = 5.0  # a sound estimate lies this close to the exact value (about 10 sigma)


def counts(got: dict, want: dict) -> list[str]:
    return [
        f"{key}: program {got.get(key)} != reference {want[key]}"
        for key in want
        if got.get(key) != want[key]
    ]


def close(name: str, got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want):
        return []
    return [f"{name}: program {got!r} != reference {want!r}"]


def steady(q: sp.spmatrix, pi: np.ndarray, tol: float) -> list[str]:
    """pi >= 0, sum 1, residual within the program's tolerance, and equal to
    a direct solve of pi Q = 0, sum(pi) = 1."""
    errors = []
    if (pi < 0).any():
        errors.append(f"steady: negative entry {pi.min()!r}")
    errors += close("steady: sum", float(pi.sum()), 1.0, atol=1e-12)
    residual = float(np.abs(pi @ q).max())
    if not residual <= tol:
        errors.append(f"steady: residual {residual:.3e} above {tol:.1e}")
    # The distribution lives on the chain's unique closed class; outside it
    # the augmented system is near-singular when leaving it is rare.
    q = q.tocsr()
    ncomp, comp = csgraph.connected_components(q > 0, directed=True, connection="strong")
    coo = q.tocoo()
    leaves = (coo.data > 0) & (comp[coo.row] != comp[coo.col])
    closed = np.setdiff1d(np.arange(ncomp), comp[coo.row[leaves]])
    if len(closed) != 1:
        return errors + [f"steady: {len(closed)} closed classes, no unique distribution"]
    scc = np.flatnonzero(comp == closed[0])
    sub = q[scc][:, scc]
    m = len(scc)
    b = np.zeros(m)
    b[-1] = 1.0
    if m <= oracle.DENSE_LIMIT:
        a = sub.toarray().T
        a[-1, :] = 1.0
        on_scc = np.linalg.solve(a, b)
    else:
        a = sp.vstack([sub.T.tocsr()[:-1], sp.csr_matrix(np.ones((1, m)))]).tocsc()
        on_scc = spla.spsolve(a, b)
    direct = np.zeros(q.shape[0])
    direct[scc] = on_scc
    gap = float(np.abs(pi - direct).max())
    if not gap <= STEADY_ATOL:
        errors.append(f"steady: {gap:.3e} away from the direct solve")
    return errors


def transient(q: sp.spmatrix, p0: np.ndarray, t: float, p: np.ndarray) -> list[str]:
    want = spla.expm_multiply(q.T.tocsc() * t, p0)
    gap = float(np.abs(p - want).max())
    if not gap <= TRANSIENT_ATOL:
        return [f"transient: {gap:.3e} away from expm_multiply"]
    return []


def mtta(q: sp.spmatrix, p0: np.ndarray, target, value: float) -> list[str]:
    """Hitting time of ``target`` (state indices) by a sparse solve made here."""
    n = q.shape[0]
    absorbing = np.zeros(n, dtype=bool)
    absorbing[list(target)] = True
    keep = sp.diags((~absorbing).astype(float)) @ q  # target rows emptied
    adj = (keep > 0).astype(np.int8).tocsr()
    live = np.zeros(n, dtype=bool)
    for s in np.flatnonzero(p0 > 0):
        live[csgraph.breadth_first_order(adj, s, return_predecessors=False)] = True
    live &= ~absorbing
    idx = np.flatnonzero(live)
    sub = q.tocsr()[idx][:, idx].tocsc()
    h = spla.spsolve(sub, -np.ones(len(idx))) if len(idx) else np.zeros(0)
    return close("mtta", value, float(p0[idx] @ h), rtol=EXACT_RTOL)


def estimate(name: str, value: float, half_width: float, exact: float) -> list[str]:
    if not half_width > 0:
        return [f"{name}: half-width {half_width!r} is not positive"]
    if abs(value - exact) <= HALF_WIDTHS * half_width:
        return []
    return [
        f"{name}: estimate {value!r} is {abs(value - exact) / half_width:.1f} half-widths "
        f"from the exact {exact!r}"
    ]


def read_trace(path: str, model, fmt: str):
    """(time, state) per event of one trace file."""
    kinds = {v.name: int if isinstance(v.init, int) else str for v in model.variables}
    names = [v.name for v in model.variables]
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if fmt == "jsonl":
                rec = json.loads(line)
                state = tuple(rec["state"][n] for n in names)
                events.append((rec["time"], state))
            else:
                time_text, _, *assigns = line.rstrip("\n").split(",")
                vals = dict(a.split("=", 1) for a in assigns)
                events.append((float(time_text), tuple(kinds[n](vals[n]) for n in names)))
    return events


def occupancy_of(events, init, fn, burn_in: float, horizon: float) -> float:
    total, t_prev, s_prev = 0.0, 0.0, init
    for t, s in events:
        if fn(s_prev):
            total += max(0.0, min(t, horizon) - max(t_prev, burn_in))
        t_prev, s_prev = t, s
    if fn(s_prev):
        total += max(0.0, horizon - max(t_prev, burn_in))
    return total / (horizon - burn_in)


def first_hit_of(events, init, fn, cap: float) -> float:
    if fn(init):
        return 0.0
    return next((t for t, s in events if fn(s)), cap)


def trace_dir(path: str, model, fmt: str, reps: int, spec: dict, printed: float) -> list[str]:
    """Re-integrate one file per replication and compare with the estimate."""
    files = sorted(os.listdir(path)) if os.path.isdir(path) else []
    want = [f"rep_{r:04d}.{fmt}" for r in range(reps)]
    if files != want:
        return [f"trace dir: {len(files)} files, expected {reps} named rep_NNNN.{fmt}"]
    init = tuple(v.init for v in model.variables)
    fn = oracle.label_fn(model, spec["label"])
    values = []
    for name in files:
        events = read_trace(os.path.join(path, name), model, fmt)
        if spec["kind"] == "occupancy":
            values.append(occupancy_of(events, init, fn, spec["burn_in"], spec["horizon"]))
        else:
            values.append(first_hit_of(events, init, fn, spec["cap"]))
    return close("trace files", sum(values) / reps, printed, rtol=TRACE_RTOL)


def schema(doc, path: str) -> list[str]:
    import jsonschema

    with open(path, encoding="utf-8") as fh:
        sch = json.load(fh)
    errors = sorted(jsonschema.Draft202012Validator(sch).iter_errors(doc), key=str)
    return [f"schema {os.path.basename(path)}: {e.message}" for e in errors[:3]]
