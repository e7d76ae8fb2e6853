"""Exporters: DOT rendering of state graphs, JSON for measure results."""

from __future__ import annotations

import json

from .montecarlo import Estimate
from .solvers import MeasureResult
from .statespace import ReachabilityGraph


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(obj) -> str:
    """Render a reachability graph or CTMC as a DOT digraph.

    Node ids are the stable state indices.  Tangible states are solid,
    vanishing states dashed; timed edges carry ``rate=``, immediate edges
    ``p=``.  Render ``eliminate_vanishing(g)`` to show the reduced chain.
    """
    model = obj.model
    by_state: dict[int, list[str]] = {}
    for name, idxs in obj.label_sets.items():
        for i in idxs.tolist():
            by_state.setdefault(i, []).append(name)

    lines = [f"digraph {model.name} {{", "  rankdir=LR;", "  node [shape=ellipse];"]

    graph = isinstance(obj, ReachabilityGraph)  # else a Ctmc
    tangible = obj.tangible.tolist() if graph else None
    initial = {obj.initial} if graph else {i for i in range(obj.n) if obj.initial[i] > 0}
    for i, s in enumerate(obj.states):
        parts = (f"s{i}", model.format_state(s), " ".join(sorted(by_state.get(i, ()))))
        label = "\\n".join(_dot_escape(x) for x in parts if x)
        attrs = [f'label="{label}"']
        if graph and not tangible[i]:
            attrs.append("style=dashed")
        if i in initial:
            attrs.append("peripheries=2")
        lines.append(f"  s{i} [{', '.join(attrs)}];")
    if graph:
        names = [_dot_escape(t.name) for t in model.transitions]
        for i, j, t, v in zip(obj.edge_src.tolist(), obj.edge_dst.tolist(),
                              obj.edge_transition.tolist(), obj.edge_value.tolist()):
            kind = "rate" if tangible[i] else "p"
            lines.append(f'  s{i} -> s{j} [label="{names[t]}\\n{kind}={v!r}"];')
    else:
        coo = obj.rates.tocoo()
        for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            lines.append(f'  s{i} -> s{j} [label="rate={v!r}"];')

    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_summary(obj) -> dict:
    """State/edge counts and per-label sizes, JSON-ready."""
    labels = {name: len(idx) for name, idx in obj.label_sets.items()}
    if isinstance(obj, ReachabilityGraph):
        return {
            "model": obj.model.name,
            "states": len(obj.states),
            "tangible": obj.tangible_count(),
            "vanishing": obj.vanishing_count(),
            "edges": len(obj.edges),
            "labels": labels,
        }
    return {
        "model": obj.model.name,
        "states": obj.n,
        "tangible": obj.n,
        "vanishing": 0,
        "edges": int(obj.rates.nnz),
        "labels": labels,
    }


def _result_to_dict(r) -> dict:
    if isinstance(r, Estimate):
        meta = {"replications": r.replications, "seed": r.seed}
        meta.update(r.metadata)
        return {
            "name": r.name,
            "value": r.value,
            "method": "simulation",
            "ci_halfwidth": r.half_width,
            "metadata": meta,
        }
    if isinstance(r, MeasureResult):
        return {
            "name": r.name,
            "value": r.value,
            "method": r.method,
            "ci_halfwidth": None,
            "metadata": dict(r.metadata),
        }
    raise TypeError(f"not a result: {r!r}")


def export_results_json(results) -> str:
    """JSON array of measure results with a stable field order."""
    return json.dumps([_result_to_dict(r) for r in results], indent=2) + "\n"
