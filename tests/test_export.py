"""DOT and JSON exporters."""

from __future__ import annotations

import json

import numpy as np

from infradep import (
    Estimate,
    MeasureResult,
    eliminate_vanishing,
    export_dot,
    export_results_json,
    label_sets,
)
from infradep.export import graph_summary

from .dot_checker import check_dot
from .oracles import two_state_chain


def test_two_state_dot_shape():
    from infradep import build_reachability_graph

    g = build_reachability_graph(two_state_chain())
    dot = check_dot(export_dot(g))
    states = {n for n in dot.nodes if n.startswith("s")}
    assert states == {"s0", "s1"}
    assert len(dot.edges) == 2
    assert all(a["label"].startswith(("up", "down")) for _, _, a in dot.edges)


def test_builtin_dot_parses_and_marks_vanishing(graphs):
    for name, g in graphs.items():
        dot = check_dot(export_dot(g))
        dashed = [n for n, a in dot.nodes.items() if a.get("style") == "dashed"]
        assert len(dashed) == g.vanishing_count(), name
        # Every edge label carries a rate or probability annotation.
        for _, _, attrs in dot.edges:
            assert "rate=" in attrs["label"] or "p=" in attrs["label"]


def test_dot_escalation_edge_annotated(graphs, models):
    # A node in the latent-error composite state must have an outgoing
    # blackout edge at the plain e-failure rate.
    g = graphs["cascading-only"]
    dot = check_dot(export_dot(g))
    sets = label_sets(g)
    lam_e = models["cascading-only"].parameters["lambda_e"]
    hits = 0
    for src, dst, attrs in dot.edges:
        if not attrs["label"].startswith("e_failure_escal_sev"):
            continue
        si, di = int(src[1:]), int(dst[1:])
        if si in sets["state2"] and di in sets["state7"]:
            assert f"rate={lam_e!r}" in attrs["label"]
            hits += 1
    assert hits > 0


def test_hide_vanishing_matches_reduction(graphs):
    g = graphs["accidental"]
    c = eliminate_vanishing(g)
    dot = check_dot(export_dot(c))
    states = {n for n in dot.nodes if n.startswith("s") and n != "s"}
    assert len(states) == c.n
    assert not any(a.get("style") == "dashed" for a in dot.nodes.values())
    # One edge per positive off-diagonal generator entry, labelled with it.
    q = c.generator.toarray()
    assert len(dot.edges) == int(((q > 0) & ~np.eye(c.n, dtype=bool)).sum())
    for src, dst, attrs in dot.edges:
        kind, value = attrs["label"].split("=")
        assert kind == "rate"
        assert float(value) == q[int(src[1:]), int(dst[1:])]


def test_node_labels_carry_assignments_and_state_names(graphs):
    g = graphs["accidental"]
    dot = check_dot(export_dot(g))
    root = dot.nodes["s0"]["label"]
    assert "info=i_working" in root
    assert "state1" in root
    # The state and its labels are separate lines: DOT's ``\n``, unescaped.
    for obj in (g, eliminate_vanishing(g)):
        line = next(l for l in export_dot(obj).splitlines() if l.startswith("  s0 ["))
        assert line == (
            '  s0 [label="s0\\ninfo=i_working, elec=e_working, n_cfg=0\\nstate1", peripheries=2];'
        )


def test_summary_counts(graphs):
    g = graphs["accidental"]
    s = graph_summary(g)
    assert s["states"] == len(g.states)
    assert s["tangible"] + s["vanishing"] == s["states"]
    assert s["edges"] == len(g.edges)
    assert s["labels"]["state1"] >= 1
    reduced = graph_summary(eliminate_vanishing(g))
    assert reduced["states"] == g.tangible_count()
    assert reduced["vanishing"] == 0


def test_results_json_field_order_and_nulls():
    exact = MeasureResult("mtta[x]", 1.25, "mtta", {"residual": 1e-12})
    sim = Estimate("occupancy[y]", 0.5, 0.01, 100, 7, {"horizon": 10.0})
    text = export_results_json([exact, sim])
    data = json.loads(text)
    assert [list(d.keys()) for d in data] == [
        ["name", "value", "method", "ci_halfwidth", "metadata"]
    ] * 2
    assert data[0]["ci_halfwidth"] is None
    assert data[1]["ci_halfwidth"] == 0.01
    assert data[1]["method"] == "simulation"
    assert data[1]["metadata"]["replications"] == 100


def test_results_json_empty_and_order_preserved():
    assert json.loads(export_results_json([])) == []
    rs = [MeasureResult(f"m{i}", float(i), "steady", {}) for i in range(5)]
    data = json.loads(export_results_json(rs))
    assert [d["name"] for d in data] == [f"m{i}" for i in range(5)]


def test_results_json_roundtrips_floats():
    r = MeasureResult("v", 0.1 + 0.2, "steady", {})
    data = json.loads(export_results_json([r]))
    assert data[0]["value"] == 0.1 + 0.2  # shortest round-trip decimal
