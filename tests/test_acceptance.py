"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria and tolerances:

  1. structural claims per model pass (blackout path, restoration cut
     sets, common-cause interconnection, apparent/real re-sync);
  2. vanishing elimination preserves per-state outflow (<= 1e-12 rel)
     and matches a hand-pre-composed model entrywise (<= 1e-12);
  3. steady/transient/MTTA match dense oracles (<= 1e-7 per entry),
     two-state closed forms within 1e-9;
  4. simulation 3-sigma intervals cover exact values on the accidental
     model; identical seeds give identical traces and estimates;
  5. text-format round-trip, shipped fixtures structurally equal the
     constructors, parser survives a 10k-case byte fuzz;
  6. tangible state counts equal the exhaustive-domain oracle exactly;
  7. every documented CLI exit code is exercised, JSON validates against
     the shipped schemas, CLI numbers equal library numbers exactly.
"""

from __future__ import annotations

import json

import numpy as np

from infradep import (
    Model,
    eliminate_vanishing,
    estimate_occupancy,
    estimate_time_to,
    label_probability,
    mean_time_to_absorption,
    parse_model,
    run_claims,
    serialize_model,
    simulate,
    steady_state,
    transient,
)
from infradep.solvers import SolverOptions

from .oracles import (
    SplitMix64,
    ctmc_of,
    dense_mtta,
    dense_steady,
    dense_transient,
    exhaustive_reachability,
    hand_reduced_accidental,
    out_sums,
    two_state_chain,
    two_state_transient_closed_form,
)


def _ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_structural_claims(graphs):
    for name, g in graphs.items():
        results = run_claims(g)
        failed = [r for r in results if not r.passed]
        assert not failed, f"{name}: {[r.name for r in failed]}"
    _ok(1, "claim suites pass for all four built-in models")


def test_criterion_2_reduction_correctness(graphs, ctmc_a):
    for name, g in graphs.items():
        c = eliminate_vanishing(g)
        new_index = {}
        for i, tang in enumerate(g.tangible):
            if tang:
                new_index[i] = len(new_index)
        out = out_sums(g)
        for old, new in new_index.items():
            out_graph = out[old]
            out_ctmc = -c.generator[new, new]
            assert abs(out_ctmc - out_graph) <= 1e-12 * max(out_graph, 1.0), name

    pre = ctmc_of(hand_reduced_accidental())
    perm = [pre.states.index(s) for s in ctmc_a.states]
    qa = ctmc_a.generator.toarray()
    qp = pre.generator.toarray()[np.ix_(perm, perm)]
    assert np.abs(qa - qp).max() <= 1e-12
    _ok(2, "outflow preserved <= 1e-12; hand-composed generator matches entrywise")


def test_criterion_3_exact_solvers(ctmcs):
    for name, c in ctmcs.items():
        pi = steady_state(c, SolverOptions(steady_tol=1e-12)).probs
        assert np.abs(pi - dense_steady(c)).max() <= 1e-7, name
        for t in (0.5, 5.0, 50.0):
            p = transient(c, t).probs
            assert np.abs(p - dense_transient(c, t)).max() <= 1e-7, (name, t)
        var = "elec" if "elec" in c.model.var_index else "real_elec"
        vi = c.model.var_index[var]
        target = frozenset(i for i, s in enumerate(c.states) if s[vi] == "e_lost")
        got = mean_time_to_absorption(c, target).value
        assert abs(got - dense_mtta(c, target)) <= 1e-7 * max(1.0, got), name

    two = ctmc_of(two_state_chain(1.0, 3.0))
    idx = {s[0]: i for i, s in enumerate(two.states)}
    pi2 = steady_state(two).probs
    assert abs(pi2[idx[0]] - 0.75) <= 1e-9 and abs(pi2[idx[1]] - 0.25) <= 1e-9
    p2 = transient(two, 1.0).probs
    assert abs(p2[idx[1]] - two_state_transient_closed_form(1.0, 3.0, 1.0)) <= 1e-9
    _ok(3, "steady/transient/MTTA within 1e-7 of dense oracles; closed forms within 1e-9")


def test_criterion_4_simulation_soundness(model_a, ctmc_a):
    occ = estimate_occupancy(
        model_a, "state1", horizon=2000.0, replications=200, seed=42, burn_in=200.0
    )
    exact_occ = label_probability(steady_state(ctmc_a), ctmc_a.label_sets["state1"]).value
    assert abs(occ.value - exact_occ) <= 3 * occ.half_width / 1.96

    vi = model_a.var_index["elec"]
    target = frozenset(i for i, s in enumerate(ctmc_a.states) if s[vi] == "e_lost")
    exact_tt = mean_time_to_absorption(ctmc_a, target).value
    from infradep import var_eq

    tt = estimate_time_to(model_a, var_eq("elec", "e_lost"), replications=1000, seed=42)
    assert tt.metadata["censored"] == 0
    assert abs(tt.value - exact_tt) <= 3 * tt.half_width / 1.96

    again_occ = estimate_occupancy(
        model_a, "state1", horizon=2000.0, replications=200, seed=42, burn_in=200.0
    )
    assert again_occ == occ
    t1 = simulate(model_a, horizon=500.0, seed=7)
    t2 = simulate(model_a, horizon=500.0, seed=7)
    assert t1 == t2
    _ok(4, "3-sigma CIs cover exact occupancy and hitting time; runs are reproducible")


def test_criterion_5_dsl_roundtrip(models):
    import pathlib

    for name, m in models.items():
        text = serialize_model(m)
        back = parse_model(text)
        assert isinstance(back, Model) and back == m, name
        shipped = (
            pathlib.Path(__file__).parent.parent / "models" / f"{name}.gsts"
        ).read_text(encoding="utf-8")
        parsed = parse_model(shipped)
        assert isinstance(parsed, Model) and parsed == m, name

    rng = SplitMix64(0xFADE)
    base = serialize_model(models["accidental"]).encode()
    for case in range(10_000):
        length = rng.next_u64() % 100
        if case % 2:
            data = bytes(rng.next_u64() & 0xFF for _ in range(length))
        else:
            data = bytearray(base)
            for _ in range(1 + rng.next_u64() % 6):
                data[rng.next_u64() % len(data)] = rng.next_u64() & 0xFF
            data = bytes(data[: max(1, length)])
        result = parse_model(data)  # must not raise
        assert isinstance(result, (Model, list))
    _ok(5, "round-trip structural identity; fixtures match; 10k-case fuzz without a crash")


def test_criterion_6_reachability_scale(models, graphs):
    for name, model in models.items():
        order, tangible, _ = exhaustive_reachability(model)
        g = graphs[name]
        got = {s for i, s in enumerate(g.states) if g.tangible[i]}
        assert got == tangible, name
        assert len(g.states) == len(order), name
    _ok(6, "tangible state counts equal the exhaustive-domain oracle exactly")


def test_criterion_7_cli_contract(capsys, tmp_path, ctmcs):
    import jsonschema
    from importlib import resources

    from infradep.cli import main

    def run(*argv):
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    # exit 0
    assert run("list-models")[0] == 0
    # exit 1: validation (invalid builtin parameter)
    assert run("validate", "--model", "accidental", "--set", "rho=0")[0] == 1
    # exit 2: parse error
    bad = tmp_path / "bad.gsts"
    bad.write_text("model ( nope")
    assert run("graph", "--model", str(bad))[0] == 2
    # exit 3: numeric (no unique steady state)
    split = tmp_path / "split.gsts"
    split.write_text(
        "model split { var x : [0..2] init 0; "
        "timed a rate 1.0 when x == 0 -> { x := 1; }; "
        "timed b rate 1.0 when x == 0 -> { x := 2; }; }"
    )
    assert run("solve", "--model", str(split), "--measure", "steady")[0] == 3
    # exit 4: limits
    import os

    os.environ["INFRADEP_STATE_LIMIT"] = "2"
    try:
        assert run("graph", "--model", "accidental")[0] == 4
    finally:
        del os.environ["INFRADEP_STATE_LIMIT"]
    # exit 64: usage
    assert run("solve", "--model", "accidental", "--measure", "transient")[0] == 64

    # JSON schema validation
    schema_root = resources.files("infradep") / "schemas"
    code, out, _ = run("solve", "--model", "accidental", "--measure", "steady",
                       "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), json.loads(
        (schema_root / "results.schema.json").read_text()))
    code, out, _ = run("list-models", "--format", "json")
    jsonschema.validate(json.loads(out), json.loads(
        (schema_root / "models.schema.json").read_text()))
    code, out, _ = run("graph", "--model", "attack", "--summary")
    jsonschema.validate(json.loads(out), json.loads(
        (schema_root / "graph-summary.schema.json").read_text()))

    # CLI output equals library output exactly
    code, out, _ = run("solve", "--model", "accidental", "--measure", "mtta",
                       "--target", "elec == e_lost", "--format", "json")
    c = ctmcs["accidental"]
    vi = c.model.var_index["elec"]
    target = frozenset(i for i, s in enumerate(c.states) if s[vi] == "e_lost")
    assert json.loads(out)[0]["value"] == mean_time_to_absorption(c, target).value
    _ok(7, "exit codes 0/1/2/3/4/64 exercised; schemas validate; CLI equals library")
