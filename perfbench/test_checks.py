"""Self-test of the benchmark's checks: each one accepts a right answer and
rejects a wrong one, so no check is one that can never fail.

    python3 perfbench/test_checks.py            # or: python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import infradep as I  # noqa: E402
import infradep.cli  # noqa: E402,F401

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

MODEL = I.accidental_model()
GRAPH = I.build_reachability_graph(MODEL)
CTMC = I.eliminate_vanishing(GRAPH)
TOL = I.SolverOptions().steady_tol


def _tmpdir() -> str:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "out"))


def test_state_count_off_by_one():
    ref = oracle.enumerate_domain(MODEL)
    want = {"states": len(ref.states), "tangible": ref.tangible, "edges": ref.edges}
    got = {"states": len(GRAPH.states), "tangible": GRAPH.tangible_count(), "edges": len(GRAPH.edges)}
    assert checks.counts(got, want) == []
    assert checks.counts({**got, "states": got["states"] + 1}, want)
    assert checks.counts({**got, "tangible": got["tangible"] - 1}, want)


def test_perturbed_steady_state():
    pi = I.steady_state(CTMC).probs
    assert checks.steady(CTMC.generator, pi, TOL) == []
    moved = pi.copy()
    moved[0] += 1e-4
    moved[1] -= 1e-4  # still sums to one
    assert checks.steady(CTMC.generator, moved, TOL)
    assert checks.steady(CTMC.generator, pi * (1 + 1e-6), TOL)
    negative = pi.copy()
    negative[0] = -negative[0]
    assert checks.steady(CTMC.generator, negative, TOL)


def test_wrong_transient_and_mtta():
    p = I.transient(CTMC, 50.0).probs
    assert checks.transient(CTMC.generator, CTMC.initial, 50.0, p) == []
    assert checks.transient(CTMC.generator, CTMC.initial, 50.0, p[::-1])
    assert checks.transient(CTMC.generator, CTMC.initial, 49.0, p)
    target = CTMC.label_sets["state7"]
    value = I.mean_time_to_absorption(CTMC, "state7").value
    assert checks.mtta(CTMC.generator, CTMC.initial, target, value) == []
    assert checks.mtta(CTMC.generator, CTMC.initial, target, value * (1 + 1e-6))


def test_shifted_estimate():
    est = I.estimate_occupancy(MODEL, "state1", horizon=2000.0, replications=100, seed=3)
    chain = oracle.fold(oracle.enumerate_domain(MODEL))
    exact = oracle.expected_occupancy(chain, oracle.indicator(MODEL, chain, "state1"), 2000.0, 200.0)
    assert checks.estimate("occupancy", est.value, est.half_width, exact) == []
    assert checks.estimate("occupancy", est.value + 6 * est.half_width, est.half_width, exact)
    assert checks.estimate("occupancy", est.value, 0.0, exact)


def test_trace_with_one_event_dropped():
    tmp = _tmpdir()
    try:
        cli = workloads.Cli(I, 1, ROOT, tmp)
        d = os.path.join(tmp, "traces")
        out = cli.run(["simulate", "--model", "accidental", "--occupancy", "state1", "--horizon",
                       "2000", "--reps", "5", "--seed", "9", "--trace-dir", d], {})
        printed = float(out["stdout"].split(" = ")[1].split()[0])
        spec = {"kind": "occupancy", "label": "state1", "horizon": 2000.0, "burn_in": 200.0}
        assert checks.trace_dir(d, MODEL, "csv", 5, spec, printed) == []

        path = os.path.join(d, "rep_0000.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        init = tuple(v.init for v in MODEL.variables)
        fn = oracle.label_fn(MODEL, "state1")

        def value(kept):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(kept)
            return checks.occupancy_of(checks.read_trace(path, MODEL, "csv"), init, fn, 200.0, 2000.0)

        whole = value(lines)
        drop = next(i for i in range(len(lines)) if value(lines[:i] + lines[i + 1:]) != whole)
        value(lines[:drop] + lines[drop + 1:])
        assert checks.trace_dir(d, MODEL, "csv", 5, spec, printed)

        os.remove(path)
        assert checks.trace_dir(d, MODEL, "csv", 5, spec, printed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_cli_outputs():
    tmp = _tmpdir()
    try:
        cli = workloads.Cli(I, 1, ROOT, tmp)
        summary = next(c for c in cli.commands if c[2]["kind"] == "summary")
        good = cli.run(summary[1], summary[2])
        assert cli.check(good) == []
        doc = json.loads(good["stdout"])
        doc["states"] += 1
        assert cli.check({**good, "stdout": json.dumps(doc)})
        doc = json.loads(good["stdout"])
        doc["extra"] = 1  # not allowed by the shipped schema
        assert cli.check({**good, "stdout": json.dumps(doc)})
        assert cli.check({**good, "code": 3})

        claims = next(c for c in cli.commands if c[2]["kind"] == "claims" and "text" in c[1])
        good = cli.run(claims[1], claims[2])
        assert cli.check(good) == []
        assert cli.check({**good, "stdout": good["stdout"].replace("PASS", "FAIL", 1)})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
