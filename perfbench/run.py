"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sensitivity --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One thread for every numeric library, in this process and its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 6
# Times are reported at a reference machine speed: the speed at which
# ``calibrate`` takes this long.  On a shared machine the speed at which
# Python runs swings by up to 1.8x, between milliseconds and minutes, and
# the calibration loop tracks those swings (see README.md).
CALIBRATION_REF_S = 0.005
CALIBRATIONS_PER_PROBE = 10
CALIBRATION_SHARE = 0.1  # calibration time after a query, as a share of its time
WORKLOADS = ("sensitivity", "explore-large", "cli")

sys.path[:0] = [HERE, SRC]


def calibrate() -> float:
    """Time of a fixed pure-Python loop that does not touch the program:
    how fast this machine runs Python right now."""
    gc.disable()
    try:
        t = time.perf_counter()
        d: dict = {}
        for i in range(20000):
            k = (i % 97, i % 13)
            d[k] = d.get(k, 0) + 1
        return time.perf_counter() - t
    finally:
        gc.enable()


def speed(calibrations) -> float:
    """Mean machine speed relative to the reference over the samples; the
    mean of speeds, not of times, is what a stretch of work runs at."""
    return statistics.fmean(CALIBRATION_REF_S / c for c in calibrations)


def set_up(workload: str, seed: int, tmp: str):
    """Import the program and ready the first query; returns (workload, import_s, setup_s)."""
    t0 = time.perf_counter()
    import infradep

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(infradep.__file__)) != os.path.join(SRC, "infradep"):
        raise SystemExit(f"perfbench: imported {infradep.__file__}, not the checkout's src/infradep")
    import workloads

    if workload == "sensitivity":
        w = workloads.Sensitivity(infradep, seed)
    elif workload == "explore-large":
        w = workloads.ExploreLarge(infradep, seed)
    else:
        import infradep.cli  # noqa: F401

        w = workloads.Cli(infradep, seed, ROOT, tmp)
    w.setup()
    return w, import_s, time.perf_counter() - t0


def probe_setup(workload: str, seed: int, count: int) -> list[dict]:
    """Import and set-up times of ``count`` fresh processes."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{done.stderr[-2000:]}")
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def run_rounds(w, seconds: float, rounds: list, tracer=None):
    """Run whole rounds of the query set while the next one fits in ``seconds``
    (always at least one)."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if hasattr(w, "before_round"):
            w.before_round()
        first_span = len(tracer.spans) if tracer else 0
        times, cal, kept, prints, failures = [], [calibrate()], {}, {}, {}
        for qid, fn in w.queries():
            if tracer:
                tracer.query = qid
            t = time.perf_counter()
            try:
                out = fn()
            except Exception as e:  # a failed query is counted, not fatal
                out = None
                failures[qid] = f"{type(e).__name__}: {e}"
            times.append(time.perf_counter() - t)
            # Calibrate for a share of the query's time, so that the samples
            # weigh each stretch of the round by how long it lasted.
            budget = time.perf_counter() + CALIBRATION_SHARE * times[-1]
            cal.append(calibrate())
            while time.perf_counter() < budget:
                cal.append(calibrate())
            if out is not None:
                record, prints[qid] = w.keep(out)
                if not rounds:  # only the first round is checked in full
                    kept[qid] = record
            del out
        factor = speed(cal)
        rounds.append({"times": times, "scaled": [t * factor for t in times], "speed": factor,
                       "kept": kept, "prints": prints,
                       "failures": failures, "spans": (first_span, len(tracer.spans)) if tracer else None})
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind normally: a running probe is killed and waited for,
    # and the trace directories are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")

    if args.setup_probe:
        cal = [calibrate() for _ in range(CALIBRATIONS_PER_PROBE // 2)]
        w, import_s, setup_s = set_up(args.workload, args.seed, tmp)
        cal += [calibrate() for _ in range(CALIBRATIONS_PER_PROBE // 2)]
        factor = speed(cal)
        shutil.rmtree(tmp, ignore_errors=True)
        print(json.dumps({"import_s": import_s * factor, "setup_s": setup_s * factor,
                          "raw_setup_s": setup_s}))
        return 0

    if not os.path.isdir(os.path.join(SRC, "infradep")):
        print("perfbench: no src/infradep in this checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        # Half the set-up probes run before the rounds and half after, so
        # their median spans the run rather than one moment of it.
        probes = probe_setup(args.workload, args.seed, SETUP_PROBES // 2)
        w, _, _ = set_up(args.workload, args.seed, tmp)
        rounds: list[dict] = []
        tracer = None
        if args.trace:
            import tracing

            run_rounds(w, args.seconds / 2, rounds)
            untraced = len(rounds)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_rounds(w, args.seconds / 2, rounds, tracer)
            finally:
                tracer.uninstall()
        else:
            run_rounds(w, args.seconds, rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes += probe_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        import_s = statistics.median(p["import_s"] for p in probes)
        setup_s = statistics.median(p["setup_s"] for p in probes)

        # Checks, outside every timed region: the first round in full, the
        # others by their fingerprints against the first.
        first = rounds[0]
        errors: dict[str, list[str]] = {}
        for qid, out in first["kept"].items():
            errors[qid] = w.check(out)
        for r in rounds[1:]:
            for qid, fp in r["prints"].items():
                if fp != first["prints"].get(qid):
                    errors.setdefault(qid, []).append("output differs from the first round")
        attempted = sum(len(r["times"]) for r in rounds)
        failed = sum(len(r["failures"]) for r in rounds)
        wrong = sum(1 for r in rounds for qid in r["prints"] if errors.get(qid))
        for r in rounds:
            for qid, msg in r["failures"].items():
                print(f"perfbench: {qid} failed: {msg}", file=sys.stderr)
        for qid, errs in errors.items():
            for e in errs:
                print(f"perfbench: {qid}: {e}", file=sys.stderr)

        walls = [sum(r["scaled"]) for r in rounds]
        if args.trace:
            traced = rounds[untraced:]
            per_round = [tracing.round_metrics(tracer.spans[a:b], a) for a, b in (r["spans"] for r in traced)]
            layer = tracing.combine(per_round)
            factor = statistics.median(r["speed"] for r in traced)
            for key, unit in UNITS.items():
                if key in layer and unit in ("s", "1/s"):
                    layer[key] = layer[key] * factor if unit == "s" else layer[key] / factor
            untraced_wall = statistics.median(walls[:untraced])
            traced_wall = statistics.median(walls[untraced:])
            layer.update({
                "infradep.import_s": import_s,
                "trace.untraced_wall_s": untraced_wall,
                "trace.traced_wall_s": traced_wall,
                "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
            })
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(layer.items())}
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                # Median over queries of each query's median over the rounds:
                # pooling the rounds would put the median at the edge between
                # two groups of equal size (the two fast and two slow models).
                "query_p50_ms": {"value": 1000.0 * statistics.median(
                    statistics.median(q) for q in zip(*(r["scaled"] for r in rounds))), "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        result = {"correct": wrong == 0, "attempted": attempted, "failed": failed + wrong,
                  "metrics": metrics}
        detail = {**result, "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                  "round_walls_s": walls, "raw_round_walls_s": [sum(r["times"]) for r in rounds],
                  "speed": [r["speed"] for r in rounds],
                  "raw_setup_s": [p["raw_setup_s"] for p in probes]}
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
        print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds, walls "
              f"{[round(x, 3) for x in walls]} at reference speed, "
              f"{[round(sum(r['times']), 3) for r in rounds]} as measured", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


UNITS = {
    "infradep.import_s": "s", "catalog.build_s": "s", "dsl.parse_s": "s",
    "validate.validate_s": "s", "validate.calls": "count",
    "statespace.explore_s": "s", "statespace.explore_states_per_s": "1/s",
    "statespace.states": "count", "statespace.edges": "count",
    "statespace.explore_calls_per_structure": "count",
    "statespace.eliminate_s": "s", "statespace.vanishing_states": "count",
    "statespace.generator_nnz": "count",
    "solvers.steady_s": "s", "solvers.steady_iterations": "count",
    "solvers.transient_s": "s", "solvers.transient_steps": "count", "solvers.mtta_s": "s",
    "montecarlo.estimate_s": "s", "montecarlo.replications": "count",
    "montecarlo.events": "count", "montecarlo.events_per_s": "1/s",
    "claims.run_s": "s", "claims.label_sets_per_run": "count",
    "export.summary_s": "s", "export.results_json_s": "s", "export.trace_text_s": "s",
    "export.bytes": "bytes",
    "cli.self_s": "s", "cli.trace_resim_s": "s", "cli.trace_resim_events": "count",
    "cli.simulated_per_estimated_rep": "count",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s", "trace.overhead_pct": "%",
}

if __name__ == "__main__":
    sys.exit(main())
