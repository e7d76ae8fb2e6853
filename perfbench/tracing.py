"""Spans around the program's public functions, and per-layer metrics from them.

The tracer replaces each wrapped function under every name a module of the
package binds it to (``infradep.cli.simulate`` as well as
``infradep.montecarlo.simulate``), so calls are seen wherever the callers
look the function up.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# span name -> (module, function, measure(args, result) -> counters)
WRAPPED = {
    "catalog.builtin_model": ("catalog", "builtin_model", None),
    "dsl.parse_model": ("dsl", "parse_model", None),
    "dsl.parse_guard_text": ("dsl", "parse_guard_text", None),
    "dsl.serialize_model": ("dsl", "serialize_model", None),
    "validate.validate_model": ("validate", "validate_model", None),
    "statespace.build_reachability_graph": (
        "statespace", "build_reachability_graph",
        lambda a, g: {"states": len(g.states), "edges": len(g.edges),
                      "structure": repr((a[0].name, a[0].variables))}),
    "statespace.eliminate_vanishing": (
        "statespace", "eliminate_vanishing",
        lambda a, c: {"vanishing": len(a[0].states) - c.n, "nnz": int(c.generator.nnz)}),
    "statespace.label_sets": ("statespace", "label_sets", None),
    "solvers.steady_state": (
        "solvers", "steady_state", lambda a, d: {"iterations": int(d.metadata.get("iterations", 0))}),
    "solvers.transient": (
        "solvers", "transient", lambda a, d: {"steps": int(d.metadata.get("steps", 0))}),
    "solvers.mean_time_to_absorption": ("solvers", "mean_time_to_absorption", None),
    "montecarlo.estimate_occupancy": (
        "montecarlo", "estimate_occupancy", lambda a, e: {"replications": e.replications}),
    "montecarlo.estimate_time_to": (
        "montecarlo", "estimate_time_to", lambda a, e: {"replications": e.replications}),
    "montecarlo.simulate": ("montecarlo", "simulate", lambda a, t: {"trace_events": len(t.events)}),
    "montecarlo.trace_to_csv": ("montecarlo", "trace_to_csv", lambda a, s: {"bytes": len(s)}),
    "montecarlo.trace_to_jsonl": ("montecarlo", "trace_to_jsonl", lambda a, s: {"bytes": len(s)}),
    "claims.run_claims": ("claims", "run_claims", None),
    "export.graph_summary": ("export", "graph_summary", None),
    "export.export_results_json": ("export", "export_results_json", lambda a, s: {"bytes": len(s)}),
    "export.export_dot": ("export", "export_dot", lambda a, s: {"bytes": len(s)}),
    "cli.main": ("cli", "main", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.query = None
        self.fired = 0  # transitions fired by the simulation engine
        self._undo: list = []

    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": tracer.stack[-1] if tracer.stack else None,
                   "query": tracer.query}
            fired = tracer.fired
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                tracer.stack.pop()
                rec["events"] = tracer.fired - fired
            if measure is not None:
                rec.update(measure(args, result))
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "infradep" or n.startswith("infradep.")]
        for name, (mod, attr, measure) in WRAPPED.items():
            if f"infradep.{mod}" not in sys.modules:  # e.g. the CLI on library workloads
                continue
            original = getattr(sys.modules[f"infradep.{mod}"], attr)
            wrapper = self._wrap(name, original, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))
        # The one hook on a private name: both estimators fire every
        # transition through the engine's ``fire``, so it counts events.
        engine = getattr(sys.modules["infradep.montecarlo"], "_Engine", None)
        fire = getattr(engine, "fire", None)
        if fire is None:
            print("perfbench: no montecarlo._Engine.fire; montecarlo.events reads 0", file=sys.stderr)
            return

        def counted(eng, idx, s):
            self.fired += 1
            return fire(eng, idx, s)

        engine.fire = counted
        self._undo.append((engine, "fire", fire))

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _duration(s):
    return s["end"] - s["start"]


def round_metrics(spans: list[dict], offset: int) -> dict[str, float]:
    """Per-layer metrics of one traced round; ``offset`` is the index of its
    first span in the tracer's list (parents are absolute indices)."""
    by_index = {offset + i: s for i, s in enumerate(spans)}

    def ancestors(s):
        while s["parent"] is not None and s["parent"] in by_index:
            s = by_index[s["parent"]]
            yield s

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        """Inclusive time of the outermost spans of these functions."""
        return sum(_duration(s) for s in named(*names)
                   if not any(a["name"] in names for a in ancestors(s)))

    def count(names, key):
        return sum(s.get(key, 0) for s in named(*names))

    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _duration(s)

    explore = named("statespace.build_reachability_graph")
    explore_s = total("statespace.build_reachability_graph")
    states = count(["statespace.build_reachability_graph"], "states")
    estimates = ("montecarlo.estimate_occupancy", "montecarlo.estimate_time_to")
    estimate_s = total(*estimates)
    events = sum(s["events"] for s in named(*estimates))
    reps = count(estimates, "replications")
    resim = [s for s in named("montecarlo.simulate")
             if s["parent"] is not None and by_index[s["parent"]]["name"] == "cli.main"]
    claims = named("claims.run_claims")
    in_claims = [s for s in named("statespace.label_sets")
                 if any(a["name"] == "claims.run_claims" for a in ancestors(s))]
    return {
        "catalog.build_s": total("catalog.builtin_model"),
        "dsl.parse_s": total("dsl.parse_model", "dsl.parse_guard_text", "dsl.serialize_model"),
        "validate.validate_s": total("validate.validate_model"),
        "validate.calls": len(named("validate.validate_model")),
        "statespace.explore_s": explore_s,
        "statespace.explore_states_per_s": states / explore_s if explore_s else 0.0,
        "statespace.states": states,
        "statespace.edges": count(["statespace.build_reachability_graph"], "edges"),
        "statespace.explore_calls_per_structure":
            len(explore) / len({s["structure"] for s in explore}) if explore else 0.0,
        "statespace.eliminate_s": total("statespace.eliminate_vanishing"),
        "statespace.vanishing_states": count(["statespace.eliminate_vanishing"], "vanishing"),
        "statespace.generator_nnz": count(["statespace.eliminate_vanishing"], "nnz"),
        "solvers.steady_s": total("solvers.steady_state"),
        "solvers.steady_iterations": count(["solvers.steady_state"], "iterations"),
        "solvers.transient_s": total("solvers.transient"),
        "solvers.transient_steps": count(["solvers.transient"], "steps"),
        "solvers.mtta_s": total("solvers.mean_time_to_absorption"),
        "montecarlo.estimate_s": estimate_s,
        "montecarlo.replications": reps,
        "montecarlo.events": events,
        "montecarlo.events_per_s": events / estimate_s if estimate_s else 0.0,
        "claims.run_s": total("claims.run_claims"),
        "claims.label_sets_per_run": len(in_claims) / len(claims) if claims else 0.0,
        "export.summary_s": total("export.graph_summary"),
        "export.results_json_s": total("export.export_results_json"),
        "export.trace_text_s": total("montecarlo.trace_to_csv", "montecarlo.trace_to_jsonl"),
        "export.bytes": count(["export.export_results_json", "export.export_dot",
                               "montecarlo.trace_to_csv", "montecarlo.trace_to_jsonl"], "bytes"),
        "cli.self_s": sum(_duration(s) - children.get(offset + i, 0.0)
                          for i, s in enumerate(spans) if s["name"] == "cli.main"),
        "cli.trace_resim_s": sum(_duration(s) for s in resim),
        "cli.trace_resim_events": sum(s["trace_events"] for s in resim),
        "cli.simulated_per_estimated_rep": (reps + len(resim)) / reps if reps else 0.0,
    }


COUNTS = ("validate.calls", "statespace.states", "statespace.edges",
          "statespace.explore_calls_per_structure", "statespace.vanishing_states",
          "statespace.generator_nnz", "solvers.steady_iterations", "solvers.transient_steps",
          "montecarlo.replications", "montecarlo.events", "claims.label_sets_per_run",
          "export.bytes", "cli.trace_resim_events", "cli.simulated_per_estimated_rep")


def combine(rounds: list[dict]) -> dict[str, float]:
    """Median time over the traced rounds; counts must agree between rounds."""
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if key in COUNTS:
            if len(set(values)) != 1:
                raise RuntimeError(f"count {key} differs between identical rounds: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out
