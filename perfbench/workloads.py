"""The three workloads: their queries, inputs derived from the seed, and checks.

A query is one unit of analysis a user waits for.  ``run`` returns the
query's outputs; ``keep`` reduces them to what the checks and the
determinism fingerprint need, so that large objects are released before
the next query starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from dataclasses import replace

import numpy as np

import checks
import oracle

BLACKOUT = ("state7", "state8")
T_FIXED = 50.0  # time of every transient query
JITTER = 1e-3  # relative rate jitter drawn from the seed


def fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _jittered(rng: random.Random, rates: dict) -> dict:
    return {k: v * (1.0 + JITTER * (2.0 * rng.random() - 1.0)) for k, v in rates.items()}


def _blackout(ctmc) -> frozenset:
    return frozenset().union(*(ctmc.label_sets[l] for l in BLACKOUT if l in ctmc.label_sets))


class _Library:
    """Shared shape of the two library workloads: one model per query."""

    def __init__(self, infradep, points):
        self.I = infradep
        self.points = points  # [(qid, model name, ModelParams)]
        self._oracles: dict = {}

    def setup(self):
        """Build and validate every model the queries will use."""
        for qid, name, params in self.points:
            report = self.I.validate_model(self.I.builtin_model(name, params))
            if not report.ok:
                raise ValueError(f"{qid}: input model does not validate: {report.errors}")

    def queries(self):
        return [(qid, lambda n=name, p=params: self.run(n, p)) for qid, name, params in self.points]

    def _pipeline(self, name, params):
        I = self.I
        model = I.builtin_model(name, params)
        report = I.validate_model(model)
        if not report.ok:
            raise ValueError(f"model {name} does not validate")
        graph = I.build_reachability_graph(model)
        ctmc = I.eliminate_vanishing(graph)
        return model, graph, ctmc

    def _reference_counts(self, name, params):
        """State, tangible and edge counts from the exhaustive enumeration.

        Where the domain product is too large to enumerate in a few seconds,
        the counts are extrapolated from two smaller ``k_max``: each unit of
        ``k_max`` adds a fixed number of states, edges and label members.
        """
        key = (name, params.k_max)
        if key not in self._oracles:
            model = self.I.builtin_model(name, params)
            if oracle.domain_size(model) <= 50_000:
                g = oracle.enumerate_domain(model)
                ref = {"states": len(g.states), "tangible": g.tangible, "edges": g.edges}
                ref.update(g.label_counts(model))
            else:
                small, large = (self._reference_counts(name, replace(params, k_max=k)) for k in (2, 20))
                ref = {k: int(v) for k, v in oracle.affine_counts(small, large, 2, 20, params.k_max).items()}
            self._oracles[key] = ref
        return self._oracles[key]


class Sensitivity(_Library):
    """Rate sweep: the built-ins at three sizes, two rate points each,
    through the whole exact pipeline including the steady solve."""

    K = (2, 20, 200)
    RATE_POINTS = ({"rho": 0.25, "lambda_d": 0.5}, {"rho": 0.5, "lambda_d": 0.25})

    def __init__(self, infradep, seed: int):
        rng = random.Random(seed)
        points = []
        for name in infradep.BUILTIN_MODELS:
            for k in self.K:
                for j, rates in enumerate(self.RATE_POINTS):
                    params = replace(infradep.DEFAULT_PARAMS, k_max=k, **_jittered(rng, rates))
                    points.append((f"{name}/k{k}/r{j}", name, params))
        rng.shuffle(points)
        super().__init__(infradep, points)

    def run(self, name, params):
        I = self.I
        model, graph, ctmc = self._pipeline(name, params)
        pi = I.steady_state(ctmc)
        steady_labels = {
            l: I.label_probability(pi, ctmc.label_sets[l]).value for l in sorted(ctmc.label_sets)
        }
        tr = I.transient(ctmc, T_FIXED)
        target = _blackout(ctmc)
        mt = I.mean_time_to_absorption(ctmc, target)
        return {
            "name": name, "params": params, "states": len(graph.states),
            "tangible": graph.tangible_count(), "edges": len(graph.edges),
            "ctmc_states": ctmc.states, "q": ctmc.generator, "p0": ctmc.initial,
            "pi": pi.probs, "steady_labels": steady_labels, "transient": tr.probs,
            "target": target, "mtta": mt.value,
        }

    @staticmethod
    def keep(out):
        return out, fingerprint(out["states"], out["edges"], out["pi"], out["transient"], out["mtta"])

    def check(self, out) -> list[str]:
        I = self.I
        model = I.builtin_model(out["name"], out["params"])
        ref = self._reference_counts(out["name"], out["params"])
        errors = checks.counts(out, {k: ref[k] for k in ("states", "tangible", "edges")})
        errors += checks.steady(out["q"], out["pi"], I.SolverOptions().steady_tol)
        for label, value in out["steady_labels"].items():
            fn = oracle.label_fn(model, label)
            mask = np.array([fn(s) for s in out["ctmc_states"]], dtype=bool)
            errors += checks.close(f"p[{label}]", value, float(out["pi"][mask].sum()), atol=1e-12)
        errors += checks.transient(out["q"], out["p0"], T_FIXED, out["transient"])
        errors += checks.mtta(out["q"], out["p0"], out["target"], out["mtta"])
        return errors


class ExploreLarge(_Library):
    """The built-ins at the top of the size sweep, without a steady solve."""

    K = 2000

    def __init__(self, infradep, seed: int):
        rng = random.Random(seed)
        points = [
            (f"{name}/k{self.K}", name,
             replace(infradep.DEFAULT_PARAMS, k_max=self.K,
                     **_jittered(rng, {"lambda_e": infradep.DEFAULT_PARAMS.lambda_e,
                                       "mu_e": infradep.DEFAULT_PARAMS.mu_e})))
            for name in infradep.BUILTIN_MODELS
        ]
        rng.shuffle(points)
        super().__init__(infradep, points)

    def run(self, name, params):
        I = self.I
        model, graph, ctmc = self._pipeline(name, params)
        tr = I.transient(ctmc, T_FIXED)
        target = _blackout(ctmc)
        mt = I.mean_time_to_absorption(ctmc, target)
        summary = I.graph_summary(graph)
        return {
            "name": name, "params": params, "states": len(graph.states),
            "tangible": graph.tangible_count(), "edges": len(graph.edges),
            "q": ctmc.generator, "p0": ctmc.initial, "transient": tr.probs,
            "target": target, "mtta": mt.value, "summary": summary,
        }

    @staticmethod
    def keep(out):
        return out, fingerprint(out["states"], out["edges"], out["transient"], out["mtta"],
                                out["summary"])

    def check(self, out) -> list[str]:
        ref = self._reference_counts(out["name"], out["params"])
        errors = checks.counts(out, {k: ref[k] for k in ("states", "tangible", "edges")})
        s = out["summary"]
        errors += checks.counts(
            {**s, **{f"label {k}": v for k, v in s["labels"].items()}},
            {"states": ref["states"], "tangible": ref["tangible"], "edges": ref["edges"],
             "vanishing": ref["states"] - ref["tangible"],
             **{f"label {l.name}": ref[l.name]
                for l in self.I.builtin_model(out["name"], out["params"]).labels}},
        )
        errors += checks.transient(out["q"], out["p0"], T_FIXED, out["transient"])
        errors += checks.mtta(out["q"], out["p0"], out["target"], out["mtta"])
        return errors


# ---------------------------------------------------------------------------
# CLI

OCCUPANCY = (("accidental", "state1"), ("cascading-only", "state2"),
             ("common-cause", "state7"), ("attack", "deceived"))
TIME_TO = (("accidental", "state7"), ("cascading-only", "state7"),
           ("common-cause", "state8"), ("attack", "deceived"))
# (model, estimate, label, trace format, replications) of the --trace-dir commands
TRACED = (("accidental", "time-to", "state7", "csv", 40),
          ("cascading-only", "occupancy", "state2", "csv", 40),
          ("common-cause", "occupancy", "state1", "jsonl", 40),
          ("attack", "time-to", "deceived", "jsonl", 20))
HORIZON, CAP = 2000.0, 10000.0
SCHEMAS = os.path.join("src", "infradep", "schemas")


class Cli:
    """The commands a user types, run in-process through ``cli.main``."""

    def __init__(self, infradep, seed: int, root: str, tmp: str):
        self.I = infradep
        self.root = root
        self.tmp = tmp
        rng = random.Random(seed)
        seed_arg = lambda: ["--seed", str(rng.getrandbits(31))]  # noqa: E731
        c = []
        c.append((["list-models", "--format", "json"], {"kind": "list"}))
        for i, (m, label) in enumerate(OCCUPANCY):
            c.append((["simulate", "--model", m, "--occupancy", label, "--horizon", str(HORIZON),
                       "--reps", "100", *seed_arg(), "--format", ("text", "json")[i % 2]],
                      {"kind": "occupancy", "model": m, "label": label, "reps": 100}))
        for i, (m, label) in enumerate(TIME_TO):
            c.append((["simulate", "--model", m, "--time-to", label, "--reps", "200", *seed_arg(),
                       "--format", ("json", "text")[i % 2]],
                      {"kind": "time-to", "model": m, "label": label, "reps": 200}))
        for m, kind, label, fmt, reps in TRACED:
            d = os.path.join(tmp, f"{m}-{kind}")
            argv = ["simulate", "--model", m, f"--{kind}", label, "--reps", str(reps), *seed_arg(),
                    "--trace-dir", d, "--trace-format", fmt]
            if kind == "occupancy":
                argv += ["--horizon", str(HORIZON)]
            c.append((argv, {"kind": kind, "model": m, "label": label, "reps": reps,
                             "trace_dir": d, "trace_format": fmt}))
        for k in (20, 200):
            for i, m in enumerate(infradep.BUILTIN_MODELS):
                c.append((["validate", "--model", m, "--claims", "--set", f"k_max={k}",
                           "--format", ("text", "json")[(i + k) % 2]], {"kind": "claims"}))
        for m in infradep.BUILTIN_MODELS:
            c.append((["graph", "--model", m, "--summary"], {"kind": "summary", "model": m}))
        for m in ("accidental", "common-cause"):
            c.append((["solve", "--model", m, "--measure", "transient", "--time", str(T_FIXED),
                       "--format", "json"], {"kind": "transient", "model": m}))
        for m, target in (("cascading-only", "state7"), ("attack", "state8"),
                          ("accidental", "elec == e_lost")):
            c.append((["solve", "--model", m, "--measure", "mtta", "--target", target,
                       "--format", "json"], {"kind": "mtta", "model": m, "target": target}))
        for m in infradep.BUILTIN_MODELS:
            c.append((["fmt", os.path.join("models", f"{m}.gsts")], {"kind": "fmt"}))
        self.commands = [(f"{i:02d} {' '.join(argv[:4])}", argv, spec) for i, (argv, spec) in enumerate(c)]
        self._graphs: dict = {}

    def setup(self):
        os.makedirs(self.tmp, exist_ok=True)

    def before_round(self):
        """Remove the previous round's trace files, so every round writes afresh."""
        for _, _, spec in self.commands:
            if "trace_dir" in spec:
                shutil.rmtree(spec["trace_dir"], ignore_errors=True)

    def queries(self):
        return [(qid, lambda a=argv, s=spec: self.run(a, s)) for qid, argv, spec in self.commands]

    def run(self, argv, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.I.cli.main(list(argv))
        return {"argv": argv, "spec": spec, "code": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()}

    @staticmethod
    def keep(out):
        return out, fingerprint(out["code"], out["stdout"], out["stderr"])

    # -- checks ------------------------------------------------------------

    def _graph(self, name):
        if name not in self._graphs:
            model = self.I.builtin_model(name)
            self._graphs[name] = (model, oracle.enumerate_domain(model))
        return self._graphs[name]

    def check(self, out) -> list[str]:
        if out["code"] != 0 or out["stderr"]:
            return [f"exit code {out['code']}, stderr {out['stderr'][:200]!r}"]
        spec, text = out["spec"], out["stdout"]
        kind = spec["kind"]
        schema = lambda doc, name: checks.schema(doc, os.path.join(self.root, SCHEMAS, name))  # noqa: E731
        if kind == "list":
            doc = json.loads(text)
            return schema(doc, "models.schema.json") + checks.counts(
                {"names": [e["name"] for e in doc]}, {"names": list(self.I.BUILTIN_MODELS)})
        if kind == "claims":
            if "--format" in out["argv"] and out["argv"][out["argv"].index("--format") + 1] == "json":
                verdicts = [c["passed"] for c in json.loads(text)["claims"]]
            else:
                verdicts = [line.startswith("PASS") for line in text.splitlines()]
            if not verdicts or not all(verdicts):
                return [f"claims: {verdicts.count(False)} of {len(verdicts)} verdicts are not PASS"]
            return []
        if kind == "fmt":
            return self._check_fmt(out)
        model, graph = self._graph(spec["model"])
        if kind == "summary":
            doc = json.loads(text)
            want = {"states": len(graph.states), "tangible": graph.tangible,
                    "vanishing": len(graph.vanishing), "edges": graph.edges,
                    "labels": graph.label_counts(model)}
            return schema(doc, "graph-summary.schema.json") + checks.counts(doc, want)
        results = self._results(text)
        if isinstance(results, str):
            return [results]
        errors = schema(results, "results.schema.json") if text.startswith("[") else []
        if kind == "transient":
            chain = oracle.fold(graph)
            for r in results:
                label = r["name"][2:-1]
                want = oracle.transient_label(chain, oracle.indicator(model, chain, label), T_FIXED)
                errors += checks.close(r["name"], r["value"], want, atol=checks.ORACLE_ATOL)
            return errors
        if kind == "mtta":
            target = spec["target"]
            if target in model.label_map:
                hit = oracle.label_fn(model, target)
            else:  # the one guard-expression target: "elec == e_lost"
                var, _, value = target.split()
                i = [v.name for v in model.variables].index(var)
                hit = lambda s: s[i] == value  # noqa: E731
            want = oracle.mean_hit(oracle.fold(graph, hit))
            return errors + checks.close("mtta", results[0]["value"], want, rtol=checks.ORACLE_ATOL)
        (r,) = results
        if kind == "occupancy":
            chain = oracle.fold(graph)
            exact = oracle.expected_occupancy(
                chain, oracle.indicator(model, chain, spec["label"]), HORIZON, HORIZON / 10)
            trace_spec = {"kind": kind, "label": spec["label"], "horizon": HORIZON,
                          "burn_in": HORIZON / 10}
        else:
            exact = oracle.expected_capped_hit(oracle.fold(graph, oracle.label_fn(model, spec["label"])), CAP)
            trace_spec = {"kind": kind, "label": spec["label"], "cap": CAP}
        errors += checks.estimate(r["name"], r["value"], r["ci_halfwidth"], exact)
        if "trace_dir" in spec:
            errors += checks.trace_dir(spec["trace_dir"], model, spec["trace_format"], spec["reps"],
                                       trace_spec, r["value"])
        return errors

    @staticmethod
    def _results(text: str):
        """Results from JSON output, or from text lines ``name = value  +/- hw``."""
        if text.startswith("["):
            return json.loads(text)
        out = []
        for line in text.splitlines():
            name, eq, rest = line.partition(" = ")
            if not eq:
                return f"unparsed output line {line!r}"
            value, _, hw = rest.partition("  +/- ")
            out.append({"name": name, "value": float(value), "ci_halfwidth": float(hw) if hw else None})
        return out

    def _check_fmt(self, out) -> list[str]:
        """The shipped model files are canonical, and fmt is a fixed point."""
        path = out["argv"][1]
        with open(os.path.join(self.root, path), encoding="utf-8") as fh:
            source = fh.read()
        again = os.path.join(self.tmp, "fmt-again.gsts")
        with open(again, "w", encoding="utf-8") as fh:
            fh.write(out["stdout"])
        second = self.run(["fmt", again], {})
        errors = [] if out["stdout"] == source else [f"fmt {path}: output differs from the canonical file"]
        if second["code"] != 0 or second["stdout"] != out["stdout"]:
            errors.append(f"fmt {path}: formatting the output again changes it")
        return errors
