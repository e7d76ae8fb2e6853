"""Command-line front end.

Commands: list-models, validate, graph, solve, simulate, fmt.
Exit codes: 0 ok, 1 validation failure, 2 parse failure, 3 numeric
failure, 4 limit exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from . import catalog
from .claims import run_claims
from .dsl import parse_model, parse_guard_text, serialize_model
from .errors import (
    EventCapExceeded,
    ImmediateCycleError,
    InfradepError,
    InvalidArgError,
    InvalidModelError,
    InvalidParamError,
    StateLimitExceeded,
)
from .export import export_dot, export_results_json, graph_summary
from .montecarlo import estimate_occupancy, estimate_time_to, trace_to_csv, trace_to_jsonl
from .solvers import label_probability, mean_time_to_absorption, steady_state, transient
from .statespace import build_reachability_graph, eliminate_vanishing, state_limit, states_where
from .validate import validation_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_LIMIT = 4
EXIT_USAGE = 64

# Exit code per library error class; every other InfradepError is numeric.
_ERROR_EXITS = {
    InvalidParamError: EXIT_VALIDATION,
    ImmediateCycleError: EXIT_VALIDATION,
    StateLimitExceeded: EXIT_LIMIT,
    EventCapExceeded: EXIT_LIMIT,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want 64
        raise UsageError(message)


@functools.cache  # parsing never mutates the parser, so calls can share it
def _build_parser() -> _Parser:
    p = _Parser(prog="infradep", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(sp, model=True):
        if model:
            sp.add_argument("--model", required=True,
                            help="builtin name (accidental, cascading-only, "
                                 "common-cause, attack) or path to a .gsts file")
            sp.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                            help="override a parameter (repeatable)")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("--out", help="write primary output to this path")

    sp = sub.add_parser("list-models", help="list built-in models")
    add_common(sp, model=False)

    sp = sub.add_parser("validate", help="validate a model (and optionally its claims)")
    add_common(sp)
    sp.add_argument("--claims", action="store_true",
                    help="also run the qualitative claim suite (builtin models)")

    sp = sub.add_parser("graph", help="export the state graph as DOT")
    add_common(sp)
    sp.add_argument("--hide-vanishing", action="store_true",
                    help="render the reduced tangible-only chain")
    sp.add_argument("--summary", action="store_true",
                    help="print a JSON summary instead of DOT on stdout")

    sp = sub.add_parser("solve", help="exact measures on the CTMC")
    add_common(sp)
    sp.add_argument("--measure", required=True,
                    choices=["steady", "transient", "mtta"])
    sp.add_argument("--time", type=float, help="time for transient analysis")
    sp.add_argument("--target", help="label name or guard expression (mtta)")
    sp.add_argument("--label-prob", metavar="LABEL", dest="label_prob",
                    help="with steady/transient: report only this label")
    sp.add_argument("--allow-defective", action="store_true",
                    help="report conditional MTTA when the target can be missed")

    sp = sub.add_parser("simulate", help="Monte Carlo estimates")
    add_common(sp)
    sp.add_argument("--occupancy", metavar="LABEL",
                    help="estimate long-run occupancy of a label")
    sp.add_argument("--time-to", metavar="LABEL",
                    help="estimate mean first-hitting time of a label")
    sp.add_argument("--horizon", type=float, default=1000.0)
    sp.add_argument("--burn-in", type=float, default=None)
    sp.add_argument("--cap-time", type=float, default=10000.0)
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0,
                    help="stream seed (default 0 for reproducibility)")
    sp.add_argument("--trace-dir", help="write one trace file per replication")
    sp.add_argument("--trace-format", choices=["csv", "jsonl"], default="csv")

    sp = sub.add_parser("fmt", help="canonically format a model file")
    sp.add_argument("path")
    dest = sp.add_mutually_exclusive_group()
    dest.add_argument("--in-place", action="store_true")
    dest.add_argument("--out")
    return p


def _emit(args, text: str):
    if getattr(args, "out", None):
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_overrides(pairs) -> dict[str, float]:
    out = {}
    for raw in pairs:
        name, eq, value = raw.partition("=")
        if not eq or not name:
            raise UsageError(f"--set expects NAME=VALUE, got {raw!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise UsageError(f"--set {name}: {value!r} is not a number")
    return out


def _load_model(args):
    """RunConfig resolution: builtin name or .gsts path, plus --set overrides."""
    source = args.model
    overrides = _parse_overrides(args.set)
    if source in catalog.BUILTIN_MODELS:
        params = catalog.DEFAULT_PARAMS
        fields = set(params.__dataclass_fields__)
        unknown = set(overrides) - fields
        if unknown:
            raise UsageError(
                f"--set refers to unknown parameters {sorted(unknown)}; "
                f"builtin parameters: {sorted(fields)}"
            )
        if "k_max" in overrides:
            if not overrides["k_max"].is_integer():
                raise UsageError(f"--set k_max: {overrides['k_max']!r} is not an integer")
            overrides["k_max"] = int(overrides["k_max"])
        params = replace(params, **overrides)
        return catalog.builtin_model(source, params)
    parsed = _read_model_file(source)
    unknown = set(overrides) - set(parsed.parameters)
    if unknown:
        raise UsageError(f"--set refers to unknown parameters {sorted(unknown)}")
    if overrides:
        parameters = dict(parsed.parameters)
        parameters.update(overrides)
        parsed = replace(parsed, parameters=parameters)
    return parsed


def _read_model_file(path: str):
    """Parse a model file; a path that cannot be read is a usage error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise UsageError(
            f"unknown model {path!r}: not a builtin {catalog.BUILTIN_MODELS} "
            f"and not a readable file ({e.strerror})"
        ) from None
    parsed = parse_model(data)  # decodes UTF-8, replacing invalid bytes
    if isinstance(parsed, list):
        raise _ParseFailure(path, parsed)
    return parsed


def _write_text(path: str, text: str):
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path!r} ({e.strerror})") from None


class _ParseFailure(Exception):
    def __init__(self, source, errors):
        self.source = source
        self.errors = errors


# ---------------------------------------------------------------------------
# Commands


def cmd_list_models(args) -> int:
    entries = [
        {"name": name, "description": catalog.MODEL_DESCRIPTIONS[name]}
        for name in catalog.BUILTIN_MODELS
    ]
    if args.format == "json":
        _emit(args, json.dumps(entries, indent=2) + "\n")
    else:
        width = max(len(e["name"]) for e in entries)
        _emit(args, "".join(f"{e['name']:<{width}}  {e['description']}\n" for e in entries))
    return EXIT_OK


def cmd_validate(args) -> int:
    model = _load_model(args)
    report = validation_report(model)
    lines = [_issue_line(i) for i in report.errors]
    lines += [_issue_line(i, "warning") for i in report.warnings]
    results = []
    failed_claims = 0
    if args.claims and report.ok:  # an invalid model gets only its report
        graph = build_reachability_graph(model)
        for res in run_claims(graph):
            results.append(res)
            if not res.passed:
                failed_claims += 1
    if args.format == "json":
        payload = {
            "model": model.name,
            "errors": [_issue_fields(i) for i in report.errors],
            "warnings": [_issue_fields(i) for i in report.warnings],
            "claims": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        for r in results:
            lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  ({r.detail})")
        if not lines:
            lines.append(f"{model.name}: ok")
        _emit(args, "\n".join(lines) + "\n")
    if not report.ok or failed_claims:
        return EXIT_VALIDATION
    return EXIT_OK


def _issue_line(issue, kind="error") -> str:
    return f"{kind} [{issue.code}] {issue.where}: {issue.message}"


def _issue_fields(issue) -> dict:
    return {"code": issue.code, "where": issue.where, "message": issue.message}


def cmd_graph(args) -> int:
    model = _load_model(args)
    graph = build_reachability_graph(model)
    obj = eliminate_vanishing(graph) if args.hide_vanishing else graph
    if args.format == "json":
        args.summary = True  # DOT has no JSON form; emit the summary
    if args.out or not args.summary:
        _emit(args, export_dot(obj))
    if args.summary:
        sys.stdout.write(json.dumps(graph_summary(obj), indent=2) + "\n")
    return EXIT_OK


def _resolve_target(args, model, ctmc):
    """Resolve the mtta target: a label name, else a guard over the variables."""
    target = args.target
    if target is None:
        raise UsageError("--measure mtta needs --target LABEL-or-guard")
    if target in ctmc.label_sets:
        return target, target
    guard = parse_guard_text(target, model)
    if isinstance(guard, list):
        raise UsageError(
            f"--target {target!r} is neither a label nor a valid guard: "
            + "; ".join(e.message for e in guard)
        )
    return states_where(model, guard, ctmc.states), target


def cmd_solve(args) -> int:
    model = _load_model(args)
    ctmc = eliminate_vanishing(build_reachability_graph(model))
    results = []
    if args.measure in ("steady", "transient"):
        if args.measure == "transient":
            if args.time is None:
                raise UsageError("--measure transient needs --time T")
            dist = transient(ctmc, args.time)
        else:
            dist = steady_state(ctmc)
        wanted = sorted(ctmc.label_sets)
        if args.label_prob is not None:
            if args.label_prob not in ctmc.label_sets:
                raise UsageError(f"no label {args.label_prob!r} on model {model.name!r}")
            wanted = [args.label_prob]
        for label in wanted:
            results.append(
                label_probability(dist, ctmc.label_sets[label], name=f"p[{label}]")
            )
    else:  # mtta
        target, shown = _resolve_target(args, model, ctmc)
        res = mean_time_to_absorption(ctmc, target, allow_defective=args.allow_defective)
        results.append(replace(res, name=f"mtta[{shown}]"))
    _emit_results(args, results)
    return EXIT_OK


def _emit_results(args, results):
    if args.format == "json":
        _emit(args, export_results_json(results))
    else:
        lines = []
        for r in results:
            ci = getattr(r, "half_width", None)
            tail = f"  +/- {ci!r}" if ci is not None else ""
            lines.append(f"{r.name} = {r.value!r}{tail}")
        _emit(args, "\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    model = _load_model(args)
    if args.reps < 2:
        raise UsageError("--reps must be at least 2")
    if bool(args.occupancy) == bool(args.time_to):
        raise UsageError("choose exactly one of --occupancy LABEL or --time-to LABEL")
    if args.time_to and args.burn_in is not None:
        raise UsageError("--burn-in applies only to --occupancy")
    if args.occupancy and args.occupancy not in model.label_map:
        raise UsageError(f"no label {args.occupancy!r} on model {model.name!r}")
    if args.time_to and args.time_to not in model.label_map:
        raise UsageError(f"no label {args.time_to!r} on model {model.name!r}")

    on_trace = None
    if args.trace_dir:
        try:
            os.makedirs(args.trace_dir, exist_ok=True)
        except OSError as e:
            raise UsageError(
                f"cannot create --trace-dir {args.trace_dir!r} ({e.strerror})"
            ) from None
        to_text = trace_to_csv if args.trace_format == "csv" else trace_to_jsonl

        def on_trace(trace):
            name = f"rep_{trace.replication:04d}.{args.trace_format}"
            _write_text(os.path.join(args.trace_dir, name), to_text(trace, model))

    if args.occupancy:
        result = estimate_occupancy(
            model, args.occupancy, horizon=args.horizon, replications=args.reps,
            seed=args.seed, burn_in=args.burn_in, on_trace=on_trace,
        )
    else:
        result = estimate_time_to(
            model, args.time_to, replications=args.reps, seed=args.seed,
            cap_time=args.cap_time, on_trace=on_trace,
        )
    _emit_results(args, [result])
    return EXIT_OK


def cmd_fmt(args) -> int:
    canon = serialize_model(_read_model_file(args.path))
    if args.in_place or args.out:
        _write_text(args.path if args.in_place else args.out, canon)
    else:
        sys.stdout.write(canon)
    return EXIT_OK


_COMMANDS = {
    "list-models": cmd_list_models,
    "validate": cmd_validate,
    "graph": cmd_graph,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "fmt": cmd_fmt,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        try:
            state_limit()
        except InvalidArgError as e:  # a malformed setting, not a numeric failure
            raise UsageError(e.message) from None
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _ParseFailure as e:
        for err in e.errors:
            loc = f"{e.source}:{err.span.line}:{err.span.column}"
            print(f"{loc}: [{err.code}] {err.message}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidModelError as e:
        for issue in e.report.errors:
            print(_issue_line(issue), file=sys.stderr)
        return EXIT_VALIDATION
    except InfradepError as e:
        print(f"error [{e.code}] {e.message}", file=sys.stderr)
        return _ERROR_EXITS.get(type(e), EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
