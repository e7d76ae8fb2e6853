"""CLI contract: exit codes, schemas, equality with the library."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import infradep
from infradep import (
    eliminate_vanishing,
    label_probability,
    mean_time_to_absorption,
    steady_state,
)
from infradep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    """Environment for a child run from "/", where a relative PYTHONPATH such
    as "src" does not resolve: the package under test comes first."""
    src = str(Path(infradep.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def load_schema(name):
    path = resources.files("infradep") / "schemas" / name
    return json.loads(path.read_text())


def test_list_models_text(capsys):
    code, out, _ = run(capsys, "list-models")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert lines[0].startswith("accidental")


def test_list_models_json_schema(capsys):
    code, out, _ = run(capsys, "list-models", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("models.schema.json"))
    assert [e["name"] for e in data] == [
        "accidental", "cascading-only", "common-cause", "attack",
    ]


def test_unknown_flag_is_usage(capsys):
    code, _, _ = run(capsys, "list-models", "--bogus")
    assert code == 64
    # fmt has no --format: it only ever prints the canonical text.
    model = str(Path(__file__).parent.parent / "models" / "accidental.gsts")
    code, out, _ = run(capsys, "fmt", model, "--format", "json")
    assert (code, out) == (64, "")


def test_unknown_model_is_usage(capsys, tmp_path):
    code, _, err = run(capsys, "graph", "--model", "nosuch")
    assert code == 64
    assert "nosuch" in err
    # A missing path or a directory, as --model or as the fmt path.
    for path in (str(tmp_path / "missing.gsts"), str(tmp_path)):
        for argv in (["graph", "--model", path], ["fmt", path]):
            code, _, err = run(capsys, *argv)
            assert code == 64, argv
            assert err.startswith("usage error:"), argv


def test_unwritable_output_is_usage(capsys, tmp_path):
    # A directory or a missing parent as the output path, and an existing
    # file as the trace directory, end in exit 64 instead of a traceback.
    afile = tmp_path / "afile"
    afile.write_text("")
    model = str(Path(__file__).parent.parent / "models" / "accidental.gsts")
    for argv in (
        ["graph", "--model", "accidental", "--out", str(tmp_path)],
        ["simulate", "--model", "accidental", "--occupancy", "state1", "--reps", "2",
         "--horizon", "10", "--trace-dir", str(afile)],
        ["fmt", model, "--out", str(tmp_path)],
        ["solve", "--model", "accidental", "--measure", "steady",
         "--out", str(tmp_path / "missing" / "x.json")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert "usage error" in err and "Traceback" not in err, argv


def test_missing_command_is_usage(capsys):
    assert run(capsys)[0] == 64


def test_graph_dot_output(capsys, graphs):
    code, out, _ = run(capsys, "graph", "--model", "cascading-only")
    assert code == 0
    from .dot_checker import check_dot

    dot = check_dot(out)
    # The normal-operation state exists and something flows into it.
    g = graphs["cascading-only"]
    from infradep import label_sets

    s1 = next(iter(label_sets(g)["state1"]))
    assert f"s{s1}" in dot.nodes
    assert any(dst == f"s{s1}" for _, dst, _ in dot.edges)


def test_graph_summary_schema_and_reduction(capsys, graphs):
    code, out, _ = run(capsys, "graph", "--model", "accidental",
                       "--hide-vanishing", "--summary")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("graph-summary.schema.json"))
    c = eliminate_vanishing(graphs["accidental"])
    assert data["states"] == c.n
    assert data["vanishing"] == 0


def test_graph_out_file(capsys, tmp_path):
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "--model", "accidental", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph accidental")


def test_validate_claims_all_builtins(capsys):
    for name in ("accidental", "cascading-only", "common-cause", "attack"):
        code, out, _ = run(capsys, "validate", "--model", name, "--claims")
        assert code == 0
        assert "FAIL" not in out


def test_validate_bad_builtin_param_exit1(capsys):
    for command in (["validate"], ["solve", "--measure", "steady"]):
        for bad in ("rho=0", "lambda_e=inf"):
            code, _, err = run(capsys, *command, "--model", "accidental", "--set", bad)
            assert code == 1, (command, bad)
            assert "INVALID_PARAM" in err


def test_validate_reports_an_invalid_override_of_a_file_model(capsys):
    # The override is checked by the report itself, not by a gate that
    # would stop the command before it prints anything.
    model = str(Path(__file__).parent.parent / "models" / "accidental.gsts")
    code, out, err = run(capsys, "validate", "--model", model,
                         "--set", "lambda_e=0", "--format", "json")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert [i["code"] for i in report["errors"]] == ["INVALID_PARAM"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_claims_on_an_invalid_model_prints_only_its_report(capsys, tmp_path, fmt):
    # The claims are skipped, and the report is the one without --claims,
    # on stdout or in the --out file.
    model = str(Path(__file__).parent.parent / "models" / "accidental.gsts")
    argv = ["validate", "--model", model, "--set", "lambda_e=0", "--format", fmt]
    plain = run(capsys, *argv)
    assert plain[0] == 1 and plain[2] == ""
    assert "INVALID_PARAM" in plain[1]
    assert run(capsys, *argv, "--claims") == plain
    target = tmp_path / "report.txt"
    assert run(capsys, *argv, "--claims", "--out", str(target)) == (1, "", "")
    assert target.read_text() == plain[1]
    if fmt == "json":
        assert json.loads(plain[1])["claims"] == []


_UNSATISFIABLE = (
    "model w {\n"
    "  var x : {a, b} init a;\n"
    "  timed never rate 1.0 when x == a && x == b -> { x := b; };\n"
    "  timed go rate 1.0 when x == a -> { x := b; };\n"
    "}\n"
)


@pytest.mark.parametrize("argv, exit_code, needle", [
    (["validate", "--model", "accidental", "--set", "foo"], 64, "--set expects NAME=VALUE"),
    (["validate", "--model", "accidental", "--set", "lambda_e=abc"], 64, "is not a number"),
    (["validate", "--model", "{gsts}", "--set", "nosuch=1"], 64, "unknown parameters"),
    (["validate", "--model", "{unsat}"], 0, "warning [UNSATISFIABLE_GUARD] transition never:"),
    (["validate", "--claims", "--model", "{gsts}", "--set", "lambda_e=0"], 1,
     "error [INVALID_PARAM] param lambda_e:"),
    (["solve", "--model", "accidental", "--measure", "mtta"], 64, "needs --target"),
    (["solve", "--model", "accidental", "--measure", "mtta", "--target", "state7"], 0,
     "mtta[state7] = "),
    (["solve", "--model", "accidental", "--measure", "mtta", "--target", "info =="], 64,
     "is neither a label nor a valid guard"),
    (["solve", "--model", "accidental", "--measure", "steady", "--label-prob", "nosuch"], 64,
     "no label 'nosuch'"),
    (["simulate", "--model", "accidental", "--occupancy", "state1", "--time-to", "state7"], 64,
     "choose exactly one"),
    (["simulate", "--model", "accidental"], 64, "choose exactly one"),
    (["simulate", "--model", "accidental", "--occupancy", "nosuch"], 64, "no label 'nosuch'"),
    (["simulate", "--model", "accidental", "--time-to", "nosuch"], 64, "no label 'nosuch'"),
], ids=["set-without-value", "set-not-a-number", "set-unknown-on-file", "validate-warning",
        "claims-on-invalid-file", "mtta-without-target", "mtta-label-target",
        "mtta-malformed-target", "label-prob-unknown", "simulate-both-measures",
        "simulate-no-measure", "occupancy-unknown", "time-to-unknown"])
def test_each_cli_exit_is_its_documented_code(capsys, tmp_path, argv, exit_code, needle):
    unsat = tmp_path / "unsat.gsts"
    unsat.write_text(_UNSATISFIABLE)
    gsts = str(Path(__file__).parent.parent / "models" / "accidental.gsts")
    argv = [a.format(gsts=gsts, unsat=unsat) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == exit_code, err
    assert "Traceback" not in err
    # A validate report goes to stdout whether the model passes (0) or not
    # (1); every other failure goes to stderr.
    assert needle in (out if code == 0 or (argv[0], code) == ("validate", 1) else err)
    if code == 64:
        assert err.startswith("usage error: ")


@pytest.fixture
def validations(monkeypatch):
    """The names of the models ``validate_model`` checks, in call order."""
    import infradep.dsl
    import infradep.validate

    calls = []
    original = infradep.validate.validate_model

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    for module in (infradep.validate, infradep.dsl, infradep.cli):
        if hasattr(module, "validate_model"):
            monkeypatch.setattr(module, "validate_model", counted)
    return calls


ACCIDENTAL_FILE = str(Path(__file__).parent.parent / "models" / "accidental.gsts")


def test_graph_validates_an_overridden_file_model_twice(capsys, validations):
    # Once when the file is parsed, and explore's gate reuses that verdict;
    # an override makes a new model, which the gate validates again.
    for override, validated in (((), 1), (("--set", "lambda_e=2"), 2)):
        validations.clear()
        code, _, _ = run(capsys, "graph", "--model", ACCIDENTAL_FILE, *override, "--summary")
        assert code == 0
        assert validations == ["accidental"] * validated, override


@pytest.mark.parametrize("claims", [(), ("--claims",)])
def test_validate_reuses_the_report_of_a_parsed_file(capsys, validations, claims):
    # parse_model validates the file and records its report, which validate
    # (and, with --claims, explore's gate) reads back: one validation.  An
    # override makes a new model, validated once more.  The report printed
    # is the one a fresh validation of the same model gives.
    for override, validated in (((), 1), (("--set", "lambda_e=2"), 2)):
        validations.clear()
        code, out, _ = run(capsys, "validate", "--model", ACCIDENTAL_FILE, *override, *claims)
        assert code == 0
        assert validations == ["accidental"] * validated, override
        built = run(capsys, "validate", "--model", "accidental", *override, *claims)
        assert (code, out) == built[:2], override


# Two competing immediates out of x == a; WEIGHT is replaced per test.
_WEIGHTED = """model m {
  var x : {a, b, c, d} init a;
  immediate go_b prio 1 weight WEIGHT when x == a -> { x := b; };
  immediate go_c prio 1 weight WEIGHT when x == a -> { x := c; };
  timed b_d rate 1.0 when x == b -> { x := d; };
  timed c_d rate 1.0 when x == c -> { x := d; };
  timed d_a rate 1.0 when x == d -> { x := a; };
  label at_c := x == c;
}
"""


@pytest.mark.parametrize("weight, message", [
    # The DSL reads 1e400 as inf, whose share inf / inf was nan.
    ("1e400", "3:13: [INVALID_WEIGHT] immediate weight must be finite, got inf"),
    # Each weight is finite, but their sum is not, so both shares were 0.0.
    ("1e308", "1:7: [INVALID_WEIGHT] immediate weights sum to inf, which is not finite"),
])
def test_immediate_weights_whose_shares_are_not_probabilities_fail(capsys, tmp_path, weight, message):
    # A file whose model fails validation exits 2, with the findings.
    f = tmp_path / "w.gsts"
    f.write_text(_WEIGHTED.replace("WEIGHT", weight))
    for argv in (["validate"], ["solve", "--measure", "transient", "--time", "5"],
                 ["simulate", "--occupancy", "at_c", "--reps", "20"]):
        code, out, err = run(capsys, *argv, "--model", str(f))
        assert (code, out) == (2, ""), argv
        assert f"w.gsts:{message}" in err, argv


def test_invalid_model_fails_alike_in_every_command(capsys):
    # p8 = 5e-324 is a valid parameter, but the rate p8 * lambda_cc
    # underflows to 0: each command stops at the same validation error.
    bad = ("--model", "common-cause", "--set", "p8=5e-324")
    errs = set()
    for argv in (("graph", *bad, "--summary"),
                 ("solve", *bad, "--measure", "steady"),
                 ("simulate", *bad, "--occupancy", "state1", "--reps", "2", "--horizon", "10")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv[0]
        errs.add(err)
    assert errs == {
        "error [INVALID_RATE] transition cc_to_8: timed rate must be positive and "
        "finite after substitution, got 0.0\n"
    }


def test_failing_claims_exit1(capsys, tmp_path):
    # Strip the severity-escalation transition: the blackout-path claim
    # must fail for a model presenting itself as the one-way variant.
    from dataclasses import replace

    from infradep import builtin_model, serialize_model

    m = builtin_model("cascading-only")
    mutant = replace(
        m,
        transitions=tuple(t for t in m.transitions if t.name != "e_failure_escal_sev"),
    )
    f = tmp_path / "mutant.gsts"
    f.write_text(serialize_model(mutant))
    code, out, _ = run(capsys, "validate", "--model", str(f), "--claims")
    assert code == 1
    assert "FAIL" in out


def test_graph_summary_builds_no_dot(capsys, monkeypatch, tmp_path):
    def no_dot(*args, **kwargs):
        raise AssertionError("DOT built but not written")

    monkeypatch.setattr("infradep.cli.export_dot", no_dot)
    for argv in (["--summary"], ["--format", "json"]):
        code, out, _ = run(capsys, "graph", "--model", "accidental", *argv)
        assert code == 0, argv
        assert json.loads(out)["states"] > 0
    monkeypatch.undo()
    # With --out the DOT goes to the file and the summary to stdout.
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "--model", "accidental", "--summary",
                       "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph accidental")
    assert json.loads(out)["states"] > 0


def test_graph_format_json_gives_summary(capsys):
    code, out, _ = run(capsys, "graph", "--model", "accidental", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("graph-summary.schema.json"))


def test_solve_transient_at_time(capsys, ctmcs):
    from infradep import transient

    code, out, _ = run(capsys, "solve", "--model", "accidental", "--measure",
                       "transient", "--time", "2.5", "--format", "json")
    assert code == 0
    c = ctmcs["accidental"]
    dist = transient(c, 2.5)
    expected = label_probability(dist, c.label_sets["state2"]).value
    got = next(d for d in json.loads(out) if d["name"] == "p[state2]")
    assert got["value"] == expected
    assert got["metadata"]["time"] == 2.5


def test_parse_error_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.gsts"
    bad.write_text("model broken { var x {a} init a; }")
    code, _, err = run(capsys, "graph", "--model", str(bad))
    assert code == 2
    assert "bad.gsts:" in err
    # A non-ASCII digit or identifier, and bytes that are not UTF-8.
    tail = b" timed t rate 1.0 when x == 0 -> { }; }"
    for data in (
        "model m { var x : [0 .. \u00b2] init 0;".encode() + tail,
        "model m { var \u00e9 : [0 .. 2] init 0;".encode() + tail,
        b"model m { var x : [0 .. 2] init 0; \xff\xfe" + tail,
    ):
        bad.write_bytes(data)
        for argv in (["validate", "--model", str(bad)], ["fmt", str(bad)]):
            code, _, err = run(capsys, *argv)
            assert code == 2, (argv, data)
            assert "bad.gsts:1:" in err and "[UNEXPECTED_TOKEN]" in err


def test_validation_findings_in_file_exit2(capsys, tmp_path):
    f = tmp_path / "overflow.gsts"
    f.write_text(
        "model m { var n : [0..2] init 0; "
        "timed t rate 1.0 when n >= 0 -> { n := n + 1; }; }"
    )
    code, _, err = run(capsys, "validate", "--model", str(f))
    assert code == 2
    assert "OUT_OF_DOMAIN_UPDATE" in err


def test_not_ergodic_exit3(capsys, tmp_path):
    f = tmp_path / "split.gsts"
    f.write_text(
        "model split { var x : [0..2] init 0; "
        "timed a rate 1.0 when x == 0 -> { x := 1; }; "
        "timed b rate 1.0 when x == 0 -> { x := 2; }; }"
    )
    code, _, err = run(capsys, "solve", "--model", str(f), "--measure", "steady")
    assert code == 3
    assert "NOT_ERGODIC" in err


def test_unreachable_target_exit3(capsys):
    code, _, err = run(capsys, "solve", "--model", "cascading-only",
                       "--measure", "mtta", "--target", "info == i_weakened")
    assert code == 3
    assert "UNREACHABLE_TARGET" in err


def test_state_limit_exit4(capsys, monkeypatch):
    monkeypatch.setenv("INFRADEP_STATE_LIMIT", "3")
    code, _, err = run(capsys, "graph", "--model", "accidental")
    assert code == 4
    assert "STATE_LIMIT" in err


def test_counter_ranges_past_sys_maxsize_end_cleanly(capsys, monkeypatch, tmp_path):
    f = tmp_path / "wide.gsts"
    f.write_text(
        "model m { var n : [0 .. 99999999999999999999] init 0; "
        "timed t rate 1.0 when n < 5 -> { n := n + 1; }; }"
    )
    code, _, err = run(capsys, "validate", "--model", str(f))
    assert (code, err) == (0, "")
    monkeypatch.setenv("INFRADEP_STATE_LIMIT", "1000")
    code, _, err = run(capsys, "graph", "--model", "accidental", "--set", "k_max=1e30", "--summary")
    assert code == 4
    assert "STATE_LIMIT" in err


def test_malformed_state_limit_is_usage(capsys, monkeypatch):
    for raw in ("abc", "0", "-5", "2.5"):
        monkeypatch.setenv("INFRADEP_STATE_LIMIT", raw)
        code, _, err = run(capsys, "graph", "--model", "accidental")
        assert code == 64, raw
        assert "INFRADEP_STATE_LIMIT" in err


def test_reps_below_two_is_usage(capsys):
    code, _, _ = run(capsys, "simulate", "--model", "accidental",
                     "--occupancy", "state1", "--reps", "1")
    assert code == 64


def test_burn_in_with_time_to_is_usage(capsys):
    code, out, err = run(capsys, "simulate", "--model", "accidental",
                         "--time-to", "state7", "--burn-in", "5", "--reps", "2")
    assert (code, out) == (64, "")
    assert "--burn-in" in err and "--occupancy" in err


def test_solve_results_schema(capsys):
    code, out, _ = run(capsys, "solve", "--model", "common-cause",
                       "--measure", "steady", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("results.schema.json"))
    p8 = next(d for d in data if d["name"] == "p[state8]")
    assert 0 < p8["value"] < 1


def test_solve_steady_with_label_prob_filter(capsys):
    code, out, _ = run(capsys, "solve", "--model", "common-cause",
                       "--measure", "steady", "--label-prob", "state8",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [d["name"] for d in data] == ["p[state8]"]
    assert 0 < data[0]["value"] < 1


def test_cli_mtta_equals_library(capsys, ctmcs):
    code, out, _ = run(capsys, "solve", "--model", "accidental", "--measure", "mtta",
                       "--target", "elec == e_lost", "--format", "json")
    assert code == 0
    c = ctmcs["accidental"]
    vi = c.model.var_index["elec"]
    target = frozenset(i for i, s in enumerate(c.states) if s[vi] == "e_lost")
    expected = mean_time_to_absorption(c, target).value
    assert json.loads(out)[0]["value"] == expected  # bit-for-bit


def test_cli_mtta_refuses_a_negative_hitting_time(capsys):
    # At k_max 20 the hitting times into n_cfg == k_max pass 1/eps, and the
    # LU solve returns negative ones; at 16 it still returns the old value.
    argv = ("solve", "--model", "attack", "--measure", "mtta", "--format", "json")
    code, out, err = run(capsys, *argv, "--set", "k_max=20", "--target", "n_cfg == 20")
    assert (code, out) == (3, "")
    assert "error [NO_CONVERGENCE] mean hitting time" in err
    code, out, _ = run(capsys, *argv, "--set", "k_max=16", "--target", "n_cfg == 16")
    assert code == 0
    assert json.loads(out)[0]["value"] == 287436404858988.6


def test_cli_steady_equals_library(capsys, ctmcs):
    code, out, _ = run(capsys, "solve", "--model", "accidental",
                       "--measure", "steady", "--label-prob", "state1",
                       "--format", "json")
    assert code == 0
    c = ctmcs["accidental"]
    expected = label_probability(steady_state(c), c.label_sets["state1"]).value
    assert json.loads(out)[0]["value"] == expected


def test_transient_metadata_shape_at_time_zero(capsys):
    # The Poisson window is a pair at t = 0 too, so JSON readers see one type.
    argv = ("solve", "--model", "accidental", "--measure", "transient", "--format", "json")
    code, out, _ = run(capsys, *argv, "--time", "0")
    assert code == 0
    for entry in json.loads(out):
        meta = entry["metadata"]
        assert (meta["poisson_terms"], meta["steps"], meta["row_steps"]) == ([0, 0], 0, 0)
    code, out, _ = run(capsys, *argv, "--time", "2.5")
    assert code == 0
    for entry in json.loads(out):
        left, right = entry["metadata"]["poisson_terms"]
        assert 0 <= left <= right
        assert entry["metadata"]["row_steps"] > 0


def test_steady_out_of_range_is_no_convergence(capsys):
    # At mu_e <= 1e-16 the balance solve on accidental returns an entry near
    # -0.14 with a residual near 1e-18: a numeric failure, not a bad argument.
    # On common-cause at mu_e = 1e-24 the worst entry, -6e-10, is within the
    # range slack but below the steady floor of -1e-14.  The error names the
    # worst entry.
    for model, mu_e, worst in (("accidental", "1e-16", "-0.1423"),
                               ("accidental", "1e-300", "-0.1423"),
                               ("common-cause", "1e-24", "-6.02737e-10")):
        code, out, err = run(capsys, "solve", "--model", model, "--set", f"mu_e={mu_e}",
                             "--measure", "steady", "--format", "json")
        assert (code, out) == (3, ""), mu_e
        assert err.startswith(f"error [NO_CONVERGENCE] steady-state probability {worst} "), err
        assert "residual" in err


def test_successive_calls_share_no_parser_state(capsys, graphs):
    summary = ("graph", "--model", "accidental", "--summary")
    code, out, _ = run(capsys, *summary, "--set", "k_max=20")
    assert code == 0
    assert json.loads(out)["states"] > len(graphs["accidental"].states)
    code, out, _ = run(capsys, *summary)
    assert code == 0
    assert json.loads(out)["states"] == len(graphs["accidental"].states)
    solve = ("solve", "--model", "accidental", "--measure", "steady", "--label-prob", "state1",
             "--format", "json")
    first = run(capsys, *solve)
    assert first[0] == 0
    code, _, _ = run(capsys, "solve", "--model", "accidental", "--set", "k_max=20",
                     "--measure", "nope")
    assert code == 64
    assert run(capsys, *solve) == first


def test_transient_needs_time(capsys):
    code, _, _ = run(capsys, "solve", "--model", "accidental", "--measure", "transient")
    assert code == 64


def test_nonfinite_transient_time_exit3(capsys):
    for t in ("nan", "inf", "1e308"):
        code, _, err = run(capsys, "solve", "--model", "accidental",
                           "--measure", "transient", "--time", t)
        assert code == 3, t
        assert "INVALID_ARG" in err


def test_huge_transient_time_exits3_quickly():
    # Lambda*t is finite at 1e300, but no Poisson window of that size fits:
    # the run must refuse it at once, not grow the window until it is killed.
    cmd = [sys.executable, "-m", "infradep", "solve", "--model", "accidental",
           "--measure", "transient", "--time", "1e300"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd="/", env=_child_env(), timeout=60)
    assert r.returncode == 3, r.stderr
    assert "error [INVALID_ARG]" in r.stderr
    assert "Traceback" not in r.stderr


def test_transient_past_its_work_budget_exits3_quickly():
    # The window fits its cap, but its last power is about 2.2e10 steps on
    # a chain that does not settle: refused before the first step.
    cmd = [sys.executable, "-m", "infradep", "solve", "--model", "attack", "--set", "k_max=6",
           "--measure", "transient", "--time", "1e10"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd="/", env=_child_env(), timeout=60)
    assert r.returncode == 3, r.stderr
    assert "error [INVALID_ARG]" in r.stderr and "at most 1e+09 are allowed" in r.stderr
    assert "Traceback" not in r.stderr


def test_set_overrides_parameter(capsys):
    code1, out1, _ = run(capsys, "solve", "--model", "accidental",
                         "--measure", "mtta", "--target", "elec == e_lost",
                         "--format", "json")
    code2, out2, _ = run(capsys, "solve", "--model", "accidental",
                         "--measure", "mtta", "--target", "elec == e_lost",
                         "--set", "lambda_e=0.002", "--format", "json")
    assert code1 == code2 == 0
    assert json.loads(out2)[0]["value"] > json.loads(out1)[0]["value"]


def test_set_unknown_parameter_is_usage(capsys):
    code, _, _ = run(capsys, "solve", "--model", "accidental",
                     "--measure", "steady", "--set", "nope=1")
    assert code == 64


def test_set_fractional_k_max_is_usage(capsys):
    for bad in ("k_max=2.7", "k_max=inf"):
        code, _, err = run(capsys, "graph", "--model", "accidental", "--summary", "--set", bad)
        assert code == 64, bad
        assert "k_max" in err


def test_set_k_max_changes_structure(capsys):
    code, out, _ = run(capsys, "graph", "--model", "accidental", "--summary",
                       "--set", "k_max=3")
    assert code == 0
    base = json.loads(run(capsys, "graph", "--model", "accidental", "--summary")[1])
    assert json.loads(out)["states"] > base["states"]


def test_simulate_identical_invocations_identical_bytes():
    cmd = [
        sys.executable, "-m", "infradep", "simulate", "--model", "accidental",
        "--occupancy", "state1", "--horizon", "200", "--reps", "5",
        "--seed", "7", "--format", "json",
    ]
    env = _child_env()
    a = subprocess.run(cmd, capture_output=True, cwd="/", env=env)
    b = subprocess.run(cmd, capture_output=True, cwd="/", env=env)
    assert a.returncode == b.returncode == 0, (a.stderr, b.stderr)
    assert a.stdout == b.stdout


def test_simulate_results_schema_and_ci(capsys):
    code, out, _ = run(capsys, "simulate", "--model", "accidental",
                       "--occupancy", "state1", "--horizon", "300",
                       "--reps", "8", "--seed", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("results.schema.json"))
    assert data[0]["method"] == "simulation"
    assert data[0]["ci_halfwidth"] >= 0


def test_simulate_non_finite_estimates_exit3(capsys, tmp_path):
    # A finite answer or exit 3, never "nan", "Infinity" or "NaN" on stdout
    # (the last two are not JSON).
    absorb = tmp_path / "absorb.gsts"
    absorb.write_text(
        "model absorb { var x : [0..1] init 0; "
        "timed go rate 1.0 when x == 0 -> { x := 1; }; label done := x == 1; }"
    )
    fork = tmp_path / "fork.gsts"
    fork.write_text(
        "model fork { var x : [0..2] init 0; "
        "timed a rate 1.0 when x == 0 -> { x := 1; }; "
        "timed b rate 1.0 when x == 0 -> { x := 2; }; label done := x == 1; }"
    )
    cases = [
        ([str(absorb), "--occupancy", "done", "--horizon", "inf", "--burn-in", "0"], "horizon"),
        ([str(absorb), "--occupancy", "done", "--horizon", "inf", "--burn-in", "0",
          "--format", "json"], "horizon"),
        ([str(fork), "--time-to", "done", "--cap-time", "inf", "--format", "json"], "cap_time"),
        ([str(fork), "--time-to", "done", "--cap-time", "1e308", "--format", "json"], "cap_time"),
        ([str(fork), "--time-to", "done", "--cap-time", "1e200", "--format", "json"], "cap_time"),
    ]
    for argv, arg in cases:
        code, out, err = run(capsys, "simulate", "--model", *argv, "--reps", "20")
        assert (code, out) == (3, ""), argv
        assert "INVALID_ARG" in err and arg in err and "burn-in" not in err, argv
        assert "Traceback" not in err, argv


def _read_trace_csv(path, model):
    """(time, state) per line of a CSV trace file."""
    kinds = [int if isinstance(v.init, int) else str for v in model.variables]
    events = []
    for line in path.read_text().splitlines():
        time_text, _, *assigns = line.split(",")
        values = [a.split("=", 1)[1] for a in assigns]
        events.append((float(time_text), tuple(k(v) for k, v in zip(kinds, values))))
    return events


def test_simulate_trace_dir(capsys, tmp_path):
    # The files re-integrate to the printed estimate, for both estimators.
    from .oracles import eval_guard

    model = infradep.accidental_model()
    init = infradep.initial_state(model)
    horizon, burn_in, cap = 100.0, 10.0, 150.0
    cases = (("occupancy", "state1", ["--horizon", "100"]),
             ("time-to", "state7", ["--cap-time", "150"]))
    for kind, label, extra in cases:
        predicate = model.label_map[label].predicate
        holds = lambda s: eval_guard(predicate, s, model.var_index)  # noqa: E731
        tdir = tmp_path / kind
        code, out, _ = run(capsys, "simulate", "--model", "accidental", f"--{kind}", label,
                           *extra, "--reps", "6", "--seed", "5", "--trace-dir", str(tdir),
                           "--format", "json")
        assert code == 0
        files = sorted(p.name for p in tdir.iterdir())
        assert files == [f"rep_{r:04d}.csv" for r in range(6)]
        values = []
        for name in files:
            events = _read_trace_csv(tdir / name, model)
            if kind == "occupancy":
                total, t_prev, s_prev = 0.0, 0.0, init
                for t, s in events + [(horizon, None)]:
                    if holds(s_prev):
                        total += max(0.0, min(t, horizon) - max(t_prev, burn_in))
                    t_prev, s_prev = t, s
                values.append(total / (horizon - burn_in))
            else:
                assert not holds(init)
                values.append(next((t for t, s in events if holds(s)), cap))
        printed = json.loads(out)[0]["value"]
        assert 0 < printed
        assert abs(sum(values) / 6 - printed) <= 1e-9 * printed


def test_simulate_time_to_traces_end_at_the_hit(capsys, tmp_path):
    # Each --time-to file is the replication's full trace cut after its
    # first hit; a censored one runs on to absorption or the cap.
    from infradep.rng import stream_seed

    from .oracles import eval_guard

    model = infradep.accidental_model()
    holds = lambda s: eval_guard(model.label_map["state7"].predicate, s, model.var_index)  # noqa: E731
    code, _, _ = run(capsys, "simulate", "--model", "accidental", "--time-to", "state7",
                     "--cap-time", "150", "--reps", "20", "--seed", "3",
                     "--trace-dir", str(tmp_path))
    assert code == 0
    ends = set()
    for r in range(20):
        lines = (tmp_path / f"rep_{r:04d}.csv").read_text().splitlines(keepends=True)
        full = infradep.simulate(model, 150.0, stream_seed(3, r), replication=r)
        full_lines = infradep.trace_to_csv(full, model).splitlines(keepends=True)
        hits = [i for i, ev in enumerate(full.events) if holds(ev.state)]
        if hits:
            assert lines == full_lines[: hits[0] + 1]
            ends.add("hit")
        else:
            assert lines == full_lines
            ends.add(full.end_reason)
    assert "hit" in ends and len(ends) > 1  # hits and censored replications both occur


def test_fmt_canonicalizes(capsys, tmp_path):
    f = tmp_path / "messy.gsts"
    f.write_text(
        "model m {  var x :   {a,b} init a;\n"
        "timed t rate 1.0 when x==a -> {x:=b;};}"
    )
    code, out, _ = run(capsys, "fmt", str(f))
    assert code == 0
    assert out.startswith("model m {")
    # In-place formatting is idempotent.
    code, _, _ = run(capsys, "fmt", str(f), "--in-place")
    assert code == 0
    assert f.read_text() == out
    code, out2, _ = run(capsys, "fmt", str(f))
    assert out2 == out


def test_fmt_in_place_and_out_are_exclusive(capsys, tmp_path):
    f = tmp_path / "m.gsts"
    f.write_text("model m { var x : {a,b} init a;\n"
                 "timed t rate 1.0 when x==a -> {x:=b;};}")
    before = f.read_text()
    out = tmp_path / "out.gsts"
    code, _, err = run(capsys, "fmt", str(f), "--in-place", "--out", str(out))
    assert code == 64 and "--out" in err
    assert f.read_text() == before and not out.exists()


def test_fmt_shipped_models_are_canonical(capsys):
    import pathlib

    for p in sorted((pathlib.Path(__file__).parent.parent / "models").glob("*.gsts")):
        code, out, _ = run(capsys, "fmt", str(p))
        assert code == 0
        assert out == p.read_text(encoding="utf-8")


def test_solve_from_gsts_file_matches_builtin(capsys):
    import pathlib

    path = pathlib.Path(__file__).parent.parent / "models" / "accidental.gsts"
    _, from_file, _ = run(capsys, "solve", "--model", str(path),
                          "--measure", "steady", "--label-prob", "state1",
                          "--format", "json")
    _, from_builtin, _ = run(capsys, "solve", "--model", "accidental",
                             "--measure", "steady", "--label-prob", "state1",
                             "--format", "json")
    assert json.loads(from_file)[0]["value"] == json.loads(from_builtin)[0]["value"]
