"""Static validation of models.

Nothing here raises: all findings are returned as report entries with a
machine-readable code, so the DSL front end can re-attach them to source
positions and the CLI can print them uniformly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .model import (
    EnumDomain,
    Guard,
    Model,
    SetValue,
    Shift,
    Timed,
    TRANSITION_TAGS,
    eval_guard_kleene,
    guard_comparisons,
    guard_cuts,
)

# A guard's satisfiability scan is skipped when it would try more probes.
SAT_SCAN_LIMIT = 1_000_000


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    where: str
    span: object = None  # SourceSpan when the model came from the DSL


@dataclass
class ValidationReport:
    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, code: str, message: str, where: str, spans=None):
        self.errors.append(ValidationIssue(code, message, where, _span(spans, where)))

    def warn(self, code: str, message: str, where: str, spans=None):
        self.warnings.append(ValidationIssue(code, message, where, _span(spans, where)))


def _span(spans, where):
    return spans.get(where) if spans else None


def validate_model(model: Model, spans=None) -> ValidationReport:
    """Check all structural invariants of ``model``.

    ``spans`` optionally maps item keys like ``"transition cfg_overflow"``
    to source spans; matching issues carry them.
    """
    rep = ValidationReport()
    _check_declarations(model, rep, spans)
    if rep.errors:
        # Guard/update checks assume resolvable, well-typed declarations.
        return rep
    for t in model.transitions:
        where = f"transition {t.name}"
        _check_guard(model, t.guard, where, rep, spans)
        _check_update(model, t, where, rep, spans)
        _check_kind(model, t, where, rep, spans)
    for l in model.labels:
        _check_guard(model, l.predicate, f"label {l.name}", rep, spans)
    if not rep.errors:
        _check_update_domains(model, rep, spans)
        _check_guard_satisfiability(model, rep, spans)
    return rep


def _check_declarations(model: Model, rep: ValidationReport, spans):
    seen: set[str] = set()
    for v in model.variables:
        where = f"var {v.name}"
        if v.name in seen:
            rep.error("DUPLICATE_NAME", f"variable {v.name!r} declared twice", where, spans)
        seen.add(v.name)
        if isinstance(v.domain, EnumDomain):
            if not v.domain.values:
                rep.error("EMPTY_ENUM", f"enum variable {v.name!r} has no values", where, spans)
                continue
            if len(set(v.domain.values)) != len(v.domain.values):
                rep.error("DUPLICATE_NAME", f"enum {v.name!r} repeats a value", where, spans)
            if v.init not in v.domain:
                rep.error(
                    "BAD_INIT",
                    f"init {v.init!r} is not a value of enum {v.name!r}",
                    where,
                    spans,
                )
        else:
            if v.domain.lo > v.domain.hi:
                rep.error(
                    "BAD_INIT",
                    f"counter {v.name!r} has empty range [{v.domain.lo}, {v.domain.hi}]",
                    where,
                    spans,
                )
            elif v.init not in v.domain:
                rep.error(
                    "BAD_INIT",
                    f"init {v.init!r} outside [{v.domain.lo}, {v.domain.hi}] of {v.name!r}",
                    where,
                    spans,
                )

    for name, value in model.parameters.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            rep.error(
                "INVALID_PARAM",
                f"parameter {name!r} must be a positive finite real, got {value!r}",
                f"param {name}",
                spans,
            )

    if not model.transitions:
        rep.error("NO_TRANSITIONS", "model declares no transition", f"model {model.name}", spans)

    seen = set()
    for t in model.transitions:
        if t.name in seen:
            rep.error(
                "DUPLICATE_NAME",
                f"transition {t.name!r} declared twice",
                f"transition {t.name}",
                spans,
            )
        seen.add(t.name)

    seen = set()
    for l in model.labels:
        if l.name in seen:
            rep.error(
                "DUPLICATE_NAME", f"label {l.name!r} declared twice", f"label {l.name}", spans
            )
        seen.add(l.name)


def _check_guard(model: Model, guard: Guard, where: str, rep: ValidationReport, spans):
    for cmp_ in guard_comparisons(guard):
        v = model.var_index.get(cmp_.var)
        if v is None:
            rep.error(
                "UNDECLARED_IDENT",
                f"guard references undeclared variable {cmp_.var!r}",
                where,
                spans,
            )
            continue
        dom = model.variables[v].domain
        if isinstance(dom, EnumDomain):
            if cmp_.op not in ("==", "!="):
                rep.error(
                    "TYPE_MISMATCH",
                    f"enum variable {cmp_.var!r} compared with {cmp_.op!r}",
                    where,
                    spans,
                )
            if cmp_.value not in dom:
                rep.error(
                    "TYPE_MISMATCH",
                    f"{cmp_.value!r} is not a value of enum {cmp_.var!r}",
                    where,
                    spans,
                )
        else:
            if not isinstance(cmp_.value, int):
                rep.error(
                    "TYPE_MISMATCH",
                    f"counter {cmp_.var!r} compared against non-integer {cmp_.value!r}",
                    where,
                    spans,
                )


def _check_update(model: Model, t, where: str, rep: ValidationReport, spans):
    assigned: set[str] = set()
    for a in t.update:
        if a.var in assigned:
            rep.error(
                "DUPLICATE_ASSIGNMENT",
                f"variable {a.var!r} assigned twice in one update",
                where,
                spans,
            )
        assigned.add(a.var)
        vi = model.var_index.get(a.var)
        if vi is None:
            rep.error(
                "UNDECLARED_IDENT",
                f"update assigns undeclared variable {a.var!r}",
                where,
                spans,
            )
            continue
        dom = model.variables[vi].domain
        if isinstance(a, SetValue):
            if isinstance(dom, EnumDomain):
                if a.value not in dom:
                    rep.error(
                        "TYPE_MISMATCH",
                        f"{a.value!r} is not a value of enum {a.var!r}",
                        where,
                        spans,
                    )
            else:
                if not isinstance(a.value, int):
                    rep.error(
                        "TYPE_MISMATCH",
                        f"counter {a.var!r} assigned non-integer {a.value!r}",
                        where,
                        spans,
                    )
                elif a.value not in dom:
                    rep.error(
                        "OUT_OF_DOMAIN_UPDATE",
                        f"assignment {a.var} := {a.value} leaves [{dom.lo}, {dom.hi}]",
                        where,
                        spans,
                    )
        else:  # Shift
            if isinstance(dom, EnumDomain):
                rep.error(
                    "TYPE_MISMATCH",
                    f"enum variable {a.var!r} cannot be incremented",
                    where,
                    spans,
                )
            elif a.delta not in (1, -1):
                rep.error(
                    "TYPE_MISMATCH",
                    f"increment of {a.var!r} must be +1 or -1, got {a.delta}",
                    where,
                    spans,
                )


def _check_kind(model: Model, t, where: str, rep: ValidationReport, spans):
    if isinstance(t.kind, Timed):
        r = t.kind.rate
        if r.param is not None and r.param not in model.parameters:
            rep.error(
                "UNDECLARED_IDENT",
                f"rate references undeclared parameter {r.param!r}",
                where,
                spans,
            )
        else:
            value = r.value(model.parameters)
            if not (math.isfinite(value) and value > 0):
                rep.error(
                    "INVALID_RATE",
                    f"timed rate must be positive and finite after substitution, got {value}",
                    where,
                    spans,
                )
    else:
        if t.kind.priority < 0:
            rep.error(
                "INVALID_PARAM", f"immediate priority must be >= 0", where, spans
            )
        if not t.kind.weight > 0:
            rep.error(
                "INVALID_WEIGHT",
                f"immediate weight must be positive, got {t.kind.weight}",
                where,
                spans,
            )
    for tag in t.tags:
        if tag not in TRANSITION_TAGS:
            rep.error(
                "UNKNOWN_TAG",
                f"unknown tag {tag!r}; expected one of {sorted(TRANSITION_TAGS)}",
                where,
                spans,
            )


def _check_update_domains(model: Model, rep: ValidationReport, spans):
    """Interval analysis: counter shifts must stay in range under the guard.

    A shift by +1 leaves the counter's range only from ``hi``, and one by
    -1 only from ``lo``.  Projects the guard onto that counter value with
    three-valued evaluation (all other variables unknown); unless the
    projection excludes it, the update can leave the range.  Sound and
    exact for the single-variable range constraints the guard language can
    express.
    """
    for t in model.transitions:
        where = f"transition {t.name}"
        for a in t.update:
            if not isinstance(a, Shift):
                continue
            dom = model.variables[model.var_index[a.var]].domain
            v = dom.hi if a.delta > 0 else dom.lo
            if eval_guard_kleene(t.guard, {a.var: v}) is not False:
                rep.error(
                    "OUT_OF_DOMAIN_UPDATE",
                    f"{a.var} := {a.var} {'+' if a.delta > 0 else '-'} 1 can leave "
                    f"[{dom.lo}, {dom.hi}] (guard admits {a.var}={v})",
                    where,
                    spans,
                )


def _check_guard_satisfiability(model: Model, rep: ValidationReport, spans):
    """Warn about guards no state satisfies, trying one value per guard class
    of each variable the guard mentions (the guard is constant on a class
    of its own cut points; the other variables are free)."""
    for t in model.transitions:
        names, classes = [], []
        for var, cuts in guard_cuts(model, [t.guard]).items():
            dom = model.variable(var).domain
            names.append(var)
            if isinstance(dom, EnumDomain):
                classes.append(dom.values)
            else:
                classes.append((dom.lo,) + tuple(c for c in cuts if dom.lo < c <= dom.hi))
        if not names or math.prod(map(len, classes)) > SAT_SCAN_LIMIT:
            continue
        if not any(
            eval_guard_kleene(t.guard, dict(zip(names, combo))) is True
            for combo in itertools.product(*classes)
        ):
            rep.warn(
                "UNSATISFIABLE_GUARD",
                f"guard of {t.name!r} is unsatisfiable over the variable domains",
                f"transition {t.name}",
                spans,
            )
