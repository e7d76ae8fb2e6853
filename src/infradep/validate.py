"""Static validation of models.

This is the one model checker: every name, type and domain check lives
here, and the DSL front end builds its model without checking and asks
``validate_model`` instead.  ``validate_model`` does not raise: all
findings are returned as report entries with a machine-readable code, so
the CLI can print them uniformly.  The report owns the front end's map of
source spans, when there is one, and places each finding at its span as
it is recorded; the checks only name the item and the offending word.
``require_valid`` is the one gate for code that needs a valid model, the
explorer and the simulator: it raises ``InvalidModelError`` carrying the
report.  ``validate_model`` records its report on the model it checked
(in the instance ``__dict__``, as ``cached_property`` stores), and the
gate and the CLI read it through ``validation_report``, which validates
only a model that has none yet, so that a model is checked once
however many stages it passes.  A ``dataclasses.replace``
copy is a new model and is checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidModelError
from .model import (
    EnumDomain,
    Guard,
    Model,
    SetValue,
    Shift,
    Timed,
    TRANSITION_TAGS,
    class_values,
    eval_guard_kleene,
    eval_guards,
    guard_comparisons,
    guard_cuts,
)

# A guard's satisfiability scan is skipped over more points than this.
SAT_SCAN_LIMIT = 1_000_000


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    where: str
    span: object = None  # SourceSpan when the model came from the DSL


@dataclass
class ValidationReport:
    """Findings, and the source spans they are placed at.

    ``spans`` maps item keys like ``"transition cfg_overflow"`` to the span
    of the item's name, and ``(item key, word)`` pairs to the span of that
    word in the item; it is None for a model that did not come from text.
    """

    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)
    spans: dict | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, code: str, message: str, where: str, at=None):
        """Record an error in item ``where``; ``at`` names the offending
        variable, value, parameter or tag, whose span is preferred."""
        self.errors.append(ValidationIssue(code, message, where, self._span(where, at)))

    def warn(self, code: str, message: str, where: str):
        self.warnings.append(ValidationIssue(code, message, where, self._span(where, None)))

    def _span(self, where, at):
        spans = self.spans
        if not spans:
            return None
        return (at is not None and spans.get((where, str(at)))) or spans.get(where)


def validate_model(model: Model, spans=None) -> ValidationReport:
    """Check all structural invariants of ``model``.

    ``spans``, if given, becomes the report's span map, so that each
    finding carries the source span of its word or item.  The report is
    also recorded on ``model`` for ``require_valid``.
    """
    rep = ValidationReport(spans=spans)
    _check_declarations(model, rep)
    # Guard/update checks assume resolvable, well-typed declarations.
    if not rep.errors:
        for t in model.transitions:
            where = f"transition {t.name}"
            check_guard(model, t.guard, where, rep)
            _check_update(model, t, where, rep)
            _check_kind(model, t, where, rep)
        for l in model.labels:
            check_guard(model, l.predicate, f"label {l.name}", rep)
    if not rep.errors:
        _check_weight_sum(model, rep)
        _check_update_domains(model, rep)
        _check_guard_satisfiability(model, rep)
    model.__dict__["_validation"] = rep
    return rep


def validation_report(model: Model) -> ValidationReport:
    """The report ``validate_model`` recorded on ``model`` (a parsed file's
    model carries its parse's), validating it only when there is none."""
    report = model.__dict__.get("_validation")
    return validate_model(model) if report is None else report


def require_valid(model: Model):
    """Raise ``InvalidModelError``, carrying the report and naming its first
    error, unless ``model`` validates (``validation_report``)."""
    report = validation_report(model)
    if not report.ok:
        first = report.errors[0]
        raise InvalidModelError(
            f"model {model.name!r} does not validate: "
            f"[{first.code}] {first.message} ({first.where})",
            report,
        )


def _check_declarations(model: Model, rep: ValidationReport):
    seen: set[str] = set()
    for v in model.variables:
        where = f"var {v.name}"
        if v.name in seen:
            rep.error("DUPLICATE_NAME", f"variable {v.name!r} declared twice", where)
        seen.add(v.name)
        if isinstance(v.domain, EnumDomain):
            if not v.domain.values:
                rep.error("EMPTY_ENUM", f"enum variable {v.name!r} has no values", where)
                continue
            if len(set(v.domain.values)) != len(v.domain.values):
                rep.error("DUPLICATE_NAME", f"enum {v.name!r} repeats a value", where)
            if v.init not in v.domain:
                rep.error(
                    "BAD_INIT",
                    f"init {v.init!r} is not a value of enum {v.name!r}",
                    where,
                    at=v.init,
                )
        else:
            if v.domain.lo > v.domain.hi:
                rep.error(
                    "BAD_INIT",
                    f"counter {v.name!r} has empty range [{v.domain.lo}, {v.domain.hi}]",
                    where,
                )
            elif v.init not in v.domain:
                rep.error(
                    "BAD_INIT",
                    f"init {v.init!r} outside [{v.domain.lo}, {v.domain.hi}] of {v.name!r}",
                    where,
                    at=v.init,
                )

    for name, value in model.parameters.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            rep.error(
                "INVALID_PARAM",
                f"parameter {name!r} must be a positive finite real, got {value!r}",
                f"param {name}",
            )

    if not model.transitions:
        rep.error("NO_TRANSITIONS", "model declares no transition", f"model {model.name}")

    seen = set()
    for t in model.transitions:
        if t.name in seen:
            rep.error(
                "DUPLICATE_NAME",
                f"transition {t.name!r} declared twice",
                f"transition {t.name}",
            )
        seen.add(t.name)

    seen = set()
    for l in model.labels:
        if l.name in seen:
            rep.error("DUPLICATE_NAME", f"label {l.name!r} declared twice", f"label {l.name}")
        seen.add(l.name)


def check_guard(model: Model, guard: Guard, where: str, rep: ValidationReport):
    """Check that each comparison of ``guard`` names a declared variable
    and a literal of its type; findings go to ``rep`` under ``where``."""
    for cmp_ in guard_comparisons(guard):
        v = model.var_index.get(cmp_.var)
        if v is None:
            rep.error(
                "UNDECLARED_IDENT",
                f"guard references undeclared variable {cmp_.var!r}",
                where,
                at=cmp_.var,
            )
            continue
        dom = model.variables[v].domain
        if isinstance(dom, EnumDomain):
            if cmp_.op not in ("==", "!="):
                rep.error(
                    "TYPE_MISMATCH",
                    f"enum variable {cmp_.var!r} compared with {cmp_.op!r}",
                    where,
                    at=cmp_.var,
                )
            if cmp_.value not in dom:
                rep.error(
                    "TYPE_MISMATCH",
                    f"{cmp_.value!r} is not a value of enum {cmp_.var!r}",
                    where,
                    at=cmp_.value,
                )
        else:
            if not isinstance(cmp_.value, int) or isinstance(cmp_.value, bool):
                rep.error(
                    "TYPE_MISMATCH",
                    f"counter {cmp_.var!r} compared against non-integer {cmp_.value!r}",
                    where,
                    at=cmp_.value,
                )


def _check_update(model: Model, t, where: str, rep: ValidationReport):
    assigned: set[str] = set()
    for a in t.update:
        if a.var in assigned:
            rep.error(
                "DUPLICATE_ASSIGNMENT",
                f"variable {a.var!r} assigned twice in one update",
                where,
                at=a.var,
            )
        assigned.add(a.var)
        vi = model.var_index.get(a.var)
        if vi is None:
            rep.error(
                "UNDECLARED_IDENT",
                f"update assigns undeclared variable {a.var!r}",
                where,
                at=a.var,
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
                        at=a.value,
                    )
            else:
                if not isinstance(a.value, int) or isinstance(a.value, bool):
                    rep.error(
                        "TYPE_MISMATCH",
                        f"counter {a.var!r} assigned non-integer {a.value!r}",
                        where,
                        at=a.value,
                    )
                elif a.value not in dom:
                    rep.error(
                        "OUT_OF_DOMAIN_UPDATE",
                        f"assignment {a.var} := {a.value} leaves [{dom.lo}, {dom.hi}]",
                        where,
                        at=a.value,
                    )
        else:  # Shift
            if isinstance(dom, EnumDomain):
                rep.error(
                    "TYPE_MISMATCH",
                    f"enum variable {a.var!r} cannot be incremented",
                    where,
                    at=a.var,
                )
            elif a.delta not in (1, -1):
                rep.error(
                    "TYPE_MISMATCH",
                    f"increment of {a.var!r} must be +1 or -1, got {a.delta}",
                    where,
                    at=a.var,
                )


def _check_kind(model: Model, t, where: str, rep: ValidationReport):
    if isinstance(t.kind, Timed):
        r = t.kind.rate
        if r.param is not None and r.param not in model.parameters:
            rep.error(
                "UNDECLARED_IDENT",
                f"rate references undeclared parameter {r.param!r}",
                where,
                at=r.param,
            )
        else:
            value = r.value(model.parameters)
            if not (math.isfinite(value) and value > 0):
                rep.error(
                    "INVALID_RATE",
                    f"timed rate must be positive and finite after substitution, got {value}",
                    where,
                )
    else:
        if t.kind.priority < 0:
            rep.error("INVALID_PARAM", f"immediate priority must be >= 0", where)
        if not t.kind.weight > 0:
            rep.error(
                "INVALID_WEIGHT",
                f"immediate weight must be positive, got {t.kind.weight}",
                where,
            )
        elif not math.isfinite(t.kind.weight):
            rep.error(
                "INVALID_WEIGHT", f"immediate weight must be finite, got {t.kind.weight}", where
            )
    for tag in sorted(t.tags):
        if tag not in TRANSITION_TAGS:
            rep.error(
                "UNKNOWN_TAG",
                f"unknown tag {tag!r}; expected one of {sorted(TRANSITION_TAGS)}",
                where,
                at=tag,
            )


def _check_weight_sum(model: Model, rep: ValidationReport):
    """The immediate weights must have a finite sum, so that every firing
    row's ``w / sum(w)`` is a probability."""
    total = sum(t.kind.weight for t in model.transitions if not t.is_timed)
    if not math.isfinite(total):
        rep.error(
            "INVALID_WEIGHT",
            f"immediate weights sum to {total}, which is not finite",
            f"model {model.name}",
        )


def _check_update_domains(model: Model, rep: ValidationReport):
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
                    at=a.var,
                )


def _check_guard_satisfiability(model: Model, rep: ValidationReport):
    """Warn about guards no state satisfies, evaluating each guard once over
    the product of one value per guard class of each variable it mentions
    (the guard is constant on a class of its own cut points; the other
    variables are free)."""
    for t in model.transitions:
        universe, size = {}, 1
        for var, cuts in guard_cuts(model, [t.guard]).items():
            values = class_values(model.variable(var).domain, cuts)
            universe[var] = (size, values)
            size *= len(values)
        if not universe or size > SAT_SCAN_LIMIT:
            continue
        ((true, _),) = eval_guards([t.guard], universe, size)
        if not true:
            rep.warn(
                "UNSATISFIABLE_GUARD",
                f"guard of {t.name!r} is unsatisfiable over the variable domains",
                f"transition {t.name}",
            )
