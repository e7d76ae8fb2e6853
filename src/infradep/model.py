"""Core model formalism: finite guarded stochastic transition systems.

A model is a set of typed variables (enumerations and bounded integer
counters), a parameter table, and a list of guarded transitions that are
either timed (exponential rate) or immediate (priority + weight).  States
are plain tuples holding one value per variable in declaration order, so
they hash cheaply and are trivially immutable.

Firing semantics follow the usual GSPN convention: if any immediate
transition is enabled in a state, the immediates of maximal priority
preempt everything else and the state is *vanishing*; otherwise the state
is *tangible* and the enabled timed transitions race with exponential
delays.

Guards only compare one variable with a literal, so states fall into
*guard classes* on which every comparison, and so every guard, firing
result and label, is constant.  An enum's class is its value.  A counter
compared with the integer ``v`` somewhere in the model has the cut points
``v`` and ``v + 1``, and its class is the number of cut points at or below
its value.  One interpreter, ``eval_guard_kleene``, evaluates every
guard.  The firing rule runs it once per class, on the first state seen in
it, and fills one row of a per-model table.  The table interns its rows:
each class gets a dense row id (``_CompiledModel.row_id``), so that the
explorer can record one integer per state and derive the edges, the state
kinds and the label sets from the rows afterwards, while the simulator
reads a state's row directly (``_CompiledModel.row``).  The explorer
indexes states by an integer code (``_CompiledModel.encode``) and follows
each row's per-transition code steps (``_CompiledModel.fill_steps``).
``guard_predicate`` caches any other guard's truth per class of that
guard's own literals, and validation runs it on partial assignments.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from .errors import GuardViolation, OutOfDomainError

StateVector = tuple
Value = Union[str, int]

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

TRANSITION_TAGS = frozenset(
    {"cascading", "escalating", "common_cause", "restoration", "attack", "internal"}
)


# ---------------------------------------------------------------------------
# Variable domains


@dataclass(frozen=True)
class EnumDomain:
    values: tuple[str, ...]

    def __contains__(self, v) -> bool:
        return v in self.values

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)


@dataclass(frozen=True)
class IntDomain:
    lo: int
    hi: int

    def __contains__(self, v) -> bool:
        return isinstance(v, int) and self.lo <= v <= self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))


Domain = Union[EnumDomain, IntDomain]


@dataclass(frozen=True)
class VariableDecl:
    name: str
    domain: Domain
    init: Value


# ---------------------------------------------------------------------------
# Guards

# Guards are boolean expressions over single-variable comparisons against
# literals.  ``And``/``Or`` are n-ary; nesting of the same connective is
# only produced by explicit parentheses in the DSL.


@dataclass(frozen=True)
class Comparison:
    var: str
    op: str
    value: Value


@dataclass(frozen=True)
class And:
    terms: tuple


@dataclass(frozen=True)
class Or:
    terms: tuple


@dataclass(frozen=True)
class Not:
    term: object


Guard = Union[Comparison, And, Or, Not]


def var_eq(var: str, value: Value) -> Comparison:
    return Comparison(var, "==", value)


def var_ne(var: str, value: Value) -> Comparison:
    return Comparison(var, "!=", value)


def var_in(var: str, values) -> Guard:
    """Membership test, expanded to a disjunction of equalities."""
    values = tuple(values)
    if len(values) == 1:
        return var_eq(var, values[0])
    return Or(tuple(var_eq(var, v) for v in values))


def g_and(*terms: Guard) -> Guard:
    flat: list = []
    for t in terms:
        flat.extend(t.terms) if isinstance(t, And) else flat.append(t)
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def g_or(*terms: Guard) -> Guard:
    flat: list = []
    for t in terms:
        flat.extend(t.terms) if isinstance(t, Or) else flat.append(t)
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


def g_not(term: Guard) -> Guard:
    return Not(term)


_CMP_FNS: dict[str, Callable] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_guard_kleene(guard: Guard, partial: Mapping[str, Value]) -> bool | None:
    """Three-valued evaluation under a partial assignment.

    Variables absent from ``partial`` are unknown; returns None when the
    truth value cannot be decided.  This is the one guard evaluator: the
    firing table and ``guard_predicate`` run it on a full assignment (one
    state per guard class), where it always returns True or False, and
    validation on partial ones.
    """
    if isinstance(guard, Comparison):
        if guard.var not in partial:
            return None
        return _CMP_FNS[guard.op](partial[guard.var], guard.value)
    if isinstance(guard, And):
        seen_unknown = False
        for t in guard.terms:
            v = eval_guard_kleene(t, partial)
            if v is False:
                return False
            if v is None:
                seen_unknown = True
        return None if seen_unknown else True
    if isinstance(guard, Or):
        seen_unknown = False
        for t in guard.terms:
            v = eval_guard_kleene(t, partial)
            if v is True:
                return True
            if v is None:
                seen_unknown = True
        return None if seen_unknown else False
    if isinstance(guard, Not):
        v = eval_guard_kleene(guard.term, partial)
        return None if v is None else not v
    raise TypeError(f"not a guard node: {guard!r}")


def _cut_points(value) -> tuple:
    """Where ``x <op> value`` can change truth as the integer ``x`` grows.

    Every comparison with an integral ``v`` is constant below ``v``, at
    ``v`` and from ``v + 1``; one with a non-integral real is constant on
    either side of its ceiling.  A comparison with any other literal is
    constant (``==``, ``!=``, an infinity) or raises on every value.
    """
    if isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)):
        c = math.ceil(value)
        return (c, c + 1)
    return ()


def guard_cuts(model: Model, guards=None) -> dict[str, tuple[int, ...]]:
    """Each variable ``guards`` mention (default: every transition guard and
    label predicate), with its sorted cut points (none for an enum): a
    counter's guard class is ``bisect_right(cuts, value)``.

    Raises ``KeyError`` on a variable the model does not declare.
    """
    if guards is None:
        guards = [t.guard for t in model.transitions] + [l.predicate for l in model.labels]
    cuts: dict[str, set[int]] = {}
    for guard in guards:
        for c in guard_comparisons(guard):
            points = cuts.setdefault(c.var, set())
            if isinstance(model.variables[model.var_index[c.var]].domain, IntDomain):
                points.update(_cut_points(c.value))
    return {var: tuple(sorted(points)) for var, points in cuts.items()}


def _class_parts(model: Model, guards=None) -> tuple[tuple[int, tuple | None], ...]:
    """The variables that decide a state's guard class under ``guards``
    (default: every transition guard and label predicate), as pairs of a
    variable index and None for an enum they compare or the cut points of
    a counter.  A counter without cut points has one class and is left out."""
    return tuple(
        (model.var_index[var], None if isinstance(model.variable(var).domain, EnumDomain) else cuts)
        for var, cuts in guard_cuts(model, guards).items()
        if cuts or isinstance(model.variable(var).domain, EnumDomain)
    )


def _class_key(parts) -> Callable[[StateVector], tuple]:
    """The function from a state to its guard class under ``_class_parts``:
    the value of each enum, and the ``bisect_right`` position of each
    counter among its cut points."""
    return lambda s: tuple([s[i] if cuts is None else bisect_right(cuts, s[i]) for i, cuts in parts])


def guard_predicate(model: Model, guard: Guard) -> Callable[[StateVector], bool]:
    """``guard`` as a predicate on the model's states.

    The guard is interpreted once per class of its own literals' cut
    points, on the first state asked about in that class, and the answer
    is cached for the rest of the class.
    """
    class_key = _class_key(_class_parts(model, [guard]))
    names = tuple(v.name for v in model.variables)
    truth: dict[tuple, bool] = {}

    def holds(s: StateVector) -> bool:
        key = class_key(s)
        got = truth.get(key)
        if got is None:
            got = truth[key] = eval_guard_kleene(guard, dict(zip(names, s)))
        return got

    return holds


def guard_comparisons(guard: Guard) -> Iterator[Comparison]:
    if isinstance(guard, Comparison):
        yield guard
    elif isinstance(guard, (And, Or)):
        for t in guard.terms:
            yield from guard_comparisons(t)
    elif isinstance(guard, Not):
        yield from guard_comparisons(guard.term)


# ---------------------------------------------------------------------------
# Updates


@dataclass(frozen=True)
class SetValue:
    """Assignment ``var := literal``."""

    var: str
    value: Value


@dataclass(frozen=True)
class Shift:
    """Assignment ``var := var + delta`` with delta in {+1, -1}."""

    var: str
    delta: int


Assignment = Union[SetValue, Shift]
Update = tuple


# ---------------------------------------------------------------------------
# Transitions and labels


@dataclass(frozen=True)
class RateExpr:
    """Rate of a timed transition: ``coeff`` or ``coeff * parameter``."""

    coeff: float
    param: str | None = None

    def value(self, parameters: Mapping[str, float]) -> float:
        if self.param is None:
            return self.coeff
        return self.coeff * parameters[self.param]


@dataclass(frozen=True)
class Timed:
    rate: RateExpr


@dataclass(frozen=True)
class Immediate:
    priority: int
    weight: float


@dataclass(frozen=True)
class Transition:
    name: str
    kind: Union[Timed, Immediate]
    guard: Guard
    update: Update
    tags: frozenset = frozenset()

    @property
    def is_timed(self) -> bool:
        return isinstance(self.kind, Timed)


@dataclass(frozen=True)
class Label:
    name: str
    predicate: Guard


# ---------------------------------------------------------------------------
# Model


@dataclass(frozen=True)
class Model:
    name: str
    variables: tuple[VariableDecl, ...]
    parameters: dict[str, float]
    transitions: tuple[Transition, ...]
    labels: tuple[Label, ...] = ()

    @cached_property
    def var_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def label_map(self) -> dict[str, Label]:
        return {l.name: l for l in self.labels}

    @cached_property
    def transition_map(self) -> dict[str, Transition]:
        return {t.name: t for t in self.transitions}

    @cached_property
    def _compiled(self) -> "_CompiledModel":
        return _CompiledModel(self)

    def variable(self, name: str) -> VariableDecl:
        return self.variables[self.var_index[name]]

    def rate_of(self, t: Transition) -> float:
        assert isinstance(t.kind, Timed)
        return t.kind.rate.value(self.parameters)

    def format_state(self, s: StateVector) -> str:
        return ", ".join(f"{v.name}={s[i]}" for i, v in enumerate(self.variables))

    def state_in_domain(self, s: StateVector) -> bool:
        if len(s) != len(self.variables):
            return False
        return all(s[i] in v.domain for i, v in enumerate(self.variables))

    def domain_product(self) -> Iterator[StateVector]:
        """All points of the variable-domain product, in lexicographic order."""
        import itertools

        return itertools.product(*(tuple(v.domain) for v in self.variables))


class FiringRow(NamedTuple):
    """The firing rule and the labels on one guard class."""

    vanishing: bool
    chosen: tuple[int, ...]  # transition indices, in declaration order
    values: tuple  # w / sum(w) of each chosen immediate, or each timed rate
    cumulative: tuple[float, ...]  # running weight sums / sum(w); vanishing rows only
    labels: tuple[bool, ...]  # each label's truth, in declaration order


class _CompiledModel:
    """Per-model update closures, the firing table, whose rows the guard
    interpreter fills once per guard class, and the integer coding of states.

    ``table`` maps a class key to its row id, an index into ``rows``; ids
    are dense, in the order the classes were first met, and never change.

    A state's code is a mixed radix over its variables' domain positions
    (an enum value's index, a counter's value minus its lower bound), so
    that an update which moves every state of a class by the same
    positions adds one constant to the code.  ``steps[rid]`` is None until
    ``fill_steps`` sets it to one ``[transition, delta, target_row]`` per
    chosen transition of row ``rid``: ``delta`` is that constant, or None
    where the update is not constant on the class or may leave the domain;
    ``target_row`` is -1 where the class fixes the target's class (the
    explorer stores the row id there when it first meets a target), else
    None.  Codes are Python ints: a domain product can pass 2^63.
    """

    def __init__(self, model: Model):
        self.transitions = model.transitions
        self.parameters = model.parameters
        self.names = tuple(v.name for v in model.variables)
        self.labels = model.labels
        self.updates = tuple(_compile_update(t.update, model) for t in model.transitions)
        parts = _class_parts(model)
        self.class_key = _class_key(parts)
        self.classed = dict(parts)
        self.table: dict[tuple, int] = {}
        self.rows: list[FiringRow] = []
        self.steps: list[list | None] = []
        # Per variable: (place value, enum value -> position or None, lo, hi),
        # with lo, hi the range of positions (an enum's) or of values.
        digits, weight = [], 1
        for v in model.variables:
            dom = v.domain
            if isinstance(dom, EnumDomain):
                positions = {x: p for p, x in enumerate(dom.values)}
                digits.append((weight, positions, 0, len(dom.values) - 1))
            else:
                digits.append((weight, None, dom.lo, dom.hi))
            weight *= digits[-1][3] - digits[-1][2] + 1
        self.digits = tuple(digits)
        self.plans = tuple(self._plan(t.update, model.var_index) for t in model.transitions)

    def row_id(self, s: StateVector) -> int:
        """The id of ``s``'s guard-class row, filled from ``s`` on first use."""
        key = self.class_key(s)
        rid = self.table.get(key)
        if rid is None:
            self.rows.append(self._fill(s))
            self.steps.append(None)
            rid = self.table[key] = len(self.rows) - 1
        return rid

    def _position(self, i: int, x) -> int | None:
        """Value ``x``'s position in variable ``i``'s domain; None outside it."""
        _, values, lo, hi = self.digits[i]
        if values is not None:
            return values.get(x)
        return x - lo if isinstance(x, int) and lo <= x <= hi else None

    def encode(self, s: StateVector) -> int:
        """The code of ``s``; raises ``OutOfDomainError`` on a value outside
        its variable's domain."""
        code = 0
        for i, x in enumerate(s):
            p = self._position(i, x)
            if p is None:
                raise OutOfDomainError(f"{self.names[i]} = {x!r} is outside its domain")
            code += p * self.digits[i][0]
        return code

    def _span(self, i: int, x) -> tuple[int, int]:
        """The positions variable ``i`` takes over the guard class of a state
        in which it holds the in-domain value ``x``."""
        _, values, lo, hi = self.digits[i]
        if i not in self.classed:
            return 0, hi - lo
        cuts = self.classed[i]
        if cuts is None:
            return (values[x],) * 2
        k = bisect_right(cuts, x)
        a = max(lo, cuts[k - 1]) if k else lo
        b = min(hi, cuts[k] - 1) if k < len(cuts) else hi
        return a - lo, b - lo

    def _plan(self, update: Update, var_index: Mapping[str, int]):
        """What of ``update``'s code step is known before the class: whether
        it shifts no counter that has cut points, and per assignment its
        variable, its literal's position (None for a shift or a literal
        outside the domain) and its shift.  An update that assigns a
        variable twice (the second assignment then sees the first one's
        result) gets ``(False, None)``: no constant step."""
        ops = []
        for a in update:
            i = var_index[a.var]
            if any(i == op[0] for op in ops):
                return False, None
            if isinstance(a, SetValue):
                ops.append((i, self._position(i, a.value), None))
            else:
                ops.append((i, None, a.delta))
        return not any(shift and i in self.classed for i, _, shift in ops), tuple(ops)

    def fill_steps(self, rid: int, s: StateVector) -> list:
        """Set and return ``steps[rid]``, from ``s``, an in-domain state of
        row ``rid``'s class."""
        steps = self.steps[rid] = []
        for ti in self.rows[rid].chosen:
            fixed, ops = self.plans[ti]
            delta = None if ops is None else 0
            for i, p, shift in ops or ():
                weight, _, lo, hi = self.digits[i]
                first, last = self._span(i, s[i])
                if shift is None:
                    step = None if p is None or first != last else (p - first) * weight
                else:
                    in_range = 0 <= first + shift and last + shift <= hi - lo
                    step = shift * weight if in_range else None
                if step is None:
                    delta = None
                    break
                delta += step
            steps.append([ti, delta, -1 if fixed else None])
        return steps

    def row(self, s: StateVector) -> FiringRow:
        """The row of ``s``'s guard class, filled from ``s`` on first use."""
        return self.rows[self.row_id(s)]

    def _fill(self, s: StateVector) -> FiringRow:
        """The GSPN firing rule in ``s``, with its payload and the labels.

        If any immediate guard holds, the state is vanishing and the chosen
        transitions are its enabled immediates of maximal priority;
        otherwise they are its enabled timed transitions.
        """
        point = dict(zip(self.names, s))
        transitions = self.transitions
        labels = tuple(eval_guard_kleene(l.predicate, point) for l in self.labels)
        enabled = [i for i, t in enumerate(transitions) if eval_guard_kleene(t.guard, point)]
        imm = [i for i in enabled if not transitions[i].is_timed]
        if imm:
            top = max(transitions[i].kind.priority for i in imm)
            chosen = tuple(i for i in imm if transitions[i].kind.priority == top)
            weights = [transitions[i].kind.weight for i in chosen]
            total = sum(weights)
            return FiringRow(
                True,
                chosen,
                tuple(w / total for w in weights),
                tuple(acc / total for acc in accumulate(weights, initial=0.0))[1:],
                labels,
            )
        chosen = tuple(enabled)
        rates = tuple(transitions[i].kind.rate.value(self.parameters) for i in chosen)
        return FiringRow(False, chosen, rates, (), labels)


def _compile_update(update: Update, model: Model) -> Callable[[StateVector], StateVector]:
    index = model.var_index
    ops = []
    for a in update:
        i = index[a.var]
        if isinstance(a, SetValue):
            ops.append((i, None, a.value))
        else:
            dom = model.variables[i].domain
            ops.append((i, a.delta, (dom.lo, dom.hi)))
    ops = tuple(ops)

    def apply(s: StateVector) -> StateVector:
        out = list(s)
        for i, delta, payload in ops:
            if delta is None:
                out[i] = payload
            else:
                nv = out[i] + delta
                lo, hi = payload
                if nv < lo or nv > hi:
                    raise OutOfDomainError(
                        f"counter update leaves [{lo}, {hi}]: value {nv}"
                    )
                out[i] = nv
        return tuple(out)

    return apply


# ---------------------------------------------------------------------------
# Operations


def initial_state(model: Model) -> StateVector:
    """State holding every variable's declared init, in declaration order."""
    return tuple(v.init for v in model.variables)


def enabled_transitions(model: Model, s: StateVector) -> list[Transition]:
    """Transitions enabled in ``s`` under GSPN preemption, in declaration order."""
    return [model.transitions[i] for i in model._compiled.row(s).chosen]


def apply_transition(model: Model, s: StateVector, t: Transition) -> StateVector:
    """Fire ``t`` in ``s``; pure, all unnamed variables pass through."""
    if t not in model.transitions:
        raise GuardViolation(f"transition {t.name!r} is not part of model {model.name!r}")
    comp = model._compiled
    if not eval_guard_kleene(t.guard, dict(zip(comp.names, s))):
        raise GuardViolation(
            f"guard of {t.name!r} does not hold in state ({model.format_state(s)})"
        )
    return comp.updates[model.transitions.index(t)](s)


def is_vanishing(model: Model, s: StateVector) -> bool:
    return model._compiled.row(s).vanishing
