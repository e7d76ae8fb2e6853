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
its value.  The firing rule runs once per class, on the first state seen
in it, and fills one row of a per-model table (``_CompiledModel.row``).
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

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IntDomain:
    lo: int
    hi: int

    def __contains__(self, v) -> bool:
        return isinstance(v, int) and self.lo <= v <= self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return max(0, self.hi - self.lo + 1)


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
    truth value cannot be decided.  Used by validation to project guards
    onto a single counter.
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


def guard_variables(guard: Guard) -> set[str]:
    if isinstance(guard, Comparison):
        return {guard.var}
    if isinstance(guard, (And, Or)):
        out: set[str] = set()
        for t in guard.terms:
            out |= guard_variables(t)
        return out
    if isinstance(guard, Not):
        return guard_variables(guard.term)
    raise TypeError(f"not a guard node: {guard!r}")


def compile_guard(guard: Guard, index: Mapping[str, int]) -> Callable[[StateVector], bool]:
    """Close the guard over tuple indices for fast repeated evaluation."""
    if isinstance(guard, Comparison):
        i = index[guard.var]
        v = guard.value
        op = guard.op
        if op == "==":
            return lambda s: s[i] == v
        if op == "!=":
            return lambda s: s[i] != v
        if op == "<":
            return lambda s: s[i] < v
        if op == "<=":
            return lambda s: s[i] <= v
        if op == ">":
            return lambda s: s[i] > v
        return lambda s: s[i] >= v
    if isinstance(guard, And):
        fns = tuple(compile_guard(t, index) for t in guard.terms)
        return lambda s: all(f(s) for f in fns)
    if isinstance(guard, Or):
        fns = tuple(compile_guard(t, index) for t in guard.terms)
        return lambda s: any(f(s) for f in fns)
    if isinstance(guard, Not):
        f = compile_guard(guard.term, index)
        return lambda s: not f(s)
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


def guard_cuts(model: Model) -> dict[str, tuple[int, ...]]:
    """Each variable the transition guards and label predicates mention,
    with its sorted cut points (none for an enum): a counter's guard class
    is ``bisect_right(cuts, value)``."""
    cuts: dict[str, set[int]] = {}
    for guard in [t.guard for t in model.transitions] + [l.predicate for l in model.labels]:
        for c in guard_comparisons(guard):
            i = model.var_index.get(c.var)
            if i is not None:
                points = cuts.setdefault(c.var, set())
                if isinstance(model.variables[i].domain, IntDomain):
                    points.update(_cut_points(c.value))
    return {var: tuple(sorted(points)) for var, points in cuts.items()}


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

    def domain_size(self) -> int:
        n = 1
        for v in self.variables:
            n *= len(v.domain)
        return n

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
    """Per-model compiled guard/update closures and the firing table."""

    def __init__(self, model: Model):
        index = model.var_index
        self.transitions = model.transitions
        self.parameters = model.parameters
        self.guards = tuple(compile_guard(t.guard, index) for t in model.transitions)
        self.updates = tuple(_compile_update(t.update, model) for t in model.transitions)
        self.label_guards = {
            l.name: compile_guard(l.predicate, index) for l in model.labels
        }
        self.immediate_idx = tuple(
            i for i, t in enumerate(model.transitions) if not t.is_timed
        )
        self.timed_idx = tuple(i for i, t in enumerate(model.transitions) if t.is_timed)
        self.priority = tuple(
            None if t.is_timed else t.kind.priority for t in model.transitions
        )
        self.index_by_name = {t.name: i for i, t in enumerate(model.transitions)}
        # (tuple index, cut points) of each variable the class depends on;
        # None stands for an enum, whose class is its value.  A counter
        # without cut points has one class.
        self.class_parts = tuple(
            (index[var], None if isinstance(model.variable(var).domain, EnumDomain) else cuts)
            for var, cuts in guard_cuts(model).items()
            if cuts or isinstance(model.variable(var).domain, EnumDomain)
        )
        self.table: dict[tuple, FiringRow] = {}

    def class_key(self, s: StateVector) -> tuple:
        return tuple(
            [s[i] if cuts is None else bisect_right(cuts, s[i]) for i, cuts in self.class_parts]
        )

    def row(self, s: StateVector) -> FiringRow:
        """The row of ``s``'s guard class, filled from ``s`` on first use."""
        key = self.class_key(s)
        row = self.table.get(key)
        if row is None:
            row = self.table[key] = self._fill(s)
        return row

    def _fill(self, s: StateVector) -> FiringRow:
        """The GSPN firing rule in ``s``, with its payload and the labels.

        If any immediate guard holds, the state is vanishing and the chosen
        transitions are its enabled immediates of maximal priority;
        otherwise they are its enabled timed transitions.
        """
        guards, transitions = self.guards, self.transitions
        labels = tuple(fn(s) for fn in self.label_guards.values())
        imm = [i for i in self.immediate_idx if guards[i](s)]
        if imm:
            top = max(self.priority[i] for i in imm)
            chosen = tuple(i for i in imm if self.priority[i] == top)
            weights = [transitions[i].kind.weight for i in chosen]
            total = sum(weights)
            return FiringRow(
                True,
                chosen,
                tuple(w / total for w in weights),
                tuple(acc / total for acc in accumulate(weights, initial=0.0))[1:],
                labels,
            )
        chosen = tuple(i for i in self.timed_idx if guards[i](s))
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
    comp = model._compiled
    idx = comp.index_by_name.get(t.name)
    if idx is None or model.transitions[idx] != t:
        raise GuardViolation(f"transition {t.name!r} is not part of model {model.name!r}")
    if not comp.guards[idx](s):
        raise GuardViolation(
            f"guard of {t.name!r} does not hold in state ({model.format_state(s)})"
        )
    return comp.updates[idx](s)


def is_vanishing(model: Model, s: StateVector) -> bool:
    return model._compiled.row(s).vanishing
