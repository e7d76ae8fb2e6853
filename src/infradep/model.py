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
its value.  One interpreter, ``eval_guards``, evaluates every guard at a
whole mixed radix of points at once, as a pair of bitsets.  The firing
table runs it once per *page* of guard classes, when the first class in
the page is met, and reads one row per class off the bits.  It interns
its rows: each class gets a dense row id (``_CompiledModel.row_id``).
States are indexed by an integer code (``_CompiledModel.encode``,
``decode``), and each row holds one code step per chosen transition
(``_CompiledModel.fill_steps``), read from the update's assignment ops
(``_CompiledModel.ops``), which gives every target's code and row from
its source's code.  The steps are plain data, a constant code delta plus
the digits of the variables set to a literal that the class does not
fix, because only a valid model (``validate_model``) is walked, on which
no update leaves its domain.  One walker, ``_Walk``, follows the steps:
explore runs it over every reachable state, and the simulator over each
state the first time it fires from it, so both find a successor by the
same rule.  Every state predicate is a label read off the rows, a guard
as the last label of a copy of the model (``_with_guard_label``).  The
firing table works on any model.  Validation reads guard satisfiability
off a one-page model's page (``_CompiledModel.page``), which explore then
finds evaluated, and runs ``eval_guard_kleene``, the interpreter at width
1, on partial assignments.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, islice
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from .errors import StateLimitExceeded

StateVector = tuple
Value = Union[str, int]

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

# The most guard classes the firing table evaluates at once (a page).
PAGE_CLASSES = 4096

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

    def __contains__(self, v) -> bool:  # a bool is no counter value
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

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


_CMP_FNS: dict[str, Callable] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_guards(guards, universe: Mapping[str, tuple[int, tuple]], size: int) -> list[tuple[int, int]]:
    """Three-valued evaluation of each of ``guards`` at all ``size`` points
    of a mixed radix at once (Bryant, IEEE TC 1986): bit ``p`` of the pair
    ``(true, false)`` is set where the guard holds or fails at point ``p``,
    and in neither where unknown variables leave it undecided.  ``universe``
    maps each known variable to ``(place, values)``: it holds
    ``values[p // place % len(values)]``, and ``size`` is a multiple of
    every ``place * len(values)``."""
    full, memo = (1 << size) - 1, {}

    def leaf(c: Comparison) -> tuple[int, int]:
        key = c.var, c.op, c.value
        if key in memo or c.var not in universe:
            return memo.get(key, (0, 0))
        place, values = universe[c.var]
        test, block, true = _CMP_FNS[c.op], (1 << place) - 1, 0
        for p, x in enumerate(values):
            if test(x, c.value):
                true |= block << p * place
        period = place * len(values)
        while period < size:
            true |= true << period
            period *= 2
        true &= full
        memo[key] = true, full ^ true
        return memo[key]

    return [_walk(g, leaf, full) for g in guards]


def _walk(g: Guard, leaf: Callable, full: int) -> tuple[int, int]:
    """One guard tree of ``eval_guards`` (not a closure, which would be a
    reference cycle), whose comparisons ``leaf`` evaluates."""
    if isinstance(g, Comparison):
        return leaf(g)
    if isinstance(g, Not):
        true, false = _walk(g.term, leaf, full)
        return false, true
    if isinstance(g, (And, Or)):
        # And meets the true sets and joins the false ones; Or, the reverse.
        flip = isinstance(g, Or)
        meet, join = full, 0
        for term in g.terms:
            pair = _walk(term, leaf, full)
            meet &= pair[flip]
            join |= pair[not flip]
        return (join, meet) if flip else (meet, join)
    raise TypeError(f"not a guard node: {g!r}")


def eval_guard_kleene(guard: Guard, partial: Mapping[str, Value]) -> bool | None:
    """``eval_guards`` at width 1: True or False, or None where the
    variables absent from ``partial`` leave ``guard`` undecided."""
    ((true, false),) = eval_guards([guard], {var: (1, (x,)) for var, x in partial.items()}, 1)
    return True if true else False if false else None


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


def class_values(domain: Domain, cuts: tuple) -> tuple:
    """One value per guard class of a variable with cut points ``cuts``, in
    class order: an enum's values, or a counter's lower bound and each cut
    point above it in its range."""
    if isinstance(domain, EnumDomain):
        return domain.values
    return (domain.lo,) + tuple(c for c in cuts if domain.lo < c <= domain.hi)


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
    def _compiled(self) -> "_CompiledModel":
        return _CompiledModel(self)

    def variable(self, name: str) -> VariableDecl:
        return self.variables[self.var_index[name]]

    def format_state(self, s: StateVector) -> str:
        return ", ".join(f"{v.name}={s[i]}" for i, v in enumerate(self.variables))


def _format_states(model: Model, states) -> str:
    """``states`` for a message, each one's ``format_state`` in parentheses."""
    return ", ".join(f"({model.format_state(s)})" for s in states)


def _with_guard_label(model: Model, guard: Guard) -> Model:
    """A copy of ``model`` (a new model, validated on its own) with ``guard``
    as its last label, named ``<guard>``, or ``<guard 2>``, ``<guard 3>``
    and so on where ``model`` has a label of that name already."""
    name, k = "<guard>", 1
    while name in model.label_map:
        k += 1
        name = f"<guard {k}>"
    return replace(model, labels=model.labels + (Label(name, guard),))


class FiringRow(NamedTuple):
    """The firing rule and the labels on one guard class."""

    vanishing: bool
    chosen: tuple[int, ...]  # transition indices, in declaration order
    values: tuple  # w / sum(w) of each chosen immediate, or each timed rate
    cumulative: tuple[float, ...]  # running weight sums / sum(w); vanishing rows only
    labels: tuple[bool, ...]  # each label's truth, in declaration order


class _CompiledModel:
    """Per-model updates, the firing table, whose rows are read off the
    guard interpreter's bitsets, and the integer coding of states.

    ``ops[t]`` is transition ``t``'s update, read once (``_read``), from
    which the code steps below come.

    ``table`` maps a class key to its row id, an index into ``rows``; ids
    are dense, in the order the classes were first met, and never change.
    The classes form a mixed radix over the classed variables (``axes``);
    a *page* is a run of classes that differ only in the low-order axes,
    at least one, of at most ``PAGE_CLASSES`` classes in all.  A page has
    every guard and label evaluated over it whole (``page``) when the first
    of its classes is met, or before, when validation reads a one-page
    model's guards off it, and ``_fill`` reads each row off the bits at its
    class's offset.
    The table works on any model, for the states of its domain product;
    the coding and the steps below assume a valid one (``validate_model``),
    as explore does.

    A state's code is a mixed radix over its variables' domain positions
    (an enum value's index, a counter's value minus its lower bound), so
    that an update which moves every state of a class by the same
    positions adds one constant to the code.  Codes are Python ints: a
    domain product (``size``) can pass 2^63.

    ``steps[rid]`` is None until ``fill_steps`` sets it to one
    ``(delta, resets, crossings, known)`` per chosen transition of row
    ``rid``, in the row's order.  On a valid model an update assigns each
    variable once, every literal lies in its domain, and a shift never
    leaves its range from a state its guard admits, so from none of the
    class.  Each shift, and each set of a variable the class fixes, moves
    every state of the class by the same positions: ``delta`` sums them.
    ``resets`` holds one ``(place value, radix, position)`` per set of a
    variable the class does not fix, whose digit a walk rewrites.  A
    target's class is fixed by the source's class and, for each counter
    that the update shifts, by whether the shifted value leaves the
    source's class, which the source's digit of that counter tells.
    ``crossings`` holds one ``(place value, radix, edge position, bit)``
    per shifted counter, the bit set where the digit sits at the class's
    edge in the direction of the shift, and ``known[bits]`` is the target
    row for that outcome, -1 until a walk first meets it.
    """

    def __init__(self, model: Model):
        self.transitions = model.transitions
        self.rates = tuple(t.kind.rate.value(model.parameters) if t.is_timed else None
                           for t in model.transitions)
        self.labels = model.labels
        self.guards = [t.guard for t in model.transitions] + [l.predicate for l in model.labels]
        # Each variable that decides a state's guard class, by index: None for
        # an enum, a counter's cut points (none: the counter has one class).
        self.classed = {
            model.var_index[var]: None if isinstance(model.variable(var).domain, EnumDomain) else cuts
            for var, cuts in guard_cuts(model).items()
        }
        # Per classed variable: its name, its key entry -> its digit, and one
        # value per class, which the guards see.
        self.axes = []
        for i, cuts in self.classed.items():
            values = class_values(model.variables[i].domain, cuts)
            keys = values if cuts is None else [bisect_right(cuts, x) for x in values]
            self.axes.append((model.variables[i].name, {k: d for d, k in enumerate(keys)}, values))
        self.places, self.page_size = [], 1  # a page's axes' place values, and its classes
        for _, _, values in self.axes:
            if self.places and self.page_size * len(values) > PAGE_CLASSES:
                break
            self.places.append(self.page_size)
            self.page_size *= len(values)
        self.pages: dict[tuple, list[int]] = {}  # each guard's, then label's, true set
        self.table: dict[tuple, int] = {}
        self.rows: list[FiringRow] = []
        self.steps: list[list | None] = []
        # Per variable: (place value, radix, value at each position).
        digits, weight = [], 1
        for v in model.variables:
            dom = v.domain
            if isinstance(dom, EnumDomain):
                digits.append((weight, len(dom.values), dom.values))
            else:
                digits.append((weight, dom.hi - dom.lo + 1, range(dom.lo, dom.hi + 1)))
            weight *= digits[-1][1]
        self.digits, self.size = tuple(digits), weight
        self.ops = tuple(self._read(t.update, model.var_index) for t in model.transitions)

    def class_key(self, s: StateVector) -> tuple:
        """The key of ``s``'s guard class: each enum's value and each
        counter's ``bisect_right`` among its cuts."""
        return tuple([s[i] if cuts is None else bisect_right(cuts, s[i]) for i, cuts in self.classed.items()])

    def row_id(self, s: StateVector) -> int:
        """The id of ``s``'s guard-class row (``class_key``), filled on first use."""
        key = self.class_key(s)
        rid = self.table.get(key)
        if rid is None:
            self.rows.append(self._fill(key))
            self.steps.append(None)
            rid = self.table[key] = len(self.rows) - 1
        return rid

    def encode(self, s: StateVector) -> int:
        """The code of ``s``."""
        return sum(table.index(x) * weight for (weight, _, table), x in zip(self.digits, s))

    def decode(self, code: int) -> StateVector:
        """The state whose code is ``code``."""
        out = []
        for _, radix, table in self.digits:
            out.append(table[code % radix])
            code //= radix
        return tuple(out)

    def _span(self, i: int, x) -> tuple[int, int]:
        """The positions variable ``i`` takes over the guard class of a state
        in which it holds the in-domain value ``x``."""
        _, radix, table = self.digits[i]
        if i not in self.classed:
            return 0, radix - 1
        cuts = self.classed[i]
        if cuts is None:
            return (table.index(x),) * 2
        lo, hi, k = table.start, table.stop - 1, bisect_right(cuts, x)
        a = max(lo, cuts[k - 1]) if k else lo
        b = min(hi, cuts[k] - 1) if k < len(cuts) else hi
        return a - lo, b - lo

    @staticmethod
    def _read(update: Update, index: Mapping[str, int]) -> tuple:
        """``update`` as one ``(variable index, literal, shift)`` per
        assignment: a ``SetValue`` has no shift, a ``Shift`` no literal."""
        return tuple((index[a.var], a.value, None) if isinstance(a, SetValue)
                     else (index[a.var], None, a.delta) for a in update)

    def fill_steps(self, rid: int, s: StateVector):
        """Set ``steps[rid]``, from ``s``, a state of row ``rid``'s class."""
        steps = self.steps[rid] = []
        digits, span = self.digits, self._span
        for ti in self.rows[rid].chosen:
            delta, resets, crossings = 0, [], []
            for i, value, shift in self.ops[ti]:
                weight, radix, table = digits[i]
                first, last = span(i, s[i])
                if shift is not None:
                    delta += shift * weight
                    edge = last if shift > 0 else first
                    crossings.append((weight, radix, edge, 1 << len(crossings)))
                elif first == last:
                    delta += (table.index(value) - first) * weight
                else:
                    resets.append((weight, radix, table.index(value)))
            steps.append((delta, tuple(resets), tuple(crossings), [-1] * (1 << len(crossings))))

    def page(self, high: tuple) -> list[int]:
        """Each guard's, then label's, true set over the page whose
        high-order digits (past the page's axes) are ``high``: evaluated
        whole by one interpreter call the first time it is asked for, and
        kept in ``pages``.  Bit ``p`` is the class at offset ``p``."""
        truth = self.pages.get(high)
        if truth is None:
            universe = {name: (place, values) for (name, _, values), place in zip(self.axes, self.places)}
            for (name, _, values), d in zip(self.axes[len(self.places):], high):
                universe[name] = (1, (values[d],))
            truth = self.pages[high] = [t for t, _ in eval_guards(self.guards, universe, self.page_size)]
        return truth

    def _fill(self, key: tuple) -> FiringRow:
        """The GSPN firing rule on the class ``key``, with its payload and
        the labels, read off the bits at the class's offset in its page.

        If any immediate guard holds, the state is vanishing and the chosen
        transitions are its enabled immediates of maximal priority;
        otherwise they are its enabled timed transitions.
        """
        digits = [axis[1][k] for axis, k in zip(self.axes, key)]
        offset = sum(d * place for d, place in zip(digits, self.places))
        truth, transitions = self.page(tuple(digits[len(self.places):])), self.transitions
        enabled = [i for i, m in enumerate(truth[: len(transitions)]) if m >> offset & 1]
        labels = tuple(bool(m >> offset & 1) for m in truth[len(transitions):])
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
        return FiringRow(False, chosen, tuple(self.rates[i] for i in chosen), (), labels)


class _Walk:
    """States reached from ``init`` by the code steps of ``comp``, each
    interned to a dense id in the order it is first met: ``codes[i]`` is
    state ``i``'s code, ``index`` maps it back to ``i``, and ``row_ids[i]``
    is its row id.  Only ``init`` is encoded.  A state is decoded only
    where a step meets an outcome for the first time, to read the target's
    row, and a row no walk has met gets its steps from that same tuple.
    """

    def __init__(self, comp: _CompiledModel, init: StateVector, limit: float = math.inf):
        rid = comp.row_id(init)
        if comp.steps[rid] is None:
            comp.fill_steps(rid, init)
        code = comp.encode(init)
        self.comp, self.limit, self.index, self.codes = comp, limit, {code: 0}, [code]
        self.row_ids = array("q", [rid])

    def expand(self, start: int, stop: int | None, link: Callable[[int], object]):
        """Follow the steps of states ``start .. stop - 1`` in id order (for
        a ``stop`` of None, up to the end of the growing list), calling
        ``link`` with each target's id in the order of its source's row.

        Raises ``StateLimitExceeded`` where a target would be state number
        ``limit``.
        """
        comp, index, codes, rids, limit = self.comp, self.index, self.codes, self.row_ids, self.limit
        row_id, steps, decode, fill_steps = comp.row_id, comp.steps, comp.decode, comp.fill_steps
        find = index.get
        if stop is None:
            # The lists grow while they are read: each iterator sees what
            # is appended before it gets there.
            todo = zip(islice(codes, start, None), islice(rids, start, None))
        else:
            todo = zip(codes[start:stop], rids[start:stop])
        for code, rid in todo:
            for delta, resets, crossings, known in steps[rid]:
                t = code + delta
                if resets:  # rare: testing is cheaper than an empty loop per edge
                    for weight, radix, p in resets:
                        t += (p - code // weight % radix) * weight
                di = find(t)
                if di is None:
                    di = len(codes)
                    if di >= limit:
                        raise StateLimitExceeded(f"state space exceeds {limit} states", limit=limit)
                    index[t] = di
                    codes.append(t)
                    # The target's class follows from the source's and from
                    # which shifted counters leave their source class.
                    j = 0
                    for weight, radix, edge, bit in crossings:
                        if code // weight % radix == edge:
                            j += bit
                    target = known[j]
                    if target < 0:
                        s = decode(t)
                        target = known[j] = row_id(s)
                        if steps[target] is None:
                            fill_steps(target, s)
                    rids.append(target)
                link(di)


# ---------------------------------------------------------------------------
# Operations


def initial_state(model: Model) -> StateVector:
    """State holding every variable's declared init, in declaration order."""
    return tuple(v.init for v in model.variables)
