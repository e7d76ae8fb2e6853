"""Reference computations made apart from the program under test.

Guards are evaluated by walking the guard tree (not by the program's
compiled closures), reachable states come from enumerating the whole
variable-domain product, and exact measures come from dense matrices
built here from that enumeration.  Only the model's declarations (its
variables, transitions and labels) are read from the program.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from infradep import And, Comparison, Immediate, Not, Or, SetValue

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

DENSE_LIMIT = 512


def holds(guard, state, index) -> bool:
    """Interpreted evaluation of a guard tree on one state tuple."""
    if isinstance(guard, Comparison):
        return _OPS[guard.op](state[index[guard.var]], guard.value)
    if isinstance(guard, And):
        return all(holds(t, state, index) for t in guard.terms)
    if isinstance(guard, Or):
        return any(holds(t, state, index) for t in guard.terms)
    if isinstance(guard, Not):
        return not holds(guard.term, state, index)
    raise TypeError(f"not a guard node: {guard!r}")


def label_fn(model, label: str):
    index = {v.name: i for i, v in enumerate(model.variables)}
    guard = next(l.predicate for l in model.labels if l.name == label)
    return lambda s: holds(guard, s, index)


def _fire(model, index, s, t):
    out = list(s)
    for a in t.update:
        i = index[a.var]
        out[i] = a.value if isinstance(a, SetValue) else out[i] + a.delta
    return tuple(out)


def firings(model, s, index):
    """(vanishing, [(transition name, successor, rate or probability)])."""
    imm = [
        t for t in model.transitions
        if isinstance(t.kind, Immediate) and holds(t.guard, s, index)
    ]
    if imm:
        top = max(t.kind.priority for t in imm)
        chosen = [t for t in imm if t.kind.priority == top]
        total = sum(t.kind.weight for t in chosen)
        return True, [(t.name, _fire(model, index, s, t), t.kind.weight / total) for t in chosen]
    timed = [
        t for t in model.transitions
        if not isinstance(t.kind, Immediate) and holds(t.guard, s, index)
    ]
    return False, [
        (t.name, _fire(model, index, s, t), t.kind.rate.value(model.parameters)) for t in timed
    ]


@dataclass
class Graph:
    states: list  # reachable states, breadth-first from the initial state
    vanishing: set
    out: dict  # state -> [(transition name, successor, value)]
    initial: tuple

    @property
    def tangible(self) -> int:
        return len(self.states) - len(self.vanishing)

    @property
    def edges(self) -> int:
        return sum(len(self.out[s]) for s in self.states)

    def label_counts(self, model) -> dict[str, int]:
        index = _index(model)
        return {
            l.name: sum(1 for s in self.states if holds(l.predicate, s, index))
            for l in model.labels
        }


def _index(model):
    return {v.name: i for i, v in enumerate(model.variables)}


def domain_size(model) -> int:
    n = 1
    for v in model.variables:
        n *= len(tuple(v.domain))
    return n


def enumerate_domain(model) -> Graph:
    """Firing relation over the whole domain product, then the part of it
    reachable from the initial state."""
    index = _index(model)
    vanishing, out = set(), {}
    for s in itertools.product(*(tuple(v.domain) for v in model.variables)):
        van, fired = firings(model, s, index)
        if van:
            vanishing.add(s)
        out[s] = fired
    init = tuple(v.init for v in model.variables)
    seen, order, head = {init}, [init], 0
    while head < len(order):
        for _, dst, _ in out[order[head]]:
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
        head += 1
    return Graph(order, vanishing & seen, {s: out[s] for s in order}, init)


def affine_counts(small: dict, large: dict, k_small: int, k_large: int, k: int) -> dict:
    """Extrapolate counts that grow by a fixed amount per unit of ``k_max``."""
    step = {key: (large[key] - small[key]) / (k_large - k_small) for key in small}
    return {key: large[key] + step[key] * (k - k_large) for key in small}


# ---------------------------------------------------------------------------
# Exact measures on the dense chain folded from the enumeration


@dataclass
class Chain:
    states: list  # tangible states outside the target
    q: np.ndarray  # generator among them; row sums = -(rate into the target)
    initial: np.ndarray  # initial mass over them (mass starting in the target is dropped)


def fold(graph: Graph, target=None) -> Chain:
    """Fold immediate chains away; states satisfying ``target`` absorb.

    A path through a vanishing state that satisfies the target counts as a
    hit at the time of the timed event that started it.
    """
    hit = target or (lambda s: False)
    tang = [s for s in graph.states if s not in graph.vanishing and not hit(s)]
    pos = {s: i for i, s in enumerate(tang)}
    n = len(tang)
    if n > DENSE_LIMIT:
        raise ValueError(f"dense chain limited to {DENSE_LIMIT} states, got {n}")
    memo: dict = {}

    def reach(s):
        """Distribution over tangible non-target states reached instantly."""
        if s in memo:
            return memo[s]
        v = np.zeros(n)
        if hit(s):
            pass
        elif s in pos:
            v[pos[s]] = 1.0
        else:
            for _, dst, p in graph.out[s]:
                v += p * reach(dst)
        memo[s] = v
        return v

    q = np.zeros((n, n))
    for s in tang:
        i = pos[s]
        total = 0.0
        for _, dst, rate in graph.out[s]:
            q[i] += rate * reach(dst)
            total += rate
        # A jump back to the same state is invisible; everything else leaves.
        q[i, i] = -(total - q[i, i])
    return Chain(tang, q, reach(graph.initial))


def _integral(q: np.ndarray, vec: np.ndarray, t: float) -> np.ndarray:
    """int_0^t exp(q s) vec ds, from the exponential of an augmented matrix."""
    n = q.shape[0]
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = q
    m[:n, n] = vec
    return scipy.linalg.expm(m * t)[:n, n]


def transient_label(chain: Chain, indicator: np.ndarray, t: float) -> float:
    return float(chain.initial @ scipy.linalg.expm(chain.q * t) @ indicator)


def expected_occupancy(chain: Chain, indicator: np.ndarray, horizon: float, burn_in: float) -> float:
    """Mean share of [burn_in, horizon] spent where ``indicator`` is 1."""
    at_burn_in = chain.initial @ scipy.linalg.expm(chain.q * burn_in)
    return float(at_burn_in @ _integral(chain.q, indicator, horizon - burn_in)) / (horizon - burn_in)


def expected_capped_hit(chain: Chain, cap: float) -> float:
    """E[min(T, cap)] for the first time T the target holds."""
    return float(chain.initial @ _integral(chain.q, np.ones(len(chain.states)), cap))


def mean_hit(chain: Chain) -> float:
    """E[T] for a target hit with probability one."""
    return float(chain.initial @ np.linalg.solve(chain.q, -np.ones(len(chain.states))))


def indicator(model, chain: Chain, label: str) -> np.ndarray:
    fn = label_fn(model, label)
    return np.array([1.0 if fn(s) else 0.0 for s in chain.states])
