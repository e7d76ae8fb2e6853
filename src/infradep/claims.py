"""Qualitative behaviour checks, run as graph properties.

Each built-in model ships a claim suite: statements about which composite
states are reachable, which transitions every recovery path must use, and
how apparent status tracks real status under attacks.  The checks read
only the reachability graph, never the rates, so verdicts are invariant
under rate overrides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotAttackModelError, UnknownLabelError
from .model import guard_predicate
from .statespace import ReachabilityGraph


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    witness: tuple = ()


def _label_states(g: ReachabilityGraph, label: str) -> frozenset[int]:
    sets = g.label_sets
    if label not in sets:
        raise UnknownLabelError(f"no label {label!r} on model {g.model.name!r}")
    return sets[label]


def _bfs_path(g: ReachabilityGraph, sources, targets, banned: frozenset = frozenset()):
    """Shortest witness as (state, transition, state, ...) or None; the
    search starts from the sources in ascending state order."""
    targets = set(targets)
    indptr, dst, transition = g.adjacency
    sources = sorted(sources)
    parent: dict[int, tuple[int, str] | None] = {s: None for s in sources}
    queue = deque(sources)
    while queue:
        cur = queue.popleft()
        if cur in targets:
            path: list = [cur]
            while parent[path[0]] is not None:
                prev, tname = parent[path[0]]
                path = [prev, tname] + path
            return tuple(
                g.states[x] if isinstance(x, int) else x for x in path
            )
        for k in range(indptr[cur], indptr[cur + 1]):
            if transition[k] in banned or dst[k] in parent:
                continue
            parent[dst[k]] = (cur, transition[k])
            queue.append(dst[k])
    return None


def check_path_exists(
    g: ReachabilityGraph, from_label: str, to_label: str, via=None
) -> CheckResult:
    """Is some ``to_label`` state reachable from a ``from_label`` state?

    With ``via``, the path must fire exactly that transition sequence
    (updates are deterministic, so the walk is unique per start state);
    start states are tried in ascending order.
    """
    sources = _label_states(g, from_label)
    targets = _label_states(g, to_label)
    name = f"path {from_label} -> {to_label}" + (f" via {'/'.join(via)}" if via else "")
    if not sources:
        return CheckResult(name, False, f"label {from_label!r} matches no state")
    if via:
        indptr, dst, transition = g.adjacency
        for s in sorted(sources):
            walk = [g.states[s]]
            cur = s
            for tname in via:
                nxt = next(
                    (dst[k] for k in range(indptr[cur], indptr[cur + 1]) if transition[k] == tname),
                    None,
                )
                if nxt is None:
                    break
                walk += [tname, g.states[nxt]]
                cur = nxt
            else:
                if cur in targets:
                    return CheckResult(name, True, "witness found", tuple(walk))
        return CheckResult(name, False, "no start state admits the given firing sequence")
    path = _bfs_path(g, sources, targets)
    if path is None:
        return CheckResult(name, False, f"{to_label} unreachable from {from_label}")
    return CheckResult(name, True, "witness found", path)


def check_all_paths_contain(
    g: ReachabilityGraph, from_label: str, to_label: str, required
) -> CheckResult:
    """Must every ``from -> to`` path fire each required transition?

    ``required`` is a sequence of groups; strings stand for singleton
    groups and any member of a group counts as firing it.  Checked by
    removing each group's edges: the target must become unreachable, else
    the surviving path is a counterexample.
    """
    sources = _label_states(g, from_label)
    targets = _label_states(g, to_label)
    groups = [frozenset((r,)) if isinstance(r, str) else frozenset(r) for r in required]
    name = (
        f"all paths {from_label} -> {to_label} contain "
        + " and ".join("{" + ",".join(sorted(grp)) + "}" for grp in groups)
    )
    for grp in groups:
        path = _bfs_path(g, sources, targets, banned=grp)
        if path is not None:
            return CheckResult(
                name,
                False,
                f"counterexample avoids {{{','.join(sorted(grp))}}}",
                path,
            )
    return CheckResult(name, True, "each group is a cut between the labels")


def check_edge_coverage(
    g: ReachabilityGraph, to_label: str, exempt_labels=()
) -> CheckResult:
    """Does every tangible state outside the exempt labels have a direct
    edge into ``to_label``?"""
    targets = _label_states(g, to_label)
    exempt: set[int] = set()
    for l in exempt_labels:
        exempt |= _label_states(g, l)
    name = f"direct edge into {to_label} from every tangible state outside {tuple(exempt_labels)}"
    indptr, dst, _ = g.adjacency
    missing = [
        i
        for i, tang in enumerate(g.tangible)
        if tang
        and i not in exempt
        and not any(dst[k] in targets for k in range(indptr[i], indptr[i + 1]))
    ]
    if missing:
        return CheckResult(
            name, False, f"{len(missing)} states lack a direct edge", tuple(missing)
        )
    return CheckResult(name, True, "all covered")


def check_set_unreachable(g: ReachabilityGraph, predicate, name: str) -> CheckResult:
    """No reachable state may satisfy the predicate (a guard expression)."""
    fn = guard_predicate(g.model, predicate)
    offenders = tuple(i for i, s in enumerate(g.states) if fn(s))
    if offenders:
        return CheckResult(name, False, f"{len(offenders)} reachable states match", offenders)
    return CheckResult(name, True, "no reachable state matches")


def check_apparent_consistency(g: ReachabilityGraph) -> CheckResult:
    """Apparent status must equal real status whenever no deception is live.

    Applies to attack-shaped models (paired real_*/app_* variables plus an
    ``attack`` status including ``none`` and ``detected``); on every
    reachable state with attack in {none, detected} the pairs must agree.
    """
    model = g.model
    index = model.var_index
    pairs = []
    for v in model.variables:
        if v.name.startswith("real_"):
            app = "app_" + v.name[len("real_") :]
            if app in index:
                pairs.append((index[v.name], index[app]))
    if not pairs or "attack" not in index:
        raise NotAttackModelError(
            f"model {model.name!r} has no real_*/app_* variable pairs with an attack status"
        )
    ai = index["attack"]
    offenders = tuple(
        i
        for i, s in enumerate(g.states)
        if s[ai] in ("none", "detected") and any(s[r] != s[a] for r, a in pairs)
    )
    name = "apparent status re-synchronizes with real status"
    if offenders:
        return CheckResult(name, False, f"{len(offenders)} states diverge", offenders)
    return CheckResult(name, True, "apparent == real outside deception")


# ---------------------------------------------------------------------------
# Built-in claim suites


def _label_nonempty(g: ReachabilityGraph, label: str) -> CheckResult:
    states = _label_states(g, label)
    return CheckResult(
        f"label {label} reachable",
        bool(states),
        f"{len(states)} states" if states else "no reachable state",
        tuple(sorted(states)),
    )


def _claims_cascading_only(g: ReachabilityGraph) -> list[CheckResult]:
    from .model import var_eq

    return [
        check_path_exists(
            g, "state1", "state7", via=("masked_passive", "e_failure_escal_sev")
        ),
        check_set_unreachable(
            g, var_eq("info", "i_weakened"), "no i_weakened state without feedback coupling"
        ),
        _label_nonempty(g, "state3"),
        _label_nonempty(g, "state4"),
    ]


def _claims_accidental(g: ReachabilityGraph) -> list[CheckResult]:
    restoration_family = frozenset({"e_restoration_fast", "e_restoration_slow"})
    out = []
    for src in ("state6", "state7", "state8"):
        out.append(
            check_all_paths_contain(
                g, src, "state1", ["i_restoration", restoration_family]
            )
        )
    for label in ("state2", "state3", "state4", "state5", "state6", "state7", "state8"):
        out.append(_label_nonempty(g, label))
    return out


def _claims_common_cause(g: ReachabilityGraph) -> list[CheckResult]:
    out = _claims_accidental(g)
    out.append(check_edge_coverage(g, "state6", exempt_labels=("state6", "state8")))
    out.append(check_edge_coverage(g, "state8", exempt_labels=("state6", "state8")))
    out.append(check_path_exists(g, "state1", "state8", via=("cc_to_8",)))
    return out


def _claims_attack(g: ReachabilityGraph) -> list[CheckResult]:
    k = g.model.variable("n_cfg").domain.hi
    via = ("passive_attack",) + ("operator_cfg",) * k + ("operator_overflow",)
    sets = g.label_sets
    deceptive = sets["deceived"]
    allowed = sets["state2"] | sets["state3"]
    deceived_only_under_attack = deceptive <= allowed
    return [
        check_apparent_consistency(g),
        check_path_exists(g, "state1", "state8", via=via),
        CheckResult(
            "deceived only under a live deceptive attack",
            deceived_only_under_attack,
            "deceived set within passive/active deception states"
            if deceived_only_under_attack
            else "deception observed outside attack states",
            tuple(sorted(deceptive - allowed)),
        ),
        check_all_paths_contain(g, "state4", "state1", ["i_restoration"]),
    ]


CLAIM_SUITES = {
    "accidental": _claims_accidental,
    "cascading_only": _claims_cascading_only,
    "common_cause": _claims_common_cause,
    "attack": _claims_attack,
}


def run_claims(g: ReachabilityGraph) -> list[CheckResult]:
    """Run the claim suite registered for this model's name."""
    suite = CLAIM_SUITES.get(g.model.name)
    if suite is None:
        raise UnknownLabelError(
            f"no claim suite registered for model {g.model.name!r}; "
            f"known: {sorted(CLAIM_SUITES)}"
        )
    return suite(g)
