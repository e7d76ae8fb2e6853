"""Discrete-event Monte Carlo simulation of a model.

Tangible states run an exponential race: one delay is drawn per enabled
timed transition, in declaration order, and the minimum fires.  Vanishing
states consume exactly one uniform to pick among the max-priority
immediates by weight.  Given (model, horizon, seed, event cap) a trace is
fully deterministic; replication r of an estimator runs on the stream
``stream_seed(seed, r)`` so replications are independent of each other.
The stream's uniforms come a block at a time from ``rng.uniforms``; an
exponential delay is ``-log(u) / rate`` of the next one.

An ``_Engine`` finds successors with explore's walker (``model._Walk``),
run on a state the first time it fires.  It decodes each state the walk
interns once and keeps, per dense id, the firing row, the tuple, the
successor ids and (for an estimator) the label's truth, so work that
depends only on the state is done once per distinct state.  A run
records flat lists of times, transition indices and state ids; ``Event``
and ``Trace`` objects are built from them only for ``simulate``, an
``on_trace`` callback and the partial trace of ``EventCapExceeded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import EventCapExceeded, ImmediateCycleError, InvalidArgError, UnknownLabelError
from .model import Model, StateVector, _Walk, guard_predicate, initial_state
from .rng import stream_seed, uniforms
from .validate import require_valid

DEFAULT_EVENT_CAP = 1_000_000
MAX_CHAINED_IMMEDIATES = 10_000


@dataclass(frozen=True)
class Event:
    time: float
    transition: str
    state: StateVector


@dataclass(frozen=True)
class Trace:
    replication: int
    seed: int
    initial: StateVector
    events: tuple[Event, ...]
    end_reason: str  # horizon | absorbed | hit | event-cap
    end_time: float


@dataclass(frozen=True)
class Estimate:
    name: str
    value: float
    half_width: float  # 95% normal-approximation CI half width
    replications: int
    seed: int
    metadata: dict = field(default_factory=dict)


class _Record(NamedTuple):
    """One run: each event's time, transition index and state id, and its end."""

    times: list[float]
    transitions: list[int]
    states: list[int]
    end_reason: str
    end_time: float


class _Engine:
    """The states of a walk from the initial state (id 0), with each id's
    firing row, tuple and successor ids memoized across steps and
    replications.

    With a ``label`` predicate, ``hits[i]`` is its truth in state ``i``.
    """

    def __init__(self, model: Model, label: Callable[[StateVector], bool] | None = None):
        require_valid(model)
        self.names = tuple(t.name for t in model.transitions)
        self.format_state = model.format_state
        self.label = label
        self.walk = _Walk(model._compiled, initial_state(model))
        self.states: list[StateVector] = []
        # (vanishing, transition indices, payload) per id: the payload is the
        # cumulative choice probabilities of the immediates, or the timed rates.
        self.rows: list[tuple] = []
        self.successors: list[list | None] = []  # per id, aligned with its row's indices
        self.hits: list[bool] = []
        self._record()

    def _record(self):
        """Decode each state the walk interned since the last call, and
        record its row, its tuple and the label's truth."""
        walk, new = self.walk, len(self.states)
        for code, rid in zip(walk.codes[new:], walk.row_ids[new:]):
            s = walk.comp.decode(code)
            row = walk.comp.rows[rid]
            self.states.append(s)
            payload = row.cumulative if row.vanishing else row.values
            self.rows.append((row.vanishing, row.chosen, payload))
            if self.label is not None:
                self.hits.append(self.label(s))
        self.successors += [None] * (len(walk.codes) - new)

    def fire(self, sid: int, k: int) -> int:
        """The state id after the ``k``-th transition of state ``sid``'s row fires."""
        succ = self.successors[sid]
        if succ is None:
            succ = self.successors[sid] = []
            self.walk.expand(sid, sid + 1, succ.append)
            self._record()
        return succ[k]

    def trace(self, rec: _Record, replication: int, seed: int) -> Trace:
        names, states = self.names, self.states
        events = map(Event, rec.times, [names[i] for i in rec.transitions],
                     [states[i] for i in rec.states])
        return Trace(replication, seed, states[0], tuple(events), rec.end_reason, rec.end_time)


def simulate(
    model: Model,
    horizon: float,
    seed: int = 0,
    event_cap: int = DEFAULT_EVENT_CAP,
    replication: int = 0,
) -> Trace:
    """One replication up to ``horizon`` time units.

    Immediate firings are recorded at the timestamp of the timed event
    that exposed them, ordered after it.  Ends at the horizon, at
    absorption (no enabled transition), or fails with the partial trace
    attached once ``event_cap`` events were recorded.
    """
    if not horizon > 0:
        raise InvalidArgError(f"horizon must be positive, got {horizon}")
    eng = _Engine(model)
    return eng.trace(_run(eng, horizon, seed, event_cap, replication), replication, seed)


def _run(
    eng: _Engine,
    horizon: float,
    seed: int,
    event_cap: int,
    replication: int,
    stop_at_hit: bool = False,
) -> _Record:
    """The simulation loop behind ``simulate`` and both estimators.

    With ``stop_at_hit``, the run also ends (reason ``hit``) right after
    the first event whose state is in the engine's label, or with no
    events at time 0 if the initial state is.  The event cap is checked
    once the immediates after each timed event have settled.
    """
    draw = uniforms(seed).__next__
    log = math.log
    rows, fire, hits = eng.rows, eng.fire, eng.hits
    times: list[float] = []
    picks: list[int] = []
    sids: list[int] = []
    sid = 0  # the initial state
    now = 0.0
    chained = 0
    if stop_at_hit and hits[sid]:
        return _Record(times, picks, sids, "hit", now)
    while True:
        vanishing, chosen, payload = rows[sid]
        if vanishing:
            # One uniform picks an immediate by its cumulative weight; a u
            # past the last cut (rounding) leaves k on the last immediate.
            u = draw()
            for k, cut in enumerate(payload):
                if u <= cut:
                    break
            chained += 1
        else:
            if len(times) > event_cap:
                del times[event_cap:], picks[event_cap:], sids[event_cap:]
                capped = _Record(times, picks, sids, "event-cap", now)
                partial = eng.trace(capped, replication, seed)
                raise EventCapExceeded(f"simulation exceeded {event_cap} events", trace=partial)
            if not chosen:
                return _Record(times, picks, sids, "absorbed", now)
            best_dt = math.inf
            k = -1
            for j, rate in enumerate(payload):
                dt = -log(draw()) / rate
                if dt < best_dt:
                    best_dt = dt
                    k = j
            if now + best_dt > horizon:
                return _Record(times, picks, sids, "horizon", horizon)
            now += best_dt
            chained = 0
        sid = fire(sid, k)
        times.append(now)
        picks.append(chosen[k])
        sids.append(sid)
        if stop_at_hit and hits[sid]:
            return _Record(times, picks, sids, "hit", now)
        if chained == MAX_CHAINED_IMMEDIATES:
            visited = map(eng.states.__getitem__, sorted(set(sids[-chained:])))
            raise ImmediateCycleError(
                f"more than {MAX_CHAINED_IMMEDIATES} immediate firings at time {now}, "
                f"visiting: {', '.join(map(eng.format_state, visited))}"
            )


# ---------------------------------------------------------------------------
# Estimators


def _label_fn(model: Model, label):
    """The label (a name, or a guard expression in its place) as a predicate
    on states, and the label's name."""
    if isinstance(label, str):
        if label not in model.label_map:
            raise UnknownLabelError(f"no label {label!r} on model {model.name!r}")
        return guard_predicate(model, model.label_map[label].predicate), label
    return guard_predicate(model, label), "<guard>"


def _mean_and_half_width(values, name: str, arg: str) -> tuple[float, float]:
    """Mean of ``values`` and its 95% normal-approximation CI half width.

    Finite inputs can still overflow (values near ``float`` max); a
    non-finite mean or half width raises ``InvalidArgError`` naming the
    argument ``arg`` that bounds the values.
    """
    n = len(values)
    mean = sum(values) / n
    try:
        half = 1.96 * math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1) / n)
    except OverflowError:  # a float ** 2 past the float range
        half = math.inf
    if not (math.isfinite(mean) and math.isfinite(half)):
        raise InvalidArgError(
            f"{name} is not finite (mean {mean}, half width {half}); {arg} is too large"
        )
    return mean, half


def _replications(eng: _Engine, count, seed, horizon, event_cap, on_trace, stop_at_hit=False):
    """Replication r's run on stream ``stream_seed(seed, r)``, in order of r,
    its trace handed to ``on_trace`` (when given) before the run is yielded."""
    for r in range(count):
        stream = stream_seed(seed, r)
        rec = _run(eng, horizon, stream, event_cap, r, stop_at_hit)
        if on_trace is not None:
            on_trace(eng.trace(rec, r, stream))
        yield rec


def estimate_occupancy(
    model: Model,
    label,
    horizon: float,
    replications: int,
    seed: int = 0,
    burn_in: float | None = None,
    event_cap: int = DEFAULT_EVENT_CAP,
    on_trace: Callable[[Trace], None] | None = None,
) -> Estimate:
    """Long-run fraction of time the label holds, averaged per replication.

    Each replication averages the label indicator over [burn_in, horizon]
    (burn-in defaults to horizon/10) on its own derived stream.
    ``on_trace`` receives each replication's trace as it completes.
    """
    if replications < 2:
        raise InvalidArgError("need at least 2 replications for an estimate")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise InvalidArgError(f"horizon must be positive and finite, got {horizon}")
    if burn_in is None:
        burn_in = horizon / 10.0
    if not 0 <= burn_in < horizon:
        raise InvalidArgError(f"burn-in must lie in [0, horizon), got {burn_in}")
    holds, label_name = _label_fn(model, label)
    eng = _Engine(model, holds)
    runs = _replications(eng, replications, seed, horizon, event_cap, on_trace)
    values = [_occupancy(rec, eng.hits, burn_in, horizon) for rec in runs]
    name = f"occupancy[{label_name}]"
    value, half_width = _mean_and_half_width(values, name, "horizon")
    return Estimate(
        name=name,
        value=value,
        half_width=half_width,
        replications=replications,
        seed=seed,
        metadata={"horizon": horizon, "burn_in": burn_in},
    )


def _occupancy(rec: _Record, hits: list, burn_in: float, horizon: float) -> float:
    total = 0.0
    t_prev = 0.0
    s_prev = 0  # the initial state
    for t, s in zip(rec.times, rec.states):
        if hits[s_prev]:
            total += max(0.0, min(t, horizon) - max(t_prev, burn_in))
        t_prev, s_prev = t, s
    if hits[s_prev]:  # last state persists to the horizon (or absorption)
        total += max(0.0, horizon - max(t_prev, burn_in))
    return total / (horizon - burn_in)


def estimate_time_to(
    model: Model,
    label,
    replications: int,
    seed: int = 0,
    cap_time: float = 10_000.0,
    event_cap: int = DEFAULT_EVENT_CAP,
    on_trace: Callable[[Trace], None] | None = None,
) -> Estimate:
    """Mean first time the label holds, censored at ``cap_time``.

    Censored replications enter the mean at ``cap_time`` and are counted
    in the metadata; with any censoring the estimate is a lower bound.
    ``on_trace`` receives each replication's trace as it completes; a
    trace ends at its first hit, at absorption or at ``cap_time``.
    """
    if replications < 2:
        raise InvalidArgError("need at least 2 replications for an estimate")
    if not (cap_time > 0 and math.isfinite(cap_time)):
        raise InvalidArgError(f"cap_time must be positive and finite, got {cap_time}")
    holds, label_name = _label_fn(model, label)
    eng = _Engine(model, holds)
    runs = _replications(eng, replications, seed, cap_time, event_cap, on_trace, stop_at_hit=True)
    hits = [rec.end_time if rec.end_reason == "hit" else None for rec in runs]
    values = [cap_time if h is None else h for h in hits]
    censored = hits.count(None)
    name = f"time_to[{label_name}]"
    value, half_width = _mean_and_half_width(values, name, "cap_time")
    return Estimate(
        name=name,
        value=value,
        half_width=half_width,
        replications=replications,
        seed=seed,
        metadata={
            "cap_time": cap_time,
            "censored": censored,
            "all_censored": censored == replications,
        },
    )


# ---------------------------------------------------------------------------
# Trace export


def _state_texts(trace: Trace, fmt: Callable[[StateVector], str]) -> dict[StateVector, str]:
    """``fmt`` of each distinct state among the trace's events."""
    return {s: fmt(s) for s in {ev.state for ev in trace.events}}


def trace_to_csv(trace: Trace, model: Model) -> str:
    """One event per line: ``time,transition,var1=val1,...``."""
    names = [v.name for v in model.variables]
    texts = _state_texts(trace, lambda s: ",".join(f"{n}={x}" for n, x in zip(names, s)))
    lines = [f"{ev.time!r},{ev.transition},{texts[ev.state]}" for ev in trace.events]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_to_jsonl(trace: Trace, model: Model) -> str:
    """One JSON object per line: ``{"time": ..., "transition": ..., "state": {...}}``."""
    import json

    dumps = json.dumps
    names = [v.name for v in model.variables]
    texts = _state_texts(trace, lambda s: dumps(dict(zip(names, s)), separators=(", ", ": ")))
    fired = {t: dumps(t) for t in {ev.transition for ev in trace.events}}
    lines = [
        # json.dumps writes a finite float as its repr.
        f'{{"time": {repr(ev.time) if math.isfinite(ev.time) else dumps(ev.time)}, '
        f'"transition": {fired[ev.transition]}, "state": {texts[ev.state]}}}'
        for ev in trace.events
    ]
    return "\n".join(lines) + ("\n" if lines else "")
