"""Discrete-event Monte Carlo simulation of a model.

Tangible states run an exponential race: one delay is drawn per enabled
timed transition, in declaration order, and the minimum fires.  Vanishing
states consume exactly one uniform to pick among the max-priority
immediates by weight.  Given (model, horizon, seed, event cap) a trace is
fully deterministic; replication r of an estimator runs on the stream
``stream_seed(seed, r)`` so replications are independent of each other.
The stream's uniforms come a block at a time from ``rng.uniforms``; an
exponential delay is ``-log(u) / rate`` of the next one.

Work that depends only on the state is done once per distinct state and
kept for the run: an ``_Engine`` keeps each state's firing row and each
successor state, and an estimator's label predicate keeps its answer per
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import EventCapExceeded, ImmediateCycleError, InvalidArgError, UnknownLabelError
from .model import Model, StateVector, guard_predicate, initial_state
from .rng import stream_seed, uniforms
from .validate import validate_model

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


class _Engine:
    """Per-state firing results and successors, memoized across steps and
    replications."""

    def __init__(self, model: Model):
        validate_or_raise(model)
        self.model = model
        self.comp = model._compiled
        self.transitions = model.transitions
        self.cache: dict[StateVector, tuple] = {}
        self.successors: dict[tuple[int, StateVector], StateVector] = {}

    def info(self, s: StateVector):
        """``(vanishing, transition indices, payload)`` in ``s``: the payload
        is the cumulative choice probabilities of the immediates, or the
        rates of the timed transitions."""
        got = self.cache.get(s)
        if got is None:
            row = self.comp.row(s)
            payload = row.cumulative if row.vanishing else row.values
            got = self.cache[s] = (row.vanishing, row.chosen, payload)
        return got

    def fire(self, idx: int, s: StateVector) -> StateVector:
        """The state after transition ``idx`` fires in ``s``."""
        key = (idx, s)
        got = self.successors.get(key)
        if got is None:
            got = self.successors[key] = self.comp.updates[idx](s)
        return got


def validate_or_raise(model: Model):
    report = validate_model(model)
    if not report.ok:
        first = report.errors[0]
        raise InvalidArgError(
            f"model {model.name!r} does not validate: "
            f"[{first.code}] {first.message} ({first.where})"
        )


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
    return _run(_Engine(model), horizon, seed, event_cap, replication)


def _run(
    eng: _Engine,
    horizon: float,
    seed: int,
    event_cap: int,
    replication: int,
    hit: Callable[[StateVector], bool] | None = None,
) -> Trace:
    """The simulation loop behind ``simulate`` and both estimators.

    With ``hit``, the trace also ends (reason ``hit``) right after the
    first event whose state satisfies it, or with no events at time 0 if
    the initial state does.  The event cap is checked once the immediates
    after each timed event have settled.
    """
    draw = uniforms(seed).__next__
    log = math.log
    init = initial_state(eng.model)
    transitions = eng.transitions
    events: list[Event] = []

    def end(reason: str, time: float) -> Trace:
        return Trace(replication, seed, init, tuple(events), reason, time)

    state = init
    now = 0.0
    chained = 0
    if hit is not None and hit(state):
        return end("hit", now)
    while True:
        vanishing, items, payload = eng.info(state)
        if vanishing:
            # One uniform picks an immediate by its cumulative weight.
            u = draw()
            for idx, cut in zip(items, payload):
                if u <= cut:
                    break
            else:
                idx = items[-1]
            chained += 1
        else:
            if len(events) > event_cap:
                raise EventCapExceeded(
                    f"simulation exceeded {event_cap} events",
                    trace=Trace(
                        replication, seed, init, tuple(events[:event_cap]), "event-cap", now
                    ),
                )
            if not items:
                return end("absorbed", now)
            best_dt = math.inf
            idx = -1
            for i, rate in zip(items, payload):
                dt = -log(draw()) / rate
                if dt < best_dt:
                    best_dt = dt
                    idx = i
            if now + best_dt > horizon:
                return end("horizon", horizon)
            now += best_dt
            chained = 0
        state = eng.fire(idx, state)
        events.append(Event(now, transitions[idx].name, state))
        if hit is not None and hit(state):
            return end("hit", now)
        if chained == MAX_CHAINED_IMMEDIATES:
            raise ImmediateCycleError(
                f"more than {MAX_CHAINED_IMMEDIATES} immediate firings at time {now}"
            )


# ---------------------------------------------------------------------------
# Estimators


def _label_fn(model: Model, label):
    """The label (a name, or a guard expression in its place) as a predicate
    that interprets each distinct state once, and the label's name."""
    if isinstance(label, str):
        if label not in model.label_map:
            raise UnknownLabelError(f"no label {label!r} on model {model.name!r}")
        holds, name = guard_predicate(model, model.label_map[label].predicate), label
    else:
        holds, name = guard_predicate(model, label), "<guard>"
    truth: dict[StateVector, bool] = {}

    def memo(s: StateVector) -> bool:
        got = truth.get(s)
        if got is None:
            got = truth[s] = holds(s)
        return got

    return memo, name


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


def _replications(eng: _Engine, count, seed, horizon, event_cap, on_trace, hit=None):
    """Replication r's trace on stream ``stream_seed(seed, r)``, in order of r,
    each handed to ``on_trace`` (when given) before it is yielded."""
    for r in range(count):
        trace = _run(eng, horizon, stream_seed(seed, r), event_cap, r, hit)
        if on_trace is not None:
            on_trace(trace)
        yield trace


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
    fn, label_name = _label_fn(model, label)
    traces = _replications(_Engine(model), replications, seed, horizon, event_cap, on_trace)
    values = [_occupancy_of_trace(t, fn, burn_in, horizon) for t in traces]
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


def _occupancy_of_trace(trace: Trace, fn, burn_in: float, horizon: float) -> float:
    total = 0.0
    t_prev = 0.0
    s_prev = trace.initial
    for ev in trace.events:
        if fn(s_prev):
            total += max(0.0, min(ev.time, horizon) - max(t_prev, burn_in))
        t_prev, s_prev = ev.time, ev.state
    if fn(s_prev):  # last state persists to the horizon (or absorption)
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
    fn, label_name = _label_fn(model, label)
    traces = _replications(
        _Engine(model), replications, seed, cap_time, event_cap, on_trace, hit=fn
    )
    hits = [t.end_time if t.end_reason == "hit" else None for t in traces]
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


def trace_to_csv(trace: Trace, model: Model) -> str:
    """One event per line: ``time,transition,var1=val1,...``."""
    lines = []
    for ev in trace.events:
        assigns = ",".join(
            f"{v.name}={ev.state[i]}" for i, v in enumerate(model.variables)
        )
        lines.append(f"{ev.time!r},{ev.transition},{assigns}")
    return "\n".join(lines) + ("\n" if lines else "")


def trace_to_jsonl(trace: Trace, model: Model) -> str:
    import json

    lines = []
    for ev in trace.events:
        state = {v.name: ev.state[i] for i, v in enumerate(model.variables)}
        lines.append(
            json.dumps(
                {"time": ev.time, "transition": ev.transition, "state": state},
                separators=(", ", ": "),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
