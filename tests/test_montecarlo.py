"""Simulation: determinism, replay validity, statistical agreement."""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from infradep import (
    BUILTIN_MODELS,
    DEFAULT_PARAMS,
    Comparison,
    EnumDomain,
    Estimate,
    Event,
    EventCapExceeded,
    ImmediateCycleError,
    InvalidArgError,
    InvalidModelError,
    Label,
    Model,
    RateExpr,
    SetValue,
    Timed,
    Trace,
    Transition,
    VariableDecl,
    builtin_model,
    estimate_occupancy,
    estimate_time_to,
    initial_state,
    label_probability,
    mean_time_to_absorption,
    parse_model,
    simulate,
    steady_state,
    trace_to_csv,
    trace_to_jsonl,
    validate_model,
    var_eq,
)
from infradep import montecarlo
from infradep.model import _CompiledModel
from infradep.rng import stream_seed

from .oracles import (
    SplitMix64,
    apply_update_raw,
    birth_chain,
    by_name,
    domain_product,
    eval_guard,
    firings_raw,
    moves,
    two_state_chain,
)
from .test_guard_classes import _models, _with_init
from .test_statespace import TWO_VARIABLE_CYCLE, cycle_states


def test_same_inputs_same_trace(model_a):
    t1 = simulate(model_a, horizon=500.0, seed=123)
    t2 = simulate(model_a, horizon=500.0, seed=123)
    assert t1 == t2
    t3 = simulate(model_a, horizon=500.0, seed=124)
    assert t3.events != t1.events


def test_absorbing_start_gives_empty_trace():
    # One state, one transition that can never fire: absorbed at once.
    m = Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("a", "b")), "a"),),
        parameters={},
        transitions=(
            Transition("t", Timed(RateExpr(1.0)), var_eq("x", "b"), (SetValue("x", "a"),)),
        ),
    )
    trace = simulate(m, horizon=10.0, seed=0)
    assert trace.events == ()
    assert trace.end_reason == "absorbed"
    assert trace.end_time == 0.0


def test_two_state_occupancy_long_run():
    m = two_state_chain(1.0, 3.0)
    trace = simulate(m, horizon=10_000.0, seed=5)
    time_in_one = 0.0
    prev_t, prev_s = 0.0, initial_state(m)
    for ev in trace.events:
        if prev_s[0] == 1:
            time_in_one += ev.time - prev_t
        prev_t, prev_s = ev.time, ev.state
    if prev_s[0] == 1:
        time_in_one += 10_000.0 - prev_t
    assert abs(time_in_one / 10_000.0 - 0.25) <= 0.02


def _assert_replays(model, trace):
    """Each event fires a transition the oracle enables (under the
    max-priority rule) in the state before it and lands where the
    oracle's update puts it, ``repr`` and all (``1`` is not ``True``)."""
    transitions = by_name(model)
    s = trace.initial
    last_time = 0.0
    for ev in trace.events:
        t = transitions[ev.transition]
        assert t in [fired for fired, _ in firings_raw(model, s)[0]]
        nxt = apply_update_raw(model, s, t)
        assert repr(nxt) == repr(ev.state)
        if t.is_timed:
            assert ev.time > last_time
        else:
            assert ev.time == last_time  # immediates share the timestamp
        last_time = ev.time
        s = nxt
    if trace.end_reason == "absorbed":
        assert not firings_raw(model, s)[0]


def test_trace_replays_through_apply():
    for name in sorted(BUILTIN_MODELS):
        for k_max in (2, 20):
            m = builtin_model(name, replace(DEFAULT_PARAMS, k_max=k_max))
            for seed in (7, 9):
                trace = simulate(m, horizon=400.0, seed=seed)
                assert len(trace.events) > 10
                _assert_replays(m, trace)


@settings(max_examples=100, deadline=None)
@given(model=_models(valid=True), data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_random_model_traces_replay_through_the_oracle(model, data, seed):
    # The simulator takes each successor from its row's code steps: resets
    # and class crossings included, it must land where the oracle's update
    # of the tuple does.  The initial state is drawn from those that some
    # firing leaves, so that few examples stop at once.
    states = list(domain_product(model))
    pool = [s for s in states if moves(model, s)] or states
    m = _with_init(model, data.draw(st.sampled_from(pool)))
    assert validate_model(m).ok
    try:
        trace = simulate(m, horizon=30.0, seed=seed, event_cap=300)
    except ImmediateCycleError:
        event("immediate cycle")
        return
    except EventCapExceeded as exc:
        trace = exc.trace
    event(f"ends: {trace.end_reason}")
    _assert_replays(m, trace)


def test_simulation_past_a_domain_product_of_2_to_the_63():
    # The counter's codes pass 2^63, so they are Python ints throughout.
    # A 0/1 counter beside it must decode to ints, never to bools.
    m = parse_model(
        "model huge { var n : [0..99999999999999999999] init 9223372036854775813; "
        "var b : [0..1] init 0; "
        "timed up rate 1.0 when n < 99999999999999999999 -> { n := n + 1; b := 1; }; "
        "timed down rate 2.0 when n > 0 -> { n := n - 1; b := 0; }; "
        "immediate flip prio 1 weight 1.0 when n == 9223372036854775811 && b == 0 -> { b := 1; }; }"
    )
    assert validate_model(m).ok
    trace = simulate(m, horizon=60.0, seed=3)
    assert {ev.transition for ev in trace.events} == {"up", "down", "flip"}
    assert min(ev.state[0] for ev in trace.events) < 2**63 < max(ev.state[0] for ev in trace.events)
    _assert_replays(m, trace)


def test_immediates_recorded_after_trigger(model_a):
    # Every weakening event must directly follow a timed event at the same
    # timestamp.
    trace = simulate(model_a, horizon=2000.0, seed=11)
    names = [ev.transition for ev in trace.events]
    assert "i_weaken" in names  # exercised at this horizon/seed
    transitions = by_name(model_a)
    for i, ev in enumerate(trace.events):
        if not transitions[ev.transition].is_timed:
            prev = trace.events[i - 1]
            assert prev.time == ev.time
            assert transitions[prev.transition].is_timed


def test_event_cap_carries_partial_trace(model_a):
    with pytest.raises(EventCapExceeded) as exc:
        simulate(model_a, horizon=10_000.0, seed=1, event_cap=10)
    assert exc.value.trace is not None
    assert len(exc.value.trace.events) == 10
    assert exc.value.trace.end_reason == "event-cap"


def test_immediate_cycle_guard():
    # The timed step from s enters the immediate cycle a -> b -> a; the
    # error names the states the chained immediates visited, and only them.
    from infradep import Immediate, RateExpr, Timed

    m = Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("s", "a", "b")), "s"),),
        parameters={},
        transitions=(
            Transition("enter", Timed(RateExpr(1.0)), var_eq("x", "s"), (SetValue("x", "a"),)),
            Transition("go", Immediate(1, 1.0), var_eq("x", "a"), (SetValue("x", "b"),)),
            Transition("back", Immediate(1, 1.0), var_eq("x", "b"), (SetValue("x", "a"),)),
        ),
    )
    with pytest.raises(ImmediateCycleError) as info:
        simulate(m, horizon=1e9, seed=0)
    assert cycle_states(info.value.message) == {"x=a", "x=b"}


def test_immediate_cycle_message_delimits_each_state():
    with pytest.raises(ImmediateCycleError) as info:
        simulate(parse_model(TWO_VARIABLE_CYCLE), horizon=1e9, seed=0)
    assert cycle_states(info.value.message) == {"x=a, y=0", "x=b, y=0"}


def test_estimate_needs_two_replications(model_a):
    with pytest.raises(InvalidArgError):
        estimate_occupancy(model_a, "state1", horizon=10.0, replications=1)
    with pytest.raises(InvalidArgError):
        estimate_time_to(model_a, "state7", replications=1)


def test_occupancy_covers_exact_value(model_a, ctmc_a):
    est = estimate_occupancy(model_a, "state1", horizon=2000.0, replications=80, seed=21)
    exact = label_probability(steady_state(ctmc_a), ctmc_a.label_sets["state1"]).value
    sigma = est.half_width / 1.96
    assert abs(est.value - exact) <= 3 * sigma


def test_occupancy_of_never_satisfied_label():
    m = two_state_chain()
    from dataclasses import replace

    from infradep import Label

    never = replace(m, labels=m.labels + (Label("never", var_eq("x", -5)),))
    est = estimate_occupancy(never, "never", horizon=50.0, replications=4, seed=0)
    assert est.value == 0.0
    assert est.half_width == 0.0


def test_time_to_birth_chain():
    m = birth_chain([2.0, 4.0])
    est = estimate_time_to(m, "end", replications=600, seed=17)
    assert est.metadata["censored"] == 0
    sigma = est.half_width / 1.96
    assert abs(est.value - 0.75) <= 3 * sigma
    wider = estimate_time_to(m, "end", replications=50, seed=17)
    assert wider.half_width > est.half_width  # CI shrinks with replications


def test_time_to_covers_exact_mtta(model_a, ctmc_a):
    est = estimate_time_to(model_a, "state7", replications=400, seed=29)
    exact = mean_time_to_absorption(ctmc_a, "state7").value
    sigma = est.half_width / 1.96
    assert est.metadata["censored"] == 0
    assert abs(est.value - exact) <= 3 * sigma


def test_time_to_unreachable_label_censors():
    m = two_state_chain()
    from dataclasses import replace

    from infradep import Label

    never = replace(m, labels=m.labels + (Label("never", var_eq("x", -5)),))
    est = estimate_time_to(never, "never", replications=5, seed=0, cap_time=100.0)
    assert est.metadata["censored"] == 5
    assert est.metadata["all_censored"] is True
    assert est.value == 100.0


def test_stream_seeds_differ_per_replication():
    seeds = {stream_seed(0, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert stream_seed(1, 0) != stream_seed(0, 0)


def test_occupancy_traces_are_simulate_traces(model_a):
    traces = []
    estimate_occupancy(
        model_a, "state1", horizon=300.0, replications=6, seed=3, on_trace=traces.append
    )
    assert [t.replication for t in traces] == list(range(6))
    for r, trace in enumerate(traces):
        assert trace == simulate(model_a, 300.0, stream_seed(3, r), replication=r)


def test_time_to_traces_end_at_the_hit(model_a):
    predicate = model_a.label_map["state7"].predicate
    traces = []
    est = estimate_time_to(
        model_a, "state7", replications=30, seed=8, cap_time=150.0, on_trace=traces.append
    )
    values = []
    for r, trace in enumerate(traces):
        full = simulate(model_a, 150.0, stream_seed(8, r), replication=r)
        hits = [
            i
            for i, ev in enumerate(full.events)
            if eval_guard(predicate, ev.state, model_a.var_index)
        ]
        if hits:
            assert trace.end_reason == "hit"
            assert trace.events == full.events[: hits[0] + 1]
            assert trace.end_time == trace.events[-1].time
            values.append(trace.end_time)
        else:
            assert trace == full  # censored: ran on to the cap or absorption
            values.append(150.0)
    assert 0 < est.metadata["censored"] < 30  # both kinds are exercised
    assert est.metadata["censored"] == values.count(150.0)
    assert est.value == sum(values) / 30


def test_label_predicate_estimates_equal_label_name_estimates(model_a):
    predicate = model_a.label_map["state7"].predicate
    for estimate, kwargs in (
        (estimate_occupancy, {"horizon": 300.0}),
        (estimate_time_to, {"cap_time": 150.0}),
    ):
        by_name = estimate(model_a, "state7", replications=12, seed=5, **kwargs)
        by_guard = estimate(model_a, predicate, replications=12, seed=5, **kwargs)
        assert (by_guard.value, by_guard.half_width, by_guard.metadata) == (
            by_name.value, by_name.half_width, by_name.metadata
        )


def test_time_to_initial_hit_is_empty_trace():
    m = two_state_chain()
    traces = []
    est = estimate_time_to(m, "zero", replications=2, seed=0, on_trace=traces.append)
    assert est.value == 0.0
    assert [(t.events, t.end_reason, t.end_time) for t in traces] == [((), "hit", 0.0)] * 2


def test_time_to_event_cap_carries_partial_trace():
    from dataclasses import replace

    from infradep import Label

    m = two_state_chain()
    never = replace(m, labels=m.labels + (Label("never", var_eq("x", -5)),))
    with pytest.raises(EventCapExceeded) as exc:
        estimate_time_to(never, "never", replications=2, cap_time=1e9, event_cap=10)
    assert len(exc.value.trace.events) == 10
    assert exc.value.trace.end_reason == "event-cap"


def test_race_equivalence_chi_square():
    # Firing the minimum of per-transition exponentials must match the
    # total-rate + categorical oracle in distribution.
    rates = [1.0, 2.0, 3.0]
    m = Model(
        name="race",
        variables=(VariableDecl("x", EnumDomain(("s", "a", "b", "c")), "s"),),
        parameters={},
        transitions=tuple(
            Transition(
                f"to_{v}", Timed(RateExpr(r)), var_eq("x", "s"), (SetValue("x", v),)
            )
            for v, r in zip(("a", "b", "c"), rates)
        ),
    )
    n = 6000
    counts_race = {"a": 0, "b": 0, "c": 0}
    for i in range(n):
        trace = simulate(m, horizon=1e9, seed=stream_seed(40, i))
        counts_race[trace.events[0].state[0]] += 1

    # Oracle sampler: one uniform for the categorical pick.
    counts_cat = {"a": 0, "b": 0, "c": 0}
    total = sum(rates)
    for i in range(n):
        rng = SplitMix64(stream_seed(41, i))
        u = rng.uniform()
        acc = 0.0
        for v, r in zip(("a", "b", "c"), rates):
            acc += r / total
            if u <= acc:
                counts_cat[v] += 1
                break

    def chi2(counts):
        return sum(
            (counts[v] - n * r / total) ** 2 / (n * r / total)
            for v, r in zip(("a", "b", "c"), rates)
        )

    # df=2, p=0.01 critical value.
    assert chi2(counts_race) < 9.21
    assert chi2(counts_cat) < 9.21
    # Two-sample homogeneity between the implementations.
    hom = sum(
        (counts_race[v] - counts_cat[v]) ** 2 / (counts_race[v] + counts_cat[v])
        for v in ("a", "b", "c")
    )
    assert hom < 9.21


def test_meta_coverage_on_accidental(model_a, ctmc_a):
    # Fixed meta-seed grid: the exact value must fall inside the widened
    # (3 sigma) interval in at least 99% of the meta-trials.
    exact_occ = label_probability(steady_state(ctmc_a), ctmc_a.label_sets["state1"]).value
    exact_tt = mean_time_to_absorption(ctmc_a, "state7").value
    trials = 15
    covered = 0
    for k in range(trials):
        est = estimate_occupancy(
            model_a, "state1", horizon=600.0, replications=30, seed=1000 + k
        )
        if abs(est.value - exact_occ) <= 3 * est.half_width / 1.96:
            covered += 1
    for k in range(trials):
        est = estimate_time_to(model_a, "state7", replications=60, seed=2000 + k)
        if abs(est.value - exact_tt) <= 3 * est.half_width / 1.96:
            covered += 1
    assert covered / (2 * trials) >= 0.99


def test_trace_export_formats(model_a):
    trace = simulate(model_a, horizon=200.0, seed=2)
    csv = trace_to_csv(trace, model_a)
    lines = [l for l in csv.splitlines() if l]
    assert len(lines) == len(trace.events)
    first = lines[0].split(",")
    assert float(first[0]) == trace.events[0].time
    assert first[1] == trace.events[0].transition
    assert first[2].startswith("info=")

    jsonl = trace_to_jsonl(trace, model_a)
    import json

    rows = [json.loads(l) for l in jsonl.splitlines() if l]
    assert rows[0]["transition"] == trace.events[0].transition
    assert rows[0]["state"]["elec"] == trace.events[0].state[1]


def test_burn_in_default_and_bounds(model_a):
    est = estimate_occupancy(model_a, "state1", horizon=100.0, replications=2, seed=0)
    assert est.metadata["burn_in"] == 10.0
    with pytest.raises(InvalidArgError):
        estimate_occupancy(model_a, "state1", horizon=100.0, replications=2, burn_in=100.0)


FORK = (
    "model fork { var x : [0..2] init 0; "
    "timed a rate 1.0 when x == 0 -> { x := 1; }; "
    "timed b rate 1.0 when x == 0 -> { x := 2; }; "
    "label done := x == 1; }"
)


def test_estimates_reject_non_finite_bounds():
    # The error names the argument the caller passed, not the burn-in.
    chain = birth_chain([1.0])
    for horizon in (float("inf"), float("nan")):
        with pytest.raises(InvalidArgError, match="horizon must be positive and finite"):
            estimate_occupancy(chain, "end", horizon=horizon, replications=4, burn_in=0.0)
        with pytest.raises(InvalidArgError, match="horizon must be positive and finite"):
            estimate_occupancy(chain, "end", horizon=horizon, replications=4)
    fork = parse_model(FORK)
    for cap in (float("inf"), float("nan")):
        with pytest.raises(InvalidArgError, match="cap_time must be positive and finite"):
            estimate_time_to(fork, "done", replications=4, cap_time=cap)


def test_time_to_overflowing_estimate_is_invalid_arg():
    # Censored replications enter the mean at cap_time: at 1e308 their sum
    # overflows, and at 1e200 the squared deviations do.
    fork = parse_model(FORK)
    for cap in (1e308, 1e200):
        with pytest.raises(InvalidArgError, match=r"time_to\[done\] is not finite.*cap_time"):
            estimate_time_to(fork, "done", replications=20, seed=0, cap_time=cap)
    est = estimate_time_to(fork, "done", replications=20, seed=0, cap_time=1e100)
    assert 0 < est.metadata["censored"] < 20
    assert est.value < 1e100 and est.half_width < 1e100


# The Reproducibility contract (README): these traces must not change by one
# bit across versions.  Each digest covers ``float.hex`` of every time, the
# transition names, the states and the end reasons.
PINNED_TRACES = {
    "occupancy accidental": "b25e97912c80feeebd5a7f02e4c8194fb8db07ff6e7ed1982aa0dc11d7973fde",
    "time-to cascading-only": "0304cf979d5435254ffb9ea7c38ff1357c0e62aa83ebd6dedeeba97e74cead71",
    "occupancy common-cause": "0e2ba7c9113cca8c3af002c45b19ae1d7b721133aa6a204cf855e8dcbedcec26",
    "time-to attack": "61ed16bc1bc9a1fd2d66d7b37b388a7a3d972fda0ae93f4b887209d2dd45c7e6",
    "simulate accidental": "e118ab9300b9e20eeb189603da88758e6274413a7aecf01f1c567f3f4c111233",
    "simulate common-cause": "2af2b6d207a35c84f2efe1d04da04e20c4585a250dc060a08ed653a9cfb395cc",
    "simulate attack": "35db44431626e230c4361f3bbaf96f0ebb97df8f5cd632bd55f192cbfe205fdf",
}


def _pinned_traces(case, models):
    kind, name = case.split()
    m = models[name]
    traces = []
    if kind == "occupancy":
        label = "state1" if name == "accidental" else "state7"
        estimate_occupancy(m, label, horizon=200.0, replications=4, seed=2024,
                           on_trace=traces.append)
    elif kind == "time-to":
        label = "deceived" if name == "attack" else "state7"
        estimate_time_to(m, label, replications=4, seed=2025, cap_time=500.0,
                         on_trace=traces.append)
    else:
        seed = {"accidental": 1, "common-cause": 2**64 + 5, "attack": -3}[name]
        traces.append(simulate(m, horizon=300.0, seed=seed))
    return traces


def _digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        h.update(f"{t.initial!r} {t.end_reason} {t.end_time.hex()}\n".encode())
        for ev in t.events:
            h.update(f"{ev.time.hex()} {ev.transition} {ev.state!r}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED_TRACES))
def test_traces_match_pinned_digests(case, models):
    traces = _pinned_traces(case, models)
    assert sum(len(t.events) for t in traces) > 0
    assert _digest(traces) == PINNED_TRACES[case]


# (occupancy label, time-to label) per built-in
ESTIMATE_LABELS = {
    "accidental": ("state1", "state7"),
    "cascading-only": ("state2", "state7"),
    "common-cause": ("state7", "state8"),
    "attack": ("deceived", "deceived"),
}


def _mean_and_half_width(values):
    n = len(values)
    mean = sum(values) / n
    return mean, 1.96 * math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1) / n)


@pytest.mark.parametrize("name", sorted(ESTIMATE_LABELS))
def test_estimates_equal_their_traces_recomputed(name, models):
    # The estimators never build Events unless asked to; recomputing each
    # estimate event by event from the traces on_trace receives must give
    # exactly the same Estimate.
    m = models[name]
    occupancy_label, time_to_label = ESTIMATE_LABELS[name]
    horizon, burn_in, cap_time, reps, seed = 300.0, 30.0, 200.0, 15, 11

    def holds(label, s):
        return eval_guard(m.label_map[label].predicate, s, m.var_index)

    traces = []
    est = estimate_occupancy(m, occupancy_label, horizon=horizon, replications=reps, seed=seed,
                             burn_in=burn_in, on_trace=traces.append)
    values = []
    for t in traces:
        total, t_prev, s_prev = 0.0, 0.0, t.initial
        for ev in t.events:
            if holds(occupancy_label, s_prev):
                total += max(0.0, min(ev.time, horizon) - max(t_prev, burn_in))
            t_prev, s_prev = ev.time, ev.state
        if holds(occupancy_label, s_prev):
            total += max(0.0, horizon - max(t_prev, burn_in))
        values.append(total / (horizon - burn_in))
    assert est == Estimate(f"occupancy[{occupancy_label}]", *_mean_and_half_width(values), reps,
                           seed, {"horizon": horizon, "burn_in": burn_in})

    traces = []
    est = estimate_time_to(m, time_to_label, replications=reps, seed=seed, cap_time=cap_time,
                           on_trace=traces.append)
    values = [t.end_time if t.end_reason == "hit" else cap_time for t in traces]
    censored = sum(t.end_reason != "hit" for t in traces)
    assert est == Estimate(f"time_to[{time_to_label}]", *_mean_and_half_width(values), reps, seed,
                           {"cap_time": cap_time, "censored": censored,
                            "all_censored": censored == reps})


@pytest.mark.parametrize("name", sorted(ESTIMATE_LABELS))
def test_event_cap_trace_is_the_uncapped_prefix(name, models):
    m = models[name]
    full = simulate(m, horizon=2000.0, seed=21, replication=3)
    assert len(full.events) > 40
    for cap in (1, 10, len(full.events) // 2):
        with pytest.raises(EventCapExceeded) as exc:
            simulate(m, horizon=2000.0, seed=21, event_cap=cap, replication=3)
        # The cap is checked once the immediates after a timed event have
        # settled, so the run stops at the time of the event past the cap.
        assert exc.value.trace == replace(
            full, events=full.events[:cap], end_reason="event-cap", end_time=full.events[cap].time
        )


def _engine_work(model, label, estimate, monkeypatch, **kwargs):
    """Run ``estimate`` with counters on the engine's per-state work, check
    that each piece runs once, and return the traces and the states the
    walk interned.

    Every interned state is the initial state or a one-step successor (by
    the oracle) of a state some event left, each such source is expanded
    once, the label's truth is recorded exactly once per interned state and
    equals the label's guard there (by the oracle), no state is interned
    twice, and ``fire`` runs once per event.
    """
    expand, fire = montecarlo._Walk.expand, montecarlo._Engine.fire
    walks, engines, expanded, fired = [], set(), Counter(), 0

    def counted_expand(walk, start, stop, link):
        assert stop == start + 1
        walks.append(walk)
        expanded[walk.comp.decode(walk.codes[start])] += 1
        return expand(walk, start, stop, link)

    def counted_fire(eng, sid, k):
        nonlocal fired
        fired += 1
        engines.add(eng)
        return fire(eng, sid, k)

    monkeypatch.setattr(montecarlo._Walk, "expand", counted_expand)
    monkeypatch.setattr(montecarlo._Engine, "fire", counted_fire)
    traces = []
    estimate(model, label, seed=4, on_trace=traces.append, **kwargs)
    init = initial_state(model)
    sources = {init} if any(t.events for t in traces) else set()
    sources |= {ev.state for t in traces for ev in t.events[:-1]}
    successors = {apply_update_raw(model, s, t) for s in sources for t, _ in firings_raw(model, s)[0]}

    (eng,) = engines  # one engine
    assert {id(w) for w in walks} == {id(eng.walk)}  # one walk
    interned = [eng.walk.comp.decode(code) for code in eng.walk.codes]
    assert len(set(interned)) == len(interned)
    assert set(interned) == {init} | successors
    guard = model.label_map[label].predicate if isinstance(label, str) else label
    assert eng.hits == [eval_guard(guard, s, model.var_index) for s in interned]
    assert expanded == Counter(sources)
    assert fired == sum(len(t.events) for t in traces)
    return traces, interned


def test_engine_does_per_state_work_once(model_a, monkeypatch):
    for estimate, kwargs in (
        (estimate_occupancy, {"horizon": 300.0}),
        (estimate_time_to, {"cap_time": 300.0}),
    ):
        with monkeypatch.context() as patch:
            traces, interned = _engine_work(model_a, "state7", estimate, patch, replications=20,
                                            **kwargs)
        events = sum(len(t.events) for t in traces)
        assert events > 2 * len(interned)  # the states and firings repeat


def test_label_predicate_interpreted_once_per_state(models, monkeypatch):
    # The walk interns every successor of a state that fires, so the label's
    # truth is also recorded for states no event reaches, but once each.  A
    # named label and a guard in its place are both read off the rows.
    for name, (occupancy_label, time_to_label) in sorted(ESTIMATE_LABELS.items()):
        m = models[name]
        for estimate, label, kwargs in (
            (estimate_time_to, time_to_label, {"cap_time": 300.0}),
            (estimate_occupancy, m.label_map[occupancy_label].predicate, {"horizon": 300.0}),
        ):
            with monkeypatch.context() as patch:
                traces, interned = _engine_work(m, label, estimate, patch, replications=10, **kwargs)
            assert sum(len(t.events) for t in traces) > len(interned)


def test_untraced_estimate_decodes_only_where_the_walk_meets_an_outcome(models, monkeypatch):
    # The walk decodes a target where a step meets an outcome for the first
    # time, and records that outcome's row in the step's ``known`` list.  An
    # estimate without traces reads each state's label off its row, so it
    # decodes no state besides those.
    for name, (occupancy_label, time_to_label) in sorted(ESTIMATE_LABELS.items()):
        for estimate, label, kwargs in (
            (estimate_occupancy, occupancy_label, {"horizon": 300.0}),
            (estimate_time_to, time_to_label, {"cap_time": 300.0}),
        ):
            for guard in (False, True):
                m = replace(models[name])  # a model whose firing table no walk has met
                target = m.label_map[label].predicate if guard else label
                decodes, met = _decodes(m, estimate, target, monkeypatch, **kwargs)
                assert decodes == met > 0, (name, label, guard)


def _decodes(model, estimate, label, monkeypatch, on_trace=None, **kwargs) -> tuple[int, int]:
    """The number of states ``estimate`` decodes, and the number of step
    outcomes its walk met (each one decoded once)."""
    real, calls = _CompiledModel.decode, Counter()

    def counted(comp, code):
        calls[comp] += 1
        return real(comp, code)

    with monkeypatch.context() as patch:
        patch.setattr(_CompiledModel, "decode", counted)
        estimate(model, label, replications=10, seed=4, on_trace=on_trace, **kwargs)
    ((comp, decodes),) = calls.items()
    met = sum(row >= 0 for steps in comp.steps if steps for *_, known in steps for row in known)
    return decodes, met


def test_traced_estimate_decodes_each_traced_state_once(models, monkeypatch):
    for name, (occupancy_label, _) in sorted(ESTIMATE_LABELS.items()):
        m, traces = replace(models[name]), []
        decodes, met = _decodes(m, estimate_occupancy, occupancy_label, monkeypatch,
                                on_trace=traces.append, horizon=300.0)
        traced = {t.initial for t in traces} | {ev.state for t in traces for ev in t.events}
        assert sum(len(t.events) for t in traces) > len(traced) > 1
        assert decodes == met + len(traced), name


ACCIDENTAL_GUARDS = (
    (Comparison("nope", "==", 1), {"UNDECLARED_IDENT"}),
    (Comparison("elec", "<", 3), {"TYPE_MISMATCH"}),
    (Comparison("elec", "==", "bogus"), {"TYPE_MISMATCH"}),
)


@pytest.mark.parametrize("guard, codes", ACCIDENTAL_GUARDS, ids=["undeclared", "op", "value"])
def test_estimators_refuse_a_guard_that_does_not_check(model_a, guard, codes):
    for estimate, kwargs in (
        (estimate_occupancy, {"horizon": 50.0}),
        (estimate_time_to, {"cap_time": 50.0}),
    ):
        with pytest.raises(InvalidModelError) as info:
            estimate(model_a, guard, replications=2, **kwargs)
        assert {e.code for e in info.value.report.errors} == codes
        assert all(e.where == "label <guard>" for e in info.value.report.errors)


def test_guard_beside_a_label_named_guard(model_a):
    # A Python-built model may name a label ``<guard>``: the guard an
    # estimator is given takes the first free name, ``<guard 2>`` and then
    # ``<guard 3>``, and simulates as it does on the model without them.
    guard = var_eq("elec", "partial_e_outage")
    own_guard = var_eq("elec", "e_lost")
    taken = replace(model_a, labels=model_a.labels + (Label("<guard>", own_guard),))
    twice = replace(taken, labels=taken.labels + (Label("<guard 2>", var_eq("info", "i_weakened")),))
    for estimate, kwargs in (
        (estimate_occupancy, {"horizon": 50.0}),
        (estimate_time_to, {"cap_time": 50.0}),
    ):
        plain = estimate(model_a, guard, replications=4, seed=3, **kwargs)
        assert plain.name.endswith("[<guard>]")
        for model, name in ((taken, "<guard 2>"), (twice, "<guard 3>")):
            est = estimate(model, guard, replications=4, seed=3, **kwargs)
            assert est.name == plain.name.replace("<guard>", name)
            assert (est.value, est.half_width, est.metadata) == (plain.value, plain.half_width, plain.metadata)
        # The model's own label is still read by its name.
        own = estimate(taken, "<guard>", replications=4, seed=3, **kwargs)
        assert own == estimate(model_a, own_guard, replications=4, seed=3, **kwargs)


NEGATIVE = (
    "model neg { var mode : {up, down} init up; var c : [-3..2] init -1; "
    "timed fall rate 2.0 when c > -3 -> { c := c - 1; mode := down; }; "
    "timed rise rate 1.0 when c < 2 -> { c := c + 1; mode := up; }; }"
)


def _naive_csv(trace, model):
    lines = []
    for ev in trace.events:
        assigns = ",".join(f"{v.name}={ev.state[i]}" for i, v in enumerate(model.variables))
        lines.append(f"{ev.time!r},{ev.transition},{assigns}\n")
    return "".join(lines)


def _naive_jsonl(trace, model):
    lines = []
    for ev in trace.events:
        state = {v.name: ev.state[i] for i, v in enumerate(model.variables)}
        row = {"time": ev.time, "transition": ev.transition, "state": state}
        lines.append(json.dumps(row, separators=(", ", ": ")) + "\n")
    return "".join(lines)


def test_trace_export_matches_a_per_event_formatter():
    m = parse_model(NEGATIVE)
    simulated = simulate(m, horizon=50.0, seed=3)
    times = (0.0, 5e-324, 1e-300, 0.1, 1e300, 1e300, float("inf"))
    states = (("down", -3), ("up", 2), ("down", -3), ("up", -1), ("up", -1), ("down", 0),
              ("up", 2))
    fired = {"down": "fall", "up": "rise"}
    events = tuple(Event(t, fired[s[0]], s) for t, s in zip(times, states))
    extreme = Trace(0, 0, initial_state(m), events, "horizon", float("inf"))
    empty = replace(extreme, events=())
    assert len({ev.state for ev in simulated.events}) < len(simulated.events)
    for trace in (simulated, extreme, empty):
        assert trace_to_csv(trace, m) == _naive_csv(trace, m)
        assert trace_to_jsonl(trace, m) == _naive_jsonl(trace, m)
