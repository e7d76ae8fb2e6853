"""Simulation: determinism, replay validity, statistical agreement."""

from __future__ import annotations

import pytest

from infradep import (
    EnumDomain,
    EventCapExceeded,
    ImmediateCycleError,
    InvalidArgError,
    Model,
    RateExpr,
    SetValue,
    Timed,
    Transition,
    VariableDecl,
    apply_transition,
    estimate_occupancy,
    estimate_time_to,
    initial_state,
    label_probability,
    mean_time_to_absorption,
    simulate,
    steady_state,
    trace_to_csv,
    trace_to_jsonl,
    var_eq,
)
from infradep.rng import SplitMix64, stream_seed

from .oracles import birth_chain, eval_guard, two_state_chain


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


def test_trace_replays_through_apply(model_a):
    trace = simulate(model_a, horizon=400.0, seed=9)
    s = trace.initial
    last_time = 0.0
    for ev in trace.events:
        t = model_a.transition_map[ev.transition]
        nxt = apply_transition(model_a, s, t)
        assert nxt == ev.state
        if t.is_timed:
            assert ev.time > last_time
        else:
            assert ev.time == last_time  # immediates share the timestamp
        last_time = ev.time
        s = nxt


def test_immediates_recorded_after_trigger(model_a):
    # Every weakening event must directly follow a timed event at the same
    # timestamp.
    trace = simulate(model_a, horizon=2000.0, seed=11)
    names = [ev.transition for ev in trace.events]
    assert "i_weaken" in names  # exercised at this horizon/seed
    for i, ev in enumerate(trace.events):
        t = model_a.transition_map[ev.transition]
        if not t.is_timed:
            prev = trace.events[i - 1]
            assert prev.time == ev.time
            assert model_a.transition_map[prev.transition].is_timed


def test_event_cap_carries_partial_trace(model_a):
    with pytest.raises(EventCapExceeded) as exc:
        simulate(model_a, horizon=10_000.0, seed=1, event_cap=10)
    assert exc.value.trace is not None
    assert len(exc.value.trace.events) == 10
    assert exc.value.trace.end_reason == "event-cap"


def test_immediate_cycle_guard():
    from infradep import Immediate

    m = Model(
        name="m",
        variables=(VariableDecl("x", EnumDomain(("a", "b")), "a"),),
        parameters={},
        transitions=(
            Transition("go", Immediate(1, 1.0), var_eq("x", "a"), (SetValue("x", "b"),)),
            Transition("back", Immediate(1, 1.0), var_eq("x", "b"), (SetValue("x", "a"),)),
        ),
    )
    with pytest.raises(ImmediateCycleError):
        simulate(m, horizon=1.0, seed=0)


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
