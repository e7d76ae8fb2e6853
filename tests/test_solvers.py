"""Exact solvers versus closed forms and dense oracles."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from infradep import (
    InvalidArgError,
    ModelParams,
    NoConvergenceError,
    NotErgodicError,
    UnreachableTargetError,
    build_reachability_graph,
    builtin_model,
    eliminate_vanishing,
    label_probability,
    mean_time_to_absorption,
    steady_state,
    terminal_sccs,
    transient,
)
from infradep.solvers import SolverOptions, _poisson_window

from .oracles import (
    birth_chain,
    ctmc_of,
    dense_mtta,
    dense_steady,
    dense_transient,
    two_state_chain,
    two_state_transient_closed_form,
)


@pytest.fixture(scope="module")
def two_state():
    return ctmc_of(two_state_chain(1.0, 3.0))


def test_two_state_steady_closed_form(two_state):
    pi = steady_state(two_state).probs
    idx = {s[0]: i for i, s in enumerate(two_state.states)}
    assert abs(pi[idx[0]] - 0.75) <= 1e-9
    assert abs(pi[idx[1]] - 0.25) <= 1e-9


def test_two_state_transient_closed_form(two_state):
    idx = {s[0]: i for i, s in enumerate(two_state.states)}
    for t in (0.25, 1.0, 4.0):
        p = transient(two_state, t).probs
        expected = two_state_transient_closed_form(1.0, 3.0, t)
        assert abs(p[idx[1]] - expected) <= 1e-9


def test_transient_zero_returns_initial(ctmcs):
    for c in ctmcs.values():
        p = transient(c, 0.0).probs
        assert np.array_equal(p, c.initial)


def test_transient_rejects_negative_time(ctmc_a):
    # 1e308: Lambda*t overflows; 1e300: finite, but the Poisson window is
    # far past its cap.
    for t in (-1.0, float("nan"), float("inf"), 1e308, 1e300):
        with pytest.raises(InvalidArgError):
            transient(ctmc_a, t)


def test_steady_matches_dense_oracle(ctmcs):
    # The direct solve meets the tighter residual gate as well; both land
    # within the oracle's accuracy.
    for name, c in ctmcs.items():
        pi = steady_state(c).probs
        oracle = dense_steady(c)
        assert np.abs(pi - oracle).max() <= 1e-7, name
        tight = steady_state(c, SolverOptions(steady_tol=1e-12)).probs
        assert np.abs(tight - oracle).max() <= 1e-8, name


def test_transient_matches_dense_expm(ctmcs):
    for name, c in ctmcs.items():
        for t in (0.5, 5.0, 50.0):
            p = transient(c, t).probs
            oracle = dense_transient(c, t)
            assert np.abs(p - oracle).max() <= 1e-7, (name, t)


def _built_at(k_max):
    params = ModelParams(k_max=k_max)
    return {
        name: eliminate_vanishing(build_reachability_graph(builtin_model(name, params)))
        for name in ("accidental", "cascading-only", "common-cause", "attack")
    }


def _dense_uniformization(c, t):
    """sum_k w[k] p0 P^k over the whole Poisson window, with P dense and the
    distribution a row vector: no transposed operator, no early stop."""
    lam = 1.05 * float((-c.generator.diagonal()).max())
    left, right, w = _poisson_window(lam * t)
    p = np.eye(c.n) + c.generator.toarray() / lam
    v = c.initial.astype(float)
    out = np.zeros(c.n)
    for k in range(right + 1):
        if k >= left:
            out += w[k - left] * v
        v = v @ p
    return out


def test_transient_step_matches_dense_row_uniformization():
    early_stops = 0
    for k_max in (2, 20):
        for name, c in _built_at(k_max).items():
            for t in (0.5, 50.0, 5000.0):
                dist = transient(c, t)
                want = _dense_uniformization(c, t)
                assert np.abs(dist.probs - want).max() <= 1e-12, (name, k_max, t)
                early_stops += dist.metadata["steps"] < dist.metadata["poisson_terms"][1]
    assert early_stops > 0  # t = 5000 reaches the early-stop branch


def test_steady_order_matches_default_order_solve():
    # Factoring under MMD on A^T + A rather than SuperLU's default COLAMD
    # changes rounding only.
    for name, c in _built_at(200).items():
        (scc,) = terminal_sccs(c)
        qt = c.generator[np.ix_(scc, scc)].T.tocsc()
        x = spla.splu(qt[:-1, :-1]).solve(-qt[:-1, -1].toarray().ravel())
        want = np.zeros(c.n)
        want[scc] = np.append(x, 1.0) / (x.sum() + 1.0)
        assert np.abs(steady_state(c).probs - want).max() <= 1e-12, name


def test_steady_common_cause_k2000():
    # The case the fill-reducing order is for: 4.3M nonzeros in L+U under
    # COLAMD, about 0.2M under MMD on A^T + A.
    model = builtin_model("common-cause", ModelParams(k_max=2000))
    c = eliminate_vanishing(build_reachability_graph(model))
    dist = steady_state(c)
    assert dist.metadata["terminal_scc_size"] == 28_014
    assert dist.metadata["residual"] <= SolverOptions().steady_tol
    assert abs(dist.probs.sum() - 1.0) <= 1e-9


def test_mtta_birth_chain():
    c = ctmc_of(birth_chain([2.0, 4.0]))
    res = mean_time_to_absorption(c, "end")
    assert abs(res.value - 0.75) <= 1e-12
    assert res.metadata["hit_probability"] == 1.0


def test_mtta_matches_dense_oracle(models, ctmcs):
    for name, c in ctmcs.items():
        var = "elec" if "elec" in c.model.var_index else "real_elec"
        vi = c.model.var_index[var]
        target = frozenset(i for i, s in enumerate(c.states) if s[vi] == "e_lost")
        got = mean_time_to_absorption(c, target).value
        want = dense_mtta(c, target)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), name


def test_mtta_unreachable_target(ctmcs):
    # The one-way model never reaches a weakened info status.
    c = ctmcs["cascading-only"]
    vi = c.model.var_index["info"]
    target = frozenset(i for i, s in enumerate(c.states) if s[vi] == "i_weakened")
    with pytest.raises(UnreachableTargetError):
        mean_time_to_absorption(c, target)


def test_mtta_defective_conditional():
    # 0 -> 1 (end) at rate 1, 0 -> 2 (dead end) at rate 3: hit prob 1/4.
    from infradep import (
        IntDomain, Model, RateExpr, SetValue, Timed, Transition, VariableDecl, var_eq, Label,
    )

    m = Model(
        name="fork",
        variables=(VariableDecl("x", IntDomain(0, 2), 0),),
        parameters={},
        transitions=(
            Transition("win", Timed(RateExpr(1.0)), var_eq("x", 0), (SetValue("x", 1),)),
            Transition("lose", Timed(RateExpr(3.0)), var_eq("x", 0), (SetValue("x", 2),)),
        ),
        labels=(Label("end", var_eq("x", 1)),),
    )
    c = ctmc_of(m)
    with pytest.raises(UnreachableTargetError) as exc:
        mean_time_to_absorption(c, "end")
    assert abs(exc.value.hit_probability - 0.25) <= 1e-12
    res = mean_time_to_absorption(c, "end", allow_defective=True)
    # Given absorption in `end`, the sojourn in 0 is Exp(4): mean 1/4.
    assert abs(res.value - 0.25) <= 1e-12
    assert res.metadata["hit_probability"] == pytest.approx(0.25, abs=1e-12)


def test_mtta_gate_passes_hit_probability_rounded_past_one():
    # On this target the LU solve returns hit probabilities a few 1e-14
    # above 1; the range gate must take that for rounding, not for a
    # failed solve.
    c = eliminate_vanishing(build_reachability_graph(builtin_model("attack", ModelParams(k_max=20))))
    target = {5, 11, 21, 29, 32, 60, 61, 73, 80, 87, 89, 97, 99, 109, 119, 149, 160}
    res = mean_time_to_absorption(c, target, allow_defective=True)
    assert res.metadata["hit_probability"] == pytest.approx(1.0, abs=1e-9)
    assert res.value > 0


def test_not_ergodic_two_absorbing(two_state):
    c = ctmc_of(birth_chain([1.0]))  # absorbing end, fine
    # Build a chain with two separate absorbing states.
    from infradep import (
        IntDomain, Model, RateExpr, SetValue, Timed, Transition, VariableDecl, var_eq,
    )

    m = Model(
        name="split",
        variables=(VariableDecl("x", IntDomain(0, 2), 0),),
        parameters={},
        transitions=(
            Transition("a", Timed(RateExpr(1.0)), var_eq("x", 0), (SetValue("x", 1),)),
            Transition("b", Timed(RateExpr(1.0)), var_eq("x", 0), (SetValue("x", 2),)),
        ),
    )
    with pytest.raises(NotErgodicError):
        steady_state(ctmc_of(m))
    # A single absorbing state is fine: point mass on it.
    pi = steady_state(c).probs
    assert pi[-1] == pytest.approx(1.0)


def test_attack_steady_lives_on_terminal_component(ctmcs):
    # The attack chain is reducible (configuration drift cannot reset once
    # the counter peaks with the grid not weakened); steady state must be
    # supported on the unique terminal component.
    c = ctmcs["attack"]
    dist = steady_state(c)
    assert dist.metadata["terminal_scc_size"] < c.n
    ni = c.model.var_index["n_cfg"]
    k = c.model.variable("n_cfg").domain.hi
    support = np.flatnonzero(dist.probs > 0)
    assert all(c.states[i][ni] == k for i in support)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_distribution_invariants(ctmcs):
    for c in ctmcs.values():
        for dist in (steady_state(c), transient(c, 7.5)):
            assert dist.probs.min() >= 0.0
            assert abs(dist.probs.sum() - 1.0) <= 1e-9


def test_transient_converges_to_steady(ctmcs):
    # Ergodic chains only: the attack chain is reducible and drains into
    # its terminal component on a much slower (rare-event product) scale
    # than any single exit rate.
    for name in ("accidental", "cascading-only", "common-cause"):
        c = ctmcs[name]
        exit_rates = -c.generator.diagonal()
        lam_min = exit_rates[exit_rates > 0].min()
        pi = steady_state(c).probs
        p = transient(c, 1000.0 / lam_min).probs
        assert np.abs(p - pi).max() <= 1e-6, name


def test_label_probability_full_and_empty(ctmc_a):
    dist = steady_state(ctmc_a)
    full = label_probability(dist, range(ctmc_a.n))
    assert abs(full.value - 1.0) <= 1e-9
    empty = label_probability(dist, frozenset())
    assert empty.value == 0.0
    assert full.method == "steady"


def test_label_probability_state8_positive(ctmcs):
    c = ctmcs["common-cause"]
    dist = steady_state(c)
    res = label_probability(dist, c.label_sets["state8"], name="p[state8]")
    oracle = dense_steady(c)[sorted(c.label_sets["state8"])].sum()
    assert res.value > 0
    assert abs(res.value - oracle) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(
    rates=st.lists(st.floats(min_value=0.05, max_value=20.0, allow_nan=False), min_size=1, max_size=6)
)
def test_mtta_additivity_on_series_chains(rates):
    c = ctmc_of(birth_chain(rates))
    res = mean_time_to_absorption(c, "end")
    expected = sum(1.0 / r for r in rates)
    assert abs(res.value - expected) <= 1e-9 * max(1.0, expected)


def test_steady_residual_reported(ctmc_a):
    dist = steady_state(ctmc_a)
    assert dist.metadata["residual"] <= 1e-12
    assert "iterations" not in dist.metadata


def test_no_convergence_when_residual_above_tol(ctmc_a):
    with pytest.raises(NoConvergenceError) as exc:
        steady_state(ctmc_a, SolverOptions(steady_tol=1e-30))
    assert exc.value.residual > 1e-30


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, 1.0], [1.0, -1.0]],  # exactly singular balance system
        [[-np.inf, np.inf], [1.0, -1.0]],  # non-finite rates: NaN residual
    ],
)
def test_steady_bad_generator_is_no_convergence(two_state, rows):
    bad = replace(two_state, generator=sp.csr_matrix(np.array(rows)))
    with pytest.raises(NoConvergenceError):
        steady_state(bad)
