"""Exact solvers versus closed forms and dense oracles."""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from infradep import (
    InfradepError,
    InvalidArgError,
    ModelParams,
    NoConvergenceError,
    NotErgodicError,
    UnknownLabelError,
    UnreachableTargetError,
    build_reachability_graph,
    builtin_model,
    eliminate_vanishing,
    label_probability,
    mean_time_to_absorption,
    steady_state,
    transient,
)
from infradep.solvers import (
    MIN_RUNG,
    STEP_BATCH,
    SolverOptions,
    _poisson_window,
    _require_in_range,
    _rung,
    csr_matvec,
    terminal_sccs,
)
from infradep.statespace import _restrict

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


def test_transient_without_rates_keeps_the_initial_distribution():
    for c in (_chain_of_rates(sp.csr_matrix((2, 2)), [0.25, 0.75]),
              _chain_of_rates(sp.csr_matrix((1, 1)), [1.0])):  # a single state
        dist = transient(c, 10.0)
        assert np.array_equal(dist.probs, c.initial)
        assert math.copysign(1.0, dist.metadata["uniformization_rate"]) == 1.0  # 0.0, not -0.0
        assert dist.metadata["steps"] == dist.metadata["row_steps"] == 0


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


@functools.cache
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


def _uniformized_transpose(c):
    """P^T in CSR for P = I + Q / Lambda, Lambda = 1.05 times the largest
    exit rate, built as ``transient`` builds it."""
    scale = 1 / (1.05 * float(c.exit.max()))
    return _restrict(c.incoming, None, 1.0 - c.exit * scale, scale).T


def _full_row_uniformization(c, t):
    """Uniformization with transient's arithmetic and stop rule, stepping
    every row of P^T: the reference for its row-prefix steps."""
    lam = 1.05 * float((-c.generator.diagonal()).max())
    left, right, w = _poisson_window(lam * t)
    pt = (sp.eye(c.n, format="csr") + c.generator / lam).T.tocsr()
    v = c.initial.astype(float)
    out = np.zeros(c.n)
    steps = 0
    for k in range(right + 1):
        if k >= left:
            out += w[k - left] * v
        if k == right:
            break
        nxt = pt @ v
        steps += 1
        if float(np.abs(nxt - v).sum()) <= 1e-14:
            if k + 1 >= left:
                out += w[k + 1 - left :].sum() * nxt
            else:
                out += nxt
            break
        v = nxt
    return out, steps


def _assert_matches_full_rows(c, t, what):
    dist = transient(c, t)
    want, steps = _full_row_uniformization(c, t)
    assert np.array_equal(dist.probs, want), what
    assert dist.metadata["steps"] == steps, what
    return dist


def test_transient_prefix_steps_match_full_rows_on_builtins():
    early_stops = 0
    for k_max, times in ((200, (0.5, 50.0, 5000.0)), (2000, (0.5, 50.0))):
        for name, c in _built_at(k_max).items():
            for t in times:
                dist = _assert_matches_full_rows(c, t, (name, k_max, t))
                early_stops += dist.metadata["steps"] < dist.metadata["poisson_terms"][1]
    assert early_stops > 0  # t = 5000 reaches the early-stop branch


def _band_chain(n, initial, extra=(), absorbing=(), seed=0):
    """A chain on states 0..n-1 with random-rate edges i -> i+1, i -> i+2
    and i -> i-1, plus ``extra`` (src, dst, rate) edges; states in
    ``absorbing`` keep no outgoing edge (an empty row of rates)."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    src = np.concatenate([i[:-1], i[:-2], i[1:]])
    dst = np.concatenate([i[1:], i[2:], i[:-1]])
    rate = rng.uniform(0.2, 2.0, len(src))
    extra = np.array(extra, dtype=float).reshape(-1, 3)
    src = np.concatenate([src, extra[:, 0].astype(int)])
    dst = np.concatenate([dst, extra[:, 1].astype(int)])
    rate = np.concatenate([rate, extra[:, 2]])
    keep = ~np.isin(src, list(absorbing))
    rates = sp.csr_matrix((rate[keep], (src[keep], dst[keep])), shape=(n, n))
    p0 = np.zeros(n)
    for state, mass in initial.items():
        p0[state] = mass
    return _chain_of_rates(rates, p0)


def _chain_of_rates(rates, initial):
    """A chain on states 0..n-1 with the given ``rates`` CSR (positive
    entries only, no diagonal) and initial distribution."""
    base = ctmc_of(birth_chain([1.0]))
    return replace(base, states=tuple((s,) for s in range(rates.shape[0])), rates=rates,
                   initial=np.asarray(initial, dtype=float))


def test_transient_prefix_steps_match_full_rows_on_hand_built_chains():
    n = 5000
    cases = {
        "mass away from index 0": (_band_chain(n, {1500: 1.0}), True),
        # As a vanishing initial state leaves it.
        "mass spread over states": (_band_chain(n, {0: 0.5, 3: 0.3, 7: 0.2}), True),
        "edge to the last index": (_band_chain(n, {0: 1.0}, extra=[(0, n - 1, 0.5)]), False),
        # Absorbing 3998 and 3999 leaves 4000.. unreachable, though they
        # have edges back into reachable states; 20 absorbs on the way.
        "unreachable and absorbing states": (
            _band_chain(n, {0: 1.0}, absorbing=(20, 3998, 3999)),
            True,
        ),
    }
    for what, (c, prefix) in cases.items():
        for t in (0.5, 50.0):
            dist = _assert_matches_full_rows(c, t, (what, t))
            full = dist.metadata["steps"] * n
            assert (dist.metadata["row_steps"] < full) == prefix, (what, t)


def test_transient_row_steps_count_the_rows_multiplied():
    c = _built_at(2)["common-cause"]
    dist = transient(c, 50.0)
    assert dist.metadata["row_steps"] == dist.metadata["steps"] * c.n
    c = _built_at(2000)["common-cause"]
    dist = transient(c, 50.0)
    assert 0 < dist.metadata["row_steps"] < dist.metadata["steps"] * c.n


def _slow_pair_chain(s):
    """Three states, 0 <-> 1 at rate 1 and 1 <-> 2 at rate ``s``, starting
    in 0: the smaller ``s``, the more steps its powers take to converge."""
    rates = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, s], [0.0, s, 0.0]]))
    return _chain_of_rates(rates, [1.0, 0.0, 0.0])


# steps and row_steps of transient(_slow_pair_chain(s), 40.0), as stepping
# one power at a time counted them.  Every case stops early, after the
# window's left edge (16 to 21), and the stop step lands on each offset
# within a batch of STEP_BATCH steps: 62 steps end on the 30th step of the
# second batch, 64 on its last, 65 on the first of the third.
PINNED_STOPS = {
    0.5: (62, 186), 0.4925: (63, 189), 0.48: (64, 192), 0.4675: (65, 195),
    0.455: (66, 198), 0.445: (67, 201), 0.435: (68, 204), 0.425: (69, 207),
    0.415: (70, 210), 0.405: (71, 213), 0.3975: (72, 216), 0.39: (73, 219),
    0.38: (74, 222), 0.3725: (75, 225), 0.365: (76, 228), 0.36: (77, 231),
    0.3525: (78, 234), 0.3475: (79, 237), 0.34: (80, 240), 0.335: (81, 243),
    0.33: (82, 246), 0.3225: (83, 249), 0.3175: (84, 252), 0.3125: (85, 255),
    0.3075: (86, 258), 0.3025: (87, 261), 0.3: (88, 264), 0.295: (89, 267),
    0.29: (90, 270), 0.285: (91, 273), 0.2825: (92, 276), 0.2775: (93, 279),
}


def test_transient_stop_on_every_batch_offset_matches_full_rows():
    offsets = set()
    for s, pinned in PINNED_STOPS.items():
        meta = _assert_matches_full_rows(_slow_pair_chain(s), 40.0, s).metadata
        assert (meta["steps"], meta["row_steps"]) == pinned, s
        assert meta["steps"] < meta["poisson_terms"][1], s
        offsets.add((meta["steps"] - 1) % STEP_BATCH)
    assert offsets == set(range(STEP_BATCH))


# steps and row_steps of transient on each case below, as stepping one
# power at a time counted them.
PINNED_BATCH_EDGES = {
    "stop at the first step": (1, 50),
    "two states": (26, 52),
    "left inside a batch": (407, 244200),
    "rung grows mid-batch": (1441, 2924640),
    "rung grows to every row": (1456, 1940764),
    "right 0": (0, 0),
    "right 1": (1, 3),
    "right 1 on a rung": (1, 2048),
}


def test_transient_batch_edges_match_full_rows():
    cases = {
        # The mass starts on an absorbing state: the first step repeats it.
        "stop at the first step": (_band_chain(50, {20: 1.0}, absorbing=(20,)), 5.0),
        # The narrowest chain that steps: its Poisson terms are 2-entry rows.
        "two states": (ctmc_of(two_state_chain(1.0, 3.0)), 100.0),
        # The window is [197, 407], and no step converges.
        "left inside a batch": (_band_chain(600, {0: 1.0}), 50.0),
        # The 1,024-row rung is outgrown before step 462, the 14th of a
        # batch, and the 2,048-row rung before step 974.
        "rung grows mid-batch": (_band_chain(3000, {100: 1.0}), 200.0),
        "rung grows to every row": (_band_chain(1500, {0: 1.0}), 200.0),
        "right 0": (_slow_pair_chain(0.5), 1e-11),
        "right 1": (_slow_pair_chain(0.5), 1e-8),
        "right 1 on a rung": (_band_chain(3000, {1500: 1.0}), 1e-9),
    }
    for what, (c, t) in cases.items():
        meta = _assert_matches_full_rows(c, t, what).metadata
        assert (meta["steps"], meta["row_steps"]) == PINNED_BATCH_EDGES[what], what


def test_csr_kernel_matches_the_sparse_product():
    # transient steps through scipy's private CSR kernel, writing into a
    # zeroed buffer row; a scipy whose kernel no longer gives ``op @ v``
    # bit for bit fails here instead of moving results silently.
    rng = np.random.default_rng(5)
    for k_max in (2, 20, 200, 2000):
        for name, c in _built_at(k_max).items():
            pt = _uniformized_transpose(c)
            rows = MIN_RUNG
            while True:
                op = _rung(pt, rows)
                size = op.shape[0]
                buf = np.zeros((2, size))
                buf[0] = rng.random(size)
                csr_matvec(size, size, op.indptr, op.indices, op.data, buf[0], buf[1])
                assert np.array_equal(buf[1], op @ buf[0]), (name, k_max, size)
                if size == c.n:
                    break
                rows = 2 * size


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


def _fork():
    """0 -> 1 (end) at rate 1, 0 -> 2 (dead end) at rate 3: hit prob 1/4."""
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
    return ctmc_of(m)


def test_mtta_defective_conditional():
    c = _fork()
    with pytest.raises(UnreachableTargetError) as exc:
        mean_time_to_absorption(c, "end")
    assert abs(exc.value.hit_probability - 0.25) <= 1e-12
    res = mean_time_to_absorption(c, "end", allow_defective=True)
    # Given absorption in `end`, the sojourn in 0 is Exp(4): mean 1/4.
    assert abs(res.value - 0.25) <= 1e-12
    assert res.metadata["hit_probability"] == pytest.approx(0.25, abs=1e-12)


def test_mtta_defective_factors_its_system_once(monkeypatch):
    # The hit probabilities and the hit-weighted times solve the same
    # system: one LU serves both right-hand sides.
    calls = {"splu": 0, "spsolve": 0}

    def counted(name):
        original = getattr(spla, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(spla, name, counted(name))
    res = mean_time_to_absorption(_fork(), "end", allow_defective=True)
    assert res.metadata["conditional"]
    assert calls == {"splu": 1, "spsolve": 0}


@pytest.mark.parametrize("k_max", [2, 20, 200])
def test_generator_is_assembled_canonical(k_max):
    # Sorted indices without duplicates, no stored zero, and a diagonal
    # exactly where the exit rate is positive, equal to minus the sum of
    # its row's other entries (to rounding: the order of the sum is the
    # solver's own).  The rates it is formed from are positive and store
    # no diagonal.
    for name, c in _built_at(k_max).items():
        r = c.rates
        assert (r.data > 0).all(), name
        assert not (r.indices == np.repeat(np.arange(c.n), np.diff(r.indptr))).any(), name
        q = c.generator
        rows = np.repeat(np.arange(c.n), np.diff(q.indptr))
        assert (np.diff(rows * c.n + q.indices) > 0).all(), name
        assert (q.data != 0).all(), name
        on_diag = q.indices == rows
        exit_rate = np.array([
            math.fsum(q.data[a:b][~on_diag[a:b]]) for a, b in zip(q.indptr[:-1], q.indptr[1:])
        ])
        assert np.array_equal(rows[on_diag], np.flatnonzero(exit_rate > 0)), name
        assert np.allclose(q.data[on_diag], -exit_rate[exit_rate > 0], rtol=1e-15, atol=0), name


def _outcome(solve, *args, **kwargs) -> str:
    """A solver's result as text that changes with any of its bits: the
    probabilities' bytes or the value's hex, and the metadata's repr; or
    the error's class and message."""
    try:
        r = solve(*args, **kwargs)
    except InfradepError as e:
        return f"{type(e).__name__}: {e}"
    head = r.probs.tobytes().hex() if hasattr(r, "probs") else float(r.value).hex()
    return f"{head} {r.metadata!r}"


def _chain_digest(c) -> str:
    h = hashlib.sha256()
    q = c.generator
    for a in (q.data, q.indices, q.indptr, c.initial):
        h.update(a.dtype.str.encode() + b"\n" + a.tobytes())
    for name, idx in sorted(c.label_sets.items()):
        h.update(f"\n{name} {idx.tolist()}".encode())
    outcomes = [_outcome(steady_state, c), _outcome(transient, c, 0.5), _outcome(transient, c, 50.0)]
    outcomes += [_outcome(mean_time_to_absorption, c, name, allow_defective=True)
                 for name in sorted(c.label_sets)]
    for text in outcomes:
        h.update(f"\n{text}".encode())
    return h.hexdigest()


# The reduced chain and every exact measure on it must not change by one
# bit: the generator's arrays (bytes and dtypes), the initial distribution,
# the label sets, steady state, transient at t 0.5 and 50, and MTTA into
# every label (defective targets allowed), each with its metadata or error.
PINNED_CHAINS = {
    "accidental 2": "b3caab91f81e3312b457a8f8b5d94190b881806fa89f43d1269d240cc2a65a8f",
    "accidental 20": "f3098d1367c786eac9b777d79f44db23b5d7466bf98effdebdfadf1b3e539235",
    "accidental 200": "622abe997dc1e4ab254712d3eee70e76d826949bbebfa36971df319218f0d132",
    "cascading-only 2": "a1dae73de5b41e8bd31e8d2c66c19f737e0872fd5668972f8f265ef6dcae9bae",
    "cascading-only 20": "5be2629b952a2bf6c33beaf0917d1014ca495e1b989b04b3135286a26533083e",
    "cascading-only 200": "a283a90db18e650799814c8c28aaaa33d554f8ea69305f9a3e5a75c76a71faea",
    "common-cause 2": "776ec990281ae73584ee2a9871e47fbc5b691c3e9300f6d15b266ff8223a76ad",
    "common-cause 20": "f6c7ffa1cbb61778a35e99d84b59a32717753c595b66839af8e7e69f0289d1e7",
    "common-cause 200": "5a3b44519cb100fdb41788a8a150731b6d8ba5d4077a417bcf5595fe78767fb1",
    "attack 2": "2f4e733b3bfde8ecb9fca373df1c5b9f588ee422d4bcc0b30b6fc779f4d8fdbf",
    "attack 20": "402f2d76c34a80ad04bc97ccc7b87336ce3a6652450a0eba5b0fae63eb97fd29",
    "attack 200": "85fe705abce61c8773d169e171f48fae3becbf01dacc8e1d52d817b0ab3ce06b",
}


@pytest.mark.parametrize("case", sorted(PINNED_CHAINS))
def test_chains_match_pinned_digests(case):
    name, k_max = case.split()
    assert _chain_digest(_built_at(int(k_max))[name]) == PINNED_CHAINS[case]


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


def test_terminal_sccs_read_only_positive_entries():
    # States 0 and 1 exchange at rate 1 and state 3 leaves for state 2,
    # which has no rate out: {0, 1} and state 2 are terminal, and state 3,
    # whose component has a rate out, is not.
    rates = sp.csr_matrix(np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]], float))
    c = _chain_of_rates(rates, np.eye(4)[0])
    assert sorted(map(tuple, terminal_sccs(c))) == [(0, 1), (2,)]


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


def test_label_probability_rejects_an_index_out_of_range(ctmc_a):
    dist = steady_state(ctmc_a)
    for bad in ({-1}, {ctmc_a.n}, {2**70}, np.array([-1]), np.array([0, ctmc_a.n])):
        with pytest.raises(InvalidArgError, match="out of range"):
            label_probability(dist, bad)


def test_mtta_rejects_a_target_index_out_of_range(ctmc_a):
    for bad in ([-1], [0, ctmc_a.n], [2**70], np.array([ctmc_a.n])):
        with pytest.raises(InvalidArgError, match="target state index out of range"):
            mean_time_to_absorption(ctmc_a, bad)


def test_index_sets_of_any_form_give_bit_identical_measures(ctmcs):
    # A label's array, the array reversed, its states as a frozenset and
    # as a list in descending order are one index set, and so is the
    # label's name.
    for name, c in ctmcs.items():
        dist = transient(c, 5.0)
        for label, idx in c.label_sets.items():
            forms = (idx, idx[::-1], frozenset(idx.tolist()), idx.tolist()[::-1])
            values = {label_probability(dist, f).value.hex() for f in forms}
            assert len(values) == 1, (name, label)
            if len(idx):
                res = [mean_time_to_absorption(c, f, allow_defective=True) for f in (label, *forms)]
                assert len({(r.value.hex(), repr(r.metadata)) for r in res}) == 1, (name, label)


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


# 0 <-> 1 at rate 1, and both -> 2 at a rate that rounds away in their
# exit rates: a system that is exactly singular in floating point.
SINGULAR_RATES = [[0.0, 1.0, 1e-300], [1.0, 0.0, 1e-300], [1.0, 0.0, 0.0]]


@pytest.mark.parametrize(
    "rows",
    [
        SINGULAR_RATES,  # with 2 -> 0, an exactly singular balance system
        [[0.0, np.inf], [1.0, 0.0]],  # non-finite rates: NaN residual
    ],
)
def test_steady_bad_generator_is_no_convergence(rows):
    bad = _chain_of_rates(sp.csr_matrix(np.array(rows)), np.eye(len(rows))[0])
    with pytest.raises(NoConvergenceError):
        steady_state(bad)


def test_mtta_singular_hitting_system_is_no_convergence():
    c = _chain_of_rates(sp.csr_matrix(np.array(SINGULAR_RATES)), [1.0, 0.0, 0.0])
    with pytest.raises(NoConvergenceError, match="hitting-time system is singular"):
        mean_time_to_absorption(c, {2})


@pytest.mark.parametrize(
    "target, error",
    [("no_such_label", UnknownLabelError), ({0, -1}, InvalidArgError), ({5, 10**6}, InvalidArgError)],
)
def test_mtta_rejects_a_bad_target(ctmc_a, target, error):
    with pytest.raises(error):
        mean_time_to_absorption(ctmc_a, target)


def test_mtta_into_a_target_holding_the_initial_state_is_zero(ctmc_a):
    # The accidental model starts in `state1`: nothing is left to solve.
    assert ctmc_a.initial[sorted(ctmc_a.label_sets["state1"])].sum() == 1.0
    res = mean_time_to_absorption(ctmc_a, "state1")
    assert res.value == 0.0
    assert res.metadata == {"residual": 0.0, "target_states": len(ctmc_a.label_sets["state1"]),
                            "hit_probability": 1.0}


def test_range_gate_names_the_worst_entry():
    x = np.array([0.5, -0.002, -0.2, 1.0 + 1e-12, 0.3])
    with pytest.raises(NoConvergenceError, match=r"p -0\.2 is outside \[0, 1\]"):
        _require_in_range(x, 0.0, 1.0, "p", 0.0)
    with pytest.raises(NoConvergenceError, match=r"p nan is outside"):
        _require_in_range(np.append(x, np.nan), 0.0, 1.0, "p", 0.0)
    _require_in_range(np.array([1e-10, -1e-10]), 0.0, 1.0, "p", 0.0)  # within the slack
    with pytest.raises(NoConvergenceError, match=r"p -1e-10 is outside"):
        _require_in_range(np.array([1e-10, -1e-10]), 0.0, 1.0, "p", 0.0, floor=-1e-14)


# Each tolerance is pinned at its edge: a value just inside it passes and
# one just outside fails, so that moving the tolerance either way shows.


@pytest.mark.parametrize("hi, top", [(1.0, 1.0), (math.inf, 1e6)])
def test_range_slack_is_a_share_of_the_largest_entry_at_least_1(hi, top):
    # The slack is RANGE_SLACK (1e-9) times max(1, the largest entry): 1e-9
    # when every entry is at most 1, and 1e-3 next to an entry of 1e6.
    slack = 1e-9 * top
    _require_in_range(np.array([-0.9 * slack, 0.5, top]), 0.0, hi, "x", 0.0)
    with pytest.raises(NoConvergenceError):
        _require_in_range(np.array([-1.1 * slack, 0.5, top]), 0.0, hi, "x", 0.0)


def test_range_slack_does_not_shrink_below_entries_of_1():
    # Entries far below 1 still get the slack of an entry of 1.
    _require_in_range(np.array([-0.9e-9, 1e-3]), 0.0, 1.0, "p", 0.0)
    with pytest.raises(NoConvergenceError):
        _require_in_range(np.array([-1.1e-9, 1e-3]), 0.0, 1.0, "p", 0.0)


def test_range_slack_above_the_range():
    _require_in_range(np.array([0.25, 0.5 + 0.9e-9]), 0.0, 0.5, "p", 0.0)
    with pytest.raises(NoConvergenceError):
        _require_in_range(np.array([0.25, 0.5 + 1.1e-9]), 0.0, 0.5, "p", 0.0)


def test_range_gate_admits_its_exact_edges():
    # With every entry below 1 the slack is exactly 1e-9, so these entries
    # sit on ``lo - slack`` and ``hi + slack`` to the last bit.
    _require_in_range(np.array([-1e-9, 0.25]), 0.0, 1.0, "p", 0.0)
    _require_in_range(np.array([0.25, 0.5 + 1e-9]), 0.0, 0.5, "p", 0.0)


def test_steady_floor_edge():
    # STEADY_FLOOR (-1e-14) bounds an entry below the range slack's reach.
    from infradep.solvers import STEADY_FLOOR

    _require_in_range(np.array([-0.9e-14, 1.0]), 0.0, 1.0, "p", 0.0, floor=STEADY_FLOOR)
    _require_in_range(np.array([-1e-14, 1.0]), 0.0, 1.0, "p", 0.0, floor=STEADY_FLOOR)
    with pytest.raises(NoConvergenceError):
        _require_in_range(np.array([-1.1e-14, 1.0]), 0.0, 1.0, "p", 0.0, floor=STEADY_FLOOR)


def _patched_balance(monkeypatch, pi):
    import infradep.solvers as solvers

    monkeypatch.setattr(solvers, "_solve_balance", lambda qt: np.array(pi))


def test_steady_residual_gate_edge(monkeypatch):
    # On 0 <-> 1 at rate 1 both ways, pi = (1/2 + d, 1/2 - d) leaves the
    # residual |pi Q|_inf = 2 d; the default gate is steady_tol = 1e-10.
    c = ctmc_of(two_state_chain(1.0, 1.0))
    _patched_balance(monkeypatch, [0.5 + 0.45e-10, 0.5 - 0.45e-10])
    assert steady_state(c).metadata["residual"] == pytest.approx(0.9e-10, rel=1e-5)
    _patched_balance(monkeypatch, [0.5 + 0.55e-10, 0.5 - 0.55e-10])
    with pytest.raises(NoConvergenceError, match="residual"):
        steady_state(c)


def test_steady_clips_entries_above_its_floor(monkeypatch):
    # 0 -> 1 at 1e-20 and back at 1: state 1's true weight is 1e-20, so an
    # entry of -0.9e-14 there is rounding (clipped to 0) at a residual near
    # 1e-14, and one of -1.1e-14 fails the floor.
    c = ctmc_of(two_state_chain(1e-20, 1.0))
    _patched_balance(monkeypatch, [1.0, -0.9e-14])
    probs = steady_state(c).probs
    assert probs[c.states.index((1,))] == 0.0
    _patched_balance(monkeypatch, [1.0, -1.1e-14])
    with pytest.raises(NoConvergenceError, match="outside"):
        steady_state(c)


@pytest.mark.parametrize("hops, inside, outside", [(1, 9.9e5, 1e6), (1000, 4.9e5, 5e5)])
def test_transient_work_budget_edge(hops, inside, outside):
    # A chain of ``hops`` unit-rate hops has Lambda = 1.05 and 2 hops + 1
    # entries in P^T (3, counted as 1,000, or 2,001).  Its window's last
    # power, Lambda*t plus about 1%, times those entries is held to 1e9:
    # just under it at Lambda*t = ``inside``, about 0.6% over at ``outside``.
    c = ctmc_of(birth_chain([1.0] * hops))
    assert _uniformized_transpose(c).nnz == 2 * hops + 1
    meta = transient(c, inside / 1.05).metadata
    assert meta["uniformization_rate"] == 1.05
    assert meta["steps"] > 0
    with pytest.raises(InvalidArgError, match="at most 1e\\+09"):
        transient(c, outside / 1.05)
