"""Tests for the recurrence engine: single steps, closed forms, symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinwalk.evolution
from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    LatticeExhaustedError,
    LatticeSpec,
    WalkerState,
    distribution,
    entanglement_series,
    evolve,
    initial_state,
    iter_steps,
    make_coin,
    named_coin,
    run_walk,
)

from conftest import normalized_pair, random_coin_angles

TRIPLES = [(0.3, 0.7, 1.1), (1.2, 0.0, 2.6), (4.4, 2.9, 0.5)]


def _amp(state, row, x):
    return state.amplitudes[row, state.lattice.origin_index + x]


# ------------------------------------------------------------
# Closed forms for one and two steps
# ------------------------------------------------------------


@pytest.mark.parametrize("theta, phi1, phi2", TRIPLES)
def test_one_step_from_head(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    state = evolve(initial_state(1.0, 0.0, LatticeSpec(3)), make_coin(p), 1)
    c, s = math.cos(p.theta), math.sin(p.theta)
    assert abs(_amp(state, 0, 1) - c) <= 1e-15
    assert abs(_amp(state, 1, -1) - np.exp(1j * p.phi2) * s) <= 1e-15
    assert state.time == 1
    # nothing anywhere else: every other entry is an exact zero
    rest = state.amplitudes.copy()
    rest[0, state.lattice.origin_index + 1] = 0.0
    rest[1, state.lattice.origin_index - 1] = 0.0
    assert np.all(rest == 0.0)


@pytest.mark.parametrize("theta, phi1, phi2", TRIPLES)
def test_one_step_general_coin_state(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    alpha, beta = 0.6, -0.8j
    state = evolve(initial_state(alpha, beta, LatticeSpec(3)), make_coin(p), 1)
    c, s = math.cos(p.theta), math.sin(p.theta)
    e1, e2 = np.exp(1j * p.phi1), np.exp(1j * p.phi2)
    assert abs(_amp(state, 0, 1) - (alpha * c + beta * e1 * s)) <= 1e-15
    assert abs(_amp(state, 1, -1) - (alpha * e2 * s - beta * e1 * e2 * c)) <= 1e-15


@pytest.mark.parametrize("theta, phi1, phi2", TRIPLES)
def test_two_steps_from_head(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    state = evolve(initial_state(1.0, 0.0, LatticeSpec(3)), make_coin(p), 2)
    c, s = math.cos(p.theta), math.sin(p.theta)
    assert abs(_amp(state, 0, 2) - c * c) <= 1e-14
    assert abs(_amp(state, 0, 0) - np.exp(1j * (p.phi1 + p.phi2)) * s * s) <= 1e-14
    assert abs(_amp(state, 1, 0) - np.exp(1j * p.phi2) * s * c) <= 1e-14
    assert abs(_amp(state, 1, -2) + np.exp(1j * (p.phi1 + 2 * p.phi2)) * s * c) <= 1e-14
    assert state.time == 2


# ------------------------------------------------------------
# Special rotation angles
# ------------------------------------------------------------


def test_swap_coin_exchanges_and_shifts():
    # theta = 90 deg: one step sends alpha|H>|0> + beta|T>|0> to
    # alpha|T>|-1> + beta|H>|+1>.
    alpha, beta = 0.6, 0.8j
    coin = make_coin(named_coin("grover"))
    state = evolve(initial_state(alpha, beta, LatticeSpec(2)), coin, 1)
    assert abs(_amp(state, 1, -1) - alpha) <= 1e-15
    assert abs(_amp(state, 0, 1) - beta) <= 1e-15
    # and two steps bring the walker home up to the (-1) tail sign
    state = evolve(state, coin, 1)
    assert abs(_amp(state, 0, 0) - alpha) <= 1e-15
    assert abs(_amp(state, 1, 0) - beta) <= 1e-15


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_identity_rotation_is_ballistic(steps):
    # theta = 0: head amplitude rides right, tail amplitude rides left and
    # picks up (-1)^t.
    alpha, beta = UNBIASED_INIT
    state = evolve(initial_state(alpha, beta, LatticeSpec(5)), make_coin(CoinParams(0.0, 0.0, 0.0)), steps)
    assert _amp(state, 0, steps) == alpha
    assert _amp(state, 1, -steps) == (-1) ** steps * beta
    assert abs(np.abs(state.amplitudes).sum() - abs(alpha) - abs(beta)) <= 1e-15


# ------------------------------------------------------------
# Step/evolve mechanics
# ------------------------------------------------------------


def test_zero_steps_is_the_identity():
    state = initial_state(*UNBIASED_INIT, LatticeSpec(3))
    evolved = evolve(state, make_coin(named_coin("hadamard")), 0)
    assert evolved is state


def test_negative_steps_are_rejected():
    state = initial_state(*UNBIASED_INIT, LatticeSpec(3))
    with pytest.raises(ValueError, match="non-negative"):
        evolve(state, make_coin(named_coin("hadamard")), -1)


def test_step_does_not_mutate_its_input():
    state = initial_state(*UNBIASED_INIT, LatticeSpec(3))
    before = state.amplitudes.copy()
    evolve(state, make_coin(named_coin("hadamard")), 1)
    assert np.array_equal(state.amplitudes, before)
    assert state.time == 0


def test_walk_past_the_window_is_refused():
    coin = make_coin(named_coin("hadamard"))
    state = evolve(initial_state(*UNBIASED_INIT, LatticeSpec(4)), coin, 4)
    with pytest.raises(LatticeExhaustedError, match="larger half_width"):
        evolve(state, coin, 1)
    with pytest.raises(LatticeExhaustedError):
        evolve(initial_state(*UNBIASED_INIT, LatticeSpec(4)), coin, 5)


def test_iter_steps_checks_the_request_when_called():
    state = initial_state(*UNBIASED_INIT, LatticeSpec(3))
    coin = make_coin(named_coin("hadamard"))
    with pytest.raises(ValueError, match="non-negative"):
        iter_steps(state, coin, -1)
    with pytest.raises(LatticeExhaustedError):
        iter_steps(state, coin, 4)
    assert list(iter_steps(state, coin, 0)) == []


# ------------------------------------------------------------
# iter_steps and evolve against a loop of single steps
# ------------------------------------------------------------


def _assert_same_walk(state, coin, steps):
    expected = state
    for table, lo, hi in iter_steps(state, coin, steps):
        expected = evolve(expected, coin, 1)
        assert np.array_equal(table, expected.amplitudes)
        assert np.all(table[:, [0, -1]] == 0.0)
        assert 1 <= lo <= hi <= table.shape[1] - 1
        assert not np.any(table[:, :lo]) and not np.any(table[:, hi:])
    assert expected.time == state.time + steps
    evolved = evolve(state, coin, steps)
    assert evolved.time == expected.time
    assert np.array_equal(evolved.amplitudes, expected.amplitudes)
    assert np.all(evolved.amplitudes[:, [0, -1]] == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_evolve_equals_stepping_from_the_origin(seed):
    rng = np.random.default_rng(3000 + seed)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    state = initial_state(*normalized_pair(rng), LatticeSpec(30))
    _assert_same_walk(state, coin, 30)
    _assert_same_walk(evolve(state, coin, 7), coin, 23)


@pytest.mark.parametrize("seed", range(5))
def test_evolve_equals_stepping_from_an_off_origin_start(seed):
    rng = np.random.default_rng(4000 + seed)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    alpha, beta = normalized_pair(rng)
    lattice = LatticeSpec(25)
    amp = np.zeros((2, lattice.size), dtype=complex)
    amp[:, lattice.origin_index - 9] = alpha, beta
    _assert_same_walk(WalkerState(amp, lattice), coin, 20)


@pytest.mark.parametrize("seed", range(5))
def test_evolve_zeroes_nonzero_guard_columns(seed):
    rng = np.random.default_rng(5000 + seed)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    lattice = LatticeSpec(8)
    amp = rng.normal(size=(2, lattice.size)) + 1j * rng.normal(size=(2, lattice.size))
    for steps in (1, 2, 3, 8):
        _assert_same_walk(WalkerState(amp, lattice), coin, steps)
    guards_only = np.zeros_like(amp)
    guards_only[:, [0, -1]] = amp[:, [0, -1]]
    _assert_same_walk(WalkerState(guards_only, lattice), coin, 5)


def _subnormal_parts(amplitudes):
    parts = np.abs(amplitudes.view(np.float64))
    return np.count_nonzero((parts > 0.0) & (parts < np.finfo(np.float64).tiny))


def test_flush_keeps_the_tails_out_of_the_subnormal_range(monkeypatch):
    # theta = 85 deg: the tails shrink by about 0.087 a step, so unflushed
    # they reach the subnormal range long before T = 400.  The walk starts
    # off the flush schedule (t = 5) and passes through a dozen flushes.
    coin = make_coin(CoinParams(math.radians(85.0), 0.4, 1.3))
    state = evolve(initial_state(*UNBIASED_INIT, LatticeSpec(400)), coin, 5)
    _assert_same_walk(state, coin, 395)
    flushed = evolve(state, coin, 395)
    ranks, entropies = entanglement_series(state, coin, 395)
    monkeypatch.setattr(coinwalk.evolution, "_FLUSH_EVERY", 10**9)
    unflushed = evolve(state, coin, 395)
    assert _subnormal_parts(unflushed.amplitudes) > 0
    assert _subnormal_parts(flushed.amplitudes) == 0
    # What the flush zeroes squares to zero: no probability or Schmidt
    # weight moves by a single bit.
    assert np.array_equal(distribution(flushed).probs, distribution(unflushed).probs)
    unflushed_ranks, unflushed_entropies = entanglement_series(state, coin, 395)
    assert np.array_equal(ranks, unflushed_ranks)
    assert np.array_equal(entropies, unflushed_entropies)


def test_evolve_keeps_the_zero_state_zero():
    lattice = LatticeSpec(4)
    zero = WalkerState(np.zeros((2, lattice.size), dtype=complex), lattice, time=1)
    _assert_same_walk(zero, make_coin(named_coin("hadamard")), 3)


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_the_evolved_state_keeps_only_its_own_table_alive(steps):
    # The result owns its table: it is not a view that pins the second step buffer.
    lattice = LatticeSpec(10)
    state = evolve(initial_state(*UNBIASED_INIT, lattice), make_coin(named_coin("hadamard")), steps)
    assert state.amplitudes.base is None
    assert state.amplitudes.nbytes == 2 * lattice.size * 16


# ------------------------------------------------------------
# run_walk
# ------------------------------------------------------------


def test_two_step_hadamard_distribution_from_head():
    dist = run_walk(named_coin("hadamard"), 1.0, 0.0, steps=2)
    assert np.array_equal(dist.positions, np.arange(-3, 4))
    assert dist.probability(-2) == pytest.approx(0.25, abs=1e-15)
    assert dist.probability(0) == pytest.approx(0.5, abs=1e-15)
    assert dist.probability(2) == pytest.approx(0.25, abs=1e-15)
    assert dist.time == 2


def test_run_walk_requires_positive_steps():
    with pytest.raises(ValueError, match="positive"):
        run_walk(named_coin("hadamard"), *UNBIASED_INIT, steps=0)


def test_run_walk_total_probability():
    dist = run_walk(CoinParams(1.1, 0.3, 0.8), *UNBIASED_INIT, steps=60)
    assert abs(dist.probs.sum() - 1.0) <= 1e-10


# ------------------------------------------------------------
# Distribution-level symmetries
# ------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_theta_shifted_by_pi_gives_the_same_distribution(seed):
    rng = np.random.default_rng(seed)
    theta, phi1, phi2 = random_coin_angles(rng)
    alpha, beta = normalized_pair(rng)
    d0 = run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps=40)
    d1 = run_walk(CoinParams(theta + math.pi, phi1, phi2), alpha, beta, steps=40)
    assert np.max(np.abs(d0.probs - d1.probs)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_phi2_never_changes_the_distribution(seed):
    rng = np.random.default_rng(seed)
    theta, phi1, phi2 = random_coin_angles(rng)
    alpha, beta = normalized_pair(rng)
    d0 = run_walk(CoinParams(theta, phi1, 0.0), alpha, beta, steps=40)
    d1 = run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps=40)
    assert np.max(np.abs(d0.probs - d1.probs)) <= 1e-12
