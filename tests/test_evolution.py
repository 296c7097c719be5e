"""Tests for the recurrence engine: single steps, closed forms, symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    LatticeExhaustedError,
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
    return state[row, state.shape[1] // 2 + x]


# ------------------------------------------------------------
# Closed forms for one and two steps
# ------------------------------------------------------------


@pytest.mark.parametrize("theta, phi1, phi2", TRIPLES)
def test_one_step_from_head(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    state = evolve(initial_state(1.0, 0.0, 3), make_coin(p), 1)
    c, s = math.cos(p.theta), math.sin(p.theta)
    assert abs(_amp(state, 0, 1) - c) <= 1e-15
    assert abs(_amp(state, 1, -1) - np.exp(1j * p.phi2) * s) <= 1e-15
    # nothing anywhere else: every other entry is an exact zero
    rest = state.copy()
    rest[0, 3 + 1] = 0.0
    rest[1, 3 - 1] = 0.0
    assert np.all(rest == 0.0)


@pytest.mark.parametrize("theta, phi1, phi2", TRIPLES)
def test_one_step_general_coin_state(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    alpha, beta = 0.6, -0.8j
    state = evolve(initial_state(alpha, beta, 3), make_coin(p), 1)
    c, s = math.cos(p.theta), math.sin(p.theta)
    e1, e2 = np.exp(1j * p.phi1), np.exp(1j * p.phi2)
    assert abs(_amp(state, 0, 1) - (alpha * c + beta * e1 * s)) <= 1e-15
    assert abs(_amp(state, 1, -1) - (alpha * e2 * s - beta * e1 * e2 * c)) <= 1e-15


@pytest.mark.parametrize("theta, phi1, phi2", TRIPLES)
def test_two_steps_from_head(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    state = evolve(initial_state(1.0, 0.0, 3), make_coin(p), 2)
    c, s = math.cos(p.theta), math.sin(p.theta)
    assert abs(_amp(state, 0, 2) - c * c) <= 1e-14
    assert abs(_amp(state, 0, 0) - np.exp(1j * (p.phi1 + p.phi2)) * s * s) <= 1e-14
    assert abs(_amp(state, 1, 0) - np.exp(1j * p.phi2) * s * c) <= 1e-14
    assert abs(_amp(state, 1, -2) + np.exp(1j * (p.phi1 + 2 * p.phi2)) * s * c) <= 1e-14


# ------------------------------------------------------------
# Special rotation angles
# ------------------------------------------------------------


def test_swap_coin_exchanges_and_shifts():
    # theta = 90 deg: one step sends alpha|H>|0> + beta|T>|0> to
    # alpha|T>|-1> + beta|H>|+1>.
    alpha, beta = 0.6, 0.8j
    coin = make_coin(named_coin("grover"))
    state = evolve(initial_state(alpha, beta, 2), coin, 1)
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
    state = evolve(initial_state(alpha, beta, 5), make_coin(CoinParams(0.0, 0.0, 0.0)), steps)
    assert _amp(state, 0, steps) == alpha
    assert _amp(state, 1, -steps) == (-1) ** steps * beta
    assert abs(np.abs(state).sum() - abs(alpha) - abs(beta)) <= 1e-15


# ------------------------------------------------------------
# Step/evolve mechanics
# ------------------------------------------------------------


def test_zero_steps_is_the_identity():
    state = initial_state(*UNBIASED_INIT, 3)
    evolved = evolve(state, make_coin(named_coin("hadamard")), 0)
    assert evolved is state


def test_negative_steps_are_rejected():
    state = initial_state(*UNBIASED_INIT, 3)
    with pytest.raises(ValueError, match="non-negative"):
        evolve(state, make_coin(named_coin("hadamard")), -1)


def test_step_does_not_mutate_its_input():
    state = initial_state(*UNBIASED_INIT, 3)
    before = state.copy()
    evolve(state, make_coin(named_coin("hadamard")), 1)
    assert np.array_equal(state, before)


def test_walk_past_the_window_is_refused():
    coin = make_coin(named_coin("hadamard"))
    state = evolve(initial_state(*UNBIASED_INIT, 4), coin, 4)
    with pytest.raises(LatticeExhaustedError, match="larger half_width"):
        evolve(state, coin, 1)
    with pytest.raises(LatticeExhaustedError):
        evolve(initial_state(*UNBIASED_INIT, 4), coin, 5)


def test_iter_steps_checks_the_request_when_called():
    state = initial_state(*UNBIASED_INIT, 3)
    coin = make_coin(named_coin("hadamard"))
    with pytest.raises(ValueError, match="non-negative"):
        iter_steps(state, coin, -1)
    with pytest.raises(LatticeExhaustedError):
        iter_steps(state, coin, 4)
    assert list(iter_steps(state, coin, 0)) == []


def test_a_walk_from_the_window_edge_is_refused():
    # Amplitude on the edge site x = N or x = -N, in either coin row, would
    # leave the window x = -N .. N in one step: the coin can send it outward.
    coin = make_coin(named_coin("hadamard"))
    for row, x in ((0, 4), (1, -4), (1, 4), (0, -4)):
        amp = np.zeros((2, 9), dtype=complex)
        amp[row, 4 + x] = 1.0
        with pytest.raises(LatticeExhaustedError, match="larger half_width"):
            evolve(amp, coin, 1)
    # One site further in, one step fits and keeps the norm.
    amp = np.zeros((2, 9), dtype=complex)
    amp[:, 4 + 3] = UNBIASED_INIT
    one_step = evolve(amp, coin, 1)
    assert abs(np.sum(np.abs(one_step) ** 2) - 1.0) <= 1e-15
    assert abs(one_step[0, -1]) > 0.0  # the head part reached x = N
    with pytest.raises(LatticeExhaustedError):
        evolve(amp, coin, 2)


# ------------------------------------------------------------
# iter_steps and evolve against a loop of single steps
# ------------------------------------------------------------


def _assert_same_walk(state, coin, steps):
    # All tables are kept before any is checked: each must be its own array.
    tables = list(iter_steps(state, coin, steps))
    assert len(tables) == steps
    expected = state
    for table in tables:
        expected = evolve(expected, coin, 1)
        assert np.array_equal(table, expected)
    assert np.array_equal(evolve(state, coin, steps), expected)


@pytest.mark.parametrize("seed", range(5))
def test_evolve_equals_stepping_from_the_origin(seed):
    rng = np.random.default_rng(3000 + seed)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    state = initial_state(*normalized_pair(rng), 30)
    _assert_same_walk(state, coin, 30)
    _assert_same_walk(evolve(state, coin, 7), coin, 23)


@pytest.mark.parametrize("seed", range(5))
def test_evolve_equals_stepping_from_an_off_origin_start(seed):
    rng = np.random.default_rng(4000 + seed)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    alpha, beta = normalized_pair(rng)
    state = np.zeros((2, 51), dtype=complex)
    state[:, 25 - 9] = alpha, beta
    # From x = -9, 20 steps could reach x = -29, past the window's x = -25.
    with pytest.raises(LatticeExhaustedError, match="larger half_width"):
        iter_steps(state, coin, 20)
    _assert_same_walk(state, coin, 16)
    assert abs(np.sum(np.abs(evolve(state, coin, 16)) ** 2) - 1.0) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_evolve_refuses_amplitude_on_the_window_edges(seed):
    # A state with amplitude on an edge site x = -N or x = N cannot take a
    # step: the window holds no site for what the coin sends outward.
    rng = np.random.default_rng(5000 + seed)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    amp = rng.normal(size=(2, 17)) + 1j * rng.normal(size=(2, 17))
    edges_only = np.zeros_like(amp)
    edges_only[:, [0, -1]] = amp[:, [0, -1]]
    for state in (amp, edges_only):
        for steps in (1, 2, 3, 8):
            with pytest.raises(LatticeExhaustedError, match="larger half_width"):
                evolve(state, coin, steps)
        assert evolve(state, coin, 0) is state
        assert list(iter_steps(state, coin, 0)) == []


def test_evolve_equals_stepping_on_a_long_walk_with_tiny_tails():
    # theta = 85 deg: the tails shrink by about 0.087 a step and pass through
    # the subnormal doubles long before T = 400.  The walk starts at t = 5.
    coin = make_coin(CoinParams(math.radians(85.0), 0.4, 1.3))
    state = evolve(initial_state(*UNBIASED_INIT, 400), coin, 5)
    _assert_same_walk(state, coin, 395)


def test_evolve_keeps_the_zero_state_zero():
    zero = np.zeros((2, 9), dtype=complex)
    _assert_same_walk(zero, make_coin(named_coin("hadamard")), 3)


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_the_evolved_state_keeps_only_its_own_table_alive(steps):
    # The result owns its table: it is not a view of a larger array.
    state = evolve(initial_state(*UNBIASED_INIT, 10), make_coin(named_coin("hadamard")), steps)
    assert state.base is None
    assert state.nbytes == 2 * 21 * 16


# ------------------------------------------------------------
# run_walk
# ------------------------------------------------------------


def test_two_step_hadamard_distribution_from_head():
    probs = run_walk(named_coin("hadamard"), 1.0, 0.0, steps=2)
    assert probs.shape == (5,) and probs.dtype == np.float64  # x = -2 .. 2 at x + 2
    assert probs[0] == pytest.approx(0.25, abs=1e-15)
    assert probs[2] == pytest.approx(0.5, abs=1e-15)
    assert probs[4] == pytest.approx(0.25, abs=1e-15)


def test_run_walk_requires_positive_steps():
    with pytest.raises(ValueError, match="positive"):
        run_walk(named_coin("hadamard"), *UNBIASED_INIT, steps=0)


def test_run_walk_total_probability():
    probs = run_walk(CoinParams(1.1, 0.3, 0.8), *UNBIASED_INIT, steps=60)
    assert abs(probs.sum() - 1.0) <= 1e-10


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
    assert np.max(np.abs(d0 - d1)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_phi2_never_changes_the_distribution(seed):
    rng = np.random.default_rng(seed)
    theta, phi1, phi2 = random_coin_angles(rng)
    alpha, beta = normalized_pair(rng)
    d0 = run_walk(CoinParams(theta, phi1, 0.0), alpha, beta, steps=40)
    d1 = run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps=40)
    assert np.max(np.abs(d0 - d1)) <= 1e-12
