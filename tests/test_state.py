"""Tests for lattice geometry, walker states and measured distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    LatticeSpec,
    ProbabilityDistribution,
    WalkerState,
    distribution,
    evolve,
    initial_state,
    make_coin,
    named_coin,
)

from conftest import normalized_pair


# ------------------------------------------------------------
# LatticeSpec: position x lives at column x + half_width + 1
# ------------------------------------------------------------


def test_lattice_geometry():
    lat = LatticeSpec(100)
    assert lat.size == 203
    assert lat.origin_index == 101
    assert lat.positions[0] == -101
    assert lat.positions[-1] == 101
    assert lat.positions[lat.origin_index] == 0


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
def test_invalid_half_width_is_rejected(bad):
    with pytest.raises(ValueError):
        LatticeSpec(bad)


@pytest.mark.parametrize("x, expected", [(0, 3), (-2, 1), (-3, 0), (3, 6), (2, 5)])
def test_position_index_examples(x, expected):
    lat = LatticeSpec(2)
    assert lat.origin_index + x == expected
    assert lat.positions[expected] == x


def test_indices_cover_the_window_in_order():
    lat = LatticeSpec(7)
    assert lat.positions.tolist() == list(range(-8, 9))
    assert [lat.origin_index + x for x in lat.positions] == list(range(lat.size))


# ------------------------------------------------------------
# initial_state
# ------------------------------------------------------------


def test_head_start_matches_the_padded_column_layout():
    # For half_width 2 the head-start amplitude table, guard sites stripped,
    # is (0 0 1 0 0) on the head row and zeros on the tail row.
    state = initial_state(1.0, 0.0, LatticeSpec(2))
    window = state.amplitudes[:, 1:-1]
    assert np.array_equal(window[0], np.array([0, 0, 1, 0, 0], dtype=complex))
    assert np.array_equal(window[1], np.zeros(5, dtype=complex))
    assert state.amplitudes[0, 0] == 0.0 and state.amplitudes[0, -1] == 0.0
    assert state.time == 0


def test_unbiased_start():
    alpha, beta = UNBIASED_INIT
    state = initial_state(alpha, beta, LatticeSpec(4))
    origin = state.lattice.origin_index
    assert state.amplitudes[0, origin] == alpha
    assert state.amplitudes[1, origin] == beta
    assert abs(distribution(state).probs.sum() - 1.0) <= 1e-15


def test_complex_components_are_accepted():
    state = initial_state(0.6, 0.8j, LatticeSpec(3))
    assert distribution(state).probability(0) == pytest.approx(1.0, abs=1e-15)


def test_unnormalized_state_reports_the_deficit():
    with pytest.raises(ValueError, match="deviates from 1"):
        initial_state(0.8, 0.1, LatticeSpec(3))


@pytest.mark.parametrize("alpha", [math.nan, math.inf * 1j])
def test_non_finite_amplitudes_are_rejected(alpha):
    with pytest.raises(ValueError, match="finite"):
        initial_state(alpha, 0.0, LatticeSpec(3))


@given(seed=st.integers(0, 2**32 - 1))
def test_random_normalized_pairs_are_accepted(seed):
    alpha, beta = normalized_pair(np.random.default_rng(seed))
    state = initial_state(alpha, beta, LatticeSpec(2))
    assert abs(distribution(state).probs.sum() - 1.0) <= 1e-12


# ------------------------------------------------------------
# WalkerState validation
# ------------------------------------------------------------


def test_amplitude_shape_must_match_the_lattice():
    with pytest.raises(ValueError, match="shape"):
        WalkerState(np.zeros((2, 6), dtype=complex), LatticeSpec(2))


def test_negative_time_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        WalkerState(np.zeros((2, 7), dtype=complex), LatticeSpec(2), time=-1)


# ------------------------------------------------------------
# distribution
# ------------------------------------------------------------


def test_one_step_probabilities_at_theta_30():
    state = initial_state(1.0, 0.0, LatticeSpec(3))
    dist = distribution(evolve(state, make_coin(CoinParams.from_degrees(30.0)), 1))
    assert dist.probability(1) == pytest.approx(0.75, abs=1e-15)  # cos^2(30)
    assert dist.probability(-1) == pytest.approx(0.25, abs=1e-15)  # sin^2(30)
    assert dist.probability(0) == 0.0


def test_one_step_unbiased_hadamard_splits_evenly():
    state = initial_state(*UNBIASED_INIT, LatticeSpec(3))
    dist = distribution(evolve(state, make_coin(named_coin("hadamard")), 1))
    assert dist.probability(1) == pytest.approx(0.5, abs=1e-15)
    assert dist.probability(-1) == pytest.approx(0.5, abs=1e-15)


def test_distribution_covers_the_full_stored_window():
    state = initial_state(*UNBIASED_INIT, LatticeSpec(5))
    dist = distribution(state)
    assert np.array_equal(dist.positions, np.arange(-6, 7))
    assert dist.probability(0) == pytest.approx(1.0, abs=1e-12)
    assert dist.time == 0
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


def test_probability_lookup_outside_window_is_zero():
    dist = distribution(initial_state(1.0, 0.0, LatticeSpec(2)))
    assert dist.probability(17) == 0.0


# ------------------------------------------------------------
# ProbabilityDistribution validation
# ------------------------------------------------------------


def test_positions_must_strictly_increase():
    with pytest.raises(ValueError, match="increasing"):
        ProbabilityDistribution(np.array([0, 0, 1]), np.array([0.5, 0.25, 0.25]))


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        ProbabilityDistribution(np.array([-1, 1]), np.array([0.5, 0.4]))


def test_probabilities_must_stay_in_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbabilityDistribution(np.array([-1, 0, 1]), np.array([1.5, -0.5, 0.0]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbabilityDistribution(np.array([0, 1]), np.array([math.nan, math.nan]))


def test_mismatched_lengths_are_rejected():
    with pytest.raises(ValueError, match="equal length"):
        ProbabilityDistribution(np.array([-1, 1]), np.array([1.0]))


# ------------------------------------------------------------
# Structure of evolved states: guards, parity, reach
# ------------------------------------------------------------


@pytest.mark.parametrize("steps", [1, 7, 20])
def test_guard_sites_stay_exactly_zero(steps):
    state = initial_state(*UNBIASED_INIT, LatticeSpec(20))
    state = evolve(state, make_coin(CoinParams(0.9, 0.4, 2.2)), steps)
    assert np.all(state.amplitudes[:, 0] == 0.0)
    assert np.all(state.amplitudes[:, -1] == 0.0)


@pytest.mark.parametrize("steps", [1, 2, 9, 16])
def test_origin_walks_have_exact_parity_support(steps):
    state = initial_state(*UNBIASED_INIT, LatticeSpec(16))
    dist = distribution(evolve(state, make_coin(CoinParams(0.7, 1.0, 0.2)), steps))
    for x in range(-17, 18):
        if (x - steps) % 2 != 0:
            assert dist.probability(x) == 0.0


@pytest.mark.parametrize("steps", [3, 10])
def test_amplitude_never_outruns_the_step_count(steps):
    state = initial_state(*UNBIASED_INIT, LatticeSpec(12))
    dist = distribution(evolve(state, make_coin(named_coin("hadamard")), steps))
    for x in range(-13, 14):
        if abs(x) > steps:
            assert dist.probability(x) == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 25))
def test_norm_is_preserved_along_the_walk(seed, steps):
    rng = np.random.default_rng(seed)
    alpha, beta = normalized_pair(rng)
    theta, phi1, phi2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), rng.uniform(0, math.pi)
    state = initial_state(alpha, beta, LatticeSpec(25))
    state = evolve(state, make_coin(CoinParams(theta, phi1, phi2)), steps)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-10
