"""Tests for the window layout, walker states and measured distributions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    ProbabilityDistribution,
    WalkerState,
    dense_series,
    distribution,
    entanglement_series,
    evolve,
    initial_state,
    iter_steps,
    make_coin,
    momentum_state,
    named_coin,
    origin_entanglement_series,
    run_walk,
)

from conftest import normalized_pair


# ------------------------------------------------------------
# The window x = -N .. N: position x lives at column x + N
# ------------------------------------------------------------


def test_lattice_geometry():
    state = initial_state(1.0, 0.0, 100)
    assert state.amplitudes.shape == (2, 201)
    assert state.half_width == 100
    assert state.amplitudes[0, 100] == 1.0  # the origin at column N
    positions = distribution(state).positions
    assert positions[0] == -100
    assert positions[-1] == 100
    assert positions[100] == 0


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
def test_invalid_half_width_is_rejected(bad):
    with pytest.raises(ValueError):
        initial_state(1.0, 0.0, bad)


@pytest.mark.parametrize("x, expected", [(0, 3), (-2, 1), (-3, 0), (3, 6), (2, 5)])
def test_position_index_examples(x, expected):
    amp = np.zeros((2, 7), dtype=complex)
    amp[0, expected] = 1.0
    dist = distribution(WalkerState(amp))
    assert dist.positions[expected] == x
    assert dist.probability(x) == 1.0


def test_indices_cover_the_window_in_order():
    state = initial_state(1.0, 0.0, 7)
    positions = distribution(state).positions
    assert positions.tolist() == list(range(-7, 8))
    assert [state.half_width + x for x in positions] == list(range(state.amplitudes.shape[1]))


# ------------------------------------------------------------
# initial_state
# ------------------------------------------------------------


def test_head_start_matches_the_column_layout():
    # For half_width 2 the head-start amplitude table is (0 0 1 0 0) on the
    # head row and zeros on the tail row.
    state = initial_state(1.0, 0.0, 2)
    assert np.array_equal(state.amplitudes[0], np.array([0, 0, 1, 0, 0], dtype=complex))
    assert np.array_equal(state.amplitudes[1], np.zeros(5, dtype=complex))
    assert state.time == 0


def test_unbiased_start():
    alpha, beta = UNBIASED_INIT
    state = initial_state(alpha, beta, 4)
    assert state.amplitudes[0, 4] == alpha
    assert state.amplitudes[1, 4] == beta
    assert abs(distribution(state).probs.sum() - 1.0) <= 1e-15


def test_complex_components_are_accepted():
    state = initial_state(0.6, 0.8j, 3)
    assert distribution(state).probability(0) == pytest.approx(1.0, abs=1e-15)


def test_unnormalized_state_reports_the_deficit():
    with pytest.raises(ValueError, match="deviates from 1"):
        initial_state(0.8, 0.1, 3)


@pytest.mark.parametrize("alpha", [math.nan, math.inf * 1j])
def test_non_finite_amplitudes_are_rejected(alpha):
    with pytest.raises(ValueError, match="finite"):
        initial_state(alpha, 0.0, 3)


@given(seed=st.integers(0, 2**32 - 1))
def test_random_normalized_pairs_are_accepted(seed):
    alpha, beta = normalized_pair(np.random.default_rng(seed))
    state = initial_state(alpha, beta, 2)
    assert abs(distribution(state).probs.sum() - 1.0) <= 1e-12


# ------------------------------------------------------------
# WalkerState validation
# ------------------------------------------------------------


def test_amplitude_shape_must_match_the_lattice():
    # (2, 2N + 1) with N >= 1: an even width, a width of 1 and a wrong row
    # count are refused.
    for shape in [(2, 6), (2, 1), (3, 7), (1, 7), (14,), (2, 7, 1)]:
        with pytest.raises(ValueError, match="shape"):
            WalkerState(np.zeros(shape, dtype=complex))


def test_half_width_is_derived_from_the_shape():
    assert WalkerState(np.zeros((2, 3), dtype=complex)).half_width == 1
    assert WalkerState(np.zeros((2, 41), dtype=complex)).half_width == 20


def test_negative_time_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        WalkerState(np.zeros((2, 7), dtype=complex), time=-1)


# ------------------------------------------------------------
# distribution
# ------------------------------------------------------------


def test_one_step_probabilities_at_theta_30():
    state = initial_state(1.0, 0.0, 3)
    dist = distribution(evolve(state, make_coin(CoinParams.from_degrees(30.0)), 1))
    assert dist.probability(1) == pytest.approx(0.75, abs=1e-15)  # cos^2(30)
    assert dist.probability(-1) == pytest.approx(0.25, abs=1e-15)  # sin^2(30)
    assert dist.probability(0) == 0.0


def test_one_step_unbiased_hadamard_splits_evenly():
    state = initial_state(*UNBIASED_INIT, 3)
    dist = distribution(evolve(state, make_coin(named_coin("hadamard")), 1))
    assert dist.probability(1) == pytest.approx(0.5, abs=1e-15)
    assert dist.probability(-1) == pytest.approx(0.5, abs=1e-15)


def test_distribution_covers_the_full_stored_window():
    state = initial_state(*UNBIASED_INIT, 5)
    dist = distribution(state)
    assert np.array_equal(dist.positions, np.arange(-5, 6))
    assert dist.probability(0) == pytest.approx(1.0, abs=1e-12)
    assert dist.time == 0
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


def test_probability_lookup_outside_window_is_zero():
    dist = distribution(initial_state(1.0, 0.0, 2))
    assert dist.probability(17) == 0.0


# ------------------------------------------------------------
# One steps rule for every engine
# ------------------------------------------------------------

_HADAMARD = make_coin(named_coin("hadamard"))
_START = initial_state(*UNBIASED_INIT, 5)

# Each engine as a function of the step count, run to completion.
ENGINES = {
    "iter_steps": lambda steps: list(iter_steps(_START, _HADAMARD, steps)),
    "evolve": lambda steps: evolve(_START, _HADAMARD, steps).amplitudes,
    "entanglement_series": lambda steps: entanglement_series(_START, _HADAMARD, steps),
    "momentum_state": lambda steps: momentum_state(*UNBIASED_INIT, _HADAMARD, steps).amplitudes,
    "run_walk": lambda steps: run_walk(named_coin("hadamard"), *UNBIASED_INIT, steps).probs,
    "origin_entanglement_series": lambda steps: origin_entanglement_series(
        *UNBIASED_INIT, _HADAMARD, steps
    ),
    "dense_series": lambda steps: list(dense_series(*UNBIASED_INIT, _HADAMARD, steps)),
    "WalkerState.time": lambda steps: WalkerState(np.zeros((2, 3), dtype=complex), steps).time,
    "ProbabilityDistribution.time": lambda steps: ProbabilityDistribution(
        np.array([0]), np.array([1.0]), steps
    ).time,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_steps_follow_one_rule_in_every_engine(engine):
    # A Python or numpy integer is taken; a fraction, a bool, a string or a
    # negative count is refused with a ValueError that names the argument.
    run = ENGINES[engine]
    what = "time" if engine.endswith(".time") else "steps"
    for bad in (2.5, True, "3", None, np.float64(3.0), -1):
        message = f"{what} must be a non-negative integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(bad)
    expected, got = run(3), run(np.int64(3))
    if isinstance(expected, tuple):
        expected, got = np.concatenate(expected), np.concatenate(got)
    assert np.array_equal(np.asarray(expected), np.asarray(got))


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
# Structure of evolved states: window edges, parity, reach
# ------------------------------------------------------------


@pytest.mark.parametrize("steps", [1, 7, 19])
def test_window_edges_stay_exactly_zero_until_reached(steps):
    state = initial_state(*UNBIASED_INIT, 20)
    state = evolve(state, make_coin(CoinParams(0.9, 0.4, 2.2)), steps)
    assert np.all(state.amplitudes[:, 0] == 0.0)
    assert np.all(state.amplitudes[:, -1] == 0.0)
    assert state.amplitudes.shape == (2, 41)


@pytest.mark.parametrize("steps", [1, 2, 9, 16])
def test_origin_walks_have_exact_parity_support(steps):
    state = initial_state(*UNBIASED_INIT, 16)
    dist = distribution(evolve(state, make_coin(CoinParams(0.7, 1.0, 0.2)), steps))
    for x in range(-17, 18):
        if (x - steps) % 2 != 0:
            assert dist.probability(x) == 0.0


@pytest.mark.parametrize("steps", [3, 10])
def test_amplitude_never_outruns_the_step_count(steps):
    state = initial_state(*UNBIASED_INIT, 12)
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
    state = initial_state(alpha, beta, 25)
    state = evolve(state, make_coin(CoinParams(theta, phi1, phi2)), steps)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-10
