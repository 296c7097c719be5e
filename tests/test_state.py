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
    build_step_unitary,
    dense_series,
    distribution,
    entanglement_entropy,
    entanglement_series,
    evolve,
    initial_state,
    iter_steps,
    make_coin,
    momentum_state,
    named_coin,
    run_walk,
    schmidt_spectrum,
)

from conftest import normalized_pair


# ------------------------------------------------------------
# The window x = -N .. N: position x lives at column x + N
# ------------------------------------------------------------


def test_lattice_geometry():
    state = initial_state(1.0, 0.0, 100)
    assert state.shape == (2, 201)
    assert state.dtype == np.complex128
    assert state[0, 100] == 1.0  # the origin at column N
    positions = distribution(state).positions
    assert positions[0] == -100
    assert positions[-1] == 100
    assert positions[100] == 0


def _half_width_users():
    """Each public caller that takes a window half-width, returning what it builds."""
    coin = make_coin(named_coin("hadamard"))
    return [lambda n: initial_state(1.0, 0.0, n), lambda n: build_step_unitary(coin, n)]


@pytest.mark.parametrize(
    "bad, message",
    [
        (0, "half_width must be positive, got 0"),
        (-3, "half_width must be a non-negative integer, got -3"),
        (2.5, "half_width must be a non-negative integer, got 2.5"),
        ("4", "half_width must be a non-negative integer, got '4'"),
        (True, "half_width must be a non-negative integer, got True"),
    ],
    ids=["0", "-3", "2.5", "4", "True"],
)
def test_invalid_half_width_is_rejected(bad, message):
    # The step-count rule of every engine, with 0 refused as for a walk.
    for use_half_width in _half_width_users():
        with pytest.raises(ValueError) as err:
            use_half_width(bad)
        assert str(err.value) == message


def test_a_numpy_integer_half_width_is_taken_as_an_int():
    for use_half_width in _half_width_users():
        assert np.array_equal(use_half_width(np.int64(3)), use_half_width(3))


@pytest.mark.parametrize("x, expected", [(0, 3), (-2, 1), (-3, 0), (3, 6), (2, 5)])
def test_position_index_examples(x, expected):
    amp = np.zeros((2, 7), dtype=complex)
    amp[0, expected] = 1.0
    dist = distribution(amp)
    assert dist.positions[expected] == x
    assert dist.probability(x) == 1.0


def test_indices_cover_the_window_in_order():
    state = initial_state(1.0, 0.0, 7)
    positions = distribution(state).positions
    assert positions.tolist() == list(range(-7, 8))
    assert [7 + x for x in positions] == list(range(state.shape[1]))


# ------------------------------------------------------------
# initial_state
# ------------------------------------------------------------


def test_head_start_matches_the_column_layout():
    # For half_width 2 the head-start amplitude table is (0 0 1 0 0) on the
    # head row and zeros on the tail row.
    state = initial_state(1.0, 0.0, 2)
    assert np.array_equal(state[0], np.array([0, 0, 1, 0, 0], dtype=complex))
    assert np.array_equal(state[1], np.zeros(5, dtype=complex))


def test_unbiased_start():
    alpha, beta = UNBIASED_INIT
    state = initial_state(alpha, beta, 4)
    assert state[0, 4] == alpha
    assert state[1, 4] == beta
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
# Amplitude tables: one validator behind every function that takes one
# ------------------------------------------------------------

# Each public function that takes a table, called on it.
TABLE_USERS = {
    "iter_steps": lambda amp: iter_steps(amp, _HADAMARD, 1),
    "evolve": lambda amp: evolve(amp, _HADAMARD, 0),
    "distribution": distribution,
    "schmidt_spectrum": schmidt_spectrum,
    "entanglement_entropy": entanglement_entropy,
    "entanglement_series": lambda amp: entanglement_series(amp, _HADAMARD, 1),
}


def test_amplitude_shape_must_match_the_lattice():
    # (2, 2N + 1) with N >= 1: an even width, a width of 1 and a wrong row
    # count are refused.
    for shape in [(2, 6), (2, 1), (3, 7), (1, 7), (14,), (2, 7, 1)]:
        message = f"amplitude array has shape {shape}, expected (2, 2N + 1) with N >= 1"
        for use_table in TABLE_USERS.values():
            with pytest.raises(ValueError) as err:
                use_table(np.zeros(shape, dtype=complex))
            assert str(err.value) == message


@pytest.mark.parametrize("user", sorted(TABLE_USERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_table_is_rejected_with_one_message(user, bad):
    # Unchecked, NaN would run into NaN tables and rank-0 spectra, inf into NaN values.
    amp = initial_state(1.0, 0.0, 2)
    amp[1, 2] = bad
    with pytest.raises(ValueError) as err:
        TABLE_USERS[user](amp)
    assert str(err.value) == "amplitudes must be finite (no NaN or infinity)"


def test_half_width_is_derived_from_the_shape():
    for n in (1, 20):
        amp = np.zeros((2, 2 * n + 1), dtype=complex)
        amp[0, n] = 1.0
        assert np.array_equal(distribution(amp).positions, np.arange(-n, n + 1))
        assert evolve(amp, _HADAMARD, n)[:, [0, -1]].any()  # n steps reach the edges


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
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("scale, total", [(1e200, "inf"), (2.0, "4.0")])
def test_distribution_refuses_an_unnormalized_table_by_its_total(scale, total):
    # 1e200 squares past the float maximum without a warning; both tables
    # are refused for their total, before any probability is checked.
    table = initial_state(1.0, 0.0, 2) * scale
    with pytest.raises(ValueError) as err:
        distribution(table)
    assert str(err.value) == f"the table must be normalized: its total probability is {total}"


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
    "evolve": lambda steps: evolve(_START, _HADAMARD, steps),
    "entanglement_series": lambda steps: entanglement_series(_START, _HADAMARD, steps),
    "momentum_state": lambda steps: momentum_state(*UNBIASED_INIT, _HADAMARD, steps),
    "run_walk": lambda steps: run_walk(named_coin("hadamard"), *UNBIASED_INIT, steps).probs,
    "dense_series": lambda steps: list(dense_series(*UNBIASED_INIT, _HADAMARD, steps)),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_steps_follow_one_rule_in_every_engine(engine):
    # A Python or numpy integer is taken; a fraction, a bool, a string or a
    # negative count is refused with a ValueError that names the argument.
    run = ENGINES[engine]
    for bad in (2.5, True, "3", None, np.float64(3.0), -1):
        message = f"steps must be a non-negative integer, got {bad!r}"
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
    # The 1e-10 tolerance admits the rounding of a sum of squares.
    dist = ProbabilityDistribution(np.array([0, 1]), np.array([1.0 + 2e-16, 0.0]))
    assert dist.probs[0] > 1.0


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
    assert np.all(state[:, 0] == 0.0)
    assert np.all(state[:, -1] == 0.0)
    assert state.shape == (2, 41)


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
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) <= 1e-10
