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
    LatticeExhaustedError,
    build_step_unitary,
    dense_series,
    distribution,
    entanglement_entropy,
    entanglement_series,
    evolve,
    initial_state,
    iter_steps,
    make_coin,
    named_coin,
    run_walk,
    schmidt_spectrum,
)

from conftest import normalized_pair, random_coin_angles


# ------------------------------------------------------------
# The window x = -N .. N: position x lives at column x + N
# ------------------------------------------------------------


def test_lattice_geometry():
    state = initial_state(1.0, 0.0, 100)
    assert state.shape == (2, 201)
    assert state.dtype == np.complex128
    assert state[0, 100] == 1.0  # the origin at column N
    probs = distribution(state)
    assert probs.shape == (201,)
    assert probs.dtype == np.float64
    assert probs[100] == 1.0  # position x at entry x + N


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
    probs = distribution(amp)
    assert np.arange(-3, 4)[expected] == x
    assert probs[x + 3] == 1.0


def test_indices_cover_the_window_in_order():
    state = initial_state(1.0, 0.0, 7)
    probs = distribution(state)
    assert probs.shape == (state.shape[1],)
    assert np.flatnonzero(probs).tolist() == [7]  # the origin, x = 0, at entry N


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
    assert abs(distribution(state).sum() - 1.0) <= 1e-15


def test_complex_components_are_accepted():
    state = initial_state(0.6, 0.8j, 3)
    assert distribution(state)[3] == pytest.approx(1.0, abs=1e-15)


def test_unnormalized_state_reports_the_deficit():
    with pytest.raises(ValueError) as excinfo:
        initial_state(0.8, 0.1, 3)
    assert str(excinfo.value) == (
        "coin state must be normalized: |alpha|^2 + |beta|^2 = 0.6500000000000001 "
        "deviates from 1 by -3.500e-01"
    )


@pytest.mark.parametrize("alpha", [math.nan, math.inf * 1j])
def test_non_finite_amplitudes_are_rejected(alpha):
    with pytest.raises(ValueError, match="finite"):
        initial_state(alpha, 0.0, 3)


@given(seed=st.integers(0, 2**32 - 1))
def test_random_normalized_pairs_are_accepted(seed):
    alpha, beta = normalized_pair(np.random.default_rng(seed))
    state = initial_state(alpha, beta, 2)
    assert abs(distribution(state).sum() - 1.0) <= 1e-12


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
        assert distribution(amp).shape == (2 * n + 1,)
        assert evolve(amp, _HADAMARD, n)[:, [0, -1]].any()  # n steps reach the edges


# ------------------------------------------------------------
# distribution
# ------------------------------------------------------------


def test_one_step_probabilities_at_theta_30():
    state = initial_state(1.0, 0.0, 3)
    probs = distribution(evolve(state, make_coin(CoinParams.from_degrees(30.0)), 1))
    assert probs[1 + 3] == pytest.approx(0.75, abs=1e-15)  # cos^2(30)
    assert probs[-1 + 3] == pytest.approx(0.25, abs=1e-15)  # sin^2(30)
    assert probs[0 + 3] == 0.0


def test_one_step_unbiased_hadamard_splits_evenly():
    state = initial_state(*UNBIASED_INIT, 3)
    probs = distribution(evolve(state, make_coin(named_coin("hadamard")), 1))
    assert probs[1 + 3] == pytest.approx(0.5, abs=1e-15)
    assert probs[-1 + 3] == pytest.approx(0.5, abs=1e-15)


def test_distribution_covers_the_full_stored_window():
    state = initial_state(*UNBIASED_INIT, 5)
    probs = distribution(state)
    assert probs.shape == (11,)
    assert probs[5] == pytest.approx(1.0, abs=1e-12)
    assert abs(probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("scale, total", [(1e200, "inf"), (2.0, "4.0")])
def test_distribution_refuses_an_unnormalized_table_by_its_total(scale, total):
    # 1e200 squares past the float maximum without a warning; both tables
    # are refused for their total, before any probability is checked.
    table = initial_state(1.0, 0.0, 2) * scale
    with pytest.raises(ValueError) as err:
        distribution(table)
    assert str(err.value) == f"the table must be normalized: its total probability is {total}"


# ------------------------------------------------------------
# One steps rule and one window rule for every engine
# ------------------------------------------------------------

_HADAMARD = make_coin(named_coin("hadamard"))
_START = initial_state(*UNBIASED_INIT, 5)

# Each engine as a function of the step count, run to completion.
ENGINES = {
    "iter_steps": lambda steps: list(iter_steps(_START, _HADAMARD, steps)),
    "evolve": lambda steps: evolve(_START, _HADAMARD, steps),
    "entanglement_series": lambda steps: entanglement_series(_START, _HADAMARD, steps),
    "run_walk": lambda steps: run_walk(named_coin("hadamard"), *UNBIASED_INIT, steps),
    "dense_series": lambda steps: list(dense_series(_START, _HADAMARD, steps)),
}

# The engines that step the table's own window.  The series walks the
# infinite line, and run_walk sizes its window to the walk.
WINDOWED = ("iter_steps", "evolve", "dense_series")


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_steps_follow_one_rule_in_every_engine(engine):
    # A Python or numpy integer is taken; a fraction, a bool, a string or a
    # negative count is refused with a ValueError that names the argument.
    # An engine that steps the table's window refuses a walk that could
    # leave it, with one message, before the first step.
    run = ENGINES[engine]
    for bad in (2.5, True, "3", None, np.float64(3.0), -1):
        message = f"steps must be a non-negative integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(bad)
    expected, got = run(3), run(np.int64(3))
    if isinstance(expected, tuple):
        expected, got = np.concatenate(expected), np.concatenate(got)
    assert np.array_equal(np.asarray(expected), np.asarray(got))
    run(5)  # from the origin, the window's half-width in steps fits
    if engine in WINDOWED:
        with pytest.raises(LatticeExhaustedError) as err:
            run(np.int64(6))
        assert str(err.value) == (
            "the walker occupies x = 0 .. 0 and can reach x = -6 .. 6 within steps=6, past the "
            "sites x = -5 .. 5 of the window with half_width=5; rebuild the walk on a window "
            "with a larger half_width"
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 30), width=st.integers(2, 12),
       slack=st.integers(0, 3))
def test_the_three_engines_agree_from_tables_with_both_parity_classes(seed, steps, width, slack):
    # A random coin and a random table whose occupied sites, some of them
    # zeroed, hold both parity classes: the recurrence and the dense engine
    # agree at every step, and the momentum-space endpoint with both.
    rng = np.random.default_rng(seed)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    first = int(rng.integers(-width, 1))  # the occupied sites x = first .. first + width - 1
    n = max(-first, first + width - 1) + steps + slack
    start = np.zeros((2, 2 * n + 1), dtype=complex)
    block = rng.normal(size=(2, width)) + 1j * rng.normal(size=(2, width))
    block[:, 2:][:, rng.random(width - 2) < 0.3] = 0.0  # zeros inside, columns 0 and 1 kept
    start[:, n + first : n + first + width] = block / np.linalg.norm(block)
    recurrence = [start, *iter_steps(start, coin, steps)]
    dense = list(dense_series(start, coin, steps))
    assert len(dense) == len(recurrence) == steps + 1
    for a, b in zip(recurrence, dense):
        assert np.max(np.abs(a - b)) <= 1e-12
    endpoint = evolve(start, coin, steps)
    assert np.max(np.abs(endpoint - recurrence[-1])) <= 1e-12
    assert np.max(np.abs(endpoint - dense[-1])) <= 1e-12


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
    probs = distribution(evolve(state, make_coin(CoinParams(0.7, 1.0, 0.2)), steps))
    for x in range(-16, 17):
        if (x - steps) % 2 != 0:
            assert probs[x + 16] == 0.0


@pytest.mark.parametrize("steps", [3, 10])
def test_amplitude_never_outruns_the_step_count(steps):
    state = initial_state(*UNBIASED_INIT, 12)
    probs = distribution(evolve(state, make_coin(named_coin("hadamard")), steps))
    for x in range(-12, 13):
        if abs(x) > steps:
            assert probs[x + 12] == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 25))
def test_norm_is_preserved_along_the_walk(seed, steps):
    rng = np.random.default_rng(seed)
    alpha, beta = normalized_pair(rng)
    theta, phi1, phi2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), rng.uniform(0, math.pi)
    state = initial_state(alpha, beta, 25)
    state = evolve(state, make_coin(CoinParams(theta, phi1, phi2)), steps)
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) <= 1e-10
