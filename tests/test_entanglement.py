"""Tests for Schmidt spectra, separability and coin-position entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    LatticeSpec,
    SchmidtSpectrum,
    WalkerState,
    entanglement_entropy,
    entanglement_series,
    evolve,
    initial_state,
    is_separable,
    make_coin,
    named_coin,
    schmidt_spectrum,
    step_recurrence,
    total_probability,
)

from conftest import normalized_pair, random_coin_angles

# Frozen oracle: entropy of Schmidt weights {cos^2 30deg, sin^2 30deg} = {3/4, 1/4}.
ENTROPY_THETA_30 = 0.811278124459133


def _state_from_rows(row_h, row_t, half_width):
    amp = np.zeros((2, 2 * half_width + 3), dtype=complex)
    amp[0, : len(row_h)] = row_h
    amp[1, : len(row_t)] = row_t
    return WalkerState(amp, LatticeSpec(half_width))


# ------------------------------------------------------------
# Product and zero states
# ------------------------------------------------------------


@pytest.mark.parametrize("alpha, beta", [UNBIASED_INIT, (1.0, 0.0), (0.6, 0.8j)])
def test_initial_states_are_separable(alpha, beta):
    state = initial_state(alpha, beta, LatticeSpec(4))
    spectrum = schmidt_spectrum(state)
    assert spectrum.rank == 1
    assert spectrum.values[0] == pytest.approx(1.0, abs=1e-12)
    # The raw second value sits on the Gram-matrix noise floor (~sqrt(eps)),
    # not at an exact zero; the rank cutoff is what certifies separability.
    assert spectrum.values[1] <= 1e-7
    assert is_separable(state)
    assert entanglement_entropy(state) <= 1e-12


def test_zero_state_has_rank_zero():
    state = WalkerState(np.zeros((2, 7), dtype=complex), LatticeSpec(2))
    spectrum = schmidt_spectrum(state)
    assert spectrum.rank == 0
    assert np.array_equal(spectrum.values, np.zeros(2))
    assert is_separable(state)
    assert entanglement_entropy(state) == 0.0


# ------------------------------------------------------------
# Known spectra after a few steps
# ------------------------------------------------------------


def test_one_hadamard_step_is_maximally_entangled():
    state = step_recurrence(initial_state(1.0, 0.0, LatticeSpec(3)), make_coin(named_coin("hadamard")))
    spectrum = schmidt_spectrum(state)
    assert spectrum.rank == 2
    assert spectrum.values == pytest.approx([math.sqrt(0.5), math.sqrt(0.5)], abs=1e-12)
    assert not is_separable(state)
    assert entanglement_entropy(state) == pytest.approx(1.0, abs=1e-12)


def test_one_step_spectrum_is_cos_sin_of_theta():
    theta = CoinParams.from_degrees(30.0)
    state = step_recurrence(initial_state(1.0, 0.0, LatticeSpec(3)), make_coin(theta))
    spectrum = schmidt_spectrum(state)
    assert spectrum.values == pytest.approx([math.cos(theta.theta), math.sin(theta.theta)], abs=1e-12)
    assert entanglement_entropy(state) == pytest.approx(ENTROPY_THETA_30, abs=1e-12)


def test_swap_coin_never_entangles_a_head_start():
    coin = make_coin(named_coin("grover"))
    state = initial_state(1.0, 0.0, LatticeSpec(20))
    for _ in range(20):
        state = step_recurrence(state, coin)
        assert schmidt_spectrum(state).rank == 1
        assert entanglement_entropy(state) <= 1e-12


# ------------------------------------------------------------
# Rank tolerance semantics
# ------------------------------------------------------------


def test_rank_uses_the_relative_weight_cutoff():
    # Second Schmidt weight is 1e-8 of the first: counted at the default
    # cutoff, dropped at a coarse one.
    state = _state_from_rows([1.0], [0.0, 1e-4], half_width=2)
    assert schmidt_spectrum(state, tol=1e-10).rank == 2
    assert schmidt_spectrum(state, tol=1e-6).rank == 1
    assert not is_separable(state, tol=1e-10)
    assert is_separable(state, tol=1e-6)


def test_separability_is_robust_for_generic_product_states():
    # Forming the Gram matrix of an exactly separable state leaves weight
    # noise near machine epsilon; the rank must not count it.
    state = initial_state(complex(0.6, -0.1), complex(0.2, 0.7681145747868607), LatticeSpec(2))
    assert schmidt_spectrum(state).rank == 1
    assert is_separable(state)


def test_negative_tolerance_is_rejected():
    state = initial_state(1.0, 0.0, LatticeSpec(2))
    with pytest.raises(ValueError, match="non-negative"):
        schmidt_spectrum(state, tol=-1.0)


def test_spectrum_validation():
    with pytest.raises(ValueError, match="descending"):
        SchmidtSpectrum(np.array([0.3, 0.9]), rank=2)
    with pytest.raises(ValueError, match="at most two"):
        SchmidtSpectrum(np.array([0.9, 0.3, 0.1]), rank=3)
    with pytest.raises(ValueError, match="rank"):
        SchmidtSpectrum(np.array([1.0, 0.0]), rank=3)


# ------------------------------------------------------------
# The series over a whole walk
# ------------------------------------------------------------


@pytest.mark.parametrize(
    "params, init, steps",
    [
        (named_coin("hadamard"), UNBIASED_INIT, 60),
        (CoinParams(*random_coin_angles(np.random.default_rng(7))), (0.6, 0.8j), 60),
        (named_coin("hadamard"), (1.0, 0.0), 40),  # --init head
        (CoinParams.from_degrees(90.0), (1.0, 0.0), 30),  # rank 1 at every step
        (named_coin("hadamard"), UNBIASED_INIT, 0),
    ],
)
def test_series_matches_the_per_state_functions(params, init, steps):
    coin = make_coin(params)
    state = initial_state(*init, LatticeSpec(max(steps, 1)))
    ranks, entropies = entanglement_series(state, coin, steps)
    assert ranks.shape == entropies.shape == (steps + 1,)
    for t in range(steps + 1):
        if t > 0:
            state = step_recurrence(state, coin)
        assert ranks[t] == schmidt_spectrum(state).rank
        assert abs(entropies[t] - entanglement_entropy(state)) <= 1e-14
        if ranks[t] <= 1:
            assert entropies[t] == 0.0


# ------------------------------------------------------------
# Invariants
# ------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 15))
def test_squared_values_sum_to_the_total_probability(seed, steps):
    rng = np.random.default_rng(seed)
    alpha, beta = normalized_pair(rng)
    state = initial_state(alpha, beta, LatticeSpec(15))
    state = evolve(state, make_coin(CoinParams(*random_coin_angles(rng))), steps)
    spectrum = schmidt_spectrum(state)
    assert np.sum(spectrum.values**2) == pytest.approx(total_probability(state), abs=1e-10)
    assert spectrum.values[0] >= spectrum.values[1] >= 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 15), chi=st.floats(0.0, 6.2))
def test_entropy_ignores_a_global_phase(seed, steps, chi):
    rng = np.random.default_rng(seed)
    alpha, beta = normalized_pair(rng)
    state = initial_state(alpha, beta, LatticeSpec(15))
    state = evolve(state, make_coin(CoinParams(*random_coin_angles(rng))), steps)
    rotated = WalkerState(state.amplitudes * np.exp(1j * chi), state.lattice, state.time)
    entropy = entanglement_entropy(state)
    assert 0.0 <= entropy <= 1.0 + 1e-12
    assert abs(entropy - entanglement_entropy(rotated)) <= 1e-12
