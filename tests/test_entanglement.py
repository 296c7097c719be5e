"""Tests for Schmidt spectra, ranks and coin-position entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    SchmidtSpectrum,
    WalkerState,
    entanglement_entropy,
    entanglement_series,
    evolve,
    initial_state,
    make_coin,
    named_coin,
    origin_entanglement_series,
    schmidt_spectrum,
)

from conftest import angles, normalized_pair, random_coin_angles

# Frozen oracle: entropy of Schmidt weights {cos^2 30deg, sin^2 30deg} = {3/4, 1/4}.
ENTROPY_THETA_30 = 0.811278124459133


def _state_from_rows(row_h, row_t, half_width):
    amp = np.zeros((2, 2 * half_width + 1), dtype=complex)
    amp[0, : len(row_h)] = row_h
    amp[1, : len(row_t)] = row_t
    return WalkerState(amp)


# ------------------------------------------------------------
# Product and zero states
# ------------------------------------------------------------


@pytest.mark.parametrize("alpha, beta", [UNBIASED_INIT, (1.0, 0.0), (0.6, 0.8j)])
def test_initial_states_are_separable(alpha, beta):
    state = initial_state(alpha, beta, 4)
    spectrum = schmidt_spectrum(state)
    assert spectrum.rank == 1
    assert spectrum.values[0] == pytest.approx(1.0, abs=1e-12)
    # The raw second value sits on the Gram-matrix noise floor (~sqrt(eps)),
    # not at an exact zero; the rank cutoff is what certifies separability.
    assert spectrum.values[1] <= 1e-7
    assert entanglement_entropy(state) <= 1e-12


def test_zero_state_has_rank_zero():
    state = WalkerState(np.zeros((2, 7), dtype=complex))
    spectrum = schmidt_spectrum(state)
    assert spectrum.rank == 0
    assert np.array_equal(spectrum.values, np.zeros(2))
    assert entanglement_entropy(state) == 0.0


# ------------------------------------------------------------
# Known spectra after a few steps
# ------------------------------------------------------------


def test_one_hadamard_step_is_maximally_entangled():
    state = evolve(initial_state(1.0, 0.0, 3), make_coin(named_coin("hadamard")), 1)
    spectrum = schmidt_spectrum(state)
    assert spectrum.rank == 2
    assert spectrum.values == pytest.approx([math.sqrt(0.5), math.sqrt(0.5)], abs=1e-12)
    assert entanglement_entropy(state) == pytest.approx(1.0, abs=1e-12)


def test_one_step_spectrum_is_cos_sin_of_theta():
    theta = CoinParams.from_degrees(30.0)
    state = evolve(initial_state(1.0, 0.0, 3), make_coin(theta), 1)
    spectrum = schmidt_spectrum(state)
    assert spectrum.values == pytest.approx([math.cos(theta.theta), math.sin(theta.theta)], abs=1e-12)
    assert entanglement_entropy(state) == pytest.approx(ENTROPY_THETA_30, abs=1e-12)


def test_swap_coin_never_entangles_a_head_start():
    coin = make_coin(named_coin("grover"))
    state = initial_state(1.0, 0.0, 20)
    for _ in range(20):
        state = evolve(state, coin, 1)
        assert schmidt_spectrum(state).rank == 1
        assert entanglement_entropy(state) <= 1e-12


# ------------------------------------------------------------
# The rank cutoff
# ------------------------------------------------------------


def test_rank_uses_the_relative_weight_cutoff():
    # The cutoff is 1e-10 in the weights: a second weight of 1e-8 times the
    # first counts, one of 1e-12 times the first does not.
    counted = _state_from_rows([1.0], [0.0, 1e-4], half_width=2)
    dropped = _state_from_rows([1.0], [0.0, 1e-6], half_width=2)
    assert schmidt_spectrum(counted).rank == 2
    assert schmidt_spectrum(dropped).rank == 1
    assert schmidt_spectrum(dropped).values[1] == pytest.approx(1e-6, rel=1e-3)


def test_separability_is_robust_for_generic_product_states():
    # Forming the Gram matrix of an exactly separable state leaves weight
    # noise near machine epsilon; the rank must not count it.
    state = initial_state(complex(0.6, -0.1), complex(0.2, 0.7681145747868607), 2)
    assert schmidt_spectrum(state).rank == 1


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
    state = initial_state(*init, max(steps, 1))
    ranks, entropies = entanglement_series(state, coin, steps)
    assert ranks.shape == entropies.shape == (steps + 1,)
    for t in range(steps + 1):
        if t > 0:
            state = evolve(state, coin, 1)
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
    state = initial_state(alpha, beta, 15)
    state = evolve(state, make_coin(CoinParams(*random_coin_angles(rng))), steps)
    spectrum = schmidt_spectrum(state)
    total_probability = np.sum(np.abs(state.amplitudes) ** 2)
    assert np.sum(spectrum.values**2) == pytest.approx(total_probability, abs=1e-10)
    assert spectrum.values[0] >= spectrum.values[1] >= 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 15), chi=st.floats(0.0, 6.2))
def test_entropy_ignores_a_global_phase(seed, steps, chi):
    rng = np.random.default_rng(seed)
    alpha, beta = normalized_pair(rng)
    state = initial_state(alpha, beta, 15)
    state = evolve(state, make_coin(CoinParams(*random_coin_angles(rng))), steps)
    rotated = WalkerState(state.amplitudes * np.exp(1j * chi), state.time)
    entropy = entanglement_entropy(state)
    assert 0.0 <= entropy <= 1.0 + 1e-12
    assert abs(entropy - entanglement_entropy(rotated)) <= 1e-12


# ------------------------------------------------------------
# The momentum-space series from the origin against the recurrence
# ------------------------------------------------------------


def _assert_series_agree(coin, alpha, beta, steps):
    """Identical ranks, exact-zero entropies at the same t, entropies within 1e-12.

    Both series start from a product state: rank 1 and entropy exactly 0 at t = 0.
    """
    state = initial_state(alpha, beta, max(steps, 1))
    ranks, entropies = entanglement_series(state, coin, steps)
    origin_ranks, origin_entropies = origin_entanglement_series(alpha, beta, coin, steps)
    assert ranks[0] == origin_ranks[0] == 1 and entropies[0] == origin_entropies[0] == 0.0
    assert np.array_equal(origin_ranks, ranks)
    assert np.array_equal(origin_entropies == 0.0, entropies == 0.0)
    assert np.max(np.abs(origin_entropies - entropies)) <= 1e-12
    return origin_ranks


@settings(max_examples=40, deadline=None)
@given(theta=angles, phi1=angles, phi2=angles, seed=st.integers(0, 2**32 - 1),
       steps=st.integers(0, 400))
def test_origin_series_matches_the_recurrence(theta, phi1, phi2, seed, steps):
    coin = make_coin(CoinParams(theta, phi1, phi2))
    _assert_series_agree(coin, *normalized_pair(np.random.default_rng(seed)), steps)


@pytest.mark.parametrize(
    "params",
    [named_coin("hadamard"), CoinParams(*random_coin_angles(np.random.default_rng(11)))],
    ids=["hadamard", "generic"],
)
def test_origin_series_matches_the_recurrence_at_3000_steps(params):
    _assert_series_agree(make_coin(params), 0.6, 0.8j, 3000)


@pytest.mark.parametrize(
    "params, init, steps, product_times",
    [
        (named_coin("grover"), UNBIASED_INIT, 6, [0, 2]),
        (named_coin("fourier"), UNBIASED_INIT, 6, [0, 1]),
        (CoinParams.from_degrees(0.0), (1.0, 0.0), 30, range(31)),
        (CoinParams.from_degrees(90.0), (1.0, 0.0), 30, range(31)),
        (named_coin("hadamard"), UNBIASED_INIT, 0, [0]),
    ],
    ids=["grover-t2", "fourier-t1", "theta-0-head", "theta-90-head", "zero-steps"],
)
def test_origin_series_keeps_product_states_exact(params, init, steps, product_times):
    ranks = _assert_series_agree(make_coin(params), *init, steps)
    assert np.all(ranks[list(product_times)] == 1)


# The T -> infinity limit of the Hadamard walk from a head start: the start
# state's density matrix dephased in the eigenbasis of U(q), averaged over q
# (the non-oscillating term of the series).  The integrand is analytic and
# periodic, so the midpoint rule on 1024 points is exact to rounding; it
# reads 0.8724293 bits, the plateau of Carneiro et al., New J. Phys. 7, 156
# (2005) and Abal et al., PRA 73, 042302 (2006).
def _hadamard_plateau(points=1024):
    q = 2.0 * math.pi * (np.arange(points) + 0.5) / points
    hadamard = make_coin(named_coin("hadamard"))
    step = np.empty((points, 2, 2), dtype=complex)
    step[:, 0] = np.exp(-1j * q)[:, None] * hadamard[0]
    step[:, 1] = hadamard[1]
    _, vectors = np.linalg.eig(step)
    overlaps = np.abs(vectors[:, 0, :]) ** 2  # |<v_k|H>|^2
    rho = np.einsum("pk,pik,pjk->ij", overlaps, vectors, vectors.conj()) / points
    weights = np.linalg.eigvalsh(rho)
    return float(-np.sum(weights * np.log2(weights)))


def test_hadamard_entropy_reaches_its_plateau():
    plateau = _hadamard_plateau()
    assert abs(plateau - 0.8724293) <= 1e-7
    steps = 20_000
    _, entropies = origin_entanglement_series(1.0, 0.0, make_coin(named_coin("hadamard")), steps)
    # |S(t) - plateau| measured at t = T - 1 and t = T for T = 10^3, 2*10^3,
    # 4*10^3, 8*10^3 and 1.6*10^4 fits 0.3834 t^-0.5064 at these odd t and
    # 0.2600 t^-1.0060 at these even t (least squares in log-log).  At
    # T = 2*10^4 the fits predict 2.545e-3 and 1.225e-5; the bounds are twice
    # the fits.
    odd, even = steps - 1, steps
    assert abs(entropies[odd] - plateau) <= 2 * 0.3834 * odd**-0.5064
    assert abs(entropies[even] - plateau) <= 2 * 0.2600 * even**-1.0060
