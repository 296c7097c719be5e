"""Tests for Schmidt spectra, ranks and coin-position entropy."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    LatticeExhaustedError,
    entanglement_entropy,
    entanglement_series,
    evolve,
    initial_state,
    iter_steps,
    make_coin,
    named_coin,
    schmidt_spectrum,
)
from coinwalk.entanglement import _RANK_TOL, _entropies, _gram, _spectra
from coinwalk.momentum import _grams

from conftest import angles, normalized_pair, random_coin_angles

# Frozen oracle: entropy of Schmidt weights {cos^2 30deg, sin^2 30deg} = {3/4, 1/4}.
ENTROPY_THETA_30 = 0.811278124459133


def _state_from_rows(row_h, row_t, half_width):
    amp = np.zeros((2, 2 * half_width + 1), dtype=complex)
    amp[0, : len(row_h)] = row_h
    amp[1, : len(row_t)] = row_t
    return amp


# ------------------------------------------------------------
# Product and zero states
# ------------------------------------------------------------


@pytest.mark.parametrize("alpha, beta", [UNBIASED_INIT, (1.0, 0.0), (0.6, 0.8j)])
def test_initial_states_are_separable(alpha, beta):
    state = initial_state(alpha, beta, 4)
    values, rank = schmidt_spectrum(state)
    assert rank == 1
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    # The raw second value sits on the Gram-matrix noise floor (~sqrt(eps)),
    # not at an exact zero; the rank cutoff is what certifies separability.
    assert values[1] <= 1e-7
    assert entanglement_entropy(state) <= 1e-12


def test_zero_state_has_rank_zero():
    state = np.zeros((2, 7), dtype=complex)
    values, rank = schmidt_spectrum(state)
    assert rank == 0
    assert np.array_equal(values, np.zeros(2))
    assert entanglement_entropy(state) == 0.0
    ranks, entropies = entanglement_series(state, make_coin(named_coin("hadamard")), 5)
    assert np.array_equal(ranks, np.zeros(6)) and np.array_equal(entropies, np.zeros(6))


# ------------------------------------------------------------
# Known spectra after a few steps
# ------------------------------------------------------------


def test_one_hadamard_step_is_maximally_entangled():
    state = evolve(initial_state(1.0, 0.0, 3), make_coin(named_coin("hadamard")), 1)
    values, rank = schmidt_spectrum(state)
    assert type(rank) is int and rank == 2
    assert values.shape == (2,) and values.dtype == np.float64
    assert values == pytest.approx([math.sqrt(0.5), math.sqrt(0.5)], abs=1e-12)
    assert entanglement_entropy(state) == pytest.approx(1.0, abs=1e-12)


def test_one_step_spectrum_is_cos_sin_of_theta():
    theta = CoinParams.from_degrees(30.0)
    state = evolve(initial_state(1.0, 0.0, 3), make_coin(theta), 1)
    values, _ = schmidt_spectrum(state)
    assert values == pytest.approx([math.cos(theta.theta), math.sin(theta.theta)], abs=1e-12)
    assert entanglement_entropy(state) == pytest.approx(ENTROPY_THETA_30, abs=1e-12)


def test_swap_coin_never_entangles_a_head_start():
    coin = make_coin(named_coin("grover"))
    for state in iter_steps(initial_state(1.0, 0.0, 20), coin, 20):
        assert schmidt_spectrum(state)[1] == 1
        assert entanglement_entropy(state) <= 1e-12


# ------------------------------------------------------------
# The rank cutoff
# ------------------------------------------------------------


def test_rank_uses_the_relative_weight_cutoff():
    # The cutoff is 1e-10 in the weights: a second weight of 1e-8 times the
    # first counts, one of 1e-12 times the first does not.
    counted = _state_from_rows([1.0], [0.0, 1e-4], half_width=2)
    dropped = _state_from_rows([1.0], [0.0, 1e-6], half_width=2)
    assert schmidt_spectrum(counted)[1] == 2
    assert schmidt_spectrum(dropped)[1] == 1
    assert schmidt_spectrum(dropped)[0][1] == pytest.approx(1e-6, rel=1e-3)


def test_separability_is_robust_for_generic_product_states():
    # Forming the Gram matrix of an exactly separable state leaves weight
    # noise near machine epsilon; the rank must not count it.
    state = initial_state(complex(0.6, -0.1), complex(0.2, 0.7681145747868607), 2)
    assert schmidt_spectrum(state)[1] == 1


def test_a_table_whose_gram_matrix_overflows_is_refused():
    # Finite amplitudes of 1e200 square past the float maximum: the Gram
    # matrix holds inf and its eigenvalues NaN, which would read as rank 0
    # and entropy 0.
    table = initial_state(*UNBIASED_INIT, 3) * 1e200
    hadamard = make_coin(named_coin("hadamard"))
    for measure in (
        schmidt_spectrum,
        entanglement_entropy,
        lambda amp: entanglement_series(amp, hadamard, 2),
    ):
        with pytest.raises(ValueError) as err:
            measure(table)
        assert str(err.value) == "singular values must be finite, non-negative and descending"


def test_weights_whose_entropy_terms_overflow_have_a_spectrum_but_no_entropy():
    # Amplitudes near 1e153 give a finite Gram matrix with weights near
    # 1e306, whose terms w log2 w pass the float maximum.  The spectrum needs
    # no entropy and is returned; the entropy is refused, not -inf.  Warnings
    # are errors here, so an overflow warning would fail the test too.
    hadamard = make_coin(named_coin("hadamard"))
    table = evolve(initial_state(0.6, 0.8, 2), hadamard, 2) * 1e153
    values, rank = schmidt_spectrum(table)
    assert rank == 2 and np.all(np.isfinite(values))
    assert values[0] > 1e152
    for measure in (entanglement_entropy, lambda amp: entanglement_series(amp, hadamard, 3)):
        with pytest.raises(ValueError) as err:
            measure(table)
        assert str(err.value) == "singular values must be finite, non-negative and descending"


# ------------------------------------------------------------
# The closed-form spectrum against LAPACK and exact arithmetic
# ------------------------------------------------------------


def _eigvalsh_spectra(grams):
    """The oracle: the weights of LAPACK's ``eigvalsh``, with the rank and entropy rules of ``_spectra``."""
    weights = np.clip(np.linalg.eigvalsh(grams)[..., ::-1], 0.0, None)
    top = weights[..., :1]
    ranks = np.where(top[..., 0] > 0.0, np.count_nonzero(weights > _RANK_TOL * top, axis=-1), 0)
    logs = np.log2(weights, out=np.zeros_like(weights), where=weights > 0.0)
    return weights, ranks, np.where(ranks >= 2, -np.sum(weights * logs, axis=-1), 0.0)


def _exact_weights(gram):
    """The two weights of one Gram matrix, from its float entries in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        g00, g11 = decimal.Decimal(gram[0, 0].real), decimal.Decimal(gram[1, 1].real)
        cross = decimal.Decimal(gram[1, 0].real) ** 2 + decimal.Decimal(gram[1, 0].imag) ** 2
        mean = (g00 + g11) / 2
        radius = (((g00 - g11) / 2) ** 2 + cross).sqrt()
        return [float(mean + radius), float(max(mean - radius, decimal.Decimal(0)))]


def _psd_stack(kind, rng, count=200):
    """``count`` Hermitian PSD ``(2, 2)`` matrices of unit trace (the zero matrix for "zero")."""
    if kind == "zero":
        return np.zeros((count, 2, 2), dtype=complex)
    if kind == "diagonal":
        grams = np.zeros((count, 2, 2), dtype=complex)
        grams[:, [0, 1], [0, 1]] = rng.random((count, 2))
    elif kind in ("rank-1", "random"):
        rows = rng.normal(size=(count, 2, 1 if kind == "rank-1" else 5))
        rows = rows + 1j * rng.normal(size=rows.shape)
        grams = rows @ rows.conj().transpose(0, 2, 1)
    else:  # a second weight of ``kind`` times the first, in a random basis
        basis, _ = np.linalg.qr(rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2)))
        grams = (basis * [1.0, kind]) @ basis.conj().transpose(0, 2, 1)
    return grams / (grams[:, 0, 0].real + grams[:, 1, 1].real)[:, None, None]


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize(
    "kind, rank",
    [("zero", 0), ("rank-1", 1), ("diagonal", 2), ("random", 2), (1e-11, 1), (1e-9, 2)],
)
def test_closed_form_spectra_match_eigvalsh(kind, rank, scale):
    # Second weights of 1e-11 and 1e-9 times the first lie on either side of
    # the 1e-10 rank cutoff.
    grams = _psd_stack(kind, np.random.default_rng(21), count=200) * scale
    weights, ranks = _spectra(grams)
    values, entropies = np.sqrt(weights), _entropies(weights, ranks)
    weights, oracle_ranks, oracle_entropies = _eigvalsh_spectra(grams)
    assert np.array_equal(ranks, oracle_ranks) and np.all(ranks == rank)
    trace = (grams[:, 0, 0].real + grams[:, 1, 1].real)[:, None]
    eps = np.finfo(float).eps
    # Against exact arithmetic the closed form's weights (squared back from
    # the values) were measured within 1.7 eps * trace over these stacks;
    # eigvalsh's within 3.7 eps * trace.
    exact = np.array([_exact_weights(gram) for gram in grams])
    assert np.all(np.abs(values**2 - exact) <= 3 * eps * trace)
    assert np.all(np.abs(values**2 - weights) <= 8 * eps * trace)
    # An error d in a weight w moves the entropy by about |log2 w + 1/ln 2| d,
    # so that is the bound.  Measured at unit trace: at most 5.6e-16 with
    # both weights of order 1, and 1.0e-14 for the 1e-9 second weight, whose
    # log2 is about -30.
    logs = np.log2(weights, out=np.zeros_like(weights), where=weights > 0.0)
    sensitivity = np.sum(np.abs(logs) + 2.0, axis=-1)
    assert np.all(np.abs(entropies - oracle_entropies) <= sensitivity * 8 * eps * trace[:, 0])
    assert np.array_equal(entropies == 0.0, ranks <= 1)


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
    start = initial_state(*init, max(steps, 1))
    ranks, entropies = entanglement_series(start, coin, steps)
    assert ranks.shape == entropies.shape == (steps + 1,)
    for t, state in enumerate([start, *iter_steps(start, coin, steps)]):
        assert ranks[t] == schmidt_spectrum(state)[1]
        # The series sums in momentum space and the per-state functions over
        # the stepped table: the cross-engine bound of the README.
        assert abs(entropies[t] - entanglement_entropy(state)) <= 1e-12
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
    values, _ = schmidt_spectrum(state)
    total_probability = np.sum(np.abs(state) ** 2)
    assert np.sum(values**2) == pytest.approx(total_probability, abs=1e-10)
    assert values[0] >= values[1] >= 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 15), chi=st.floats(0.0, 6.2))
def test_entropy_ignores_a_global_phase(seed, steps, chi):
    rng = np.random.default_rng(seed)
    alpha, beta = normalized_pair(rng)
    state = initial_state(alpha, beta, 15)
    state = evolve(state, make_coin(CoinParams(*random_coin_angles(rng))), steps)
    rotated = state * np.exp(1j * chi)
    entropy = entanglement_entropy(state)
    assert 0.0 <= entropy <= 1.0 + 1e-12
    assert abs(entropy - entanglement_entropy(rotated)) <= 1e-12


# ------------------------------------------------------------
# The momentum-space series against the recurrence
# ------------------------------------------------------------


def _recurrence_grams(table, coin, steps):
    """The oracle: ``_gram`` over ``iter_steps``, on the table's window padded by ``steps``.

    No walk of ``steps`` steps leaves the padded window, so this is the walk
    on the infinite line that :func:`entanglement_series` describes.
    """
    padded = np.pad(table, ((0, 0), (steps, steps)))
    return np.array([_gram(padded), *map(_gram, iter_steps(padded, coin, steps))])


def _assert_series_agree(table, coin, steps):
    """Identical ranks, exact-zero entropies at the same t, entropies within 1e-12."""
    weights, ranks = _spectra(_recurrence_grams(table, coin, steps))
    entropies = _entropies(weights, ranks)
    series_ranks, series_entropies = entanglement_series(table, coin, steps)
    assert np.array_equal(series_ranks, ranks)
    assert np.array_equal(series_entropies == 0.0, entropies == 0.0)
    assert np.max(np.abs(series_entropies - entropies)) <= 1e-12
    return series_ranks


def _assert_origin_series_agree(coin, alpha, beta, steps):
    """:func:`_assert_series_agree` from the origin: a product state, rank 1 and entropy 0 at t = 0."""
    ranks = _assert_series_agree(initial_state(alpha, beta, 1), coin, steps)
    assert ranks[0] == 1
    return ranks


def _random_table(rng, half_width, span):
    """A table of random amplitudes on ``span`` sites from a random column, both parities occupied."""
    table = np.zeros((2, 2 * half_width + 1), dtype=complex)
    first = rng.integers(0, table.shape[1] - span + 1)
    table[:, first : first + span] = rng.normal(size=(2, span)) + 1j * rng.normal(size=(2, span))
    return table / np.linalg.norm(table)


@settings(max_examples=40, deadline=None)
@given(theta=angles, phi1=angles, phi2=angles, seed=st.integers(0, 2**32 - 1),
       span=st.integers(2, 12), steps=st.integers(0, 400))
def test_series_matches_the_recurrence(theta, phi1, phi2, seed, span, steps):
    rng = np.random.default_rng(seed)
    table = _random_table(rng, rng.integers(span // 2 + 1, 20), span)
    assert np.any(table[:, 0::2]) and np.any(table[:, 1::2])
    _assert_series_agree(table, make_coin(CoinParams(theta, phi1, phi2)), steps)


@pytest.mark.parametrize(
    "params",
    [named_coin("hadamard"), CoinParams(*random_coin_angles(np.random.default_rng(11)))],
    ids=["hadamard", "generic"],
)
def test_origin_series_matches_the_recurrence_at_3000_steps(params):
    _assert_origin_series_agree(make_coin(params), 0.6, 0.8j, 3000)


def test_a_table_series_matches_the_recurrence_at_3000_steps():
    rng = np.random.default_rng(13)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    _assert_series_agree(_random_table(rng, 5, 9), coin, 3000)


@pytest.mark.parametrize(
    "params",
    [named_coin("hadamard"), CoinParams(*random_coin_angles(np.random.default_rng(12)))],
    ids=["hadamard", "generic"],
)
def test_origin_grams_match_parseval_at_100000_steps(params):
    # Each Gram matrix of the series against the one summed over the table of
    # evolve, an independent route to the same state, at both ends
    # and the middle of a series far beyond the reach of the recurrence.
    coin = make_coin(params)
    steps = 100_000
    grams = _grams(initial_state(0.6, 0.8j, 1), coin, steps)
    for t in (0, 1, 2, 3, steps // 2, steps - 1, steps):
        direct = _gram(evolve(initial_state(0.6, 0.8j, max(t, 1)), coin, t))
        assert np.max(np.abs(grams[t] - direct)) <= 1e-12
    weights, ranks = _spectra(grams[:1])
    assert ranks[0] == 1 and _entropies(weights, ranks)[0] == 0.0


def test_a_walk_that_leaves_its_window_is_the_walk_on_the_line():
    # The recurrence refuses to step this table past its own window; the
    # series has no window, and matches the recurrence on a padded one.
    rng = np.random.default_rng(14)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    table = _random_table(rng, 3, 7)
    steps = 50
    with pytest.raises(LatticeExhaustedError):
        iter_steps(table, coin, steps)
    assert np.max(np.abs(_grams(table, coin, steps) - _recurrence_grams(table, coin, steps))) <= 1e-13
    _assert_series_agree(table, coin, steps)


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
    ranks = _assert_origin_series_agree(make_coin(params), *init, steps)
    assert np.all(ranks[list(product_times)] == 1)


# The T -> infinity limit of the walk from a table: each parity class's
# transform psi(q) dephased in the eigenbasis of U(q), summed over the
# classes and averaged over q (the non-oscillating term ``Abar`` of the
# series, by Riemann-Lebesgue the limit of every Gram matrix).  The
# integrand is analytic and periodic, so the midpoint rule on 1024 points is
# exact to rounding (4096 points move it by at most 7e-16).  From a head
# start with the Hadamard coin it reads 0.8724293 bits, the plateau of
# Carneiro et al., New J. Phys. 7, 156 (2005) and Abal et al., PRA 73, 042302
# (2006).
def _plateau(coin, table, points=1024):
    q = 2.0 * math.pi * (np.arange(points) + 0.5) / points
    step = np.empty((points, 2, 2), dtype=complex)
    step[:, 0] = np.exp(-1j * q)[:, None] * coin[0]
    step[:, 1] = coin[1]
    _, vectors = np.linalg.eig(step)
    rho = np.zeros((2, 2), dtype=complex)
    for rows in (table[:, 0::2], table[:, 1::2]):
        # psi(q) = sum_y psi_y e^{-iqy}, the label y of a class counting its columns.
        psi = rows @ np.exp(-1j * np.outer(np.arange(rows.shape[1]), q))
        overlaps = np.abs(np.einsum("pik,ip->pk", vectors.conj(), psi)) ** 2  # |<v_k|psi>|^2
        rho += np.einsum("pk,pik,pjk->ij", overlaps, vectors, vectors.conj()) / points
    weights = np.linalg.eigvalsh(rho)
    return float(-np.sum(weights * np.log2(weights)))


def test_hadamard_entropy_reaches_its_plateau():
    hadamard = make_coin(named_coin("hadamard"))
    head = initial_state(1.0, 0.0, 1)
    plateau = _plateau(hadamard, head)
    assert abs(plateau - 0.8724293) <= 1e-7
    steps = 20_000
    _, entropies = entanglement_series(head, hadamard, steps)
    # |S(t) - plateau| measured at t = T - 1 and t = T for T = 10^3, 2*10^3,
    # 4*10^3, 8*10^3 and 1.6*10^4 fits 0.3834 t^-0.5064 at these odd t and
    # 0.2600 t^-1.0060 at these even t (least squares in log-log).  At
    # T = 2*10^4 the fits predict 2.545e-3 and 1.225e-5; the bounds are twice
    # the fits.
    odd, even = steps - 1, steps
    assert abs(entropies[odd] - plateau) <= 2 * 0.3834 * odd**-0.5064
    assert abs(entropies[even] - plateau) <= 2 * 0.2600 * even**-1.0060


def test_entropy_from_a_non_local_start_reaches_its_plateau():
    # A generic coin from a start on three sites, both parity classes
    # occupied: 0.6 |x=-1, H> + 0.6i |x=1, T> (the two-site class of Abal et
    # al.) plus sqrt(0.28) |x=0, H>.
    coin = make_coin(CoinParams(*random_coin_angles(np.random.default_rng(11))))
    table = np.zeros((2, 3), dtype=complex)
    table[0, 0], table[1, 2], table[0, 1] = 0.6, 0.6j, math.sqrt(0.28)
    plateau = _plateau(coin, table)
    steps = 20_000
    _, entropies = entanglement_series(table, coin, steps)
    # The distance oscillates within an envelope: its maximum over the 64
    # steps up to T = 10^3, 2*10^3, 4*10^3, 8*10^3 and 1.6*10^4 fits
    # 0.0447 T^-0.5229 (least squares in log-log), which predicts 2.52e-4 at
    # T = 2*10^4 (measured 2.54e-4); the bound is twice the fit.  The start
    # lies 0.051 below the plateau.
    bound = 2 * 0.0447 * steps**-0.5229
    assert np.max(np.abs(entropies[-64:] - plateau)) <= bound
    assert abs(entropies[0] - plateau) >= 50 * bound
