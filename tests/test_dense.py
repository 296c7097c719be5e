"""Tests for the dense reference engine and its agreement with the recurrence."""

import math

import numpy as np
import pytest

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    StepUnitary,
    build_shift_matrix,
    build_step_unitary,
    dense_series,
    evolve,
    initial_state,
    make_coin,
    named_coin,
    run_walk,
)

from conftest import normalized_pair, random_coin_angles


# ------------------------------------------------------------
# Shift matrix
# ------------------------------------------------------------


def test_shift_matrix_half_width_2():
    expected = np.array(
        [
            [0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(build_shift_matrix(2), expected)


@pytest.mark.parametrize("half_width", [1, 3, 10])
def test_shift_matrix_is_a_cyclic_permutation(half_width):
    m = build_shift_matrix(half_width)
    w = 2 * half_width + 1
    assert m.shape == (w, w)
    assert np.array_equal(m.sum(axis=0), np.ones(w))
    assert np.array_equal(m.sum(axis=1), np.ones(w))
    for j in range(w):
        e = np.zeros(w)
        e[j] = 1.0
        assert np.array_equal(m @ e, np.eye(w)[(j + 1) % w])


@pytest.mark.parametrize("bad", [0, -1, 1.5])
def test_shift_matrix_rejects_bad_half_width(bad):
    with pytest.raises(ValueError):
        build_shift_matrix(bad)


# ------------------------------------------------------------
# Step unitary: structure and unitarity
# ------------------------------------------------------------


def test_step_unitary_moves_head_right_and_tail_left():
    n = 4
    w = 2 * n + 1
    step = build_step_unitary(make_coin(CoinParams(0.0, 0.0, 0.0)), n).matrix
    # theta=0 coin is diag(1, -1): pure conditional shift up to the tail sign.
    head_origin = np.zeros(2 * w, dtype=complex)
    head_origin[n] = 1.0
    out = step @ head_origin
    expected = np.zeros(2 * w, dtype=complex)
    expected[n + 1] = 1.0
    assert np.array_equal(out, expected)
    tail_origin = np.zeros(2 * w, dtype=complex)
    tail_origin[w + n] = 1.0
    out = step @ tail_origin
    expected = np.zeros(2 * w, dtype=complex)
    expected[w + n - 1] = -1.0
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("theta, phi1, phi2", [(0.8, 0.3, 1.2), (2.5, 2.0, 0.1)])
def test_step_unitary_half_width_2_layout(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    u = build_step_unitary(make_coin(p), 2).matrix
    a = math.cos(p.theta)
    b = np.exp(1j * p.phi1) * math.sin(p.theta)
    c = np.exp(1j * p.phi2) * math.sin(p.theta)
    d = -np.exp(1j * (p.phi1 + p.phi2)) * math.cos(p.theta)
    # Row r of the head block holds a at column (r-1) mod 5 and b five columns
    # later; row r of the tail block holds c at (r+1) mod 5 and d five later.
    for r in range(5):
        assert u[r, (r - 1) % 5] == a
        assert u[r, 5 + (r - 1) % 5] == b
        assert u[5 + r, (r + 1) % 5] == c
        assert u[5 + r, 5 + (r + 1) % 5] == d
    assert np.count_nonzero(u) == 20


@pytest.mark.parametrize("half_width", [1, 5, 50])
def test_step_unitary_is_unitary(half_width):
    u = build_step_unitary(make_coin(CoinParams(0.9, 0.8, 0.7)), half_width)
    dim = 2 * (2 * half_width + 1)
    assert u.matrix.shape == (dim, dim)
    residual = u.matrix.conj().T @ u.matrix - np.eye(dim)
    assert np.max(np.abs(residual)) <= 1e-10


def test_non_unitary_coin_is_caught_at_assembly():
    broken = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        build_step_unitary(broken, 3)


def test_step_unitary_validates_its_shape():
    with pytest.raises(ValueError, match="shape"):
        StepUnitary(np.eye(4, dtype=complex), 2)


# ------------------------------------------------------------
# Dense evolution against closed forms
# ------------------------------------------------------------


def _dense_final(alpha, beta, coin, steps):
    """The last table of a dense series: positions -max(steps, 1) .. max(steps, 1)."""
    for table in dense_series(alpha, beta, coin, steps):
        pass
    return table


@pytest.mark.parametrize("theta, phi1, phi2", [(0.3, 0.7, 1.1), (1.9, 2.1, 0.4)])
def test_one_dense_step_from_head(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    amp = _dense_final(1.0, 0.0, make_coin(p), 1)
    expected = np.zeros((2, 3), dtype=complex)
    expected[0, 2] = math.cos(p.theta)  # head at x=+1
    expected[1, 0] = np.exp(1j * p.phi2) * math.sin(p.theta)  # tail at x=-1
    assert np.max(np.abs(amp - expected)) <= 1e-15


@pytest.mark.parametrize("theta, phi1, phi2", [(0.3, 0.7, 1.1), (1.9, 2.1, 0.4)])
def test_two_dense_steps_from_head(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    amp = _dense_final(1.0, 0.0, make_coin(p), 2)
    c, s = math.cos(p.theta), math.sin(p.theta)
    expected = np.zeros((2, 5), dtype=complex)
    expected[0, 4] = c * c
    expected[0, 2] = np.exp(1j * (p.phi1 + p.phi2)) * s * s
    expected[1, 2] = np.exp(1j * p.phi2) * s * c
    expected[1, 0] = -np.exp(1j * (p.phi1 + 2 * p.phi2)) * s * c
    assert np.max(np.abs(amp - expected)) <= 1e-14


def test_zero_dense_steps_returns_the_start():
    amp = _dense_final(*UNBIASED_INIT, make_coin(named_coin("fourier")), 0)
    expected = np.zeros((2, 3), dtype=complex)
    expected[0, 1], expected[1, 1] = UNBIASED_INIT
    assert np.array_equal(amp, expected)


def test_dense_two_step_hadamard_distribution():
    amp = _dense_final(1.0, 0.0, make_coin(named_coin("hadamard")), 2)
    assert np.sum(np.abs(amp) ** 2, axis=0) == pytest.approx([0.25, 0.0, 0.5, 0.0, 0.25], abs=1e-15)


# ------------------------------------------------------------
# Guard rails
# ------------------------------------------------------------


def test_the_size_cap_is_enforced():
    # Both refusals come when dense_series is called, before any iteration.
    coin = make_coin(named_coin("hadamard"))
    with pytest.raises(ValueError, match="takes 0 to 200 steps, got 201"):
        dense_series(*UNBIASED_INIT, coin, 201)
    with pytest.raises(ValueError, match="steps must be a non-negative integer, got -1"):
        dense_series(*UNBIASED_INIT, coin, -1)


def test_dense_rejects_unnormalized_start():
    with pytest.raises(ValueError, match="normalized"):
        next(dense_series(1.0, 1.0, make_coin(named_coin("hadamard")), 1))


# ------------------------------------------------------------
# Agreement with the recurrence engine
# ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_engines_agree_amplitude_by_amplitude(seed):
    # A fresh dense walk of each length t, on its own window of half-width t.
    rng = np.random.default_rng(1000 + seed)
    theta, phi1, phi2 = random_coin_angles(rng)
    alpha, beta = normalized_pair(rng)
    coin = make_coin(CoinParams(theta, phi1, phi2))
    n = 12
    state = initial_state(alpha, beta, n)
    for t in range(1, n + 1):
        state = evolve(state, coin, 1)
        reference = _dense_final(alpha, beta, coin, t)
        window = state.amplitudes[:, n - t : n + t + 1]
        assert np.max(np.abs(window - reference)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_dense_series_takes_one_matvec_per_step(seed):
    rng = np.random.default_rng(2000 + seed)
    alpha, beta = normalized_pair(rng)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    n = 9
    step = build_step_unitary(coin, n).matrix
    tables = list(dense_series(alpha, beta, coin, n))
    assert len(tables) == n + 1
    start = np.zeros((2, 2 * n + 1), dtype=complex)
    start[:, n] = alpha, beta
    assert np.array_equal(tables[0], start)
    for before, after in zip(tables, tables[1:]):
        assert np.array_equal(after.ravel(), step @ before.ravel())


def test_dense_distribution_matches_run_walk_window():
    p = CoinParams(2.2, 1.3, 0.4)
    steps = 15
    from_walk = run_walk(p, *UNBIASED_INIT, steps)
    from_dense = np.sum(np.abs(_dense_final(*UNBIASED_INIT, make_coin(p), steps)) ** 2, axis=0)
    assert np.max(np.abs(from_walk.probs - from_dense)) <= 1e-12
