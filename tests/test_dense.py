"""Tests for the dense reference engine and its agreement with the recurrence."""

import math

import numpy as np
import pytest

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    build_step_unitary,
    LatticeExhaustedError,
    dense_series,
    initial_state,
    iter_steps,
    make_coin,
    named_coin,
    run_walk,
)
from coinwalk import dense
from coinwalk.coin import _unitarity_residual

from conftest import normalized_pair, random_coin_angles


# ------------------------------------------------------------
# Shift matrix: the blocks of the theta=0 operator
# ------------------------------------------------------------


def _shift_blocks(half_width):
    """Head and tail blocks of the theta=0 operator: the coin diag(1, -1) leaves only the shift."""
    u = build_step_unitary(make_coin(CoinParams(0.0, 0.0, 0.0)), half_width)
    w = 2 * half_width + 1
    assert not np.any(u[:w, w:]) and not np.any(u[w:, :w])
    return u[:w, :w], u[w:, w:]


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
    head, tail = _shift_blocks(2)
    assert np.array_equal(head, expected)
    assert np.array_equal(tail, -expected.T)


@pytest.mark.parametrize("half_width", [1, 3, 10])
def test_shift_matrix_is_a_cyclic_permutation(half_width):
    head, tail = _shift_blocks(half_width)
    w = 2 * half_width + 1
    assert head.shape == (w, w)
    assert np.array_equal(head.sum(axis=0), np.ones(w))
    assert np.array_equal(head.sum(axis=1), np.ones(w))
    assert np.array_equal(tail, -head.T)
    for j in range(w):
        e = np.zeros(w)
        e[j] = 1.0
        assert np.array_equal(head @ e, np.eye(w)[(j + 1) % w])


@pytest.mark.parametrize("bad", [0, -1, 1.5])
def test_shift_matrix_rejects_bad_half_width(bad):
    # The shift has no builder of its own: the operator checks the half-width.
    with pytest.raises(ValueError):
        build_step_unitary(make_coin(named_coin("hadamard")), bad)


# ------------------------------------------------------------
# Step unitary: structure and unitarity
# ------------------------------------------------------------


def test_step_unitary_moves_head_right_and_tail_left():
    n = 4
    w = 2 * n + 1
    step = build_step_unitary(make_coin(CoinParams(0.0, 0.0, 0.0)), n)
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
    u = build_step_unitary(make_coin(p), 2)
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
    assert u.shape == (dim, dim)
    residual = u.conj().T @ u - np.eye(dim)
    assert np.max(np.abs(residual)) <= 1e-10


@pytest.mark.parametrize("half_width", [1, 2, 7, 50])
def test_step_unitary_equals_the_shift_times_coin_product(half_width):
    # The paper's U = S (C kron I), with S = diag(M, M^T) built here from
    # first principles; the engine writes the same entries without a product.
    w = 2 * half_width + 1
    m = np.roll(np.eye(w), 1, axis=0)
    shift = np.block([[m, np.zeros((w, w))], [np.zeros((w, w)), m.T]])
    rng = np.random.default_rng(3000 + half_width)
    for _ in range(10):
        coin = make_coin(CoinParams(*random_coin_angles(rng)))
        u = build_step_unitary(coin, half_width)
        assert np.array_equal(u, shift @ np.kron(coin, np.eye(w)))
        assert np.count_nonzero(u) == 4 * w


@pytest.mark.parametrize("half_width", [1, 2, 7, 50, dense.DENSE_HALF_WIDTH_CAP])
def test_only_the_cyclic_wrap_couples_a_site_to_its_own_parity(half_width):
    # The dense series multiplies only the parity-coupled quarters of the
    # operator; this pins that the quarters it skips hold nothing a step uses.
    n, w = half_width, 2 * half_width + 1
    rng = np.random.default_rng(5000 + half_width)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    blocks = build_step_unitary(coin, n).reshape(2, w, 2, w).transpose(0, 2, 1, 3)
    assert not np.any(blocks[:, :, 1::2, 1::2])
    wrap = np.zeros((2, 2, w, w), dtype=complex)
    wrap[0, :, 0, 2 * n] = coin[0]  # C00, C01: head row 0 from column 2n
    wrap[1, :, 2 * n, 0] = coin[1]  # C10, C11: tail row 2n from column 0
    # No step of a walk within the window reads them: step t + 1 reads the
    # columns n - t .. n + t with t < n, never the wrap columns 0 and 2n.
    assert np.array_equal(blocks[:, :, 0::2, 0::2], wrap[:, :, 0::2, 0::2])


def test_non_unitary_coin_is_caught_at_assembly():
    broken = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        build_step_unitary(broken, 3)


def test_an_overflowing_coin_is_caught_at_assembly():
    # Finite entries whose squares overflow: U^H U holds inf or NaN, which must
    # fail the guard without a NumPy warning (pytest makes warnings errors).
    coin = np.array([[1e200, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        build_step_unitary(coin, 2)


def test_the_coin_residual_is_the_operator_residual():
    # S is a permutation, so U^H U = (C^H C) kron I: the guard checks the coin
    # alone.  Half the coins carry the 3e-11 fault of `verify --corrupt-coin`.
    rng = np.random.default_rng(4000)
    coins = [make_coin(CoinParams(*random_coin_angles(rng))) for _ in range(200)]
    for coin in coins[1::2]:
        coin[0, 0] += 3e-11
    for half_width in range(1, 12):
        w = 2 * half_width + 1
        m = np.roll(np.eye(w), 1, axis=0)
        shift = np.block([[m, np.zeros((w, w))], [np.zeros((w, w)), m.T]])
        for coin in coins:
            u = shift @ np.kron(coin, np.eye(w))
            worst = np.max(np.abs(u.conj().T @ u - np.eye(2 * w)))
            assert abs(_unitarity_residual(coin)[1] - worst) <= 1e-15


# ------------------------------------------------------------
# Dense evolution against closed forms
# ------------------------------------------------------------


def _dense_final(alpha, beta, coin, steps):
    """The last table of a dense series from the origin, on a window of half-width max(steps, 1)."""
    *_, table = dense_series(initial_state(alpha, beta, max(steps, 1)), coin, steps)
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
    # Every refusal comes when dense_series is called, before any iteration:
    # the steps first, then the table's window and the walk's reach.
    coin = make_coin(named_coin("hadamard"))
    start = initial_state(*UNBIASED_INIT, 5)
    with pytest.raises(ValueError, match="takes 0 to 200 steps, got 201"):
        dense_series(start, coin, 201)
    with pytest.raises(ValueError, match="steps must be a non-negative integer, got -1"):
        dense_series(start, coin, -1)
    with pytest.raises(ValueError, match="half-width of 1 to 200, got 201"):
        dense_series(initial_state(*UNBIASED_INIT, 201), coin, 1)
    with pytest.raises(LatticeExhaustedError, match="larger half_width"):
        dense_series(start, coin, 6)


@pytest.mark.parametrize(
    "coin, half_width, message",
    [
        (np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex), 3, "not unitary"),
        (make_coin(named_coin("hadamard")), 201, "half-width of 1 to 200, got 201"),
    ],
    ids=["non-unitary", "over-the-cap"],
)
def test_the_operator_is_checked_before_it_is_allocated(monkeypatch, coin, half_width, message):
    def build(*args, **kwargs):
        raise AssertionError("the operator was allocated before the request was checked")

    monkeypatch.setattr(dense.np, "zeros", build)
    with pytest.raises(ValueError, match=message):
        build_step_unitary(coin, half_width)


def test_the_operator_size_cap_is_enforced():
    coin = make_coin(named_coin("hadamard"))
    assert build_step_unitary(coin, 200).shape == (802, 802)
    with pytest.raises(ValueError, match="half-width of 1 to 200, got 201"):
        build_step_unitary(coin, 201)


def test_dense_rejects_a_non_finite_start():
    # A table need not be normalized, as in every engine, but it must be finite.
    start = initial_state(*UNBIASED_INIT, 2)
    start[0, 2] = np.nan
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        dense_series(start, make_coin(named_coin("hadamard")), 1)


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
    walk = iter_steps(initial_state(alpha, beta, n), coin, n)
    for t, state in enumerate(walk, start=1):
        reference = _dense_final(alpha, beta, coin, t)
        window = state[:, n - t : n + t + 1]
        assert np.max(np.abs(window - reference)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_dense_series_takes_one_matvec_per_step(seed):
    # A step multiplies only the parity-coupled quarter of the light-cone band
    # of the operator, so its sums skip exact zeros of the full mat-vec and
    # may round differently in the last bit; the operator itself is pinned
    # bit for bit above.
    rng = np.random.default_rng(2000 + seed)
    alpha, beta = normalized_pair(rng)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    n = (9, 57, dense.DENSE_HALF_WIDTH_CAP)[seed]
    step = build_step_unitary(coin, n)
    start = initial_state(alpha, beta, n)
    tables = list(dense_series(start, coin, n))
    assert len(tables) == n + 1
    assert tables[0] is start
    distance = np.abs(np.arange(-n, n + 1))
    chain = start.ravel()
    for t, (before, after) in enumerate(zip(tables, tables[1:]), start=1):
        assert np.max(np.abs(after.ravel() - step @ before.ravel())) <= 1e-15
        assert not np.any(after[:, distance > t])
        assert not np.any(after[:, (distance + t) % 2 == 1])  # the parity rule
        chain = step @ chain
        assert np.max(np.abs(after.ravel() - chain)) <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_each_parity_class_is_stepped_over_its_own_light_cone(seed):
    # A table with both parity classes occupied, over spans of their own:
    # each step is the full mat-vec within rounding, and every site outside
    # the cone of each class, or of the wrong parity in it, stays exactly 0.
    rng = np.random.default_rng(6000 + seed)
    n, steps = 30, 12
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    start = np.zeros((2, 2 * n + 1), dtype=complex)
    spans = []  # (first, last) column of each class
    for parity in (0, 1):
        first = int(rng.integers(steps, 2 * n - steps - 6)) // 2 * 2 + parity
        last = first + 2 * int(rng.integers(0, 4))
        sites = rng.normal(size=(2, (last - first) // 2 + 1))
        start[:, first : last + 1 : 2] = rng.normal(size=(2, 2)) @ sites
        spans.append((first, last))
    step = build_step_unitary(coin, n)
    tables = list(dense_series(start, coin, steps))
    column = np.arange(2 * n + 1)
    for t, (before, after) in enumerate(zip(tables, tables[1:]), start=1):
        assert np.max(np.abs(after.ravel() - step @ before.ravel())) <= 1e-14
        cones = np.zeros(2 * n + 1, dtype=bool)
        for first, last in spans:
            cones |= (column >= first - t) & (column <= last + t) & ((column - first - t) % 2 == 0)
        assert not np.any(after[:, ~cones])


def test_dense_distribution_matches_run_walk_window():
    p = CoinParams(2.2, 1.3, 0.4)
    steps = 15
    from_walk = run_walk(p, *UNBIASED_INIT, steps)
    from_dense = np.sum(np.abs(_dense_final(*UNBIASED_INIT, make_coin(p), steps)) ** 2, axis=0)
    assert np.max(np.abs(from_walk - from_dense)) <= 1e-12
