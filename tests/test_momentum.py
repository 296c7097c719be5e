"""Tests for the momentum-space engine: agreement with the other two engines,
exact zeros, input checks, and the physics of long walks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coinwalk import (
    NAMED_COINS,
    UNBIASED_INIT,
    CoinParams,
    dense_series,
    entanglement_series,
    evolve,
    initial_state,
    make_coin,
    iter_steps,
    momentum,
    named_coin,
    run_walk,
)
from coinwalk.momentum import _fft_size

from conftest import angles, normalized_pair, random_coin_angles

# T + 1 = 8 fits the window exactly; 61 and 101 are prime (windows 64 and
# 108); 201 = 3 * 67 pads to 216.
STEPS = [1, 2, 3, 7, 60, 100, 200]

# Raw matrices last: the identity and diag(1, i), whose sin(omega) is
# exactly 0 at some wavenumbers (q = 0 for the identity).
SPECIAL_COINS = [named_coin(name) for name in sorted(NAMED_COINS)] + [
    CoinParams(0.0, 0.0, 0.0),
    CoinParams(1e-6, 0.0, 0.0),
    CoinParams(math.pi / 2.0, 0.0, 0.0),
    np.eye(2, dtype=complex),
    np.diag([1.0, 1j]),
]


def _assert_matches_the_other_engines(alpha, beta, coin, steps):
    start = initial_state(alpha, beta, steps)
    state = evolve(start, coin, steps)
    assert state.shape == (2, 2 * steps + 1)
    *_, recurrence = iter_steps(start, coin, steps)
    assert np.max(np.abs(state - recurrence)) <= 1e-12
    *_, dense = dense_series(start, coin, steps)
    assert np.max(np.abs(state - dense)) <= 1e-12


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("seed", range(3))
def test_random_walks_match_the_recurrence_and_dense_engines(steps, seed):
    rng = np.random.default_rng(7000 + 10 * steps + seed)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    _assert_matches_the_other_engines(*normalized_pair(rng), coin, steps)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("params", SPECIAL_COINS)
def test_named_and_extreme_coins_match_the_other_engines(params, steps):
    coin = make_coin(params) if isinstance(params, CoinParams) else params
    _assert_matches_the_other_engines(*UNBIASED_INIT, coin, steps)


def test_window_is_the_smallest_2_3_5_smooth_size():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(1, 2000):
        assert _fft_size(n) == next(k for k in range(n, 2 * n + 1) if smooth(k))


@pytest.mark.parametrize("steps", [1, 2, 7, 60, 101])
def test_wrong_parity_columns_are_exact_zeros(steps):
    rng = np.random.default_rng(8000 + steps)
    coin = make_coin(CoinParams(*random_coin_angles(rng)))
    amp = evolve(initial_state(*normalized_pair(rng), steps), coin, steps)
    wrong_parity = (np.arange(-steps, steps + 1) + steps) % 2 == 1
    assert np.all(amp[:, wrong_parity] == 0.0)


def test_zero_steps_return_the_initial_state():
    # The closed form at T = 0 is the start itself, bit for bit; evolve
    # returns its checked input without solving anything.
    alpha, beta = 0.6, 0.8j
    coin = make_coin(named_coin("hadamard"))
    start = initial_state(alpha, beta, 1)
    origin = momentum._origin(alpha, beta, 1)
    assert np.array_equal(momentum._states(origin, [coin], 0, (2, 3)), start)
    assert evolve(start, coin, 0) is start


def _same_bits(a, b):
    """Equal shapes and equal bits, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(
    coins=st.lists(
        st.tuples(st.sampled_from([None, 0.0, math.pi / 2.0, "identity"]), angles, angles, angles),
        min_size=0,
        max_size=12,
    ),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 500),
)
def test_a_batched_pass_is_the_one_coin_pass_bit_for_bit(coins, seed, steps):
    # Coins of all of U(2), e^{i gamma} C(theta, phi1, phi2), with theta = 0
    # and pi/2 among the random angles, and the identity, whose sin(omega)
    # is exactly 0 at q = 0, where the ratio is not divided.
    rng = np.random.default_rng(seed)
    stack = [
        np.eye(2, dtype=complex) if theta == "identity"
        else np.exp(1j * gamma) * make_coin(
            CoinParams(rng.uniform(-7.0, 7.0) if theta is None else theta, phi1, phi2))
        for theta, phi1, phi2, gamma in coins
    ]
    alpha, beta = normalized_pair(rng)
    n = max(steps, 1)
    origin = momentum._origin(alpha, beta, n)
    tables = momentum._states(origin, stack, steps, (len(stack), 2, 2 * n + 1))
    assert tables.shape == (len(stack), 2, 2 * n + 1)
    start = initial_state(alpha, beta, n)
    for coin, table in zip(stack, tables):
        # evolve returns the start of a walk of zero steps as it is.
        assert _same_bits(table, evolve(start, coin, steps) if steps else start)


@pytest.mark.parametrize(
    "alpha, beta, coin, steps",
    [
        (*UNBIASED_INIT, make_coin(named_coin("hadamard")) * 1.001, 5),  # not unitary
        (*UNBIASED_INIT, np.eye(3), 5),  # not (2, 2)
        (0.6, 0.6, make_coin(named_coin("hadamard")), 5),  # not normalized
        (*UNBIASED_INIT, make_coin(named_coin("hadamard")), -1),
    ],
)
def test_bad_input_raises_value_error(monkeypatch, alpha, beta, coin, steps):
    # Both momentum-space entry points reject a request, with one message,
    # before they build any array: they refuse a coin that is not unitary,
    # which the recurrence would step.  They take a table, which need not be
    # normalized: a non-finite one is refused in the place of an
    # unnormalized coin state.
    def build(*args):
        raise AssertionError("an array was built before the request was checked")

    monkeypatch.setattr(momentum, "_fft_size", build)
    monkeypatch.setattr(momentum, "_closed_form", build)
    table = np.zeros((2, 11), dtype=complex)
    table[:, 5] = alpha, beta
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        table[0, 5] = np.nan
    messages = set()
    for engine in (evolve, entanglement_series):
        with pytest.raises(ValueError) as raised:
            engine(table, coin, steps)
        messages.add(str(raised.value))
    assert len(messages) == 1


# ------------------------------------------------------------
# Long walks (Konno, J. Math. Soc. Japan 57, 1179 (2005): X_T / T
# converges weakly to a law on (-|cos theta|, |cos theta|) with second
# moment 1 - |sin theta|, for every initial coin state and phase, and with
# a first moment that depends on both)
# ------------------------------------------------------------

LONG = 10_000


@pytest.mark.parametrize("theta_deg", [30.0, 45.0, 60.0])
@pytest.mark.parametrize(
    "phi1, phi2, init", [(0.0, 0.0, UNBIASED_INIT), (1.1, 0.4, (0.6, 0.8j))]
)
def test_long_walks_follow_the_weak_limit(theta_deg, phi1, phi2, init):
    theta = math.radians(theta_deg)
    probs = run_walk(CoinParams(theta, phi1, phi2), *init, LONG)
    positions = np.arange(-LONG, LONG + 1)
    second_moment = float(np.sum(probs * (positions / LONG) ** 2))
    assert abs(second_moment - (1.0 - abs(math.sin(theta)))) <= 1e-5
    beyond = np.abs(positions) > (abs(math.cos(theta)) + 0.05) * LONG
    assert float(np.sum(probs[beyond])) <= 1e-12


@pytest.mark.parametrize(
    "theta, steps", [(0.45, 10**5), (0.8, 10**5), (1.2, 10**5), (1.55, 10**5), (1.0, 10**6)]
)
def test_second_moment_depends_on_theta_and_steps_only(theta, steps):
    # E[x^2] after T steps depends on neither phi1, phi2 nor the coin state,
    # and E[x^2] - (1 - |sin theta|) T^2 stays O(1): it was 0.4966 to 0.6844
    # for theta in [0.45, 1.55] at T = 10^5 and 10^6 over random draws, and
    # 0.488 to 0.705 from T = 10^3.  Draws at one theta agreed within 9e-16
    # relative.  At T = 10^6 the band is a relative check near 1e-12.
    rng = np.random.default_rng(int(1000 * theta) + steps)
    positions = np.arange(-steps, steps + 1, dtype=np.float64)
    moments = []
    for _ in range(2 if steps > 10**5 else 3):
        alpha, beta = normalized_pair(rng)
        phi1, phi2 = rng.uniform(-7.0, 7.0, size=2)
        probs = run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps)
        moments.append(float(np.sum(probs * positions**2)))
    assert max(moments) - min(moments) <= 1e-13 * min(moments)
    remainder = np.array(moments) - (1.0 - abs(math.sin(theta))) * steps**2
    assert np.all((remainder >= 0.45) & (remainder <= 0.75)), remainder


def _konno_k(coin, alpha, beta):
    """Konno's asymmetry ``k = |alpha|^2 - |beta|^2 + 2 Re(a alpha conj(b) conj(beta)) / |a|^2``.

    ``a = C00`` and ``b = C01``.
    """
    a, b = coin[0, 0], coin[0, 1]
    cross = (a * alpha * np.conj(b) * np.conj(beta)).real
    return abs(alpha) ** 2 - abs(beta) ** 2 + 2.0 * cross / abs(a) ** 2


def _konno_drift(coin, alpha, beta):
    """Konno's limit of E[X_T / T], ``k (1 - sqrt(1 - |a|^2))`` with ``a = C00``."""
    return _konno_k(coin, alpha, beta) * (1.0 - math.sqrt(1.0 - abs(coin[0, 0]) ** 2))


def _konno_cdf(v, a, k):
    """Konno's limiting CDF of X_T / T at ``v``, for ``|a| = |C00|`` in (0, 1).

    With ``B = sqrt(1 - |a|^2)`` and ``u = arcsin(v / |a|)`` on ``|v| < |a|``:
    ``F(v) = 1/2 + arctan(B tan u) / pi - (k / pi) arctan(|a| cos u / B)``.
    """
    b = math.sqrt(1.0 - a**2)
    u = np.arcsin(np.clip(v / a, -1.0, 1.0))
    inside = 0.5 + np.arctan(b * np.tan(u)) / np.pi - k / np.pi * np.arctan(a * np.cos(u) / b)
    return np.where(np.abs(v) < a, inside, np.where(v > 0.0, 1.0, 0.0))


@settings(max_examples=50, deadline=None)
@given(theta=angles, phi1=angles, phi2=angles, seed=st.integers(0, 2**32 - 1))
def test_first_moment_follows_konnos_limit(theta, phi1, phi2, seed):
    # Unlike the second moment, the drift depends on phi1, alpha and beta.
    assume(abs(math.cos(theta)) >= 0.05)  # the drift divides by |a|^2 = cos^2 theta
    params = CoinParams(theta, phi1, phi2)
    alpha, beta = normalized_pair(np.random.default_rng(seed))
    drift = _konno_drift(make_coin(params), alpha, beta)
    # |E[X_T / T] - drift| falls as 1/T: over 3000 random draws with
    # |cos theta| >= 0.05, |E[X_T / T] - drift| * T was at most 0.62 at T = 500
    # and 0.52 at T = 2000, and stayed below 0.7 from T = 200 to 2 * 10^4,
    # for theta near 0 and near 90 degrees too.  The bound is twice the worst
    # at T = 500.
    for steps in (500, 2000):
        probs = run_walk(params, alpha, beta, steps)
        mean = float(np.sum(probs * np.arange(-steps, steps + 1))) / steps
        assert abs(mean - drift) <= 1.25 / steps


@settings(max_examples=50, deadline=None)
@given(theta=angles, phi1=angles, phi2=angles, seed=st.integers(0, 2**32 - 1))
def test_limiting_cdf_follows_konnos_law(theta, phi1, phi2, seed):
    # The Kolmogorov distance between the CDF of X_T / T and Konno's limit
    # falls with T; the k term carries phi1, alpha and beta.
    assume(min(abs(math.cos(theta)), abs(math.sin(theta))) >= 0.05)
    params = CoinParams(theta, phi1, phi2)
    alpha, beta = normalized_pair(np.random.default_rng(seed))
    coin = make_coin(params)
    a, k = abs(coin[0, 0]), _konno_k(coin, alpha, beta)
    distance = {}
    for steps in (500, 2000):
        probs = run_walk(params, alpha, beta, steps)
        limit = _konno_cdf(np.arange(-steps, steps + 1) / steps, a, k)
        after = np.cumsum(probs)  # the CDF just after each jump; minus it, just before
        before = after - probs
        distance[steps] = max(np.max(np.abs(after - limit)), np.max(np.abs(before - limit)))
    # Over about 2 * 10^4 random draws (a targeted search near |sin theta| = 0.085
    # included) D(2000) / D(500) was at most 0.85, median 0.54; its median was
    # 0.996 with the k term dropped and 0.998 with its sign flipped.
    assert distance[2000] <= 0.9 * distance[500]


def test_long_hadamard_walk_peaks_near_one_over_root_two():
    probs = run_walk(named_coin("hadamard"), *UNBIASED_INIT, LONG)
    peak = abs(int(np.argmax(probs)) - LONG) / LONG  # x = argmax - T
    assert abs(peak - 1.0 / math.sqrt(2.0)) <= 0.005


def test_a_walk_of_100000_steps_conserves_probability():
    probs = run_walk(named_coin("hadamard"), *UNBIASED_INIT, 100_000)
    assert abs(float(np.sum(probs)) - 1.0) <= 1e-10


# ------------------------------------------------------------
# Exact moments from the origin (Brun, Carteret & Ambainis, Phys. Rev. A 67,
# 032304 (2003)): in the Heisenberg picture x_T = x_0 + sum_{s=1..T}
# U^{-s} sigma_z U^s, with U(k) = diag(e^{-ik}, e^{ik}) C the step in
# momentum space.  The oracle shares no FFT, window or read-out with the
# engine.
# ------------------------------------------------------------


def _exact_moments(coin, alpha, beta, steps):
    """E[x] and E[x^2] after ``steps`` steps from the origin, from the velocity form.

    With ``U(k) = W diag(lambda) W^-1`` the sum is ``V = W (g * S) W^-1``,
    where ``S = W^-1 sigma_z W`` and ``g_ij = sum_{s=1..T} (lambda_j /
    lambda_i)^s``, a Dirichlet kernel, T where ``lambda_i = lambda_j``.
    E[x] and E[x^2] are the means over k of ``<phi, V phi>`` and
    ``|V phi|^2``, trigonometric polynomials of degree at most 4T, so the
    mean over M = 4T + 2 equally spaced k is exact.
    """
    m = 4 * steps + 2
    k = 2.0 * np.pi * np.arange(m) / m
    u = np.exp(-1j * np.multiply.outer(k, [1.0, -1.0]))[:, :, None] * coin
    lam, w = np.linalg.eig(u)
    w_inv = np.linalg.inv(w)
    s = w_inv @ (np.array([[1.0], [-1.0]]) * w)
    omega = np.angle(lam[:, None, :] / lam[:, :, None])
    half = np.sin(omega / 2.0)
    kernel = np.divide(np.sin(steps * omega / 2.0), half, out=np.full_like(half, float(steps)),
                       where=half != 0.0)
    v = w @ (np.exp(0.5j * (steps + 1) * omega) * kernel * s) @ w_inv
    phi = np.array([alpha, beta])
    v_phi = v @ phi
    return float((v_phi @ np.conj(phi)).real.mean()), float(np.sum(np.abs(v_phi) ** 2) / m)


def _assert_exact_moments(params, alpha, beta, steps):
    first, second = _exact_moments(make_coin(params), alpha, beta, steps)
    probs = run_walk(params, alpha, beta, steps)
    positions = np.arange(-steps, steps + 1, dtype=np.float64)
    assert abs(float(np.sum(probs * positions)) - first) <= 1e-13 * steps
    assert abs(float(np.sum(probs * positions**2)) - second) <= 1e-13 * steps**2


@settings(max_examples=30, deadline=None)
@given(theta=angles, phi1=angles, phi2=angles, seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 2000))
def test_moments_match_the_exact_velocity_form(theta, phi1, phi2, seed, steps):
    assume(theta % (math.pi / 2.0) != 0.0)
    _assert_exact_moments(CoinParams(theta, phi1, phi2),
                          *normalized_pair(np.random.default_rng(seed)), steps)


def test_moments_of_a_long_walk_match_the_exact_velocity_form():
    rng = np.random.default_rng(7)
    _assert_exact_moments(CoinParams(*random_coin_angles(rng)), *normalized_pair(rng), 100_000)
