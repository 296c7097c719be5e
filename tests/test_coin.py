"""Tests for the three-parameter coin: angles, entries, unitarity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    NAMED_COINS,
    build_step_unitary,
    dense_series,
    entanglement_series,
    evolve,
    initial_state,
    iter_steps,
    make_coin,
    named_coin,
)
from coinwalk.momentum import _check_coins

from conftest import angles

S2 = 1.0 / math.sqrt(2.0)


# ------------------------------------------------------------
# CoinParams: validation and angles as given
# ------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(3))
def test_params_reject_non_finite_angles(bad, slot):
    values = [0.1, 0.2, 0.3]
    values[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        CoinParams(*values)


def test_raw_mode_keeps_angles_as_given():
    p = CoinParams(7.0, 4.0, -1.0)
    assert (p.theta, p.phi1, p.phi2) == (7.0, 4.0, -1.0)


def test_from_degrees():
    p = CoinParams.from_degrees(180.0, 90.0, 45.0)
    assert p.theta == pytest.approx(math.pi, abs=0.0)
    assert p.phi1 == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert p.phi2 == pytest.approx(math.pi / 4.0, abs=1e-15)


# ------------------------------------------------------------
# make_coin: known matrices
# ------------------------------------------------------------


def test_hadamard_entries():
    m = make_coin(named_coin("hadamard"))
    expected = np.array([[S2, S2], [S2, -S2]], dtype=complex)
    assert np.max(np.abs(m - expected)) <= 1e-15


def test_theta_zero_is_diagonal_sign_flip():
    m = make_coin(CoinParams(0.0, 0.0, 0.0))
    assert np.array_equal(m, np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def test_grover_is_the_swap_matrix():
    m = make_coin(named_coin("grover"))
    expected = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.max(np.abs(m - expected)) <= 1e-15


def test_fourier_entries():
    m = make_coin(named_coin("fourier"))
    expected = S2 * np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex)
    assert np.max(np.abs(m - expected)) <= 1e-15


@pytest.mark.parametrize(
    "theta, phi1, phi2",
    [(0.3, 0.7, 1.1), (1.9, 2.1, 0.4), (5.6, 3.0, 2.9)],
)
def test_entry_relations(theta, phi1, phi2):
    # Structural identities of the coin family, checked without re-evaluating
    # the construction formula itself.
    p = CoinParams(theta, phi1, phi2)
    m = make_coin(p)
    assert abs(abs(m[0, 0]) - abs(math.cos(p.theta))) <= 1e-15
    assert abs(abs(m[0, 1]) - abs(m[1, 0])) <= 1e-15  # both have modulus |sin|
    # lower-right entry is minus the upper-left times the joint phase
    assert abs(m[1, 1] + m[0, 0] * np.exp(1j * (p.phi1 + p.phi2))) <= 1e-15
    # off-diagonal entries differ only by the phase difference
    if abs(m[1, 0]) > 1e-12:
        assert abs(m[0, 1] / m[1, 0] - np.exp(1j * (p.phi1 - p.phi2))) <= 1e-12


# ------------------------------------------------------------
# make_coin: invariants
# ------------------------------------------------------------


@given(theta=angles, phi1=angles, phi2=angles)
def test_coin_is_unitary(theta, phi1, phi2):
    _check_coins([make_coin(CoinParams(theta, phi1, phi2))])


@given(theta=angles, phi1=angles, phi2=angles)
def test_determinant_is_minus_joint_phase(theta, phi1, phi2):
    p = CoinParams(theta, phi1, phi2)
    m = make_coin(p)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(det + np.exp(1j * (p.phi1 + p.phi2))) <= 1e-12


@given(theta=angles, phi1=angles, phi2=angles)
def test_theta_plus_pi_flips_the_sign(theta, phi1, phi2):
    # Mathematically exact; in doubles theta+pi is a rounded argument, so the
    # entries agree to ~1 ulp of the trig evaluation rather than bit-for-bit.
    m = make_coin(CoinParams(theta, phi1, phi2))
    shifted = make_coin(CoinParams(theta + math.pi, phi1, phi2))
    assert np.max(np.abs(shifted + m)) <= 1e-14


# ------------------------------------------------------------
# named_coin
# ------------------------------------------------------------


@pytest.mark.parametrize(
    "name, expected",
    [
        ("hadamard", (math.pi / 4.0, 0.0, 0.0)),
        ("grover", (math.pi / 2.0, 0.0, 0.0)),
        ("fourier", (math.pi / 4.0, math.pi / 2.0, math.pi / 2.0)),
    ],
)
def test_named_coins(name, expected):
    p = named_coin(name)
    assert (p.theta, p.phi1, p.phi2) == expected
    assert name in NAMED_COINS


def test_named_coin_is_case_insensitive():
    assert named_coin("Hadamard") == named_coin("hadamard")


def test_unknown_name_lists_the_options():
    with pytest.raises(ValueError) as err:
        named_coin("dft")
    message = str(err.value)
    for name in ("hadamard", "grover", "fourier"):
        assert name in message


# ------------------------------------------------------------
# The unitarity rule of the momentum-space engine, and check_coin_matrix
# ------------------------------------------------------------

_NOT_UNITARY = "the momentum-space engine needs a unitary coin"


def test_identity_is_unitary():
    _check_coins([np.eye(2, dtype=complex)])


def test_projector_is_not_unitary():
    with pytest.raises(ValueError, match=_NOT_UNITARY):
        _check_coins([np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)])


def test_derived_case_33_70_10_degrees():
    # Independent oracle: conjugate-transpose product written out by hand.
    m = make_coin(CoinParams.from_degrees(33.0, 70.0, 10.0))
    worst = 0.0
    for i in range(2):
        for j in range(2):
            entry = sum(m[k, i].conjugate() * m[k, j] for k in range(2))
            expected = 1.0 if i == j else 0.0
            worst = max(worst, abs(entry - expected))
    assert worst <= 1e-12
    _check_coins([m])


def test_tolerance_is_respected():
    # |1 + e|^2 - 1 is about 2e: the tolerance on M^dagger M - I is 1e-12.
    _check_coins([np.diag([1.0 + 4e-13, 1.0])])
    with pytest.raises(ValueError, match=_NOT_UNITARY):
        _check_coins([np.diag([1.0 + 6e-13, 1.0])])


_START = initial_state(*UNBIASED_INIT, 2)

# Every public caller that takes a coin matrix, and the momentum-space
# engine's stacked check; each checks it at one raising site.
_COIN_USERS = pytest.mark.parametrize(
    "use_coin",
    [
        lambda coin: _check_coins([coin]),
        lambda coin: iter_steps(_START, coin, 1),
        lambda coin: evolve(_START, coin, 1),
        lambda coin: entanglement_series(_START, coin, 1),
        lambda coin: build_step_unitary(coin, 2),
        lambda coin: next(dense_series(_START, coin, 1)),
    ],
    ids=[
        "_check_coins",
        "iter_steps",
        "evolve",
        "entanglement_series",
        "build_step_unitary",
        "dense_series",
    ],
)


@_COIN_USERS
def test_a_non_2x2_coin_is_rejected_with_one_message(use_coin):
    with pytest.raises(ValueError) as err:
        use_coin(np.eye(3, dtype=complex))
    assert str(err.value) == "coin must be a (2, 2) matrix, got shape (3, 3)"


@_COIN_USERS
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_coin_is_rejected_with_one_message(use_coin, bad):
    # Unchecked, NaN would run through the recurrence into NaN tables and rank-0 spectra.
    coin = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError) as err:
        use_coin(coin)
    assert str(err.value) == f"coin entries must be finite, got {coin.tolist()}"


@pytest.mark.parametrize(
    "use_coin, message",
    [
        (lambda coin: _check_coins([coin]), "needs a unitary coin"),
        (lambda coin: evolve(_START, coin, 2), "needs a unitary coin"),
        (lambda coin: entanglement_series(_START, coin, 1), "needs a unitary coin"),
        (lambda coin: build_step_unitary(coin, 2), "step operator is not unitary"),
    ],
    ids=["_check_coins", "evolve", "entanglement_series", "build_step_unitary"],
)
def test_an_overflowing_coin_fails_the_unitarity_check_without_a_warning(use_coin, message):
    # Finite entries whose squares overflow M^dagger M to inf: each caller
    # refuses the coin in its own way, and NumPy says nothing about it.
    coin = np.array([[1e200, 0.0], [0.0, 1.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            use_coin(coin)
