"""Tests for distribution diagnostics and parameter sweeps."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    analysis,
    named_coin,
    peak_gap,
    phase_diagram,
    run_walk,
    symmetry_deviation,
    theta_sweep,
)

from conftest import angles, normalized_pair


# ------------------------------------------------------------
# peak_gap
# ------------------------------------------------------------


def test_two_equal_peaks_have_zero_gap():
    assert peak_gap(np.array([0.5, 0.5])) == 0.0


def test_fully_localized_distribution_has_gap_one():
    assert peak_gap(np.array([0.0, 1.0, 0.0])) == 1.0


def test_gap_is_max_minus_runner_up():
    assert peak_gap(np.array([0.5, 0.3, 0.2])) == pytest.approx(0.2, abs=1e-15)


def test_gap_needs_at_least_two_positions():
    with pytest.raises(ValueError, match="two positions"):
        peak_gap(np.array([1.0]))


def test_gap_is_invariant_under_mirroring():
    probs = np.array([0.1, 0.0, 0.35, 0.3, 0.25])
    assert peak_gap(probs) == peak_gap(probs[::-1])


def test_hadamard_walk_has_twin_peaks():
    probs = run_walk(named_coin("hadamard"), *UNBIASED_INIT, steps=100)
    assert peak_gap(probs) <= 1e-10


# ------------------------------------------------------------
# symmetry_deviation
# ------------------------------------------------------------


def test_symmetric_distribution_has_zero_deviation():
    assert symmetry_deviation(np.array([0.25, 0.5, 0.25])) == 0.0


def test_deviation_picks_the_worst_pair():
    assert symmetry_deviation(np.array([0.3, 0.2, 0.5])) == pytest.approx(0.2, abs=1e-15)


def test_even_length_is_rejected():
    # The sites -N .. N are an odd number; an even length has no centre x = 0.
    for probs in ([0.5, 0.5], [], [[0.25, 0.5, 0.25]]):
        with pytest.raises(ValueError, match="odd length"):
            symmetry_deviation(np.array(probs))


def test_unbiased_hadamard_walk_is_symmetric():
    probs = run_walk(named_coin("hadamard"), *UNBIASED_INIT, steps=100)
    assert symmetry_deviation(probs) <= 1e-12


def test_phi1_90_makes_the_walk_asymmetric():
    probs = run_walk(CoinParams.from_degrees(45.0, 90.0), *UNBIASED_INIT, steps=100)
    assert symmetry_deviation(probs) > 0.05


def test_phi1_180_restores_the_symmetric_distribution():
    # phi1 = pi is a different coin from phi1 = 0; the walk distribution from
    # the unbiased start must nevertheless match the phi1 = 0 one.
    base = run_walk(CoinParams.from_degrees(45.0, 0.0), *UNBIASED_INIT, steps=100)
    restored = run_walk(CoinParams.from_degrees(45.0, 180.0), *UNBIASED_INIT, steps=100)
    assert np.max(np.abs(base - restored)) <= 1e-12


# ------------------------------------------------------------
# theta_sweep
# ------------------------------------------------------------


def test_empty_sweep_is_empty():
    out = theta_sweep([], 0.0, 0.0, *UNBIASED_INIT, steps=5)
    assert out.shape == (0, 11) and out.dtype == np.float64


@pytest.mark.parametrize(
    "steps, match",
    [
        (2.5, "steps must be a non-negative integer"),
        ("3", "steps must be a non-negative integer"),
        (None, "steps must be a non-negative integer"),
        (0, "steps must be positive"),
    ],
)
def test_empty_sweep_still_checks_its_steps(steps, match):
    with pytest.raises(ValueError, match=match):
        theta_sweep([], 0.0, 0.0, *UNBIASED_INIT, steps)


def test_sweep_preserves_order_and_runs_each_angle():
    thetas = [0.0, math.pi / 4.0, math.pi / 2.0]
    out = theta_sweep(thetas, 0.0, 0.0, *UNBIASED_INIT, steps=10)
    assert out.shape == (3, 21)  # one row per angle, positions -10 .. 10
    corner, hadamard, localized = out
    assert corner[20] == pytest.approx(0.5, abs=1e-12)  # x = 10
    assert np.max(np.abs(hadamard - hadamard[::-1])) <= 1e-12
    assert localized[10] == pytest.approx(1.0, abs=1e-12)  # x = 0


def test_sweep_thetas_half_a_turn_apart_agree():
    thetas = [0.35, 0.35 + math.pi, 1.8, 1.8 + math.pi]
    out = theta_sweep(thetas, 0.7, 0.2, *UNBIASED_INIT, steps=30)
    assert np.max(np.abs(out[0] - out[1])) <= 1e-12
    assert np.max(np.abs(out[2] - out[3])) <= 1e-12


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"thetas": [0.3, math.nan]}, "theta must be finite"),
        ({"thetas": [math.inf]}, "theta must be finite"),
        ({"phi1": math.nan}, "phi1 must be finite"),
        ({"phi2": -math.inf}, "phi2 must be finite"),
        ({"alpha": 1.0, "beta": 1.0}, "must be normalized"),
        ({"alpha": 0.6, "beta": 0.6j}, "must be normalized"),
        ({"steps": 0}, "steps must be positive"),
        ({"steps": -3}, "steps must be a non-negative integer"),
        ({"steps": 2.5}, "steps must be a non-negative integer"),
    ],
)
def test_theta_sweep_checks_its_input_before_walking(monkeypatch, bad, match):
    def walk(*args, **kwargs):
        raise AssertionError("the walks ran before the input was checked")

    monkeypatch.setattr(analysis, "_states", walk)
    request = {
        "thetas": [0.0, 0.7, math.pi / 2.0],
        "phi1": 0.4,
        "phi2": 1.3,
        "alpha": UNBIASED_INIT[0],
        "beta": UNBIASED_INIT[1],
        "steps": 5,
    }
    with pytest.raises(ValueError, match=match):
        theta_sweep(**(request | bad))


@pytest.mark.parametrize("count", [0, 1, 5, 72])
def test_a_sweep_makes_one_inverse_fft(monkeypatch, count):
    # However many angles, the walks share one batched inverse FFT.
    calls = []
    ifft = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    out = theta_sweep(np.linspace(0.0, 2.0 * math.pi, count), 0.4, 1.3, *UNBIASED_INIT, steps=50)
    assert out.shape == (count, 101)
    assert len(calls) == 1 and calls[0][0] == count


@st.composite
def _theta_grids(draw):
    """Angle grids of 0, 1 or many points; a grid of two or more holds 0 and pi/2."""
    size = draw(st.sampled_from([0, 1, 2, 3, 8, 17]))
    thetas = draw(st.lists(angles, min_size=size, max_size=size))
    if size >= 2:
        # The ballistic and the localized ends: a diagonal and an off-diagonal coin.
        thetas[:2] = [0.0, math.pi / 2.0]
        draw(st.randoms(use_true_random=False)).shuffle(thetas)
    return thetas


@settings(max_examples=40, deadline=None)
@given(
    thetas=_theta_grids(),
    phi1=angles,
    phi2=angles,
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 500),
)
def test_each_sweep_row_is_the_walk_at_its_angle(thetas, phi1, phi2, seed, steps):
    alpha, beta = normalized_pair(np.random.default_rng(seed))
    out = theta_sweep(thetas, phi1, phi2, alpha, beta, steps)
    assert out.shape == (len(thetas), 2 * steps + 1)
    for theta, row in zip(thetas, out):
        walk = run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps)
        assert np.array_equal(row, walk)


# ------------------------------------------------------------
# phase_diagram
# ------------------------------------------------------------


def test_phase_diagram_shape_and_grid_echo():
    phi1 = np.radians([0.0, 45.0, 90.0])
    phi2 = np.radians([0.0, 60.0])
    delta = phase_diagram(math.pi / 4.0, phi1, phi2, *UNBIASED_INIT, steps=20)
    assert delta.shape == (3, 2)
    assert delta.dtype == np.float64


def test_delta_is_constant_along_phi2():
    phi2 = np.radians([0.0, 30.0, 60.0, 90.0, 120.0, 150.0])
    delta = phase_diagram(
        math.pi / 4.0, np.radians([0.0, 45.0, 90.0]), phi2, *UNBIASED_INIT, steps=25
    )
    assert np.all(delta == delta[:, :1])


def test_delta_values_stay_in_the_unit_interval():
    delta = phase_diagram(
        1.1, np.radians([0.0, 90.0]), np.radians([0.0]), *UNBIASED_INIT, steps=15
    )
    assert np.min(delta) >= 0.0
    assert np.max(delta) <= 1.0


def test_empty_grids_are_rejected():
    with pytest.raises(ValueError, match="^phase grids must be non-empty$"):
        phase_diagram(1.0, [], [0.0], *UNBIASED_INIT, steps=5)
    with pytest.raises(ValueError, match="^phase grids must be non-empty$"):
        phase_diagram(1.0, [0.0], [], *UNBIASED_INIT, steps=5)


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"phi1_grid": [0.0, math.nan]}, "phi1 must be finite"),
        ({"phi1_grid": [math.inf]}, "phi1 must be finite"),
        ({"phi2_grid": [0.0, math.nan]}, "phi2 must be finite"),
        ({"phi2_grid": [1.0, -math.inf]}, "phi2 must be finite"),
        ({"theta": math.nan}, "theta must be finite"),
        ({"alpha": 1.0, "beta": 1.0}, "must be normalized"),
        ({"alpha": 0.6, "beta": 0.6j}, "must be normalized"),
        ({"steps": -3}, "steps must be a non-negative integer"),
        # As in run_walk, a walk has at least one step.
        ({"steps": 0}, "steps must be positive"),
        ({"steps": "3"}, "steps must be a non-negative integer"),
        ({"steps": None}, "steps must be a non-negative integer"),
    ],
)
def test_phase_diagram_checks_its_input_before_walking(monkeypatch, bad, match):
    def walk(*args, **kwargs):
        raise AssertionError("a basis walk ran before the input was checked")

    monkeypatch.setattr(analysis, "momentum_state", walk)
    request = {
        "theta": 0.7,
        "phi1_grid": [0.0, 1.0],
        "phi2_grid": [0.0, 2.0],
        "alpha": UNBIASED_INIT[0],
        "beta": UNBIASED_INIT[1],
        "steps": 5,
    }
    with pytest.raises(ValueError, match=match):
        phase_diagram(**(request | bad))


@pytest.mark.parametrize("negative", [True, False])
@pytest.mark.parametrize("start", [(1.0, 0.0), (0.0, 1.0)])
def test_basis_start_gives_a_constant_diagram(start, negative):
    # From a head or a tail start the phase e^{i phi1} is a global phase, for
    # angles over a whole turn either way, used as given.
    grid = np.radians(np.arange(0.0, 360.0, 15.0)) * (-1.0 if negative else 1.0)
    delta = phase_diagram(0.7, grid, grid[:5], *start, steps=150)
    assert np.all(delta == delta[0, 0])


def _phase_diagram_oracle(theta, phi1_grid, phi2_grid, alpha, beta, steps):
    """One ``run_walk`` per grid point: the reference ``phase_diagram`` must reproduce."""
    return np.array(
        [
            [
                peak_gap(run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps))
                for phi2 in phi2_grid
            ]
            for phi1 in phi1_grid
        ]
    )


@settings(max_examples=40, deadline=None)
@given(
    theta=angles,
    phi1=angles,
    phi2=angles,
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 400),
)
def test_coin_phases_act_as_a_start_state_phase(theta, phi1, phi2, seed, steps):
    # P(x; theta, phi1, phi2, alpha, beta) = P(x; theta, 0, 0, alpha, e^{i phi1} beta).
    alpha, beta = normalized_pair(np.random.default_rng(seed))
    walk = run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps)
    rotated = run_walk(CoinParams(theta, 0.0, 0.0), alpha, cmath.exp(1j * phi1) * beta, steps)
    assert walk.shape == rotated.shape == (2 * steps + 1,)
    assert np.max(np.abs(walk - rotated)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    theta=angles,
    phi1s=st.lists(angles, min_size=0, max_size=3),
    phi1_late=st.floats(math.pi, 2.0 * math.pi, exclude_max=True),
    phi2s=st.lists(angles, min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 400),
)
def test_phase_diagram_matches_one_walk_per_point(theta, phi1s, phi1_late, phi2s, seed, steps):
    phi1_grid = [*phi1s, phi1_late]  # always one phi1 of 180 degrees or more
    alpha, beta = normalized_pair(np.random.default_rng(seed))
    delta = phase_diagram(theta, phi1_grid, phi2s, alpha, beta, steps)
    expected = _phase_diagram_oracle(theta, phi1_grid, phi2s, alpha, beta, steps)
    assert np.max(np.abs(delta - expected)) <= 1e-12
