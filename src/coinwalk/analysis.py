"""Distribution diagnostics and parameter sweeps.

Two scalar summaries drive the parameter studies:

* ``peak_gap`` — the height difference between the largest and second-largest
  probability.  A symmetric two-peaked distribution scores ~0, a distribution
  with one dominant peak scores high, so sweeping it over the coin phases
  maps out where the walk is asymmetric.
* ``symmetry_deviation`` — the worst-case difference ``|P(x) - P(-x)|``,
  i.e. how far the distribution is from exact left/right symmetry.

``theta_sweep`` solves the walks of all its rotation angles in one
momentum-space pass, ``phase_diagram`` two walks for the whole (phi1, phi2)
grid.
"""

from __future__ import annotations

import cmath

import numpy as np

from .coin import CoinParams, make_coin
from .momentum import _states, momentum_state
from .state import ProbabilityDistribution, _probabilities, check_coin_state, check_unit_interval
from .state import check_walk_steps

__all__ = [
    "peak_gap",
    "symmetry_deviation",
    "theta_sweep",
    "phase_diagram",
]


def peak_gap(dist: ProbabilityDistribution) -> float:
    """Height of the global probability maximum over the runner-up.

    Computed as ``max(P) - second_max(P)`` with multiplicity: if the global
    maximum value occurs at two or more positions the gap is exactly 0.

    Raises
    ------
    ValueError
        If the distribution has fewer than two positions (no runner-up).
    """
    p = dist.probs
    if p.size < 2:
        raise ValueError(
            f"peak gap needs at least two positions, got {p.size}"
        )
    return _gap(p)


def _gap(p: np.ndarray) -> float:
    """``max(p) - second_max(p)`` with multiplicity, for at least two entries."""
    top_two = np.partition(p, p.size - 2)[-2:]
    return float(top_two[1] - top_two[0])


def symmetry_deviation(dist: ProbabilityDistribution) -> float:
    """Worst-case asymmetry ``max_x |P(x) - P(-x)|``.

    Raises
    ------
    ValueError
        If the position window is not symmetric about 0 (then P(-x) is not
        defined for every stored x).
    """
    pos = dist.positions
    if not np.array_equal(pos[::-1], -pos):
        raise ValueError(
            "symmetry deviation needs a position window symmetric about 0, "
            f"got [{pos[0]}, {pos[-1]}]"
        )
    return float(np.max(np.abs(dist.probs - dist.probs[::-1])))


def theta_sweep(
    thetas: "np.ndarray | list[float]",
    phi1: float,
    phi2: float,
    alpha: complex,
    beta: complex,
    steps: int,
) -> np.ndarray:
    """The distribution of the walk at each rotation angle, from one momentum-space pass.

    Returns the ``(len(thetas), 2T + 1)`` float array whose row ``k`` is
    ``run_walk(CoinParams(thetas[k], phi1, phi2), alpha, beta, steps).probs``
    bit for bit, over the positions ``-T .. T``, with the angles as given.
    The coins share the wavenumbers, the spectra and one inverse FFT (see
    :func:`coinwalk.momentum._states`); only the 2x2 arithmetic of each
    coin is done per angle.

    Raises
    ------
    ValueError
        If ``steps`` is not a positive integer, the coin state is not
        normalized, an angle is NaN or infinite, or a coin is not unitary,
        before any array is built; and if a distribution does not sum to 1
        or leaves [0, 1] (both within 1e-10).
    """
    steps = check_walk_steps(steps)
    check_coin_state(alpha, beta)
    thetas = np.asarray(thetas, dtype=np.float64)
    coins = [make_coin(CoinParams(float(theta), phi1, phi2)) for theta in thetas]
    # _states checks each coin's unitarity before it builds an array.
    probs = _probabilities(_states(alpha, beta, coins, steps))
    check_unit_interval(probs, "probabilities")
    return probs


def phase_diagram(
    theta: float,
    phi1_grid: "np.ndarray | list[float]",
    phi2_grid: "np.ndarray | list[float]",
    alpha: complex,
    beta: complex,
    steps: int,
) -> np.ndarray:
    """Peak gap of the walk at every point of a (phi1, phi2) grid, from two walks.

    Returns the ``(len(phi1_grid), len(phi2_grid))`` float array ``delta``,
    entries in [0, 1] like probabilities up to a 1e-10 absolute tolerance.
    ``delta[i, j]`` is ``peak_gap(run_walk(CoinParams(theta, phi1_grid[i],
    phi2_grid[j]), alpha, beta, steps))`` up to rounding, with the angles as
    given.  As ``P(x; theta, phi1, phi2, alpha, beta) = P(x; theta, 0, 0,
    alpha, e^{i phi1} beta)`` (Tregenna, Flanagan, Maile & Kendon, New J.
    Phys. 5, 83 (2003); see the README), row ``i`` is the peak gap of
    ``|alpha H + e^{i phi1} beta T|^2`` for the walks ``H`` and ``T`` of the
    coin ``R(theta)`` from a head and a tail start, repeated along phi2.

    Raises
    ------
    ValueError
        If either grid is empty, an angle is NaN or infinite, the coin state
        is not normalized, or ``steps`` is not a positive integer.
    """
    p1 = np.asarray(phi1_grid, dtype=np.float64)
    p2 = np.asarray(phi2_grid, dtype=np.float64)
    if p1.size == 0 or p2.size == 0:
        raise ValueError("phase grids must be non-empty")
    for phi1 in p1:  # every grid angle is checked as a coin angle before any walk
        CoinParams(theta, phi1, 0.0)
    for phi2 in p2:
        CoinParams(theta, 0.0, phi2)
    alpha, beta = check_coin_state(alpha, beta)
    check_walk_steps(steps)
    coin = make_coin(CoinParams(theta, 0.0, 0.0))
    head = alpha * momentum_state(1.0, 0.0, coin, steps)
    tail = beta * momentum_state(0.0, 1.0, coin, steps)
    # |head + e^{i phi1} tail|^2 summed over the coin, expanded: a head or a
    # tail start has cross = 0 exactly, so all its rows are equal bit for bit.
    base = np.sum(np.abs(head) ** 2 + np.abs(tail) ** 2, axis=0)
    cross = 2.0 * np.sum(head.conj() * tail, axis=0)
    gaps = np.array([_gap(base + (cmath.exp(1j * phi1) * cross).real) for phi1 in p1])
    check_unit_interval(gaps, "delta entries")
    return np.repeat(gaps[:, None], p2.size, axis=1)
