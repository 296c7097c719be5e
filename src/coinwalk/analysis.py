"""Distribution diagnostics and parameter sweeps.

Two scalar summaries drive the parameter studies:

* ``peak_gap`` — the height difference between the largest and second-largest
  probability.  A symmetric two-peaked distribution scores ~0, a distribution
  with one dominant peak scores high, so sweeping it over the coin phases
  maps out where the walk is asymmetric.
* ``symmetry_deviation`` — the worst-case difference ``|P(x) - P(-x)|``,
  i.e. how far the distribution is from exact left/right symmetry.

Both take the ``(2N + 1,)`` probability array of the sites ``-N .. N`` that
:func:`~coinwalk.evolution.run_walk` returns.

``theta_sweep`` solves the walks of all its rotation angles in one
momentum-space pass, ``phase_diagram`` two walks for the whole (phi1, phi2)
grid.
"""

from __future__ import annotations

import cmath

import numpy as np

from .coin import CoinParams, _coins, make_coin
from .momentum import _origin, _states
from .state import _probabilities, check_coin_state, check_unit_interval, check_walk_steps

__all__ = [
    "peak_gap",
    "symmetry_deviation",
    "theta_sweep",
    "phase_diagram",
]


def peak_gap(probs: np.ndarray) -> float:
    """Height of the global probability maximum over the runner-up.

    Computed as ``max(P) - second_max(P)`` with multiplicity: if the global
    maximum value occurs at two or more positions the gap is exactly 0.

    Raises
    ------
    ValueError
        If ``probs`` has fewer than two entries (no runner-up).
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.size < 2:
        raise ValueError(f"peak gap needs at least two positions, got {p.size}")
    return _gap(p)


def _gap(p: np.ndarray) -> float:
    """``max(p) - second_max(p)`` with multiplicity, for at least two entries."""
    top_two = np.partition(p, p.size - 2)[-2:]
    return float(top_two[1] - top_two[0])


def symmetry_deviation(probs: np.ndarray) -> float:
    """Worst-case asymmetry ``max_x |P(x) - P(-x)|`` of the probabilities of sites ``-N .. N``.

    Raises
    ------
    ValueError
        If ``probs`` is not a 1-D array of odd length, the sites ``-N .. N``
        (then P(-x) is not defined for every stored x).
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size % 2 == 0:
        raise ValueError(f"symmetry deviation needs a 1-D array of odd length, got shape {p.shape}")
    return float(np.max(np.abs(p - p[::-1])))


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
    ``run_walk(CoinParams(thetas[k], phi1, phi2), alpha, beta, steps)``
    bit for bit, over the positions ``-T .. T``, with the angles as given.
    The ``(K, 2, 2)`` stack of coins is built in one pass by
    :func:`coinwalk.coin._coins`, whose one-angle case is
    :func:`~coinwalk.coin.make_coin`.  The coins share the
    wavenumbers, the spectra and one inverse FFT (see
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
    alpha, beta = check_coin_state(alpha, beta)
    thetas = np.asarray(thetas, dtype=np.float64)
    if not np.all(np.isfinite(thetas)):
        for theta in thetas:  # the first bad angle raises CoinParams' own message
            CoinParams(float(theta), phi1, phi2)
    phases = CoinParams(0.0, phi1, phi2)
    coins = _coins(thetas, phases.phi1, phases.phi2)
    # _states checks the coins' unitarity before it builds an array.
    shape = (len(coins), 2, 2 * steps + 1)
    return _probabilities(_states(_origin(alpha, beta, steps), coins, steps, shape))


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
    coin ``R(theta)`` from a head and a tail start.  Nothing is repeated
    along phi2: ``delta`` is a read-only view of the ``len(phi1_grid)``
    gaps broadcast along it (stride 0), O(len(phi1_grid)) memory;
    ``.copy()`` it to write into it.

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
    params = CoinParams(theta, 0.0, 0.0)
    # Every grid angle is checked as a coin angle before any walk; the first
    # bad one raises CoinParams' own message.
    if not (np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))):
        for phi1 in p1:
            CoinParams(theta, phi1, 0.0)
        for phi2 in p2:
            CoinParams(theta, 0.0, phi2)
    alpha, beta = check_coin_state(alpha, beta)
    steps = check_walk_steps(steps)
    coins, shape = [make_coin(params)], (2, 2 * steps + 1)
    head = alpha * _states(_origin(1.0, 0.0, steps), coins, steps, shape)
    tail = beta * _states(_origin(0.0, 1.0, steps), coins, steps, shape)
    # |head + e^{i phi1} tail|^2 summed over the coin, expanded: a head or a
    # tail start has cross = 0 exactly, so all its rows are equal bit for bit.
    base = np.sum(np.abs(head) ** 2 + np.abs(tail) ** 2, axis=0)
    cross = 2.0 * np.sum(head.conj() * tail, axis=0)
    gaps = np.array([_gap(base + (cmath.exp(1j * phi1) * cross).real) for phi1 in p1])
    check_unit_interval(gaps, "delta entries")
    return np.broadcast_to(gaps[:, None], (gaps.size, p2.size))
