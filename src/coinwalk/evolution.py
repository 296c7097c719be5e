"""Recurrence engine: the local two-term update, one step at a time.

One step of the walk is coin-then-shift.  Written out per site, the updated
amplitudes depend only on the two coin components of the neighbouring sites:

    alpha_x(t+1) = C00 * alpha_{x-1}(t) + C01 * beta_{x-1}(t)
    beta_x(t+1)  = C10 * alpha_{x+1}(t) + C11 * beta_{x+1}(t)

so a step is two shifted axpy operations on the ``(2, 2N + 1)`` amplitude
table of the window ``x = -N .. N``, O(N) work and no operator matrix at
all: O(T * N) for a walk of T steps.  This is the reference engine: CLI
``verify`` checks it against the dense operator, the tests check the
momentum-space series of :func:`coinwalk.entanglement.entanglement_series`
against it, and it yields the table of every step from any start state.
The endpoint of a walk from the origin, which is what :func:`run_walk`
measures, comes from the O(T log T) momentum-space engine of
:mod:`coinwalk.momentum`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .coin import CoinParams, check_coin_matrix, make_coin
from .momentum import momentum_state
from .state import LatticeExhaustedError, ProbabilityDistribution
from .state import check_amplitudes, check_steps, check_walk_steps, distribution

__all__ = ["iter_steps", "evolve", "run_walk"]


def iter_steps(amplitudes: np.ndarray, coin: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """Walk ``steps`` steps from the table ``amplitudes``, yielding the table after each one.

    Each table is a new array, so it stays valid after the next step.  The
    input table is not modified, and the tables match a loop of one-step
    walks bit for bit.

    The request is checked when this is called, before the first step.  The
    support of a state grows by at most one site a step on each side, and
    nothing may leave the window ``x = -N .. N``, so a walk is refused
    unless ``max(-a, b) + steps <= N`` for the occupied sites ``a .. b``.

    Raises
    ------
    ValueError
        If ``amplitudes`` is not a finite ``(2, 2N + 1)`` table, ``steps`` is
        not a non-negative integer or the coin is not a (2, 2) matrix.
    LatticeExhaustedError
        If the walk could leave the window.
    """
    amp = check_amplitudes(amplitudes)
    steps = check_steps(steps)
    n = amp.shape[1] // 2
    occupied = np.flatnonzero(np.any(amp != 0, axis=0)) - n  # positions x
    if steps and occupied.size and max(-occupied[0], occupied[-1]) + steps > n:
        first, last = occupied[0], occupied[-1]
        raise LatticeExhaustedError(
            f"the walker occupies x = {first} .. {last} and can reach x = {first - steps} .. "
            f"{last + steps} within steps={steps}, past the sites x = {-n} .. {n} of the window "
            f"with half_width={n}; rebuild the walk on a window with a larger half_width"
        )
    return _steps(amp, check_coin_matrix(coin), steps)


def _steps(table: np.ndarray, c: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    for _ in range(steps):
        a, b = table
        table = np.zeros_like(table)
        # Head amplitude (row 0) arrives from the left neighbour, tail from the right.
        np.multiply(c[0, 0], a[:-1], out=table[0, 1:])
        table[0, 1:] += c[0, 1] * b[:-1]
        np.multiply(c[1, 0], a[1:], out=table[1, :-1])
        table[1, :-1] += c[1, 1] * b[1:]
        yield table


def evolve(amplitudes: np.ndarray, coin: np.ndarray, steps: int) -> np.ndarray:
    """The table after ``steps`` walk steps; ``steps=0`` returns the checked input.

    The last table of :func:`iter_steps`, so ``steps`` one-step calls give
    the same table bit for bit.

    Raises
    ------
    ValueError, LatticeExhaustedError
        As :func:`iter_steps`.
    """
    table = check_amplitudes(amplitudes)
    for table in iter_steps(table, coin, steps):
        pass
    return table


def run_walk(
    params: CoinParams,
    alpha: complex,
    beta: complex,
    steps: int,
) -> ProbabilityDistribution:
    """Run a fresh ``steps``-step walk from the origin and measure it.

    The state comes from :func:`coinwalk.momentum.momentum_state`, in
    O(T log T).  Its window is sized exactly to the walk
    (``half_width = steps``), so the result covers positions
    ``-steps .. steps`` with the sites of the wrong parity exactly zero.

    Parameters
    ----------
    params : CoinParams
        Coin angle triple.
    alpha, beta : complex
        Normalized initial coin amplitudes.
    steps : int
        Number of steps (positive).

    Returns
    -------
    ProbabilityDistribution
        The position distribution after ``steps`` steps.
    """
    steps = check_walk_steps(steps)
    return distribution(momentum_state(alpha, beta, make_coin(params), steps))
