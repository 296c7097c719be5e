"""Recurrence engine: the local two-term update, one step at a time.

One step of the walk is coin-then-shift.  Written out per site, the updated
amplitudes depend only on the two coin components of the neighbouring sites:

    alpha_x(t+1) = C00 * alpha_{x-1}(t) + C01 * beta_{x-1}(t)
    beta_x(t+1)  = C10 * alpha_{x+1}(t) + C11 * beta_{x+1}(t)

so a step is two shifted axpy operations on the ``(2, 2N + 1)`` amplitude
table of the window ``x = -N .. N``, O(N) work and no operator matrix at
all: O(T * N) for a walk of T steps.  This is the reference engine: CLI
``verify`` checks it against the dense operator, and it serves the
per-step series of :func:`coinwalk.entanglement.entanglement_series` and
start states other than a walker at the origin.  The endpoint of a walk
from the origin, which is what :func:`run_walk` measures, comes from the
O(T log T) momentum-space engine of :mod:`coinwalk.momentum`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .coin import CoinParams, check_coin_matrix, make_coin
from .momentum import momentum_state
from .state import LatticeExhaustedError, ProbabilityDistribution, WalkerState
from .state import check_steps, distribution

__all__ = ["iter_steps", "evolve", "run_walk"]


def iter_steps(state: WalkerState, coin: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """Walk ``steps`` steps from ``state``, yielding the amplitude table after each one.

    Each table is a new array, so it stays valid after the next step.  The
    input state is not modified, and the tables match a loop of one-step
    walks bit for bit.

    The request is checked when this is called, before the first step.  The
    support of a state grows by at most one site a step on each side, and
    nothing may leave the window ``x = -N .. N``, so a walk is refused
    unless ``max(-a, b) + steps <= N`` for the occupied sites ``a .. b``.

    Raises
    ------
    ValueError
        If ``steps`` is not a non-negative integer or the coin is not a
        (2, 2) matrix.
    LatticeExhaustedError
        If the walk could leave the window.
    """
    steps = check_steps(steps)
    n = state.half_width
    occupied = np.flatnonzero(np.any(state.amplitudes != 0, axis=0)) - n  # positions x
    if steps and occupied.size and max(-occupied[0], occupied[-1]) + steps > n:
        first, last = occupied[0], occupied[-1]
        raise LatticeExhaustedError(
            f"the walker occupies x = {first} .. {last} and can reach x = {first - steps} .. "
            f"{last + steps} within steps={steps}, past the sites x = {-n} .. {n} of the window "
            f"with half_width={n}; rebuild the walk on a window with a larger half_width"
        )
    return _steps(state.amplitudes, check_coin_matrix(coin), steps)


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


def evolve(state: WalkerState, coin: np.ndarray, steps: int) -> WalkerState:
    """Apply ``steps`` walk steps; ``steps=0`` returns the state unchanged.

    The last table of :func:`iter_steps`, so ``steps`` one-step calls give
    the same state bit for bit.

    Raises
    ------
    ValueError
        If ``steps`` is not a non-negative integer.
    LatticeExhaustedError
        If the walk could leave the window.
    """
    table = None
    for table in iter_steps(state, coin, steps):
        pass
    if table is None:
        return state
    return WalkerState(table, state.time + steps)


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
    if check_steps(steps) < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    return distribution(momentum_state(alpha, beta, make_coin(params), steps))
