"""The walk of a table: every step by the recurrence, the endpoint in momentum space.

One step of the walk is coin-then-shift.  Written out per site, the updated
amplitudes depend only on the two coin components of the neighbouring sites:

    alpha_x(t+1) = C00 * alpha_{x-1}(t) + C01 * beta_{x-1}(t)
    beta_x(t+1)  = C10 * alpha_{x+1}(t) + C11 * beta_{x+1}(t)

so a step is two shifted axpy operations on the ``(2, 2N + 1)`` amplitude
table of the window ``x = -N .. N``, O(N) work and no operator matrix at
all: O(T * N) for a walk of T steps.  :func:`iter_steps` is this recurrence,
the reference engine: CLI ``verify`` checks it against the dense operator,
the tests check the momentum-space series of
:func:`coinwalk.entanglement.entanglement_series` against it, and it yields
the table of every step.  The endpoint, :func:`evolve` from any table and
:func:`run_walk` from the origin, comes from the O(T log T) momentum-space
engine of :mod:`coinwalk.momentum`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .coin import CoinParams, check_coin_matrix, make_coin
from .momentum import _check_coins, _origin, _states
from .state import _probabilities, check_amplitudes, check_coin_state, check_reach, check_steps
from .state import check_walk_steps

__all__ = ["iter_steps", "evolve", "run_walk"]


def iter_steps(amplitudes: np.ndarray, coin: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """Walk ``steps`` steps from the table ``amplitudes``, yielding the table after each one.

    Each table is a new array, so it stays valid after the next step.  The
    input table is not modified, and the tables match a loop of one-step
    walks bit for bit.

    The request is checked when this is called, before the first step.  A
    walk whose occupied sites ``a .. b`` could leave the window
    ``x = -N .. N`` is refused: it needs ``max(-a, b) + steps <= N`` (see
    :func:`coinwalk.state.check_reach`).

    Raises
    ------
    ValueError
        If ``amplitudes`` is not a finite ``(2, 2N + 1)`` table, ``steps`` is
        not a non-negative integer or the coin is not a (2, 2) matrix.
    LatticeExhaustedError
        If the walk could leave the window.
    """
    amp, steps = check_amplitudes(amplitudes), check_steps(steps)
    check_reach(amp, steps)
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
    """The table after ``steps`` steps, in momentum space; ``steps=0`` returns the checked input.

    Each occupied parity class of the table is solved in closed form (see
    :mod:`coinwalk.momentum`), in O((s + T) log(s + T)) for a class of
    ``s`` sites, so there are no intermediate times; for those, step with
    :func:`iter_steps`.  The table matches the last one of
    :func:`iter_steps` within 1e-12, and every site that no occupied class
    can reach, outside its light cone or of the other parity, holds an
    exact zero.  The window and its refusal rule are those of
    :func:`iter_steps`.

    Raises
    ------
    ValueError
        If ``amplitudes`` is not a finite ``(2, 2N + 1)`` table, ``steps`` is
        not a non-negative integer or the coin is not unitary within 1e-12,
        as the closed-form power needs.
    LatticeExhaustedError
        If the walk could leave the window.
    """
    amp, steps = check_amplitudes(amplitudes), check_steps(steps)
    spans = check_reach(amp, steps)
    if not steps:
        _check_coins([coin])
        return amp
    return _states([(a, amp[:, a : b + 1 : 2]) for a, b in spans], [coin], steps, amp.shape)


def run_walk(
    params: CoinParams,
    alpha: complex,
    beta: complex,
    steps: int,
) -> np.ndarray:
    """Run a fresh ``steps``-step walk from the origin and measure it.

    The walker starts at the origin of a window sized exactly to the walk
    (``half_width = steps``) and is solved in momentum space, in
    O(T log T), as :func:`evolve` solves it, with no start table built.  The
    result covers the positions ``-steps .. steps``, position ``x`` at entry
    ``x + steps``, with the sites of the wrong parity exactly zero.

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
    numpy.ndarray
        The ``(2 steps + 1,)`` position probabilities after ``steps`` steps,
        as :func:`coinwalk.state.distribution` measures them.
    """
    steps = check_walk_steps(steps)
    alpha, beta = check_coin_state(alpha, beta)
    origin = _origin(alpha, beta, steps)
    return _probabilities(_states(origin, [make_coin(params)], steps, (2, 2 * steps + 1)))
