"""Production evolution engine: the local two-term recurrence.

One step of the walk is coin-then-shift.  Written out per site, the updated
amplitudes depend only on the two coin components of the neighbouring sites:

    alpha_x(t+1) = C00 * alpha_{x-1}(t) + C01 * beta_{x-1}(t)
    beta_x(t+1)  = C10 * alpha_{x+1}(t) + C11 * beta_{x+1}(t)

so a step is two shifted axpy operations on the ``(2, n)`` amplitude table —
O(n) work and no operator matrix at all.  One kernel reads a source buffer
and writes a destination buffer, leaving the input state untouched.
``step_recurrence`` runs it once into a fresh array; ``evolve`` swaps two
buffers every step and computes only the light cone, the columns the walk
can have reached.
"""

from __future__ import annotations

import numpy as np

from .coin import CoinParams, make_coin
from .state import (
    LatticeExhaustedError,
    LatticeSpec,
    ProbabilityDistribution,
    WalkerState,
    distribution,
    initial_state,
)

__all__ = ["step_recurrence", "evolve", "run_walk"]


def _check_request(state: WalkerState, coin: np.ndarray, steps: int) -> np.ndarray:
    """Refuse ``steps`` more steps past the lattice or a malformed coin; return the coin."""
    n = state.lattice.half_width
    if state.time + steps > n:
        raise LatticeExhaustedError(
            f"lattice with half_width={n} supports {n} steps; the walker at t={state.time} cannot "
            f"take {steps} more, so rebuild the walk on a lattice with a larger half_width"
        )
    c = np.asarray(coin, dtype=np.complex128)
    if c.shape != (2, 2):
        raise ValueError(f"coin must be a (2, 2) matrix, got shape {c.shape}")
    return c


def _advance(
    src: np.ndarray, dst: np.ndarray, c: np.ndarray, lo: int, hi: int, scratch: np.ndarray
) -> None:
    """One step from ``src`` into columns ``lo .. hi-1`` (``1 <= lo``, ``hi <= n-1``) of ``dst``.

    Writes through ``out=`` and ``scratch`` (at least ``hi - lo`` long), so a
    step allocates no arrays.
    """
    tmp = scratch[: hi - lo]
    # Head amplitude (row 0) arrives from the left neighbour, tail from the right.
    for row, shift in ((0, -1), (1, 1)):
        out = dst[row, lo:hi]
        np.multiply(c[row, 0], src[0, lo + shift : hi + shift], out=out)
        np.multiply(c[row, 1], src[1, lo + shift : hi + shift], out=tmp)
        np.add(out, tmp, out=out)


def step_recurrence(state: WalkerState, coin: np.ndarray) -> WalkerState:
    """Advance the walker by one coin-then-shift step.

    Parameters
    ----------
    state : WalkerState
        Current state; ``state.time`` must be below the lattice half-width,
        otherwise amplitude would spill into the guard sites.
    coin : numpy.ndarray
        The (2, 2) complex coin matrix.

    Returns
    -------
    WalkerState
        A new state at ``time + 1``; the input is not modified.

    Raises
    ------
    LatticeExhaustedError
        If the lattice window is used up (``time >= half_width``).
    """
    c = _check_request(state, coin, 1)
    amp = state.amplitudes
    out = np.zeros_like(amp)
    # Interior columns 1..n-2 receive from their left/right neighbours; the
    # guard columns stay exactly zero.
    _advance(amp, out, c, 1, amp.shape[1] - 1, np.empty_like(amp[0]))
    return WalkerState(out, state.lattice, state.time + 1)


def evolve(state: WalkerState, coin: np.ndarray, steps: int) -> WalkerState:
    """Apply ``steps`` walk steps; ``steps=0`` returns the state unchanged.

    Equals ``steps`` calls of :func:`step_recurrence` bit for bit, so the
    guard columns come out zero whatever the input held.

    Raises
    ------
    ValueError
        If ``steps`` is negative.
    LatticeExhaustedError
        If the walk would run past the end of the lattice window.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if steps == 0:
        return state
    c = _check_request(state, coin, steps)
    src = state.amplitudes
    n = src.shape[1]
    occupied = np.flatnonzero(np.any(src != 0, axis=0))
    lo, hi = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (1, 1)
    # Two buffers that only ever hold kernel output, so their guard columns
    # and everything outside the light cone stay zero.
    buffers = np.zeros((2, *src.shape), dtype=np.complex128)
    scratch = np.empty_like(src[0])
    for t in range(steps):
        lo, hi = max(lo - 1, 1), min(hi + 1, n - 1)
        _advance(src, buffers[t % 2], c, lo, hi, scratch)
        src = buffers[t % 2]
    return WalkerState(src, state.lattice, state.time + steps)


def run_walk(
    params: CoinParams,
    alpha: complex,
    beta: complex,
    steps: int,
) -> ProbabilityDistribution:
    """Run a fresh ``steps``-step walk from the origin and measure it.

    The lattice is sized exactly to the walk (``half_width = steps``), so the
    result covers positions ``-(steps+1) .. steps+1`` with the two outermost
    (guard) entries always zero.

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
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    coin = make_coin(params)
    state = initial_state(alpha, beta, LatticeSpec(steps))
    state = evolve(state, coin, steps)
    return distribution(state)
