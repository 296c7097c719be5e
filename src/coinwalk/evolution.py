"""Recurrence engine: the local two-term update, one step at a time.

One step of the walk is coin-then-shift.  Written out per site, the updated
amplitudes depend only on the two coin components of the neighbouring sites:

    alpha_x(t+1) = C00 * alpha_{x-1}(t) + C01 * beta_{x-1}(t)
    beta_x(t+1)  = C10 * alpha_{x+1}(t) + C11 * beta_{x+1}(t)

so a step is two shifted axpy operations on the ``(2, n)`` amplitude table —
O(n) work and no operator matrix at all, O(T^2) for a walk of T steps.  This
engine serves the per-step series (the entanglement module, CLI ``verify``)
and start states other than a walker at the origin; the endpoint of a walk
from the origin, which is what :func:`run_walk` measures, comes from the
O(T log T) momentum-space engine of :mod:`coinwalk.momentum`.

One kernel reads a source buffer and writes a destination buffer, leaving
the input state untouched.  ``iter_steps`` swaps two buffers every step,
computes only the light cone (the columns the walk can have reached) and
yields each table as it is written; ``evolve`` and the per-step series all
run on it.

The amplitudes in the tails of a long walk decay exponentially and, left
alone, pass through the subnormal range of doubles, where arithmetic is many
times slower (on x86-64, a T=3000 walk with theta near 60 degrees took 4x as
long as one near 35 degrees).  So every ``_FLUSH_EVERY`` steps of walk time,
the stepping loop sets to zero each real or imaginary part smaller than
``_FLUSH_BELOW``.  The square of such a part underflows to zero, so
probabilities and Schmidt weights do not see it.  The schedule follows the
walk time, so a walk taken one step at a time matches the same walk taken
at once bit for bit.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .coin import CoinParams, check_coin_matrix, make_coin
from .momentum import momentum_state
from .state import LatticeExhaustedError, ProbabilityDistribution, WalkerState, distribution

__all__ = ["iter_steps", "evolve", "run_walk"]

#: Real and imaginary parts below this magnitude are set to zero by the
#: flush.  Far above the subnormal range (below 2.2e-308), so a flushed tail
#: cannot grow back into it before the next flush, and far below the
#: smallest amplitude with a nonzero square (about 1.5e-162).
_FLUSH_BELOW = 1e-250
#: The flush runs after every step that ends at a multiple of this walk time.
_FLUSH_EVERY = 32


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


def _flush(table: np.ndarray, lo: int, hi: int, scratch: np.ndarray, tiny: np.ndarray) -> None:
    """Zero every real or imaginary part below ``_FLUSH_BELOW`` in columns ``lo .. hi-1``.

    ``scratch`` (complex) and ``tiny`` (bool) are at least ``hi - lo`` and
    ``2 * (hi - lo)`` long, so the flush allocates no arrays.
    """
    m = 2 * (hi - lo)
    mags, mask = scratch.view(np.float64)[:m], tiny[:m]
    for row in table:
        parts = row[lo:hi].view(np.float64)
        np.abs(parts, out=mags)
        np.less(mags, _FLUSH_BELOW, out=mask)
        np.copyto(parts, 0.0, where=mask)


def iter_steps(
    state: WalkerState, coin: np.ndarray, steps: int
) -> Iterator[tuple[np.ndarray, int, int]]:
    """Walk ``steps`` steps from ``state``, yielding the amplitude table after each one.

    Each item is ``(table, lo, hi)``: the ``(2, n)`` amplitude buffer just
    written and the light-cone columns ``lo .. hi-1`` outside which it is
    exactly zero.  Two buffers take turns, so a table is valid only until the
    next step overwrites it; copy it to keep it.  The input state is not
    modified, and the tables match a loop of one-step walks bit for bit,
    guard columns zero whatever the input held.

    The request is checked when this is called, before the first step.

    Raises
    ------
    ValueError
        If ``steps`` is negative or the coin is not a (2, 2) matrix.
    LatticeExhaustedError
        If the walk would run past the end of the lattice window.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    n = state.lattice.half_width
    if state.time + steps > n:
        raise LatticeExhaustedError(
            f"lattice with half_width={n} supports {n} steps; the walker at t={state.time} cannot "
            f"take {steps} more, so rebuild the walk on a lattice with a larger half_width"
        )
    return _steps(state.amplitudes, check_coin_matrix(coin), state.time, steps)


def _steps(
    src: np.ndarray, c: np.ndarray, time: int, steps: int
) -> Iterator[tuple[np.ndarray, int, int]]:
    n = src.shape[1]
    occupied = np.flatnonzero(np.any(src != 0, axis=0))
    lo, hi = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (1, 1)
    # Two buffers that only ever hold kernel output, so their guard columns
    # and everything outside the light cone stay zero.  Separate arrays, so a
    # table kept after the walk does not keep the other buffer alive.
    buffers = [np.zeros(src.shape, dtype=np.complex128) for _ in range(2)]
    scratch = np.empty_like(src[0])
    tiny = np.empty(2 * n, dtype=bool)
    for t in range(steps):
        lo, hi = max(lo - 1, 1), min(hi + 1, n - 1)
        _advance(src, buffers[t % 2], c, lo, hi, scratch)
        src = buffers[t % 2]
        if (time + t + 1) % _FLUSH_EVERY == 0:
            _flush(src, lo, hi, scratch, tiny)
        yield src, lo, hi


def evolve(state: WalkerState, coin: np.ndarray, steps: int) -> WalkerState:
    """Apply ``steps`` walk steps; ``steps=0`` returns the state unchanged.

    The last table of :func:`iter_steps`, so ``steps`` one-step calls give
    the same state bit for bit, and the guard columns come out zero whatever
    the input held.

    Raises
    ------
    ValueError
        If ``steps`` is negative.
    LatticeExhaustedError
        If the walk would run past the end of the lattice window.
    """
    table = None
    for table, _, _ in iter_steps(state, coin, steps):
        pass
    if table is None:
        return state
    return WalkerState(table, state.lattice, state.time + steps)


def run_walk(
    params: CoinParams,
    alpha: complex,
    beta: complex,
    steps: int,
) -> ProbabilityDistribution:
    """Run a fresh ``steps``-step walk from the origin and measure it.

    The state comes from :func:`coinwalk.momentum.momentum_state`, in
    O(T log T).  Its lattice is sized exactly to the walk
    (``half_width = steps``), so the result covers positions
    ``-(steps+1) .. steps+1`` with the two outermost (guard) entries and the
    sites of the wrong parity exactly zero.

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
    return distribution(momentum_state(alpha, beta, make_coin(params), steps))
