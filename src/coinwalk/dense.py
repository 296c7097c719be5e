"""Reference evolution engine: explicit dense operator matrices.

This is the deliberately naive cross-check for the recurrence engine in
:mod:`coinwalk.evolution` and the momentum-space engine in
:mod:`coinwalk.momentum`.  It builds the one-step operator of the walk as an
explicit ``(4N+2) x (4N+2)`` matrix over the ``2N+1`` position window
``x = -N .. N`` and evolves by repeated matrix-vector products.

Layout of the dense vector: coin block times position, head block first —
entry ``coin * (2N+1) + (x + N)`` holds the amplitude of coin state ``coin``
(0 = head, 1 = tail) at position ``x``.

The conditional shift moves head amplitude right by the cyclic one-step
down-shift ``M`` of the window (``M[i, j] = 1`` iff ``i = (j+1) mod (2N+1)``)
and tail amplitude left by ``M^T``.  The wraparound entries make the operator
exactly unitary, and they are never exercised by a walk that stays inside
the window.  ``dense_series`` takes its window from its start table, and
its tables are the amplitude tables of :mod:`coinwalk.state`, as those of
:func:`coinwalk.evolution.iter_steps` and
:func:`coinwalk.evolution.evolve`, so the engines compare table for table;
it refuses a walk that could leave the window by the rule of every engine,
so the cyclic window agrees exactly with the infinite line.

The operator's 4(2N+1) nonzeros are written in place, O(N^2) with the
zero fill.  Each occupied parity class of a table, with its occupied
columns in ``lo .. hi``, holds amplitude after ``t`` steps only on its
light cone ``lo - t .. hi + t`` and, as every entry of the operator moves
one site, only on every other site of it.  So step ``t + 1`` multiplies, for
each class, only the part of the operator that maps those columns to the
rows one site further out, of the other parity, read from two contiguous
copies of its parity-coupled quarters.  From the origin that is
O(t^2 / 4), about a twelfth of the O(N^2) of the full mat-vec over a walk,
with every entry it uses read from the operator.  Its unitarity check runs
on the coin: ``S`` is a permutation, so ``U^H U = (C^H C) kron I`` entry
for entry, and ``max |C^H C - I|`` is the residual of the whole operator.
Being O(N^2) in memory as well, this path is for validation, not
production: ``build_step_unitary`` refuses a half-width, and
``dense_series`` a walk, of more than ``DENSE_HALF_WIDTH_CAP`` (200).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .coin import _unitarity_residual
from .state import check_amplitudes, check_reach, check_steps, check_walk_steps

__all__ = ["build_step_unitary", "dense_series"]

#: Most steps, and so the largest window half-width, the dense engine accepts.
DENSE_HALF_WIDTH_CAP = 200

_UNITARY_TOL = 1e-10


def build_step_unitary(coin: np.ndarray, half_width: int) -> np.ndarray:
    """Assemble the one-step operator ``U = S (C kron I)`` over the window.

    ``C kron I`` applies the coin at every site; ``S`` shifts the head block
    right (``M``) and the tail block left (``M^T``).  The product is never
    formed: every column ``j`` of a block has its one nonzero at a known
    row, so the four coin entries are written straight into place — ``C00``
    and ``C01`` at head row ``(j+1) mod (2N+1)``, ``C10`` and ``C11`` at tail
    row ``(j-1) mod (2N+1)`` — 4(2N+1) nonzeros in O(N^2) with the zero fill.

    Returns
    -------
    numpy.ndarray
        Complex ``(4N+2, 4N+2)`` array, verified unitary before it is
        allocated: no entry of ``C^dagger C - I`` exceeds 1e-10 in magnitude.
        Every column pair of ``U`` meets in one head row and one tail row,
        so each entry of ``U^dagger U`` is the matching two-term entry of
        ``C^dagger C``, and the coin's residual is the operator's.

    Raises
    ------
    ValueError
        If ``half_width`` is not an integer from 1 to ``DENSE_HALF_WIDTH_CAP``
        (200), or if ``coin`` is not unitary.
    """
    n = check_walk_steps(half_width, "half_width")
    if n > DENSE_HALF_WIDTH_CAP:
        raise ValueError(
            f"dense operator takes a half-width of 1 to {DENSE_HALF_WIDTH_CAP}, got {n}"
        )
    c, worst = _unitarity_residual(coin)
    if not worst <= _UNITARY_TOL:
        raise ValueError(
            f"step operator is not unitary: max |U^H U - I| = {worst:.3e} "
            f"exceeds {_UNITARY_TOL:.0e} (is the coin matrix unitary?)"
        )
    w = 2 * n + 1
    col = np.arange(w)
    head = (col + 1) % w
    tail = w + (col - 1) % w
    step = np.zeros((2 * w, 2 * w), dtype=np.complex128)
    step[head, col] = c[0, 0]
    step[head, w + col] = c[0, 1]
    step[tail, col] = c[1, 0]
    step[tail, w + col] = c[1, 1]
    return step


def dense_series(amplitudes: np.ndarray, coin: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """Evolve the table ``amplitudes`` by repeated dense mat-vecs, yielding every amplitude table.

    The operator spans the table's own window, so its half-width ``N`` is
    at most ``DENSE_HALF_WIDTH_CAP`` (200), and the walk must stay inside
    it, by the refusal rule of every engine
    (:func:`coinwalk.state.check_reach`); then the cyclic wraparound never
    fires.  The arguments are checked and the step operator is built (and
    checked unitary) when this is called; the generator then yields the
    checked input at ``t = 0`` and the table at ``t = 1, ..., steps``, each
    the mat-vec of the one before with the parity-coupled quarters of the
    operator over the light cone of each occupied parity class (see
    :func:`_products`).  That skips only products with exact zeros, so a
    table can differ from the full mat-vec in the last bit: by at most
    1.6e-16 a step, and 1.1e-15 from a chain of full mat-vecs over 200
    steps, on 100 random coins and starts.

    Parameters
    ----------
    amplitudes : numpy.ndarray
        The finite ``(2, 2N + 1)`` start table.
    coin : numpy.ndarray
        The (2, 2) coin matrix.
    steps : int
        Number of steps, an integer from 0 to ``DENSE_HALF_WIDTH_CAP`` (200).

    Yields
    ------
    numpy.ndarray
        Complex ``(2, 2N+1)`` arrays: row 0 head amplitudes, row 1 tail
        amplitudes, columns ordered by position ``-N .. N``.

    Raises
    ------
    ValueError
        If ``steps`` is not an integer from 0 to 200, the table is not a
        finite ``(2, 2N + 1)`` table, ``N`` passes 200 or the coin is not
        unitary.
    LatticeExhaustedError
        If the walk could leave the window.
    """
    steps = check_steps(steps)
    if steps > DENSE_HALF_WIDTH_CAP:
        raise ValueError(
            f"dense engine takes 0 to {DENSE_HALF_WIDTH_CAP} steps, got {steps}; "
            f"this path is O(N^2) per step and meant for validation runs"
        )
    table = check_amplitudes(amplitudes)
    cones = check_reach(table, steps)
    return _products(build_step_unitary(coin, table.shape[1] // 2), table, cones, steps)


def _products(step: np.ndarray, table: np.ndarray, cones: list, steps: int) -> Iterator[np.ndarray]:
    """``table`` and its images under ``step``, each parity class over a quarter of its light cone.

    Read ``step`` as its four coin blocks,
    ``blocks[a, b] = U[a w : (a + 1) w, b w : (b + 1) w]``.  Every entry of a
    block moves one site, so it couples a column of one parity to a row of
    the other, apart from the four cyclic-wrap entries.  The two
    parity-coupled quarters, ``blocks[:, :, 1::2, 0::2]`` (even columns to
    odd rows) and ``blocks[:, :, 0::2, 1::2]`` (odd to even), are copied
    once into contiguous arrays, half the operator, and ``step`` itself is
    dropped before the first step.  The occupied columns of each parity
    class lie in ``lo .. hi`` (``cones`` holds the pairs); after ``t`` steps
    the class holds amplitude only on the columns ``lo - t, lo - t + 2, ..,
    hi + t``, and the operator sends them into the rows ``lo - t - 1, ..,
    hi + t + 1``: step ``t + 1`` multiplies that slice of the quarter for
    the parity of ``lo - t`` in one stacked mat-vec, and every entry of the
    new table outside the classes' cones is an exact zero.  A walker at the
    origin is one class with ``lo = hi = n``.  As the walk stays inside the
    window, the slices never reach the cyclic wrap.
    """
    w = table.shape[1]
    blocks = step.reshape(2, w, 2, w).transpose(0, 2, 1, 3)
    # quarters[p] takes the columns of parity p to the rows of parity 1 - p.
    quarters = (
        np.ascontiguousarray(blocks[:, :, 1::2, 0::2]),
        np.ascontiguousarray(blocks[:, :, 0::2, 1::2]),
    )
    del step, blocks
    yield table
    for t in range(steps):
        before, table = table, np.zeros_like(table)
        for first, last in cones:
            lo, hi = first - t, last + t
            band = quarters[lo % 2][..., (lo - 1) // 2 : (hi + 1) // 2 + 1, lo // 2 : hi // 2 + 1]
            parts = band @ before[:, lo : hi + 1 : 2, None]  # band[a, b] @ before[b]
            np.add(parts[:, 0, :, 0], parts[:, 1, :, 0], out=table[:, lo - 1 : hi + 2 : 2])
        yield table
