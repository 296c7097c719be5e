"""Reference evolution engine: explicit dense operator matrices.

This is the deliberately naive cross-check for the recurrence engine in
:mod:`coinwalk.evolution` and the momentum-space engine in
:mod:`coinwalk.momentum`.  It builds the one-step operator of the walk as an
explicit ``(4N+2) x (4N+2)`` matrix over the ``2N+1`` position window
``x = -N .. N`` and evolves by repeated matrix-vector products.

Layout of the dense vector: coin block times position, head block first —
entry ``coin * (2N+1) + (x + N)`` holds the amplitude of coin state ``coin``
(0 = head, 1 = tail) at position ``x``.

The shift matrix ``M`` is the cyclic one-step down-shift permutation of the
window (``M[i, j] = 1`` iff ``i = (j+1) mod (2N+1)``); the conditional shift
moves head amplitude right via ``M`` and tail amplitude left via ``M^T``.
The wraparound entries make the operator exactly unitary, and they are never
exercised as long as ``steps <= N``.  ``dense_series`` sizes the window by
the walk, ``N = max(steps, 1)`` as for the lattice of
:func:`coinwalk.momentum.momentum_state`, so the cyclic window agrees
exactly with the infinite line.

Being O(N^2) per step in time and O(N^2) in memory, this path is for
validation, not production; it refuses walks of more than
``DENSE_HALF_WIDTH_CAP`` (200) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .coin import check_coin_matrix
from .state import check_coin_state, check_half_width

__all__ = ["StepUnitary", "build_shift_matrix", "build_step_unitary", "dense_series"]

#: Most steps, and so the largest window half-width, the dense engine accepts.
DENSE_HALF_WIDTH_CAP = 200

_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class StepUnitary:
    """One-step walk operator over a ``2N+1`` position window.

    Attributes
    ----------
    matrix : numpy.ndarray
        Complex ``(4N+2, 4N+2)`` array, verified unitary at construction
        (max-abs deviation of ``U^dagger U`` from identity at most 1e-10).
    window_half_width : int
        The ``N`` of the window.
    """

    matrix: np.ndarray
    window_half_width: int

    def __post_init__(self) -> None:
        n = check_half_width(self.window_half_width)
        object.__setattr__(self, "window_half_width", n)
        m = np.asarray(self.matrix, dtype=np.complex128)
        dim = 2 * (2 * n + 1)
        if m.shape != (dim, dim):
            raise ValueError(
                f"operator for half_width={n} must have shape {(dim, dim)}, got {m.shape}"
            )
        residual = m.conj().T @ m - np.eye(dim)
        worst = float(np.max(np.abs(residual)))
        if worst > _UNITARY_TOL:
            raise ValueError(
                f"step operator is not unitary: max |U^H U - I| = {worst:.3e} "
                f"exceeds {_UNITARY_TOL:.0e} (is the coin matrix unitary?)"
            )
        object.__setattr__(self, "matrix", m)


def build_shift_matrix(half_width: int) -> np.ndarray:
    """The cyclic down-shift permutation ``M`` of the ``2N+1`` window.

    ``M[i, j] = 1`` iff ``i = (j+1) mod (2N+1)``: applied to a coefficient
    vector it moves every position one site to the right, with the single
    wraparound entry sitting in the top-right corner.

    Raises
    ------
    ValueError
        If ``half_width`` is not a positive integer.
    """
    n = check_half_width(half_width)
    w = 2 * n + 1
    m = np.zeros((w, w), dtype=np.complex128)
    m[np.arange(1, w), np.arange(w - 1)] = 1.0
    m[0, w - 1] = 1.0
    return m


def build_step_unitary(coin: np.ndarray, half_width: int) -> StepUnitary:
    """Assemble the one-step operator ``U = S (C kron I)`` over the window.

    ``S`` shifts the head block right (``M``) and the tail block left
    (``M^T``); ``C kron I`` applies the coin at every site.

    Raises
    ------
    ValueError
        If ``half_width`` is invalid, or if ``coin`` is not unitary (the
        assembled operator then fails its own unitarity check).
    """
    m = build_shift_matrix(half_width)
    c = check_coin_matrix(coin)
    w = m.shape[0]
    shift = np.zeros((2 * w, 2 * w), dtype=np.complex128)
    shift[:w, :w] = m
    shift[w:, w:] = m.T
    step = shift @ np.kron(c, np.eye(w, dtype=np.complex128))
    return StepUnitary(step, w // 2)


def dense_series(
    alpha: complex, beta: complex, coin: np.ndarray, steps: int
) -> Iterator[np.ndarray]:
    """Evolve by repeated dense matrix-vector products, yielding every amplitude table.

    The window has half-width ``N = max(steps, 1)``, so the cyclic wraparound
    never fires.  The step operator is built (and checked unitary) once; the
    generator then yields the table at ``t = 0, 1, ..., steps``, one mat-vec
    apart.  The arguments are validated when iteration starts.

    Parameters
    ----------
    alpha, beta : complex
        Normalized initial coin amplitudes at the origin.
    coin : numpy.ndarray
        The (2, 2) coin matrix.
    steps : int
        Number of steps, from 0 to ``DENSE_HALF_WIDTH_CAP`` (200).

    Yields
    ------
    numpy.ndarray
        Complex ``(2, 2N+1)`` arrays: row 0 head amplitudes, row 1 tail
        amplitudes, columns ordered by position ``-N .. N``.
    """
    if not 0 <= steps <= DENSE_HALF_WIDTH_CAP:
        raise ValueError(
            f"dense engine takes 0 to {DENSE_HALF_WIDTH_CAP} steps, got {steps}; "
            f"this path is O(N^2) per step and meant for validation runs"
        )
    alpha, beta = check_coin_state(alpha, beta)
    n = max(steps, 1)
    w = 2 * n + 1
    step = build_step_unitary(coin, n)
    vec = np.zeros(2 * w, dtype=np.complex128)
    vec[n] = alpha  # head block, origin
    vec[w + n] = beta  # tail block, origin
    yield vec.reshape(2, w)
    for _ in range(steps):
        vec = step.matrix @ vec
        yield vec.reshape(2, w)
