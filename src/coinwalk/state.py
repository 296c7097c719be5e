"""Walker states on the finite window of a one-dimensional lattice.

A walk that runs for at most ``N`` steps from the origin can only reach
positions ``x`` with ``|x| <= N``.  A state is therefore a plain
``(2, 2N + 1)`` complex amplitude array, the table, over the window
``x = -N .. N``.  Row 0 holds the head (|H>, historically "alpha")
amplitudes and row 1 the tail (|T>, "beta") amplitudes.  Position ``x``
lives at zero-based column ``x + N``; the origin sits at column ``N``.
Every engine takes and returns this array; :func:`check_amplitudes` is its
one validator.  A measurement is a plain array too: :func:`distribution`
returns the ``(2N + 1,)`` probabilities, position ``x`` at entry ``x + N``.

The recurrence refuses a walk whose occupied sites could leave the window,
so the finite window is an exact representation of the infinite line for
every walk it takes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "LatticeExhaustedError",
    "UNBIASED_INIT",
    "initial_state",
    "distribution",
]

#: Head/tail amplitudes (1/sqrt(2), -i/sqrt(2)) of the unbiased start state,
#: which drives a left/right symmetric walk for every real-entried coin.
UNBIASED_INIT: tuple[complex, complex] = (1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0))

_NORM_TOL = 1e-10


class LatticeExhaustedError(ValueError):
    """Raised when a walk is asked to evolve beyond the steps its window supports."""


def check_steps(steps: int, what: str = "steps") -> int:
    """Return ``steps`` as an ``int``; ValueError unless it is a non-negative integer.

    A Python or numpy integer is taken, a ``bool`` is not.  The one rule for
    a step count, in every engine; ``what`` names the argument in the error.
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {steps!r}")
    return int(steps)


def check_walk_steps(steps: int, what: str = "steps") -> int:
    """:func:`check_steps`, then ValueError for 0: a walk, like a window, has at least one step."""
    if check_steps(steps, what) < 1:
        raise ValueError(f"{what} must be positive, got {steps}")
    return int(steps)


def check_coin_state(alpha: complex, beta: complex) -> tuple[complex, complex]:
    """Return ``(alpha, beta)`` as complex numbers; ValueError unless finite and normalized.

    The norm ``|alpha|^2 + |beta|^2`` may deviate from 1 by at most 1e-10.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"coin amplitudes must be finite, got alpha={alpha!r}, beta={beta!r}")
    try:
        norm = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:  # a component near the float maximum
        norm = math.inf
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(
            f"coin state must be normalized: |alpha|^2 + |beta|^2 = {norm!r} "
            f"deviates from 1 by {norm - 1.0:.3e}"
        )
    return alpha, beta


def check_unit_interval(values: np.ndarray, what: str) -> None:
    """ValueError unless every entry of ``values`` lies in [0, 1] within 1e-10.

    The tolerance admits the rounding of a sum of squares: a probability of 1
    can come out as 1 + 2e-16.  NaN fails the test.
    """
    if values.size and not (np.min(values) >= -_NORM_TOL and np.max(values) <= 1.0 + _NORM_TOL):
        raise ValueError(f"{what} must lie in [0, 1]")


def check_amplitudes(amplitudes: np.ndarray) -> np.ndarray:
    """Return ``amplitudes`` as a complex128 array; ValueError unless it is a finite table.

    A table has shape ``(2, 2N + 1)`` with ``N >= 1`` (see the module
    docstring).  The one rule for an amplitude table, in every engine.
    """
    amp = np.asarray(amplitudes, dtype=np.complex128)
    if amp.ndim != 2 or amp.shape[0] != 2 or amp.shape[1] < 3 or amp.shape[1] % 2 == 0:
        raise ValueError(
            f"amplitude array has shape {amp.shape}, expected (2, 2N + 1) with N >= 1"
        )
    if not np.all(np.isfinite(amp)):
        raise ValueError("amplitudes must be finite (no NaN or infinity)")
    return amp


def initial_state(alpha: complex, beta: complex, half_width: int) -> np.ndarray:
    """The table of the walker at the origin with coin state ``alpha |H> + beta |T>``.

    Parameters
    ----------
    alpha, beta : complex
        Coin amplitudes; finite, with ``|alpha|^2 + |beta|^2 = 1`` within 1e-10.
    half_width : int
        The ``N`` of the window ``x = -N .. N`` to allocate: a positive Python
        or numpy integer, not a ``bool``.  A state occupying ``a .. b`` may
        take ``s`` more steps while ``max(-a, b) + s <= N``: ``N`` steps for
        a walker at the origin.

    Raises
    ------
    ValueError
        If an amplitude is not finite, the coin state is not normalized, or
        ``half_width`` is not a positive integer.
    """
    alpha, beta = check_coin_state(alpha, beta)
    n = check_walk_steps(half_width, "half_width")
    amp = np.zeros((2, 2 * n + 1), dtype=np.complex128)
    amp[0, n] = alpha
    amp[1, n] = beta
    return amp


def distribution(amplitudes: np.ndarray) -> np.ndarray:
    """Measure the walker: the ``(2N + 1,)`` probabilities of the positions ``-N .. N``.

    Entry ``x + N`` is the probability of position ``x``; the positions are
    ``np.arange(-N, N + 1)``.

    Raises
    ------
    ValueError
        If ``amplitudes`` is not a finite ``(2, 2N + 1)`` table, its total
        probability is not finite or deviates from 1 by more than 1e-10 (a
        table near the float maximum squares to infinity), or a probability
        leaves [0, 1] by more than 1e-10.
    """
    return _probabilities(check_amplitudes(amplitudes))


def _probabilities(tables: np.ndarray) -> np.ndarray:
    """The ``(..., 2N + 1)`` position probabilities of a stack of ``(..., 2, 2N + 1)`` tables.

    The one place that measures tables.  ValueError unless the total of each
    table is finite and within 1e-10 of 1 (a table near the float maximum
    squares to infinity), and every probability lies in [0, 1] within 1e-10.
    """
    with np.errstate(over="ignore"):
        probs = np.sum(np.abs(tables) ** 2, axis=-2)
        totals = np.sum(probs, axis=-1)
    bad = ~(np.abs(totals - 1.0) <= _NORM_TOL)
    if np.any(bad):
        total = float(totals[bad][0])
        raise ValueError(f"the table must be normalized: its total probability is {total!r}")
    check_unit_interval(probs, "probabilities")
    return probs
