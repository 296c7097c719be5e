"""Walker states on the finite window of a one-dimensional lattice.

A walk that runs for at most ``N`` steps from the origin can only reach
positions ``x`` with ``|x| <= N``.  A state therefore stores the window
``x = -N .. N`` as the ``2N + 1`` columns of a ``(2, 2N + 1)`` complex
amplitude array.  Row 0 holds the head (|H>, historically "alpha")
amplitudes and row 1 the tail (|T>, "beta") amplitudes.  Position ``x``
lives at zero-based column ``x + N``; the origin sits at column ``N``.

The recurrence refuses a walk whose occupied sites could leave the window,
so the finite window is an exact representation of the infinite line for
every walk it takes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LatticeExhaustedError",
    "WalkerState",
    "ProbabilityDistribution",
    "UNBIASED_INIT",
    "check_half_width",
    "check_coin_state",
    "check_unit_interval",
    "initial_state",
    "distribution",
]

#: Head/tail amplitudes (1/sqrt(2), -i/sqrt(2)) of the unbiased start state,
#: which drives a left/right symmetric walk for every real-entried coin.
UNBIASED_INIT: tuple[complex, complex] = (1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0))

_NORM_TOL = 1e-10


class LatticeExhaustedError(ValueError):
    """Raised when a walk is asked to evolve beyond the steps its window supports."""


def check_half_width(half_width: int) -> int:
    """Return ``half_width`` as an ``int``; ValueError unless it is a positive integer."""
    if not isinstance(half_width, (int, np.integer)) or isinstance(half_width, bool):
        raise ValueError(f"half_width must be an integer, got {half_width!r}")
    if half_width < 1:
        raise ValueError(f"half_width must be positive, got {half_width}")
    return int(half_width)


def check_steps(steps: int, what: str = "steps") -> int:
    """Return ``steps`` as an ``int``; ValueError unless it is a non-negative integer.

    A Python or numpy integer is taken, a ``bool`` is not.  The one rule for
    a step count, in every engine; ``what`` names the argument in the error.
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {steps!r}")
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


@dataclass(frozen=True)
class WalkerState:
    """Full coin-position amplitude table of the walker at a fixed time.

    Attributes
    ----------
    amplitudes : numpy.ndarray
        Complex array of shape ``(2, 2N + 1)`` with ``N >= 1``: the window
        ``x = -N .. N``, position ``x`` at column ``x + N``.  Row 0 is the
        head component, row 1 the tail component.
    time : int
        Number of steps taken since the initial state (non-negative).
    """

    amplitudes: np.ndarray
    time: int = 0

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 2 or amp.shape[0] != 2 or amp.shape[1] < 3 or amp.shape[1] % 2 == 0:
            raise ValueError(
                f"amplitude array has shape {amp.shape}, expected (2, 2N + 1) with N >= 1"
            )
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "time", check_steps(self.time, "time"))

    @property
    def half_width(self) -> int:
        """The ``N`` of the window ``x = -N .. N``."""
        return self.amplitudes.shape[1] // 2


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Measured position distribution of a walker state.

    Attributes
    ----------
    positions : numpy.ndarray
        Strictly increasing integer position labels.
    probs : numpy.ndarray
        Probability at each position; entries in [0, 1] and summing to 1
        (both up to a 1e-10 absolute tolerance).
    time : int
        The step count the distribution was measured at (non-negative).
    """

    positions: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)
    time: int = 0

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64)
        p = np.asarray(self.probs, dtype=np.float64)
        if pos.ndim != 1 or p.ndim != 1 or pos.shape != p.shape:
            raise ValueError(
                f"positions and probs must be 1-D arrays of equal length, "
                f"got shapes {pos.shape} and {p.shape}"
            )
        if pos.size and np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        check_unit_interval(p, "probabilities")
        total = float(np.sum(p))
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "time", check_steps(self.time, "time"))

    def probability(self, x: int) -> float:
        """Probability at position ``x`` (0.0 for positions outside the window)."""
        hits = np.nonzero(self.positions == x)[0]
        return float(self.probs[hits[0]]) if hits.size else 0.0


def initial_state(alpha: complex, beta: complex, half_width: int) -> WalkerState:
    """Place the walker at the origin with coin state ``alpha |H> + beta |T>``.

    Parameters
    ----------
    alpha, beta : complex
        Coin amplitudes; must satisfy ``|alpha|^2 + |beta|^2 = 1`` within 1e-10.
    half_width : int
        The ``N`` of the window ``x = -N .. N`` to allocate (positive).  A
        state occupying ``a .. b`` may take ``s`` more steps while
        ``max(-a, b) + s <= N``: ``N`` steps for a walker at the origin.

    Raises
    ------
    ValueError
        If the coin state fails :func:`check_coin_state` or ``half_width``
        fails :func:`check_half_width`.
    """
    alpha, beta = check_coin_state(alpha, beta)
    n = check_half_width(half_width)
    amp = np.zeros((2, 2 * n + 1), dtype=np.complex128)
    amp[0, n] = alpha
    amp[1, n] = beta
    return WalkerState(amp)


def distribution(state: WalkerState) -> ProbabilityDistribution:
    """Measure the walker: the position distribution over the window, positions ``-N .. N``."""
    n = state.half_width
    probs = np.sum(np.abs(state.amplitudes) ** 2, axis=0)
    return ProbabilityDistribution(np.arange(-n, n + 1), probs, time=state.time)
