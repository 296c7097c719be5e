"""Walker states on a finite, padded one-dimensional lattice.

A walk that runs for at most ``N`` steps from the origin can only reach
positions ``x`` with ``|x| <= N``.  The lattice therefore stores the window
``x = -(N+1) .. N+1`` — the reachable sites plus one guard site at each end —
as ``n = 2N + 3`` columns of a ``(2, n)`` complex amplitude array.  Row 0
holds the head (|H>, historically "alpha") amplitudes and row 1 the tail
(|T>, "beta") amplitudes.  Position ``x`` lives at zero-based column
``x + N + 1``; the origin sits at column ``N + 1``.

The guard columns (0 and ``n - 1``) hold exact zeros for every time
``t <= N``, which is what makes the finite window an exact representation of
the infinite line for walks of at most ``N`` steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LatticeExhaustedError",
    "LatticeSpec",
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
    """Raised when a walk is asked to evolve beyond the steps its lattice supports."""


def check_half_width(half_width: int) -> int:
    """Return ``half_width`` as an ``int``; ValueError unless it is a positive integer."""
    if not isinstance(half_width, (int, np.integer)) or isinstance(half_width, bool):
        raise ValueError(f"half_width must be an integer, got {half_width!r}")
    if half_width < 1:
        raise ValueError(f"half_width must be positive, got {half_width}")
    return int(half_width)


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
class LatticeSpec:
    """Geometry of the padded walk window.

    Parameters
    ----------
    half_width : int
        Maximum number of steps ``N`` the lattice supports (positive).
    """

    half_width: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_width", check_half_width(self.half_width))

    @property
    def size(self) -> int:
        """Number of stored sites, ``2 * half_width + 3`` (window plus guards)."""
        return 2 * self.half_width + 3

    @property
    def origin_index(self) -> int:
        """Zero-based column of position 0, ``half_width + 1``."""
        return self.half_width + 1

    @property
    def positions(self) -> np.ndarray:
        """All stored positions ``-(N+1) .. N+1`` in increasing order."""
        return np.arange(-(self.half_width + 1), self.half_width + 2)


@dataclass(frozen=True)
class WalkerState:
    """Full coin-position amplitude table of the walker at a fixed time.

    Attributes
    ----------
    amplitudes : numpy.ndarray
        Complex array of shape ``(2, lattice.size)``; row 0 is the head
        component, row 1 the tail component.
    lattice : LatticeSpec
        The window geometry the columns refer to.
    time : int
        Number of steps taken since the initial state (non-negative).
    """

    amplitudes: np.ndarray
    lattice: LatticeSpec
    time: int = 0

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = (2, self.lattice.size)
        if amp.shape != expected:
            raise ValueError(
                f"amplitude array has shape {amp.shape}, expected {expected} "
                f"for half_width={self.lattice.half_width}"
            )
        if self.time < 0:
            raise ValueError(f"time must be non-negative, got {self.time}")
        object.__setattr__(self, "amplitudes", amp)


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
        The step count the distribution was measured at.
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

    def probability(self, x: int) -> float:
        """Probability at position ``x`` (0.0 for positions outside the window)."""
        hits = np.nonzero(self.positions == x)[0]
        return float(self.probs[hits[0]]) if hits.size else 0.0


def initial_state(alpha: complex, beta: complex, lattice: LatticeSpec) -> WalkerState:
    """Place the walker at the origin with coin state ``alpha |H> + beta |T>``.

    Parameters
    ----------
    alpha, beta : complex
        Coin amplitudes; must satisfy ``|alpha|^2 + |beta|^2 = 1`` within 1e-10.
    lattice : LatticeSpec
        The window to allocate.

    Raises
    ------
    ValueError
        If the coin state fails :func:`check_coin_state`.
    """
    alpha, beta = check_coin_state(alpha, beta)
    amp = np.zeros((2, lattice.size), dtype=np.complex128)
    amp[0, lattice.origin_index] = alpha
    amp[1, lattice.origin_index] = beta
    return WalkerState(amp, lattice, time=0)


def distribution(state: WalkerState) -> ProbabilityDistribution:
    """Measure the walker: the position distribution over the full stored window.

    Returns one entry per stored site, positions ``-(N+1) .. N+1`` — the guard
    sites are included and carry probability 0 for any state produced by at
    most ``N`` steps.
    """
    probs = np.sum(np.abs(state.amplitudes) ** 2, axis=0)
    return ProbabilityDistribution(state.lattice.positions, probs, time=state.time)
