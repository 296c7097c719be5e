"""Coin-position entanglement diagnostics.

The amplitude table of a walker state is a ``2 x n`` matrix, so its Schmidt
decomposition across the coin/position split has at most two terms.  The
squared singular values (the Schmidt weights) are the eigenvalues of the
``2 x 2`` Gram matrix ``A A^dagger``, filled from three inner products of the
two rows; no general factorization of the full ``2 x n`` table is needed, so
the cost is O(n).

For a normalized state the Schmidt weights sum to 1; their Shannon entropy
in bits is the entanglement entropy, ranging from 0 (product state) to 1
(maximally entangled coin).

``schmidt_spectrum`` and ``entanglement_entropy`` describe one state.
Two series describe a whole walk, t = 0..steps, and solve all its Gram
matrices in one batched eigenvalue call.  ``entanglement_series`` steps from
any start state and fills one Gram matrix per step over the whole table.
``origin_entanglement_series`` serves a walk from the origin: it takes the
Gram matrices from :func:`coinwalk.momentum._origin_grams`, one exact sum of
sines and cosines over the wavenumbers, several times faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolution import iter_steps
from .momentum import _origin_grams
from .state import WalkerState

__all__ = [
    "SchmidtSpectrum",
    "schmidt_spectrum",
    "entanglement_entropy",
    "entanglement_series",
    "origin_entanglement_series",
]

#: Relative rank cutoff: a Schmidt weight (squared singular value) at most
#: this times the largest does not count towards the rank.  The cutoff
#: compares weights because that is the resolution the Gram route has:
#: forming ``A A^dagger`` rounds the weights at machine epsilon, so an
#: exactly separable state shows a spurious second weight of about 1e-16
#: times the first (a spurious singular value of about 1e-8 times the
#: first).  In the weights, 1e-10 cleanly separates that noise from signal.
_RANK_TOL = 1e-10


def _gram(rows: np.ndarray) -> np.ndarray:
    """The Gram matrix ``rows @ rows^dagger`` of a ``(2, m)`` table."""
    head, tail = rows
    cross = np.vdot(head, tail)  # sum conj(head) * tail, the (1, 0) entry
    return np.array([[np.vdot(head, head), cross.conjugate()], [cross, np.vdot(tail, tail)]])


def _check_spectra(values: np.ndarray, ranks: np.ndarray) -> None:
    """ValueError unless each row of values is non-negative and descending and fits its rank."""
    if np.any(values < 0.0) or np.any(np.diff(values, axis=-1) > 0.0):
        raise ValueError("singular values must be non-negative and descending")
    bad = (ranks < 0) | (ranks > values.shape[-1])
    if np.any(bad):
        raise ValueError(f"rank {ranks[bad][0]} inconsistent with {values.shape[-1]} values")


def _spectra(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values, ranks and entropies (bits) of a stack of ``(2, 2)`` Gram matrices.

    The one home of the rank cutoff (weights above ``_RANK_TOL`` times the
    largest; rank 0 for the zero state) and of the rule that rank <= 1 has
    entropy exactly 0: rounding leaves a product state's single weight a few
    ulps off 1, which would otherwise read as an entropy of about 1e-16.
    """
    # eigvalsh is ascending and can return tiny negatives for a PSD matrix.
    weights = np.clip(np.linalg.eigvalsh(grams)[..., ::-1], 0.0, None)
    values = np.sqrt(weights)
    top = weights[..., :1]
    ranks = np.where(top[..., 0] > 0.0, np.count_nonzero(weights > _RANK_TOL * top, axis=-1), 0)
    squares = values**2
    logs = np.log2(squares, out=np.zeros_like(squares), where=squares > 0.0)
    entropies = np.where(ranks >= 2, -np.sum(squares * logs, axis=-1), 0.0)
    return values, ranks, entropies


def _series(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and entropies of a stack of Gram matrices."""
    values, ranks, entropies = _spectra(grams)
    _check_spectra(values, ranks)
    return ranks, entropies


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Singular values of the coin/position split of an amplitude table.

    Attributes
    ----------
    values : numpy.ndarray
        At most two non-negative singular values, descending; their squares
        sum to the state's total probability.
    rank : int
        Number of Schmidt terms that survive the relative cutoff
        ``_RANK_TOL``; 0 only for the zero state.
    """

    values: np.ndarray = field(repr=False)
    rank: int = 0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size > 2:
            raise ValueError(f"expected at most two singular values, got shape {v.shape}")
        _check_spectra(v, np.asarray(self.rank))
        object.__setattr__(self, "values", v)


def schmidt_spectrum(state: WalkerState) -> SchmidtSpectrum:
    """Schmidt singular values of the state across the coin/position split.

    Any walker state is accepted; normalization is not required (the squared
    values then sum to the state's total probability instead of 1).  The
    rank counts the weights (squared singular values) above 1e-10 times the
    largest, ``_RANK_TOL``; the zero state has rank 0.

    Returns
    -------
    SchmidtSpectrum
        Both singular values (descending) and the effective rank.
    """
    values, ranks, _ = _spectra(_gram(state.amplitudes))
    return SchmidtSpectrum(values, int(ranks))


def entanglement_entropy(state: WalkerState) -> float:
    """Entropy (in bits) of the Schmidt weights: ``-sum sigma^2 log2 sigma^2``.

    A state of Schmidt rank at most 1 (a product state, or the zero state)
    has entropy exactly 0: rounding leaves its single weight a few ulps off 1,
    which would otherwise read as an entropy of about 1e-16.  For a
    normalized state the result lies in [0, 1]; it is invariant under a
    global phase of the state.
    """
    _, _, entropy = _spectra(_gram(state.amplitudes))
    return float(entropy)


def entanglement_series(
    state: WalkerState, coin: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt ranks and entropies (bits) of the walk from ``state``, at t = 0..steps.

    Element ``t`` of each array equals ``schmidt_spectrum(s).rank`` and
    ``entanglement_entropy(s)`` of the state ``s`` after ``t`` steps, up to
    rounding in the entropy.  The walk runs once through
    :func:`~coinwalk.evolution.iter_steps`; each table adds one ``(2, 2)``
    Gram matrix, and one batched eigenvalue call solves them all at the end.

    Returns
    -------
    ranks : numpy.ndarray
        ``steps + 1`` integer Schmidt ranks (the cutoff of
        :func:`schmidt_spectrum`).
    entropies : numpy.ndarray
        ``steps + 1`` entropies, exactly 0 wherever the rank is at most 1.

    Raises
    ------
    ValueError, LatticeExhaustedError
        As :func:`~coinwalk.evolution.iter_steps`.
    """
    walk = iter_steps(state, coin, steps)  # checks the request before the first Gram matrix
    return _series(np.array([_gram(state.amplitudes), *map(_gram, walk)]))


def origin_entanglement_series(
    alpha: complex, beta: complex, coin: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt ranks and entropies (bits) of the walk from the origin, at t = 0..steps.

    The same series as :func:`entanglement_series` from
    ``initial_state(alpha, beta, ...)``: identical ranks, entropies within
    1e-12 and exactly 0 wherever the rank is at most 1.  The Gram matrices
    come from :func:`coinwalk.momentum._origin_grams`, without stepping.

    Raises
    ------
    ValueError
        As :func:`coinwalk.momentum.momentum_state`, before any array is built.
    """
    return _series(_origin_grams(alpha, beta, coin, steps))
