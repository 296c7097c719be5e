"""Coin-position entanglement diagnostics.

The amplitude table of a walker state is a ``2 x n`` matrix, so its Schmidt
decomposition across the coin/position split has at most two terms.  The two
singular values are obtained from the eigenvalues of the ``2 x 2`` Gram
matrix ``A A^dagger`` — never from a general factorization of the full
``2 x n`` table — which keeps the computation O(n).

For a normalized state the squared singular values are the Schmidt weights;
their Shannon entropy in bits is the entanglement entropy, ranging from 0
(product state) to 1 (maximally entangled coin).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .state import WalkerState

__all__ = [
    "SchmidtSpectrum",
    "schmidt_spectrum",
    "is_separable",
    "entanglement_entropy",
]

_DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Singular values of the coin/position split of an amplitude table.

    Attributes
    ----------
    values : numpy.ndarray
        At most two non-negative singular values, descending; their squares
        sum to the state's total probability.
    rank : int
        Number of Schmidt terms that survived the relative cutoff used at
        computation time; 0 only for the zero state.
    """

    values: np.ndarray = field(repr=False)
    rank: int = 0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size > 2:
            raise ValueError(f"expected at most two singular values, got shape {v.shape}")
        if v.size and (np.any(v < 0.0) or np.any(np.diff(v) > 0.0)):
            raise ValueError("singular values must be non-negative and descending")
        if not 0 <= self.rank <= v.size:
            raise ValueError(f"rank {self.rank} inconsistent with {v.size} values")
        object.__setattr__(self, "values", v)


def schmidt_spectrum(state: WalkerState, tol: float = _DEFAULT_RANK_TOL) -> SchmidtSpectrum:
    """Schmidt singular values of the state across the coin/position split.

    Parameters
    ----------
    state : WalkerState
        Any walker state (normalization is not required; the squared values
        then sum to the state's total probability instead of 1).
    tol : float, optional
        Relative rank cutoff, applied to the Schmidt weights: a weight
        (squared singular value) at most ``tol`` times the largest weight
        does not count towards the rank.  The zero state has rank 0.

        The cutoff compares squared values because that is the resolution the
        Gram route actually has: forming ``A A^dagger`` already rounds the
        weights at machine epsilon, so an exactly-separable state shows a
        spurious second weight of about 1e-16 times the first (a spurious
        *singular value* of about 1e-8 times the first).  A cutoff in the
        singular values themselves would have to sit above that square-root
        noise floor to be usable; in the weights, 1e-10 cleanly separates
        noise from signal.

    Returns
    -------
    SchmidtSpectrum
        Both singular values (descending) and the effective rank.
    """
    if tol < 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    a = state.amplitudes
    gram = a @ a.conj().T
    eigs = np.linalg.eigvalsh(gram)
    # eigvalsh is ascending and can return tiny negatives for a PSD matrix.
    weights = np.clip(eigs[::-1], 0.0, None)
    values = np.sqrt(weights)
    rank = int(np.count_nonzero(weights > tol * weights[0])) if weights[0] > 0.0 else 0
    return SchmidtSpectrum(values, rank)


def is_separable(state: WalkerState, tol: float = _DEFAULT_RANK_TOL) -> bool:
    """True iff the state is a coin-state/position-state product (rank <= 1).

    ``tol`` has the weight-domain semantics of :func:`schmidt_spectrum`.
    """
    return schmidt_spectrum(state, tol).rank <= 1


def entanglement_entropy(state: WalkerState) -> float:
    """Entropy (in bits) of the Schmidt weights: ``-sum sigma^2 log2 sigma^2``.

    A state of Schmidt rank at most 1 (a product state, or the zero state)
    has entropy exactly 0: rounding leaves its single weight a few ulps off 1,
    which would otherwise read as an entropy of about 1e-16.  For a
    normalized state the result lies in [0, 1]; it is invariant under a
    global phase of the state.
    """
    spectrum = schmidt_spectrum(state)
    if spectrum.rank < 2:
        return 0.0
    weights = spectrum.values**2
    return float(-np.sum(weights * np.log2(weights)))
