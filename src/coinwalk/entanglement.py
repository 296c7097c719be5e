"""Coin-position entanglement diagnostics.

The ``(2, 2N + 1)`` amplitude table of a walker state is a ``2 x n``
matrix, so its Schmidt decomposition across the coin/position split has at
most two terms.  The squared singular values (the Schmidt weights) are the
eigenvalues of the ``2 x 2`` Gram matrix ``A A^dagger``, filled from three
inner products of the two rows; no general factorization of the full
``2 x n`` table is needed, so the cost is O(n).

For a normalized state the Schmidt weights sum to 1; their Shannon entropy
in bits is the entanglement entropy, ranging from 0 (product state) to 1
(maximally entangled coin).

``schmidt_spectrum`` and ``entanglement_entropy`` describe one state.
``entanglement_series`` describes a whole walk from any start table,
t = 0..steps, without stepping it: it takes the Gram matrices from
:func:`coinwalk.momentum._grams`, sums of sines and cosines over the
wavenumbers taken at every t by one nonuniform FFT, within 1e-13 of the
exact sums.  Every spectrum, of one state or of a whole series, comes from
the eigenvalues of its ``2 x 2`` Gram matrix in closed form.
"""

from __future__ import annotations

import numpy as np

from .momentum import _grams
from .state import check_amplitudes

__all__ = [
    "schmidt_spectrum",
    "entanglement_entropy",
    "entanglement_series",
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


#: The refusal of a spectrum.  A finite table of amplitudes near 1e154
#: overflows its Gram matrix and gets it; so does one near 1e153, whose
#: weights are finite but whose entropy terms overflow.
_BAD_SPECTRUM = "singular values must be finite, non-negative and descending"


def _check_spectra(values: np.ndarray) -> None:
    """ValueError unless each row of values is finite, non-negative and descending.

    NaN fails both order comparisons, so finiteness is tested by name: a
    finite table of amplitudes near 1e200 overflows its Gram matrix and
    leaves NaN values.
    """
    finite = np.all(np.isfinite(values))
    if not finite or np.any(values < 0.0) or np.any(np.diff(values, axis=-1) > 0.0):
        raise ValueError(_BAD_SPECTRUM)


def _spectra(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt weights (squared singular values) and ranks of a stack of ``(2, 2)`` Gram matrices.

    The weights are the eigenvalues of each Hermitian PSD matrix in closed
    form, ``m +- r`` with ``m = (G00 + G11) / 2`` and
    ``r = hypot((G00 - G11) / 2, |G10|)``, within a few ulps of the trace.
    The diagonal is halved before it is added, so ``m`` overflows only where
    the first weight does, and rounding that leaves the second weight below
    0 is floored there.  The weights pass :func:`_check_spectra`.  The one
    home of the rank cutoff: weights above ``_RANK_TOL`` times the largest,
    and rank 0 for the zero state.
    """
    g00, g11 = grams[..., 0, 0].real / 2.0, grams[..., 1, 1].real / 2.0
    # An overflowing Gram matrix leaves inf or NaN weights, which
    # _check_spectra refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = g00 + g11
        radius = np.hypot(g00 - g11, np.abs(grams[..., 1, 0]))
        weights = np.stack([mean + radius, np.maximum(mean - radius, 0.0)], axis=-1)
    top = weights[..., :1]
    ranks = np.where(top[..., 0] > 0.0, np.count_nonzero(weights > _RANK_TOL * top, axis=-1), 0)
    _check_spectra(weights)
    return weights, ranks


def _entropies(weights: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Entropies in bits, ``-sum w log2 w``, of the weights and ranks of :func:`_spectra`.

    The one home of the rule that rank <= 1 has entropy exactly 0: rounding
    leaves a product state's single weight a few ulps off 1, which would
    otherwise read as an entropy of about 1e-16.  ValueError (the message of
    an overflowing Gram matrix) where a term ``w log2 w`` overflows, for
    weights above about 1e305.
    """
    logs = np.log2(weights, out=np.zeros_like(weights), where=weights > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        entropies = np.where(ranks >= 2, -np.sum(weights * logs, axis=-1), 0.0)
    if not np.all(np.isfinite(entropies)):
        raise ValueError(_BAD_SPECTRUM)
    return entropies


def schmidt_spectrum(amplitudes: np.ndarray) -> tuple[np.ndarray, int]:
    """Schmidt singular values of an amplitude table across the coin/position split.

    Any finite ``(2, 2N + 1)`` table is accepted; normalization is not
    required (the squared values then sum to the table's total probability
    instead of 1).  The rank counts the weights (squared singular values)
    above 1e-10 times the largest, ``_RANK_TOL``; the zero state has rank 0.

    Returns
    -------
    values : numpy.ndarray
        Both singular values, non-negative and descending.
    rank : int
        The number of Schmidt terms that survive the cutoff: 0, 1 or 2.

    Raises
    ------
    ValueError
        If ``amplitudes`` is not a finite ``(2, 2N + 1)`` table, or its Gram
        matrix overflows (entries near the square root of the float maximum).
    """
    weights, rank = _spectra(_gram(check_amplitudes(amplitudes)))
    return np.sqrt(weights), int(rank)


def entanglement_entropy(amplitudes: np.ndarray) -> float:
    """Entropy (in bits) of the Schmidt weights: ``-sum sigma^2 log2 sigma^2``.

    A state of Schmidt rank at most 1 (a product state, or the zero state)
    has entropy exactly 0: rounding leaves its single weight a few ulps off 1,
    which would otherwise read as an entropy of about 1e-16.  For a
    normalized table the result lies in [0, 1]; it is invariant under a
    global phase of the table.

    Raises
    ------
    ValueError
        As :func:`schmidt_spectrum`, and with its message where a Schmidt
        weight passes about 1e305, so that ``w log2 w`` overflows (amplitudes
        near 1e153).
    """
    return float(_entropies(*_spectra(_gram(check_amplitudes(amplitudes)))))


def entanglement_series(
    amplitudes: np.ndarray, coin: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt ranks and entropies (bits) of the walk from a table, at t = 0..steps.

    The walk is that of the infinite line: element ``t`` of each array equals
    the rank of ``schmidt_spectrum(a)`` and ``entanglement_entropy(a)`` of
    the table ``a`` after ``t`` steps of
    :func:`~coinwalk.evolution.iter_steps` on any window the walk never
    leaves, with identical ranks and entropies within 1e-12.  No window is
    needed, so a walk that would leave the table's own window is not
    refused.  The Gram matrices come from
    :func:`coinwalk.momentum._grams`, sums of sines and cosines over the
    wavenumbers taken at every t by one nonuniform FFT, without stepping, in
    O((s + T) log(s + T)) for a table whose occupied sites span ``s``
    columns.

    Returns
    -------
    ranks : numpy.ndarray
        ``steps + 1`` integer Schmidt ranks (the cutoff of
        :func:`schmidt_spectrum`); 0 at every t for the zero table.
    entropies : numpy.ndarray
        ``steps + 1`` entropies, exactly 0 wherever the rank is at most 1.

    Raises
    ------
    ValueError
        If ``amplitudes`` is not a finite ``(2, 2N + 1)`` table, the coin is
        not a unitary (2, 2) matrix (the momentum-space engine needs one) or
        ``steps`` is not a non-negative integer, before any array is built;
        also as :func:`entanglement_entropy` when a Gram matrix or an
        entropy term overflows.
    """
    weights, ranks = _spectra(_grams(amplitudes, coin, steps))
    return ranks, _entropies(weights, ranks)
