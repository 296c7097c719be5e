"""Coin operators for the one-dimensional discrete-time quantum walk.

The internal coin space is spanned by the two classical outcomes |H> (head)
and |T> (tail); matrices act on column vectors (a_H, a_T)^T, so row/column
index 0 is the head component and index 1 is the tail component.

The general coin is a three-parameter unitary

    C(theta, phi1, phi2) = [[ cos(theta),              e^{i phi1} sin(theta) ],
                            [ e^{i phi2} sin(theta),  -e^{i (phi1+phi2)} cos(theta) ]]

with the angles used as given: the formula has period 2*pi in each, and no
reduction into a smaller range happens (phi1 -> phi1 + pi is a different
coin).  All angles are in radians; degree conversion is a concern of the
command-line layer only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CoinParams",
    "NAMED_COINS",
    "make_coin",
    "named_coin",
    "check_unitary",
]

#: Largest entry of ``M^dagger M - I`` that :func:`check_unitary` and the
#: momentum-space engine accept.
_UNITARY_TOL = 1e-12


#: Parameter triples (theta, phi1, phi2) of the coins referred to by name.
NAMED_COINS: dict[str, tuple[float, float, float]] = {
    "hadamard": (math.pi / 4.0, 0.0, 0.0),
    "grover": (math.pi / 2.0, 0.0, 0.0),
    "fourier": (math.pi / 4.0, math.pi / 2.0, math.pi / 2.0),
}


@dataclass(frozen=True)
class CoinParams:
    """Angle triple defining a coin operator.

    Parameters
    ----------
    theta : float
        Rotation angle in radians, kept as given.  ``theta + pi`` only flips
        the sign of the coin, a global phase.
    phi1, phi2 : float
        Phase angles in radians, kept as given.  ``phi1 + pi`` is not the
        same coin: it flips the sign of the start state's relative phase,
        which mirrors the walk from the unbiased start.

    Raises
    ------
    ValueError
        If any angle is NaN or infinite.
    """

    theta: float
    phi1: float
    phi2: float

    def __post_init__(self) -> None:
        for name in ("theta", "phi1", "phi2"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"coin angle {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_degrees(
        cls, theta_deg: float, phi1_deg: float = 0.0, phi2_deg: float = 0.0
    ) -> "CoinParams":
        """Build a parameter triple from angles given in degrees."""
        return cls(math.radians(theta_deg), math.radians(phi1_deg), math.radians(phi2_deg))


def make_coin(params: CoinParams) -> np.ndarray:
    """Return the 2x2 complex coin matrix for an angle triple.

    Parameters
    ----------
    params : CoinParams
        The angle triple (finite by construction).

    Returns
    -------
    numpy.ndarray
        Complex (2, 2) array, unitary to machine precision, with entries

        ``[[cos(theta), e^{i phi1} sin(theta)],
           [e^{i phi2} sin(theta), -e^{i (phi1+phi2)} cos(theta)]]``.
    """
    return _coins([params.theta], params.phi1, params.phi2)[0]


def _coins(thetas: Sequence[float] | np.ndarray, phi1: float, phi2: float) -> np.ndarray:
    """The ``(K, 2, 2)`` stack of the coins ``C(thetas[k], phi1, phi2)``, all angles finite.

    One pass: ``math.cos`` and ``math.sin`` of each angle, and the three
    phase factors once.  :func:`make_coin` is its one-angle case, so a coin
    has the same bits whether it is built alone or in a stack.
    """
    angles = np.asarray(thetas, dtype=np.float64).tolist()
    cos = np.array([math.cos(theta) for theta in angles])
    sin = np.array([math.sin(theta) for theta in angles])
    coins = np.empty((len(angles), 2, 2), dtype=np.complex128)
    coins[:, 0, 0] = cos
    coins[:, 0, 1] = np.exp(1j * phi1) * sin
    coins[:, 1, 0] = np.exp(1j * phi2) * sin
    coins[:, 1, 1] = -np.exp(1j * (phi1 + phi2)) * cos
    return coins


def named_coin(name: str) -> CoinParams:
    """Look up the angle triple of a coin referred to by name.

    Parameters
    ----------
    name : str
        One of ``"hadamard"`` (theta=45deg), ``"grover"`` (theta=90deg) or
        ``"fourier"`` (theta=45deg, phi1=phi2=90deg).  Case-insensitive.

    Raises
    ------
    ValueError
        If the name is unknown; the message lists the valid options.
    """
    key = name.lower()
    if key not in NAMED_COINS:
        options = ", ".join(sorted(NAMED_COINS))
        raise ValueError(f"unknown coin name {name!r}; valid names are: {options}")
    return CoinParams(*NAMED_COINS[key])


def check_coin_matrix(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` as a complex array; ValueError unless it is (2, 2) with finite entries."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"coin must be a (2, 2) matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"coin entries must be finite, got {m.tolist()}")
    return m


def _unitarity_residuals(coins: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The ``K`` coins, each checked (see :func:`check_coin_matrix`), and ``max |M^dagger M - I|`` of each.

    The coins are checked and their residuals computed in one pass over
    their ``(K, 2, 2)`` stack; a coin that fails is refused with its own
    message.  Finite entries can still overflow the product: a residual is
    then inf or NaN, without a NumPy warning.  NaN fails every comparison,
    so callers test ``not residual <= tol``.
    """
    stack = np.asarray(coins, dtype=np.complex128)
    if stack.shape[1:] != (2, 2) or not np.all(np.isfinite(stack)):
        for coin in coins:  # the first coin that fails raises
            check_coin_matrix(coin)
    stack = stack.reshape(-1, 2, 2)  # an empty list of coins gives shape (0,)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = stack.conj().transpose(0, 2, 1) @ stack
        residuals = np.max(np.abs(gram - np.eye(2)), axis=(1, 2))
    return stack, residuals


def _unitarity_residual(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """The checked coin and ``max |M^dagger M - I|``: :func:`_unitarity_residuals` of one coin."""
    (m,), (residual,) = _unitarity_residuals([matrix])
    return m, float(residual)


def check_unitary(matrix: np.ndarray) -> bool:
    """True iff a (2, 2) matrix is unitary: no entry of ``M^dagger M - I`` exceeds 1e-12.

    Raises ValueError unless the shape is (2, 2) and every entry is finite.
    """
    return _unitarity_residual(matrix)[1] <= _UNITARY_TOL
