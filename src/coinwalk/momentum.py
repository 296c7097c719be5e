"""Momentum-space engine: the state after ``T`` steps from the origin in one FFT.

The walk is translation invariant, so in momentum space one step is a 2x2
matrix per wavenumber (Nayak & Vishwanath, quant-ph/0010117).  From the
origin, after ``t`` steps only the sites ``x = t (mod 2)`` can be occupied.
In the label ``y = (x + t) / 2``, the number of head moves so far, a head
step moves ``y`` by one and a tail step leaves it where it is, so with
``psi_hat(q) = sum_y psi_y e^{-iqy}`` one step is

    U(q) = diag(e^{-iq}, 1) C.

After ``T`` steps ``y`` runs over ``0 .. T``: a cyclic window of ``M >= T+1``
sites never wraps, and the amplitudes are one inverse FFT of
``U(q)^T (alpha, beta)`` at ``q = 2 pi j / M``.

The power has a closed form.  Write ``det C = e^{i delta}`` and
``s = e^{i (delta - q) / 2}``, a square root of ``det U``.  Then
``V = U / s = diag(u, conj(u)) C'`` with ``u = e^{-iq/2}`` and
``C' = e^{-i delta/2} C`` lies in SU(2), its eigenvalues are
``e^{+-i omega}`` with ``cos omega = Re tr V / 2``, and

    U^T = s^T [cos(T omega) I + sin(T omega) / sin(omega) (V - cos(omega) I)].

``sin omega`` is taken as ``||V - cos(omega) I||_F / sqrt(2)``, not as
``sqrt(1 - cos^2 omega)``, which loses all precision near ``omega = 0`` or
``pi``; where it is exactly 0 the ratio takes its limit
``T cos((T-1) omega)``.  The work is O(M log M) whatever the coin, against
O(T^2) for the recurrence of :mod:`coinwalk.evolution`.  ``M`` is the
smallest 2-3-5-smooth size ``>= T+1``: a prime length sends the FFT to a
Bluestein transform several times slower, and a power of two can pad the
window to twice its size.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .coin import check_unitary
from .state import LatticeSpec, WalkerState, check_coin_state

__all__ = ["momentum_state"]


def _fft_size(n: int) -> int:
    """The smallest integer ``>= n`` (``n >= 1``) with no prime factor above 5."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # The smallest power of two that takes ``odd`` up to ``n``.
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def momentum_state(alpha: complex, beta: complex, coin: np.ndarray, steps: int) -> WalkerState:
    """The walker after ``steps`` steps from the origin with coin state ``alpha |H> + beta |T>``.

    Computed in momentum space (see the module docstring), so it costs
    O(T log T) and gives no intermediate times; for those, step with
    :func:`coinwalk.evolution.iter_steps`.

    Parameters
    ----------
    alpha, beta : complex
        Coin amplitudes; must pass :func:`coinwalk.state.check_coin_state`.
    coin : numpy.ndarray
        The (2, 2) coin matrix; must be unitary within 1e-12, because the
        closed-form power holds only for a unitary step.
    steps : int
        Number of steps (non-negative).

    Returns
    -------
    WalkerState
        The state at ``time = steps`` on ``LatticeSpec(max(steps, 1))``, the
        lattice of a walk of that length.  Sites of the wrong parity and the
        guard columns hold exact zeros.

    Raises
    ------
    ValueError
        If the coin state is not normalized, the coin is not a unitary
        (2, 2) matrix, or ``steps`` is negative.
    """
    alpha, beta = check_coin_state(alpha, beta)
    c = np.asarray(coin, dtype=np.complex128)
    if not check_unitary(c):
        raise ValueError("the momentum-space engine needs a unitary coin")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    lattice = LatticeSpec(max(steps, 1))
    m = _fft_size(steps + 1)

    half_delta = cmath.phase(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) / 2.0
    c = c * cmath.exp(-1j * half_delta)  # C' in SU(2)
    angle = np.arange(m) * (-math.pi / m)
    u = np.empty(m, dtype=np.complex128)  # e^{-iq/2}
    np.cos(angle, out=u.real)
    np.sin(angle, out=u.imag)
    del angle
    # Rows of ``spec``: first the diagonal of V, then of V - cos(omega) I, and
    # at last the spectrum U^T (alpha, beta).
    spec = np.empty((2, m), dtype=np.complex128)
    np.multiply(c[0, 0], u, out=spec[0])
    np.multiply(c[1, 1], u.conj(), out=spec[1])
    cos_w = np.add(spec[0].real, spec[1].real)
    cos_w *= 0.5
    spec -= cos_w
    # sin(omega) = ||V - cos(omega) I||_F / sqrt(2); the off-diagonal entries
    # have the constant moduli |C'01| and |C'10|.
    sin_w = np.hypot(np.abs(spec[0]), np.abs(spec[1]))
    np.hypot(sin_w, math.hypot(abs(c[0, 1]), abs(c[1, 0])), out=sin_w)
    sin_w *= math.sqrt(0.5)
    omega = np.arctan2(sin_w, cos_w)
    del cos_w
    # ratio = sin(T omega) / sin(omega), with the limit T cos((T-1) omega) where sin(omega) = 0.
    still = sin_w == 0.0
    limit = steps * np.cos((steps - 1) * omega[still])
    omega *= steps
    ratio = np.sin(omega)
    np.divide(ratio, sin_w, out=ratio, where=~still)
    ratio[still] = limit
    cos_tw = np.cos(omega, out=omega)
    del sin_w, still, limit

    # (V - cos(omega) I) (alpha, beta), then the closed form.
    spec[0] *= alpha
    spec[0] += (c[0, 1] * beta) * u
    spec[1] *= beta
    spec[1] += (c[1, 0] * alpha) * u.conj()
    spec *= ratio
    spec[0] += alpha * cos_tw
    spec[1] += beta * cos_tw
    del ratio, cos_tw
    # s^T = e^{i T delta / 2} u^(T mod 2) e^{-i q k} with k = T // 2.  The last
    # factor is a cyclic shift by k sites, applied exactly when reading out.
    spec *= cmath.exp(1j * steps * half_delta) * (u if steps % 2 else 1.0)
    del u
    # No ``out=``: numpy 1.x lacks it, and the other arrays are freed by now.
    spec = np.fft.ifft(spec, axis=1)

    amp = np.zeros((2, lattice.size), dtype=np.complex128)
    # Position x = 2y - T sits at column x + N + 1; y sits at (y - k) mod m of spec.
    start = lattice.origin_index - steps
    k = steps // 2
    cols = amp[:, start : start + 2 * steps + 1 : 2]
    cols[:, :k] = spec[:, m - k :]
    cols[:, k:] = spec[:, : steps - k + 1]
    return WalkerState(amp, lattice, steps)
