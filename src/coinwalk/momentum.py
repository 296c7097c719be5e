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
O(T * N) for the recurrence of :mod:`coinwalk.evolution` on a window of
half-width ``N >= T``.  ``M`` is the smallest 2-3-5-smooth size ``>= T+1``:
a prime length sends the FFT to a Bluestein transform several times slower,
and a power of two can pad the window to twice its size.

The same pieces give the coin's Gram matrix at every ``t = 0 .. T`` without
stepping (``_origin_grams``, the engine of
:func:`coinwalk.entanglement.origin_entanglement_series`): by Parseval it is
a sum over the wavenumbers of sines and cosines of ``2 t omega``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .coin import check_unitary
from .state import WalkerState, check_coin_state, check_steps

__all__ = ["momentum_state"]

#: Bytes of temporaries that one chunk of :func:`_trig_sums` may hold.
_CHUNK_BYTES = 128 * 1024


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


def _check_request(
    alpha: complex, beta: complex, coin: np.ndarray, steps: int
) -> tuple[complex, complex, np.ndarray, int]:
    """The checked ``(alpha, beta, coin, steps)``; ValueError as :func:`momentum_state` says."""
    alpha, beta = check_coin_state(alpha, beta)
    c = np.asarray(coin, dtype=np.complex128)
    if not check_unitary(c):
        raise ValueError("the momentum-space engine needs a unitary coin")
    return alpha, beta, c, check_steps(steps)


def _closed_form(
    alpha: complex, beta: complex, c: np.ndarray, m: int
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The SU(2) pieces of the closed form at the ``m`` wavenumbers ``q = 2 pi j / m``.

    Returns ``delta / 2``, ``u = e^{-iq/2}``, the ``(2, m)`` table
    ``(V - cos(omega) I) (alpha, beta)``, ``sin(omega)`` and ``omega``.
    """
    half_delta = cmath.phase(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) / 2.0
    c = c * cmath.exp(-1j * half_delta)  # C' in SU(2)
    angle = np.arange(m) * (-math.pi / m)
    u = np.empty(m, dtype=np.complex128)  # e^{-iq/2}
    np.cos(angle, out=u.real)
    np.sin(angle, out=u.imag)
    del angle
    # Rows of ``spec``: first the diagonal of V, then of V - cos(omega) I, and
    # at last (V - cos(omega) I) (alpha, beta).
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
    spec[0] *= alpha
    spec[0] += (c[0, 1] * beta) * u
    spec[1] *= beta
    spec[1] += (c[1, 0] * alpha) * u.conj()
    return half_delta, u, spec, sin_w, omega


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
        Number of steps (a non-negative integer).

    Returns
    -------
    WalkerState
        The state at ``time = steps`` on the window of half-width
        ``N = max(steps, 1)``, the window of a walk of that length.  Sites
        of the wrong parity hold exact zeros.

    Raises
    ------
    ValueError
        If the coin state is not normalized, the coin is not a unitary
        (2, 2) matrix, or ``steps`` is not a non-negative integer.
    """
    alpha, beta, c, steps = _check_request(alpha, beta, coin, steps)
    n = max(steps, 1)
    m = _fft_size(steps + 1)
    half_delta, u, spec, sin_w, omega = _closed_form(alpha, beta, c, m)
    # ratio = sin(T omega) / sin(omega), with the limit T cos((T-1) omega) where sin(omega) = 0.
    still = sin_w == 0.0
    limit = steps * np.cos((steps - 1) * omega[still])
    omega *= steps
    ratio = np.sin(omega)
    np.divide(ratio, sin_w, out=ratio, where=~still)
    ratio[still] = limit
    cos_tw = np.cos(omega, out=omega)
    del sin_w, still, limit

    # The closed form: U^T (alpha, beta) / s^T.
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

    amp = np.zeros((2, 2 * n + 1), dtype=np.complex128)
    # Position x = 2y - T sits at column x + N; y sits at (y - k) mod m of spec.
    start = n - steps
    k = steps // 2
    cols = amp[:, start : start + 2 * steps + 1 : 2]
    cols[:, :k] = spec[:, m - k :]
    cols[:, k:] = spec[:, : steps - k + 1]
    return WalkerState(amp, steps)


def _trig_sums(freq: np.ndarray, coef: np.ndarray, steps: int) -> np.ndarray:
    """``sum_j Im(coef_j) cos(t freq_j) + Re(coef_j) sin(t freq_j)`` at t = 0..steps.

    ``coef`` has one row per sum; the result has shape ``(rows, steps + 1)``.
    Each time is split as ``t = t0 + s`` with block starts ``t0`` and shifts
    ``0 <= s < b``, ``b`` about ``sqrt(3 (steps + 1))``.  Angle addition
    turns a row's sum into ``sum_j P_j(t0) cos(s f_j) + Q_j(t0) sin(s f_j)``
    with ``Q + iP = coef e^{i t0 f}``, so all block starts and shifts of a
    chunk of wavenumbers meet in one real matrix product.  Every cosine and
    sine is computed from its own angle, so rounding does not build up along
    t, and the chunks keep the temporaries within ``_CHUNK_BYTES``.
    """
    rows, m = coef.shape
    n = steps + 1
    block = math.isqrt(3 * n) + 1
    starts = np.arange(0, n, block, dtype=np.float64)
    shifts = np.arange(block, dtype=np.float64)
    sums = np.zeros((rows, starts.size, block))
    # Half the budget holds the shift table of a chunk of wavenumbers, half
    # what a chunk of block starts builds on it.
    width = max(1, _CHUNK_BYTES // 2 // (16 * block))
    height = max(1, _CHUNK_BYTES // 2 // ((8 + 16 + 16 * rows) * width + 8 * rows * block))
    for j in range(0, m, width):
        f = freq[j : j + width]
        table = np.empty((f.size, 2, block))  # rows sin(s f_j), cos(s f_j)
        np.multiply.outer(f, shifts, out=table[:, 1])
        np.sin(table[:, 1], out=table[:, 0])
        np.cos(table[:, 1], out=table[:, 1])
        table = table.reshape(2 * f.size, block)
        for k in range(0, starts.size, height):
            angle = np.multiply.outer(starts[k : k + height], f)
            turn = np.empty(angle.shape, dtype=np.complex128)  # e^{i t0 f}
            np.cos(angle, out=turn.real)
            np.sin(angle, out=turn.imag)
            del angle
            pq = coef[:, None, j : j + width] * turn  # Q + iP, as (Q, P) pairs of doubles
            del turn
            part = pq.view(np.float64).reshape(-1, 2 * f.size) @ table
            sums[:, k : k + height] += part.reshape(rows, -1, block)
    return sums.reshape(rows, -1)[:, :n]


def _origin_grams(alpha: complex, beta: complex, coin: np.ndarray, steps: int) -> np.ndarray:
    """Coin Gram matrices ``A A^dagger`` of the walk from the origin, at t = 0..steps.

    ``A`` is the ``(2, n)`` amplitude table after ``t`` steps, so the result,
    of shape ``(steps + 1, 2, 2)``, matches the Gram matrices that
    :func:`coinwalk.entanglement.entanglement_series` sums over the whole
    table, up to rounding.  By Parseval on the window of
    :func:`momentum_state`, ``G(t) = (1/M) sum_q phi phi^dagger`` with
    ``phi = V^t (alpha, beta)``: the phase ``s^t`` cancels.  With
    ``V^t psi = cos(t omega) psi + sin(t omega) w`` and
    ``w = (V - cos(omega) I) psi / sin(omega)`` (``w = 0`` where
    ``sin(omega) = 0``),

        G(t) = Abar + sum_q B_q cos(2 t omega_q) + C_q sin(2 t omega_q),

    ``Abar = (1/M) sum_q (psi psi^dagger + w w^dagger) / 2``,
    ``B_q = (psi psi^dagger - w w^dagger) / (2M)`` and
    ``C_q = (psi w^dagger + w psi^dagger) / (2M)``.  Three real sums carry
    ``G00``, ``Re G10`` and ``Im G10``; ``G11`` is the norm minus ``G00``.
    :func:`_trig_sums` evaluates them exactly, O(T^2) multiply-adds in real
    matrix products and O(T^1.5) sines and cosines.

    Raises
    ------
    ValueError
        As :func:`momentum_state`, before any array is built.
    """
    alpha, beta, c, steps = _check_request(alpha, beta, coin, steps)
    m = _fft_size(steps + 1)
    _, _, w, sin_w, omega = _closed_form(alpha, beta, c, m)
    np.divide(w, sin_w, out=w, where=sin_w > 0.0)  # where sin(omega) = 0, w is already 0
    del sin_w
    head, tail = w
    power = head.real**2 + head.imag**2  # |w0|^2
    cross = tail * head.conj()  # w1 conj(w0)
    mixed = beta * head.conj() + alpha.conjugate() * tail  # beta conj(w0) + w1 conj(alpha)
    rho00, rho10 = abs(alpha) ** 2, beta * alpha.conjugate()  # entries of psi psi^dagger
    g00 = (rho00 + np.mean(power)) / 2.0  # Abar
    g10 = (rho10 + np.mean(cross)) / 2.0
    # Rows: C + iB of G00, of Re G10 and of Im G10, times 2M.
    coef = np.empty((3, m), dtype=np.complex128)
    coef[0].real = 2.0 * (alpha.real * head.real + alpha.imag * head.imag)
    coef[0].imag = rho00 - power
    cross -= rho10
    coef[1].real = mixed.real
    coef[1].imag = -cross.real
    coef[2].real = mixed.imag
    coef[2].imag = -cross.imag
    del w, head, tail, power, cross, mixed
    coef /= 2 * m
    omega *= 2.0
    sums = _trig_sums(omega, coef, steps)
    del coef, omega

    g00 = g00 + sums[0]
    g10 = g10 + (sums[1] + 1j * sums[2])
    grams = np.empty((steps + 1, 2, 2), dtype=np.complex128)
    grams[:, 0, 0] = g00
    grams[:, 1, 0] = g10
    grams[:, 0, 1] = g10.conj()
    grams[:, 1, 1] = (rho00 + abs(beta) ** 2) - g00
    return grams
