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
``pi``.  It is exactly 0 only where ``V - cos(omega) I`` is exactly zero, so
the column that ``sin(T omega) / sin(omega)`` multiplies is exactly zero
there and the division is skipped.  The work is O(M log M) whatever the
coin, against O(T * N) for the recurrence of :mod:`coinwalk.evolution` on a
window of half-width ``N >= T``.  ``M`` is the smallest 2-3-5-smooth size
``>= T+1``: a prime length sends the FFT to a Bluestein transform several
times slower, and a power of two can pad the window to twice its size.

The closed form of ``K`` coins runs in one pass (``_states``, the engine of
:func:`coinwalk.analysis.theta_sweep`): the wavenumbers, the ``(K, 2, M)``
spectra, ``omega``, the ratio and one inverse FFT are shared, and only the
2x2 arithmetic of each coin is done coin by coin.  :func:`momentum_state`
is its one-coin case.

The same pieces give the coin's Gram matrix at every ``t = 0 .. T`` without
stepping, from any start table (``_grams``, the engine of
:func:`coinwalk.entanglement.entanglement_series`): each parity class of
the table is a walk from its own span in the label ``y``, and by Parseval
the Gram matrix is a sum over the wavenumbers of sines and cosines of
``2 t omega``, which one nonuniform FFT takes at all ``t`` at once.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .coin import _UNITARY_TOL, _unitarity_residual
from .state import check_amplitudes, check_coin_state, check_steps

__all__ = ["momentum_state"]

#: Grid points on either side of a wavenumber that :func:`_trig_sums` spreads
#: it onto.  Against the exact sums, for the Hadamard coin and three random
#: coins at 2000 to 2 * 10^4 steps, 16 kept the Gram matrices within 6e-14 and
#: 12 only within 1.1e-12, too close to the 1e-12 the entropies must meet.
_SPREAD = 16

#: Wavenumbers that :func:`_trig_sums` spreads at once.
_SPREAD_CHUNK = 512


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


def _check_coin(coin: np.ndarray) -> np.ndarray:
    """The coin as a complex array; ValueError unless it is a unitary (2, 2) matrix.

    The closed-form power holds only for a unitary step.
    """
    c, residual = _unitarity_residual(coin)
    if not residual <= _UNITARY_TOL:
        raise ValueError("the momentum-space engine needs a unitary coin")
    return c


def _closed_form(
    alpha: complex | np.ndarray,
    beta: complex | np.ndarray,
    coins: Sequence[np.ndarray],
    m: int,
) -> tuple[list[float], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The SU(2) pieces of the closed form of ``K`` coins at the wavenumbers ``q = 2 pi j / m``.

    Returns the ``K`` values ``delta / 2``, ``u = e^{-iq/2}``, the ``(K, 2, m)``
    tables ``(V - cos(omega) I) (alpha, beta)``, and ``sin(omega)`` and
    ``omega``, each ``(K, m)``.  ``alpha`` and ``beta`` are the coin state,
    or its transform at each wavenumber.  The 2x2 arithmetic of each coin is
    scalar; only the O(m) arrays hold all the coins.  Row ``k`` is the
    one-coin result bit for bit: every array operation is elementwise, on
    the operands of the one-coin case, with each coin's scalars broadcast
    along its row.
    """
    k = len(coins)
    half_deltas = []
    diag = np.empty((k, 2, 1), dtype=np.complex128)  # C'00 and C'11
    off = np.empty((k, 1))  # hypot(|C'01|, |C'10|)
    mixed = np.empty((k, 2, np.size(alpha)), dtype=np.complex128)  # C'01 beta and C'10 alpha
    for j, c in enumerate(coins):
        half_delta = cmath.phase(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) / 2.0
        c = c * cmath.exp(-1j * half_delta)  # C' in SU(2)
        half_deltas.append(half_delta)
        diag[j, :, 0] = c[0, 0], c[1, 1]
        off[j] = math.hypot(abs(c[0, 1]), abs(c[1, 0]))
        mixed[j, 0] = c[0, 1] * beta
        mixed[j, 1] = c[1, 0] * alpha
    angle = np.arange(m) * (-math.pi / m)
    u = np.empty(m, dtype=np.complex128)  # e^{-iq/2}
    np.cos(angle, out=u.real)
    np.sin(angle, out=u.imag)
    del angle
    # Rows of ``spec``: first the diagonal of V, then of V - cos(omega) I, and
    # at last (V - cos(omega) I) (alpha, beta).
    spec = np.empty((k, 2, m), dtype=np.complex128)
    np.multiply(diag[:, 0], u, out=spec[:, 0])
    np.multiply(diag[:, 1], u.conj(), out=spec[:, 1])
    cos_w = np.add(spec[:, 0].real, spec[:, 1].real)
    cos_w *= 0.5
    spec -= cos_w[:, None]
    # sin(omega) = ||V - cos(omega) I||_F / sqrt(2); the off-diagonal entries
    # have the constant moduli |C'01| and |C'10|.
    sin_w = np.hypot(np.abs(spec[:, 0]), np.abs(spec[:, 1]))
    np.hypot(sin_w, off, out=sin_w)
    sin_w *= math.sqrt(0.5)
    omega = np.arctan2(sin_w, cos_w)
    del cos_w
    spec[:, 0] *= alpha
    spec[:, 0] += mixed[:, 0] * u
    spec[:, 1] *= beta
    spec[:, 1] += mixed[:, 1] * u.conj()
    return half_deltas, u, spec, sin_w, omega


def _states(alpha: complex, beta: complex, coins: Sequence[np.ndarray], steps: int) -> np.ndarray:
    """The ``(K, 2, 2N + 1)`` tables of :func:`momentum_state` for each of ``K`` coins, in one pass.

    The wavenumbers, the spectra, ``omega``, the ratio and one inverse FFT
    are shared by the coins; row ``k`` is the one-coin table bit for bit
    (see :func:`_closed_form`).  Every input is checked, as
    :func:`momentum_state` documents, before any array is built.
    """
    alpha, beta = check_coin_state(alpha, beta)
    coins, steps = [_check_coin(coin) for coin in coins], check_steps(steps)
    n = max(steps, 1)
    m = _fft_size(steps + 1)
    half_deltas, u, spec, sin_w, omega = _closed_form(alpha, beta, coins, m)
    # ratio = sin(T omega) / sin(omega); where sin(omega) = 0, spec is already 0.
    omega *= steps
    ratio = np.sin(omega)
    np.divide(ratio, sin_w, out=ratio, where=sin_w > 0.0)
    cos_tw = np.cos(omega, out=omega)
    del sin_w

    # The closed form: U^T (alpha, beta) / s^T.
    spec *= ratio[:, None]
    spec[:, 0] += alpha * cos_tw
    spec[:, 1] += beta * cos_tw
    del ratio, cos_tw
    # s^T = e^{i T delta / 2} u^(T mod 2) e^{-i q k} with k = T // 2.  The last
    # factor is a cyclic shift by k sites, applied exactly when reading out.
    phases = np.array([cmath.exp(1j * steps * hd) for hd in half_deltas], dtype=np.complex128)
    phases = phases[:, None]
    spec *= (phases * u if steps % 2 else phases)[:, None]
    del u
    # No ``out=``: numpy 1.x lacks it, and the other arrays are freed by now.
    spec = np.fft.ifft(spec, axis=-1)

    amp = np.zeros((len(coins), 2, 2 * n + 1), dtype=np.complex128)
    # Position x = 2y - T sits at column x + N; y sits at (y - k) mod m of spec.
    start = n - steps
    k = steps // 2
    cols = amp[..., start : start + 2 * steps + 1 : 2]
    cols[..., :k] = spec[..., m - k :]
    cols[..., k:] = spec[..., : steps - k + 1]
    return amp


def momentum_state(alpha: complex, beta: complex, coin: np.ndarray, steps: int) -> np.ndarray:
    """The walker after ``steps`` steps from the origin with coin state ``alpha |H> + beta |T>``.

    Computed in momentum space (see the module docstring), so it costs
    O(T log T) and gives no intermediate times; for those, step with
    :func:`coinwalk.evolution.iter_steps`.

    Parameters
    ----------
    alpha, beta : complex
        Coin amplitudes; finite, with ``|alpha|^2 + |beta|^2 = 1`` within 1e-10.
    coin : numpy.ndarray
        The (2, 2) coin matrix; must be unitary within 1e-12, because the
        closed-form power holds only for a unitary step.
    steps : int
        Number of steps (a non-negative integer).

    Returns
    -------
    numpy.ndarray
        The complex ``(2, 2N + 1)`` amplitude table after ``steps`` steps on
        the window of half-width ``N = max(steps, 1)``, the window of a walk
        of that length.  Sites of the wrong parity hold exact zeros.

    Raises
    ------
    ValueError
        If the coin state is not normalized, the coin is not a unitary
        (2, 2) matrix, or ``steps`` is not a non-negative integer.
    """
    return _states(alpha, beta, [coin], steps)[0]


def _trig_sums(freq: np.ndarray, coef: np.ndarray, steps: int) -> np.ndarray:
    """``sum_j Im(coef_j e^{i t freq_j})`` at t = 0..steps, by a type-1 nonuniform FFT.

    ``coef`` has one row per sum; the result has shape ``(rows, steps + 1)``.
    Gaussian gridding (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1368 (1993);
    Greengard & Lee, SIAM Rev. 46, 443 (2004)): with ``t = k + h``,
    ``h = steps // 2``, each row is ``F(k) = sum_j c_j e^{i k f_j}`` with
    ``c = coef e^{i h f}`` and ``|k| <= (steps + 1) / 2``.  Each wavenumber is
    spread onto ``_SPREAD`` points on either side of ``f_j`` on a cyclic grid
    of ``mr`` points at least twice the number of modes, with the Gaussian
    ``exp(-d^2 / 4 tau)``; one inverse FFT of the grid and the factor
    ``sqrt(pi / tau) e^{k^2 tau}`` undo the convolution.  ``tau`` is set
    from the grid actually used, so the kernel's tail beyond the spread
    stays below 1e-16 for every ``steps``.  The wavenumbers are sorted by
    frequency and spread ``_SPREAD_CHUNK`` at a time onto the chunk's own
    range of cells, so the temporaries stay small whatever ``steps``.
    """
    rows = coef.shape[0]
    sp = _SPREAD
    h = steps // 2
    mr = _fft_size(2 * (steps + 1) + 2 * sp)
    tau = math.pi * sp * 2.0 / (mr * mr * 1.5)  # oversampling R = 2: R / (R - 1/2) = 4/3
    spread = (2.0 * math.pi / mr) ** 2 / (4.0 * tau)  # the exponent per squared cell
    order = np.argsort(freq)
    pos = freq[order] * (mr / (2.0 * math.pi))
    c = coef[:, order]
    cell = np.minimum(pos.astype(np.intp), mr - 1)
    pos -= cell  # the offset in [0, 1] of each wavenumber from its cell
    # e^{i h f} from the grid position itself, with the whole turns of
    # h * cell dropped exactly: at t = 0 every term is in phase, so the
    # rounding of h * f would not average out there.
    c *= np.exp(1j * (2.0 * math.pi / mr) * ((h * cell) % mr + h * pos))
    # Cells -sp .. mr + sp - 1 sit at columns 0 .. mr + 2 sp - 1.
    grid = np.zeros((rows, mr + 2 * sp), dtype=np.complex128)
    for j in range(0, pos.size, _SPREAD_CHUNK):
        cells = cell[j : j + _SPREAD_CHUNK]
        first = cells[0]
        width = cells[-1] - first + 2 * sp
        index = ((cells - first)[:, None] + np.arange(2 * sp)).ravel()
        weight = np.exp(-spread * (np.arange(1 - sp, sp + 1) - pos[j : j + _SPREAD_CHUNK, None]) ** 2)
        span = slice(first + 1, first + 1 + width)
        for r in range(rows):
            part = c[r, j : j + _SPREAD_CHUNK, None]
            grid[r, span].real += np.bincount(index, (weight * part.real).ravel(), width)
            grid[r, span].imag += np.bincount(index, (weight * part.imag).ravel(), width)
    del order, pos, c, cell
    grid[:, mr : mr + sp] += grid[:, :sp]
    grid[:, sp : 2 * sp] += grid[:, mr + sp :]
    sums = np.empty((rows, steps + 1))
    for r in range(rows):  # one row at a time keeps one spectrum alive
        sums[r] = np.roll(np.fft.ifft(grid[r, sp : sp + mr]), h)[: steps + 1].imag  # k = t - h
    sums *= math.sqrt(math.pi / tau) * np.exp(tau * np.arange(-h, steps - h + 1) ** 2)
    return sums


def _grams(amplitudes: np.ndarray, coin: np.ndarray, steps: int) -> np.ndarray:
    """Coin Gram matrices ``A A^dagger`` of the walk from a table, at t = 0..steps.

    ``A`` is the ``(2, n)`` table after ``t`` steps of the walk on the
    infinite line, so the result, of shape ``(steps + 1, 2, 2)``, matches the
    Gram matrices of the recurrence on any window the walk never leaves, up
    to rounding.  The two parity classes of the table (columns ``0::2`` and
    ``1::2``) never meet, and each is a walk from its own occupied span, in
    the label ``y = (x + t - x0) / 2`` of :func:`momentum_state` with ``x0``
    the span's first site.  A span of ``s`` sites reaches ``s + T`` labels,
    so on ``M >= s + T`` wavenumbers, ``s`` the wider span, the transform
    ``psi(q)`` of each span (one FFT) never wraps.  By Parseval
    ``G(t) = (1/M) sum_q phi phi^dagger`` summed over the classes, with
    ``phi = V^t psi``: the phase ``s^t`` cancels.  With
    ``V^t psi = cos(t omega) psi + sin(t omega) w`` and
    ``w = (V - cos(omega) I) psi / sin(omega)`` (``w = 0`` where
    ``sin(omega) = 0``),

        G(t) = Abar + sum_q B_q cos(2 t omega_q) + C_q sin(2 t omega_q),

    ``Abar = (1/M) sum_q (psi psi^dagger + w w^dagger) / 2``,
    ``B_q = (psi psi^dagger - w w^dagger) / (2M)`` and
    ``C_q = (psi w^dagger + w psi^dagger) / (2M)``, each summed over the
    classes: ``omega_q`` is the same for both, so their terms add.  Three
    real sums carry ``G00``, ``Re G10`` and ``Im G10``; ``G11`` is the norm
    minus ``G00``.  :func:`_trig_sums` evaluates them at every t by one
    nonuniform FFT, in O((s + T) log(s + T)) and within 1e-13 of the exact
    sums.  A walker at the origin is one class of one site, on ``T + 1``
    wavenumbers.  Overflow is left to the caller's spectrum check: a table
    near the float maximum gives non-finite Gram matrices.

    Raises
    ------
    ValueError
        If ``amplitudes`` is not a finite ``(2, 2N + 1)`` table, the coin is
        not a unitary (2, 2) matrix or ``steps`` is not a non-negative
        integer, before any array is built.
    """
    amp, c, steps = check_amplitudes(amplitudes), _check_coin(coin), check_steps(steps)
    spans = []
    for rows in (amp[:, 0::2], amp[:, 1::2]):
        occupied = np.flatnonzero(np.any(rows != 0, axis=0))
        if occupied.size:
            spans.append(rows[:, occupied[0] : occupied[-1] + 1])
    spans = spans or [amp[:, :1]]  # the zero table walks as one empty site
    m = _fft_size(max(span.shape[1] for span in spans) + steps)
    # Rows: C + iB of G00, of Re G10 and of Im G10, times 2M.
    coef = np.zeros((3, m), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        # By Parseval the mean of psi psi^dagger over q is the table's Gram matrix G(0).
        gram0 = amp @ amp.conj().T
        g00, g10 = gram0[0, 0].real / 2.0, gram0[1, 0] / 2.0  # Abar
        for span in spans:
            alpha, beta = np.fft.fft(span, m, axis=1)
            _, _, (w,), (sin_w,), (omega,) = _closed_form(alpha, beta, [c], m)
            np.divide(w, sin_w, out=w, where=sin_w > 0.0)  # where sin(omega) = 0, w is already 0
            head, tail = w
            power = head.real**2 + head.imag**2  # |w0|^2
            cross = tail * head.conj()  # w1 conj(w0)
            mixed = beta * head.conj() + alpha.conj() * tail  # beta conj(w0) + w1 conj(alpha)
            rho00, rho10 = alpha.real**2 + alpha.imag**2, beta * alpha.conj()  # psi psi^dagger
            g00 += np.mean(power) / 2.0
            g10 += np.mean(cross) / 2.0
            coef[0].real += 2.0 * (alpha.real * head.real + alpha.imag * head.imag)
            coef[0].imag += rho00 - power
            cross -= rho10
            coef[1].real += mixed.real
            coef[1].imag -= cross.real
            coef[2].real += mixed.imag
            coef[2].imag -= cross.imag
        del alpha, beta, w, sin_w, head, tail, power, cross, mixed, rho00, rho10
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
        grams[:, 1, 1] = (gram0[0, 0].real + gram0[1, 1].real) - g00
    return grams
