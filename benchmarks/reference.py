"""Independent momentum-space reference for the one-dimensional coined walk.

The walk is translation invariant, so in momentum space one step is a 2x2
matrix per wavenumber (Nayak & Vishwanath, quant-ph/0010117):

    U(k) = diag(e^{-ik}, e^{ik}) . C

Heads move right, which multiplies the head component by e^{-ik} under the
transform psi_hat(k) = sum_x psi_x e^{-ikx}.  A walker that starts at the
origin has psi_hat(k) = (alpha, beta) for every k, so after T steps

    psi_x(T) = IFFT_k [ U(k)^T (alpha, beta) ]

on a cyclic window of M = 2T+1 sites.  Positions -T..T are 2T+1 distinct
residues mod M, so the cyclic window is exact for the infinite line.  U(k)^T
is taken by repeated squaring: O(M log T) work, whatever the walk looks like.

This module uses numpy only and imports nothing from coinwalk; it is the
yardstick the benchmark checks the program's outputs against.  The coin is
built here from the README formula, with angles in degrees inside the
canonical ranges (theta in [0, 360), phases in [0, 180)), where the program's
angle normalisation is the identity.
"""

from __future__ import annotations

import math

import numpy as np

#: Head/tail amplitudes of the program's default ``unbiased`` start state.
UNBIASED = (1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0))


def coin_matrix(theta_deg: float, phi1_deg: float = 0.0, phi2_deg: float = 0.0) -> np.ndarray:
    """The 2x2 coin ``[[c, e^{i phi1} s], [e^{i phi2} s, -e^{i(phi1+phi2)} c]]``."""
    theta, phi1, phi2 = (math.radians(a) for a in (theta_deg, phi1_deg, phi2_deg))
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c, complex(math.cos(phi1), math.sin(phi1)) * s],
            [complex(math.cos(phi2), math.sin(phi2)) * s,
             -complex(math.cos(phi1 + phi2), math.sin(phi1 + phi2)) * c],
        ],
        dtype=np.complex128,
    )


def amplitudes(coin: np.ndarray, steps: int, init: tuple[complex, complex] = UNBIASED) -> np.ndarray:
    """Amplitude table after ``steps`` steps from the origin.

    Returns a complex ``(2, 2*steps+1)`` array: row 0 heads, row 1 tails,
    columns ordered by position ``-steps .. steps``.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    m = 2 * steps + 1
    k = 2.0 * math.pi * np.arange(m) / m
    phases = np.stack([np.exp(-1j * k), np.exp(1j * k)], axis=-1)  # (m, 2)
    base = phases[:, :, None] * np.asarray(coin, dtype=np.complex128)[None, :, :]
    power = np.broadcast_to(np.eye(2, dtype=np.complex128), (m, 2, 2)).copy()
    t = steps
    while t:
        if t & 1:
            power = base @ power
        t >>= 1
        if t:
            base = base @ base
    psi_hat = power @ np.array(init, dtype=np.complex128)  # (m, 2)
    psi = np.fft.ifft(psi_hat, axis=0)  # row j holds position j (mod m)
    return np.roll(psi, steps, axis=0).T


def probabilities(coin: np.ndarray, steps: int, init: tuple[complex, complex] = UNBIASED) -> np.ndarray:
    """Position probabilities over ``-steps .. steps``."""
    return np.sum(np.abs(amplitudes(coin, steps, init)) ** 2, axis=0)


def peak_gap(probs: np.ndarray) -> float:
    """Largest probability minus the runner-up, counted with multiplicity."""
    top = np.sort(probs)[-2:]
    return float(top[1] - top[0])


def entropy_bits(table: np.ndarray) -> float:
    """Coin/position entanglement entropy in bits, from an SVD of the table."""
    weights = np.linalg.svd(table, compute_uv=False) ** 2
    weights = weights[weights > 0.0]
    return float(-np.sum(weights * np.log2(weights)))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"reference self-check failed: {what}")


def self_check() -> None:
    """Check the reference against closed forms; raise AssertionError on a miss."""
    rng = np.random.default_rng(12345)
    for _ in range(5):
        coin = coin_matrix(*rng.uniform([0.0, 0.0, 0.0], [360.0, 180.0, 180.0]))
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        # One step: heads of C(a,b) at +1, tails at -1.
        h1 = coin[0, 0] * a + coin[0, 1] * b
        t1 = coin[1, 0] * a + coin[1, 1] * b
        want1 = np.zeros((2, 3), dtype=np.complex128)
        want1[0, 2], want1[1, 0] = h1, t1
        _expect(np.max(np.abs(amplitudes(coin, 1, (a, b)) - want1)) <= 1e-14, "1-step amplitudes")
        # Two steps: each branch takes one more coin toss.
        want2 = np.zeros((2, 5), dtype=np.complex128)
        want2[0, 4] = coin[0, 0] * h1
        want2[0, 2] = coin[0, 1] * t1
        want2[1, 2] = coin[1, 0] * h1
        want2[1, 0] = coin[1, 1] * t1
        _expect(np.max(np.abs(amplitudes(coin, 2, (a, b)) - want2)) <= 1e-14, "2-step amplitudes")
        _expect(abs(probabilities(coin, 3000, (a, b)).sum() - 1.0) <= 1e-12, "norm at T=3000")
    # theta = 0: two ballistic spikes at -T and +T carrying |beta|^2 and |alpha|^2.
    for steps in (1, 7, 1000):
        p = probabilities(coin_matrix(0.0, 30.0, 50.0), steps)
        _expect(abs(p[-1] - 0.5) <= 1e-12 and abs(p[0] - 0.5) <= 1e-12, "ballistic spikes")
        _expect(np.max(p[1:-1], initial=0.0) <= 1e-24, "ballistic interior")


if __name__ == "__main__":
    self_check()
    print("reference self-check: ok")
