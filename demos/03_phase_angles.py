"""The two coin phases play very different roles.

phi1 steers the left/right balance of the walk: from the unbiased start,
phi1 = 0 gives a perfectly symmetric profile, phi1 = 90 deg the most
lopsided one and phi1 = 270 deg its mirror image. The drift follows
Konno's weak limit (J. Math. Soc. Japan 57, 1179 (2005)): E[X/T] tends to
k (1 - sqrt(1 - |a|^2)) with a = cos(theta) and, from the unbiased start,
k = tan(theta) sin(phi1), so sin(phi1) (1 - 1/sqrt(2)) at theta = 45 deg.
phi2, by contrast, never shows up in the probabilities at all -- it
multiplies every surviving path to a given site by the same phase, which
the modulus squares away.

Both follow from one identity (Tregenna, Flanagan, Maile & Kendon, New J.
Phys. 5, 83 (2003)): the walk with phases (phi1, phi2) from the coin state
(alpha, beta) has the distribution of the walk with no phases from
(alpha, e^{i phi1} beta). phi1 is a start-state phase in disguise.

The phase_diagram helper maps peak_gap (the height difference between the
two largest probabilities) over a (phi1, phi2) grid. It uses the identity:
the whole grid costs two walks, one from a head and one from a tail start,
and every row of the resulting matrix is constant because phi2 is inert.
"""

import cmath
import math

import numpy as np

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    peak_gap,
    phase_diagram,
    run_walk,
    symmetry_deviation,
)


def main():
    steps = 100
    theta = np.pi / 4
    alpha, beta = UNBIASED_INIT

    print(f"{steps}-step walks at theta = 45 deg, unbiased start")
    print(f"{'phi1':>6} {'sym. deviation':>15} {'peak gap':>10} {'E[X]/T':>10} {'Konno':>10}")
    worst = 0.0
    for phi1_deg in range(0, 331, 30):
        params = CoinParams(theta, np.radians(phi1_deg), 0.0)
        dist = run_walk(params, alpha, beta, steps)
        mean = float(np.sum(dist.probs * dist.positions)) / steps
        konno = math.sin(math.radians(phi1_deg)) * (1.0 - 1.0 / math.sqrt(2.0))
        worst = max(worst, abs(mean - konno))
        print(
            f"{phi1_deg:6d} {symmetry_deviation(dist):15.6f} "
            f"{peak_gap(dist):10.6f} {mean:10.6f} {konno:10.6f}"
        )
    print("-> symmetric at phi1 = 0 and 180, most skewed at 90 and, mirrored, at 270;")
    print(f"   E[X]/T misses Konno's limit by at most {worst * steps:.3f}/T (a 1/T error).")
    print()

    # phi2 inertness, head-on: vary phi2 with everything else fixed.
    ref = run_walk(CoinParams(theta, 1.1, 0.0), alpha, beta, steps)
    worst = max(
        float(
            np.abs(
                run_walk(CoinParams(theta, 1.1, phi2), alpha, beta, steps).probs
                - ref.probs
            ).max()
        )
        for phi2 in np.linspace(0.0, np.pi, 7)
    )
    print(f"max change in any probability as phi2 sweeps 0..180 deg: {worst:.2e}")

    # phi1 moved onto the start state: no coin phases, beta -> e^{i phi1} beta.
    phased = run_walk(CoinParams(theta, 1.1, 0.7), alpha, beta, steps)
    moved = run_walk(CoinParams(theta, 0.0, 0.0), alpha, cmath.exp(1.1j) * beta, steps)
    worst = float(np.abs(phased.probs - moved.probs).max())
    print(f"phases (1.1, 0.7) rad vs start state (alpha, e^(1.1i) beta): max diff {worst:.2e}")
    print()

    # A small phase diagram: rows sweep phi1, columns sweep phi2.
    grid = np.radians(np.arange(0, 180, 45))
    delta = phase_diagram(theta, grid, grid, alpha, beta, steps=50)
    print("peak_gap over a 4x4 (phi1 x phi2) grid, 50 steps, from two walks:")
    for phi1, gaps in zip(np.degrees(grid), delta):
        row = " ".join(f"{v:.4f}" for v in gaps)
        print(f"  phi1={phi1:5.1f}: {row}")
    print("-> columns are identical: phi2 is a spectator.")


if __name__ == "__main__":
    main()
