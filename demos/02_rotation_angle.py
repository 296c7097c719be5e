"""What the rotation angle theta does to the shape of the walk.

theta interpolates between two extremes:

  theta = 0    coin never flips -> two deterministic ballistic spikes
  theta = 90   coin always flips -> the walker shakes in place at the origin
  in between   the familiar spreading double-horned profile

A second, less obvious fact: theta and theta + 180 deg give the *same*
distribution at every time (the matrices differ by an overall sign, which
squares away), so the physically distinct range of theta is just [0, 180).

``theta_sweep`` solves every angle of its grid in one momentum-space pass and
returns one row of probabilities per angle, over the positions -T .. T.
"""

import numpy as np

from coinwalk import UNBIASED_INIT, CoinParams, run_walk, theta_sweep


def spread(probs, positions):
    """Root-mean-square distance from the origin."""
    return float(np.sqrt(np.sum(probs * positions.astype(float) ** 2)))


def main():
    steps = 100
    alpha, beta = UNBIASED_INIT

    print(f"{steps}-step walks, unbiased start, phi1 = phi2 = 0")
    print(f"{'theta':>6} {'P(0)':>9} {'P(+-t)':>9} {'rms spread':>11}")
    thetas = np.radians([0, 15, 30, 45, 60, 75, 90])
    positions = np.arange(-steps, steps + 1)  # row k, column x + T holds P(x) at thetas[k]
    for theta, probs in zip(thetas, theta_sweep(thetas, 0.0, 0.0, alpha, beta, steps)):
        edge = probs[0] + probs[-1]
        print(
            f"{np.degrees(theta):6.0f} {probs[steps]:9.5f} "
            f"{edge:9.5f} {spread(probs, positions):11.3f}"
        )

    print()
    print("theta = 0 puts exactly half the walker at each end of the light cone;")
    print("theta = 90 freezes it at the origin (flip-flop between the two coin sides).")
    print()

    # The half-turn identity: distributions at theta and theta + 180 deg match.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        theta = rng.uniform(0, np.pi)
        phi1 = rng.uniform(0, np.pi)
        phi2 = rng.uniform(0, np.pi)
        a = run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps)
        b = run_walk(CoinParams(theta + np.pi, phi1, phi2), alpha, beta, steps)
        worst = max(worst, float(np.abs(a - b).max()))
    print(f"max |P_theta - P_(theta+180deg)| over 5 random coins: {worst:.2e}")


if __name__ == "__main__":
    main()
