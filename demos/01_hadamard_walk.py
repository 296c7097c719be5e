"""A first walk: 100 Hadamard steps from the unbiased start.

The classical random walk piles up around the origin; the quantum walk
throws most of its weight into two ballistic peaks near +-t/sqrt(2).
This script runs the walk, checks that probability is conserved, and
draws the distribution as an ASCII histogram.
"""

import numpy as np

from coinwalk import UNBIASED_INIT, named_coin, peak_gap, run_walk, symmetry_deviation


def ascii_bars(positions, probs, width=60, every=4):
    top = probs.max()
    for x, p in zip(positions, probs):
        if x % every:
            continue
        bar = "#" * int(round(width * p / top))
        print(f"{x:+5d} {p:.5f} {bar}")


def main():
    steps = 100
    params = named_coin("hadamard")
    alpha, beta = UNBIASED_INIT

    # One probability per site x = -steps .. steps; x sits at index x + steps.
    probs = run_walk(params, alpha, beta, steps)
    positions = np.arange(-steps, steps + 1)

    print(f"Hadamard walk, {steps} steps, unbiased initial coin state")
    print(f"total probability : {probs.sum():.15f}")
    print(f"P(origin)         : {probs[steps]:.6f}")
    print(f"symmetry deviation: {symmetry_deviation(probs):.3e}")
    print(f"peak gap          : {peak_gap(probs):.3e}")
    print()

    # The two frontier peaks sit near +-steps/sqrt(2).
    peak = positions[np.argmax(probs)]
    print(f"largest peak at x = {peak} (steps/sqrt(2) ~ {steps / np.sqrt(2):.1f})")
    print()

    ascii_bars(positions, probs)

    # Odd positions carry nothing after an even number of steps: the walker
    # always lands on sites with the parity of t.
    odd_mass = probs[positions % 2 != 0].sum()
    print(f"\nprobability on odd sites after an even t: {odd_mass:.1e}")


if __name__ == "__main__":
    main()
