"""Three independent engines, one walk.

The recurrence updates amplitudes with a local two-term rule and never
builds an operator. The dense path builds the full one-step unitary
U = S (C (x) I) on a cyclic window and multiplies state vectors by it.
The momentum-space path jumps straight to time T: one closed-form power of
a 2x2 matrix per wavenumber, then one inverse FFT. They share no evolution
code, so their agreement is a strong cross-check of all three.

This script prints the structure of the dense operator on a tiny window,
races the recurrence and the dense engine for 60 steps of a random coin,
checks the momentum-space endpoint against both, and reports the worst
amplitude discrepancies. All three store the same window x = -60 .. 60, so
their tables compare column for column.
"""

import numpy as np

from coinwalk import (
    CoinParams,
    build_step_unitary,
    dense_series,
    evolve,
    initial_state,
    make_coin,
    momentum_state,
)


def show_structure(matrix):
    """Print the nonzero pattern of a small complex matrix."""
    for row in matrix:
        print("  " + " ".join("." if v == 0 else "*" for v in np.abs(row) > 1e-15))


def main():
    params = CoinParams(0.6, 1.9, 0.7)
    coin = make_coin(params)

    # The 10x10 step operator for half-width 2: a shifted block of C00/C01
    # couples to the head sector, an oppositely shifted block of C10/C11 to
    # the tail sector.
    op = build_step_unitary(coin, 2)
    print("one-step unitary on the 5-site window (nonzero pattern):")
    show_structure(op.matrix)
    print()

    # Race the engines.
    steps = 60
    alpha, beta = 0.8, 0.6j
    state = initial_state(alpha, beta, steps)
    worst = 0.0
    worst_t = 0
    # The dense series builds its operator once and yields t = 0, 1, ...
    for t, reference in enumerate(dense_series(alpha, beta, coin, steps)):
        if t > 0:
            state = evolve(state, coin, 1)
        gap = float(np.abs(state.amplitudes - reference).max())
        if gap > worst:
            worst, worst_t = gap, t
    print(f"recurrence vs dense over {steps} steps:")
    print(f"  worst |amplitude difference| = {worst:.3e} (at t = {worst_t})")
    print()

    # The momentum engine has no intermediate times; compare its endpoint.
    endpoint = momentum_state(alpha, beta, coin, steps).amplitudes
    print(f"momentum space at t = {steps}:")
    print(f"  vs dense:      {np.abs(endpoint - reference).max():.3e}")
    print(f"  vs recurrence: {np.abs(endpoint - state.amplitudes).max():.3e}")
    print()
    print("The command-line `coinwalk verify` subcommand runs this same duel")
    print("and fails loudly if the engines ever drift apart.")


if __name__ == "__main__":
    main()
