"""The benchmark's workloads: fixed lists of CLI operations built from a seed.

Each workload is one round of operations, replayed whole until the run's
time is up.  Sizes are fixed; the seed only draws the angles of the generic
coin, so every seed asks for the same amount of work.  The generic coin keeps
theta in [30, 60] degrees: away from the ballistic (0) and localised (90)
ends, which have coins of their own, and away from angles whose amplitude
tails underflow into subnormal doubles at these sizes, which would make the
timings depend on the seed.  On ``long-walk`` the seeded walk is also the
smallest op, so it never sets the median op time.

Each round is laid out so that the median op falls inside one group of
like-sized ops, not between the slowest of one group and the fastest of the
next, which would be two noisy extremes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NAMES = ("long-walk", "phase-scan", "step-series", "verify-duel")

HADAMARD = (45.0, 0.0, 0.0)
#: theta = 1e-6 rad: nearly all probability rides the two ballistic fronts.
BALLISTIC = (math.degrees(1e-6), 0.0, 0.0)


@dataclass(frozen=True)
class Op:
    """One ``coinwalk`` CLI call, and what is needed to check its output.

    ``grid`` holds the theta grid of ``sweep-theta`` or the phi1 grid of
    ``phase-diagram``, ``grid2`` the phi2 grid, each as ``start:stop:step``
    in degrees.  ``coin`` is the (theta, phi1, phi2) triple in degrees; for
    ``sweep-theta`` its theta is unused.
    """

    command: str
    fmt: str
    steps: int
    coin: tuple[float, float, float]
    grid: str = ""
    grid2: str = ""
    corrupt: bool = False

    @property
    def argv(self) -> list[str]:
        """The CLI arguments, without ``--out``."""
        theta, phi1, phi2 = (repr(a) for a in self.coin)
        named = ["--coin", "hadamard"] if self.coin == HADAMARD else None
        if self.command == "sweep-theta":
            flags = ["--theta-grid", self.grid, "--phi1-deg", phi1, "--phi2-deg", phi2]
        elif self.command == "phase-diagram":
            flags = (named or ["--theta-deg", theta]) + [
                "--phi1-grid", self.grid, "--phi2-grid", self.grid2,
            ]
        else:
            flags = named or ["--theta-deg", theta, "--phi1-deg", phi1, "--phi2-deg", phi2]
        if self.command == "verify":
            flags += ["--max-steps", str(self.steps)] + (["--corrupt-coin"] if self.corrupt else [])
        else:
            flags += ["--steps", str(self.steps)]
        return [self.command, *flags, "--format", self.fmt]

    @property
    def walks(self) -> int:
        """Number of walks of ``steps`` steps that the op asks for."""
        if self.command == "sweep-theta":
            return len(grid_values(self.grid))
        if self.command == "phase-diagram":
            return len(grid_values(self.grid)) * len(grid_values(self.grid2))
        return 1

    @property
    def site_steps(self) -> int:
        """Problem size: ``walks * T * (2T + 1)``, whatever the engine does."""
        return self.walks * self.steps * (2 * self.steps + 1)


def grid_values(text: str) -> list[float]:
    """Values of an inclusive ``start:stop:step`` grid, as the CLI documents it."""
    start, stop, step = (float(v) for v in text.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * i for i in range(count)]


def generic_coin(seed: int) -> tuple[float, float, float]:
    rng = random.Random(seed)
    return (rng.uniform(30.0, 60.0), rng.uniform(0.0, 180.0), rng.uniform(0.0, 180.0))


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of one round of workload ``name``; ``tiny`` shrinks every size."""
    g = generic_coin(seed)
    if name == "long-walk":
        t = (20, 40, 60, 100) if tiny else (2000, 4000, 6000, 10000)
        # The three shorter walks run three times a round, so that the median
        # op rests on several samples although T=10^4 takes most of a round.
        return 3 * [
            Op("walk", "json", t[0], g),
            Op("walk", "csv", t[1], HADAMARD),
            Op("walk", "json", t[2], BALLISTIC),
        ] + [Op("walk", "csv", t[3], HADAMARD)]
    if name == "phase-scan":
        t = (20, 10, 30) if tiny else (200, 100, 300)
        coarse, fine = ("0:150:30", "0:150:50") if tiny else ("0:170:10", "0:175:5")
        return [
            Op("phase-diagram", "csv", t[0], g, coarse, coarse),
            Op("phase-diagram", "json", t[1], HADAMARD, fine, fine),
            Op("sweep-theta", "csv", t[2], g, "0:315:45" if tiny else "0:355:5"),
        ]
    if name == "step-series":
        t = (10, 15, 20, 25) if tiny else (2000, 3000, 3000, 3000)
        return [
            Op("entanglement", "csv", t[0], HADAMARD),
            Op("entanglement", "json", t[1], g),
            Op("entanglement", "json", t[2], HADAMARD),
            Op("entanglement", "csv", t[3], g),
        ]
    if name == "verify-duel":
        t = (4, 6, 8) if tiny else (60, 80, 100)
        return [
            Op("verify", "csv", t[0], HADAMARD),
            Op("verify", "json", t[1], g),
            Op("verify", "csv", t[2], HADAMARD),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
