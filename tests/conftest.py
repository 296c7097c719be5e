"""Shared test helpers: random parameter draws, hypothesis strategies and child processes."""

import math
import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent

# Finite angles over several turns, used as given: the coin has period 2*pi
# in each angle, and nothing reduces them into one turn.  Radians.
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def normalized_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    """Draw a uniformly random normalized coin state (alpha, beta)."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])


def random_coin_angles(rng: np.random.Generator) -> tuple[float, float, float]:
    """Draw theta, phi1 and phi2 uniformly from [0, 2*pi), the whole circle of each."""
    return tuple(float(angle) for angle in rng.uniform(0.0, 2.0 * math.pi, size=3))


def src_env() -> dict[str, str]:
    """Environment for a child Python that imports coinwalk from ``src/``, installed or not."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
