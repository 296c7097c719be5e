"""Discrete-time quantum walk on a line with a general three-parameter coin.

The walk alternates a 2x2 coin unitary ``C(theta, phi1, phi2)`` on an
internal head/tail degree of freedom with a coin-conditioned shift on a
one-dimensional lattice.  Two independent evolution engines are provided:

* :mod:`coinwalk.evolution` — the production path, a local two-term
  recurrence on the amplitude table (O(n) per step);
* :mod:`coinwalk.dense` — a reference path that materializes the one-step
  operator as an explicit unitary matrix and multiplies it out.

They are kept separate so each can validate the other; ``coinwalk verify``
(or the test suite) compares them amplitude by amplitude.

On top of the engines sit distribution diagnostics (:mod:`coinwalk.analysis`)
and coin-position entanglement measures (:mod:`coinwalk.entanglement`).
"""

from . import analysis, coin, dense, entanglement, evolution, state
# Each module's __all__ is the one list of its public names; re-export them.
from .analysis import *
from .coin import *
from .dense import *
from .entanglement import *
from .evolution import *
from .state import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *coin.__all__,
    *state.__all__,
    *evolution.__all__,
    *dense.__all__,
    *analysis.__all__,
    *entanglement.__all__,
]
