"""Discrete-time quantum walk on a line with a general three-parameter coin.

The walk alternates a 2x2 coin unitary ``C(theta, phi1, phi2)`` on an
internal head/tail degree of freedom with a coin-conditioned shift on a
one-dimensional lattice.  Three independent evolution engines are provided:

* :mod:`coinwalk.momentum` — the endpoint of a walk, one closed-form 2x2
  power per wavenumber and one FFT per occupied parity class
  (O(T log T)), behind :func:`~coinwalk.evolution.evolve` from any start
  table and the measured walks from the origin, and the coin's Gram matrix
  at every step from any start table;
* :mod:`coinwalk.evolution` — a local two-term recurrence on the amplitude
  table (O(n) per step), :func:`~coinwalk.evolution.iter_steps`, for the
  tables of every step;
* :mod:`coinwalk.dense` — a reference path that materializes the one-step
  operator as an explicit unitary matrix and multiplies it out.

Every engine takes the ``(2, 2N + 1)`` start table of
:func:`~coinwalk.state.initial_state` (or any other), a coin and a step
count, and refuses a walk that could leave the table's window by one rule.
They share no evolution code, so each can validate the others; ``coinwalk
verify`` (or the test suite) compares them amplitude by amplitude.

On top of the engines sit distribution diagnostics (:mod:`coinwalk.analysis`)
and coin-position entanglement measures (:mod:`coinwalk.entanglement`), whose
series over a walk is a momentum-space sum and is checked against the
recurrence.
"""

from . import analysis, coin, dense, entanglement, evolution, momentum, state
# Each module's __all__ is the one list of its public names; re-export them.
from .analysis import *
from .coin import *
from .dense import *
from .entanglement import *
from .evolution import *
from .momentum import *
from .state import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *coin.__all__,
    *state.__all__,
    *evolution.__all__,
    *momentum.__all__,
    *dense.__all__,
    *analysis.__all__,
    *entanglement.__all__,
]
