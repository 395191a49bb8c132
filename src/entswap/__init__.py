"""Simulator for an entanglement-swapping key agreement protocol.

Two parties turn pre-shared entangled pairs into a shared secret key by
Bell-measuring their own qubits and exploiting the swap identity; a
statevector backend plays physics oracle, three adversary models attack
the channel, and Monte Carlo plus analytic statistics quantify detection
and key-leakage rates.

The top level holds the session and batch entry points; everything else is
imported from its module (``entswap.bell``, ``entswap.statevector``,
``entswap.adversary``, ``entswap.protocol``, ``entswap.stats``, ``entswap.cli``).
"""

from .adversary import make_strategy
from .protocol import SessionConfig, run_session
from .stats import monte_carlo

__version__ = "0.1.0"

__all__ = ["SessionConfig", "make_strategy", "monte_carlo", "run_session"]
