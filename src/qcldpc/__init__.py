"""Quantum quasi-cyclic LDPC codes: construction from circulant exponent
matrices, joint belief-propagation syndrome decoding on the depolarizing
channel, and parallel Monte Carlo FER/BER evaluation.

The package re-exports each library module's `__all__`, in module order."""

__version__ = "0.1.0"

from . import channel, codes, decoder, gf2, sim
from .channel import *  # noqa: F401,F403
from .codes import *  # noqa: F401,F403
from .decoder import *  # noqa: F401,F403
from .gf2 import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__all__ = ["__version__", *(n for m in (channel, codes, decoder, gf2, sim) for n in m.__all__)]
