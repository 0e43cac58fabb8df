"""Gabor analysis and covariant quantization on the discrete torus Z_d x Z_d.

The package provides the discrete Weyl-Heisenberg displacement operators,
coherent-state (Gabor) analysis with exact inversion, weight-driven
quantization operators and symbol maps, Husimi and Wigner distributions,
and semi-classical phase-space portraits, all validated by their algebraic
identities to machine precision.
"""

__version__ = "0.1.0"

from . import distributions, errors, fiducials, gabor, hilbert, quantize, signals, weyl

# built before the star imports below rebind ``quantize`` to the function
__all__ = [*errors.__all__, *hilbert.__all__, *weyl.__all__, *fiducials.__all__, *gabor.__all__,
           *quantize.__all__, *distributions.__all__]

from .errors import *
from .hilbert import *
from .weyl import *
from .fiducials import *
from .gabor import *
from .quantize import *
from .distributions import *
