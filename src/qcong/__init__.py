"""Exact arithmetic for truncated q-series and mock theta congruences.

The package computes coefficient tables for Ramanujan's mock theta
functions f and omega, expands the normalized logarithmic derivative of
the associated twisted Borcherds products, certifies Hecke-eigenform
behaviour modulo prime powers against Sturm bounds, and predicts
explicit congruences for the mock theta coefficients.
"""

# Each module's __all__ is the one list of the names the package exports.
from .ntheory import *
from .series import *
from .mocktheta import *
from .borcherds import *
from .hecke import *
from .qexpr import *

__version__ = "0.1.0"
