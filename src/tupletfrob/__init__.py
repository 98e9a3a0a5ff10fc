"""Numerical semigroups of prime constellations.

A library for the coin problem on prime k-tuplets: a general
numerical-semigroup engine (Apéry sets, Frobenius number, genus,
pseudo-Frobenius numbers), a prime-constellation sieve, closed-form family
formulas for triplets through septuplets, and cross-validation tooling that
checks the formulas against independent brute force.
"""

# the package exports what each module lists in its own __all__
from . import core, errors, families, tuplets, verification
from .core import *
from .families import *
from .tuplets import *
from .verification import *

__version__ = "0.1.0"

__all__ = ["errors", *core.__all__, *families.__all__, *tuplets.__all__, *verification.__all__]
