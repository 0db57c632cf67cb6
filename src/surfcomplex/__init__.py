"""Torus complexes, the surface-complex graph of the 3-torus, and Seifert
fibered space invariants, all over exact integer arithmetic.

The package re-exports each module's `__all__`, the one list of its
public names."""

from .exactlin import *
from .seifert import *
from .toruscomplex import *

__version__ = "0.1.0"
