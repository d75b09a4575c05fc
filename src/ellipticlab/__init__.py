"""Numerical laboratory for moduli of continuity, uniformly elliptic
operators, grid solvers, and dyadic quadratic-approximation audits.

``solver``, the one module that loads scipy (for GMRES and sine
transforms), is imported only on request: ``from ellipticlab import solver``."""

from . import campanato, fields, moduli, operators
from .errors import (
    BracketError,
    ConfigError,
    DegenerateModulusError,
    DivergentIntegralError,
    DomainError,
    EllipticLabError,
    NonDifferentiableError,
    NumericsError,
)

__version__ = "0.1.0"
