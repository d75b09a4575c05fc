"""Exception types shared across the package."""


class EllipticLabError(Exception):
    """Base class for all package errors."""


class DomainError(EllipticLabError, ValueError):
    """An argument fell outside the mathematical domain of an operation."""


class ConfigError(EllipticLabError, ValueError):
    """A configuration (file or plan) is malformed or inconsistent."""


class NumericsError(EllipticLabError, RuntimeError):
    """A numerical procedure failed to reach its contract."""


class DivergentIntegralError(NumericsError):
    """A singular integral required to be finite was detected to diverge."""


class NonDifferentiableError(NumericsError):
    """Directional derivatives at the base point are inconsistent."""


class BracketError(NumericsError):
    """A computed coefficient matrix escapes the declared ellipticity pair."""


class DegenerateModulusError(EllipticLabError, ValueError):
    """A modulus vanishes on radii where a positive value is required."""
