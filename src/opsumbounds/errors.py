"""Exception types shared across the package."""

from __future__ import annotations


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class NotHermitian(ValueError):
    """A matrix that must be Hermitian fails the symmetry check."""


class NoConvergence(RuntimeError):
    """An iterative routine ran out of iterations."""


class InvalidExponent(ValueError):
    """An exponent pair does not satisfy the conjugacy requirements."""


class ZeroVector(ValueError):
    """A vector family contains a zero vector."""


class InvalidSpec(ValueError):
    """An instance description is internally inconsistent."""


class ParseError(ValueError):
    """Input text is not well-formed JSON."""


class SchemaError(ValueError):
    """Parsed JSON does not match the expected problem layout."""
