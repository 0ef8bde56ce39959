"""Exception types shared across the package, and finite_array, the one
check of every array handed in from outside: weights, operators,
vectors, probes and linalg's matrices.  Each caller keeps only the check
that is its own: a count, a square shape, a length or a zero vector.
"""

from __future__ import annotations

import numpy as np


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class NotHermitian(ValueError):
    """A matrix that must be Hermitian fails the symmetry check."""


class NoConvergence(RuntimeError):
    """A LAPACK solver did not converge."""


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


def finite_array(x, ndim: int, where: str) -> np.ndarray:
    """x as a C-ordered complex128 array of ndim nonempty axes, from any
    layout.  Raises DimensionMismatch when x is ragged, not numeric, of
    another rank or empty, and ValueError naming its first non-finite
    entry in index order, as where[i][j] is not finite."""
    try:
        arr = np.asarray(x, dtype=np.complex128, order="C")
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"cannot read {where} as one array of numbers") from exc
    if arr.ndim != ndim or 0 in arr.shape:
        raise DimensionMismatch(f"expected {where} as a nonempty {ndim}-d array, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        first = np.unravel_index(np.argmin(finite), arr.shape)
        raise ValueError(where + "".join(f"[{i}]" for i in first) + " is not finite")
    return arr
