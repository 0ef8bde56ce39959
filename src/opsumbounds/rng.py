"""Portable deterministic random numbers.

Reproducibility matters more here than statistical sophistication:
frozen test values and byte-identical CLI output both depend on every
draw being recomputable forever.  So the package carries its own small
generator instead of relying on whatever ``numpy.random`` happens to do
in a given release.

The core is splitmix64, used in counter mode: output ``k`` is
``mix(seed + (k + 1) * GAMMA)`` with all arithmetic modulo 2**64.  That
makes any block of draws a pure function of ``(seed, k)``, so blocks can
be produced with vectorized uint64 arithmetic.  Uniforms take the top 53
bits, normals come from the Box-Muller transform.

The raw words and the uniforms are exact integer arithmetic and the
same on every platform.  The normals are not: ``np.log1p`` runs numpy's
SIMD code, which is chosen at run time for the CPU (AVX-512 or not), and
the two versions round differently in a few percent of cases.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1

_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

_U53 = 2.0 ** -53


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


class PortableRng:
    """Counter-based splitmix64 stream with uniform and normal draws."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK64)
        self._consumed = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words."""
        start = self._consumed + 1
        self._consumed += n
        # uint64 array arithmetic wraps modulo 2**64 without a warning;
        # only numpy-scalar arithmetic (derive_seed) reports the overflow
        ks = np.arange(start, start + n, dtype=np.uint64)
        return _mix(self._seed + ks * _GAMMA)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) with 53 random bits each."""
        return (self.raw(n) >> _S11).astype(np.float64) * _U53

    def standard_normal(self, shape) -> np.ndarray:
        """Standard normal draws in the given shape, via Box-Muller."""
        if isinstance(shape, int):
            shape = (shape,)
        n = int(math.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs)
        # 1 - u lies in (0, 1], so the log is finite.
        radius = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
        angle = 2.0 * np.pi * u[pairs:]
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n].reshape(shape)

    def complex_normal(self, shape) -> np.ndarray:
        """Complex draws with standard normal real and imaginary parts."""
        if isinstance(shape, int):
            shape = (shape,)
        parts = self.standard_normal((2,) + tuple(shape))
        return parts[0] + 1j * parts[1]

    def permutation(self, n: int) -> np.ndarray:
        """A permutation of range(n), determined by the stream."""
        keys = self.uniform(n)
        return np.argsort(keys, kind="stable")


def derive_seed(seed: int, *tags: int) -> int:
    """Mix extra integer tags into a seed to get an independent stream."""
    z = np.uint64(seed & _MASK64)
    with np.errstate(over="ignore"):
        for t in tags:
            z = _mix(z ^ (np.uint64(t & _MASK64) * _GAMMA))
    return int(z)
