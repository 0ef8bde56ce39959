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

Draws are served from a cached block of the next raw words and their
uniforms, computed in one vectorized pass of ``max(n, _BLOCK)`` words
and refilled from the current counter when a draw does not fit.  Word
``k`` is the same whichever block computes it, so the bits depend
neither on the block size nor on how a stream's draws are split.  Every
returned array owns its data.  Sizes must be non-negative ints (not
bools); any other size raises ``ValueError`` before the stream moves.

The raw words and the uniforms are exact integer arithmetic and the
same on every platform.  The normals are not: ``np.log1p`` runs numpy's
SIMD code, which is chosen at run time for the CPU (AVX-512 or not), and
the two versions round differently in a few percent of cases.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

_U64_GAMMA = np.uint64(_GAMMA)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

_U53 = 2.0 ** -53

# Words per block refill.  Small draws (a probe vector, a weight vector)
# share one pass; a larger draw gets a block of its own size.
_BLOCK = 256


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _U64_MIX1
    z = (z ^ (z >> _S27)) * _U64_MIX2
    return z ^ (z >> _S31)


def _size(n) -> int:
    # bool is an int subclass, but True is no size
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"draw sizes must be non-negative ints, got {n!r}")
    return n


def _shape(shape) -> tuple[int, ...]:
    dims = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    for k in dims:
        _size(k)
    return dims


class PortableRng:
    """Counter-based splitmix64 stream with uniform and normal draws."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK64)
        # The block holds the words after the first ``_base`` of the
        # stream; its first ``_pos`` words are already given out.
        self._base = 0
        self._pos = 0
        self._words = np.empty(0, dtype=np.uint64)
        self._uniforms = np.empty(0)

    def _take(self, n: int) -> int:
        """Hand out the next ``n`` words; return their offset in the block."""
        start = self._pos
        if start + n > self._words.size:
            # Refill from the current counter.  The state changes only
            # once the new block exists, so a failed allocation leaves
            # the stream where it was.
            first = self._base + start + 1
            # uint64 array arithmetic wraps modulo 2**64 without a warning
            ks = np.arange(first, first + max(n, _BLOCK), dtype=np.uint64)
            words = _mix(self._seed + ks * _U64_GAMMA)
            self._uniforms = (words >> _S11).astype(np.float64) * _U53
            self._words = words
            self._base += start
            start = 0
        self._pos = start + n
        return start

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words."""
        i = self._take(_size(n))
        return self._words[i : i + n].copy()

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) with 53 random bits each."""
        i = self._take(_size(n))
        return self._uniforms[i : i + n].copy()

    def complex_normal(self, shape) -> np.ndarray:
        """Complex draws with standard normal real and imaginary parts,
        via Box-Muller: each pair of normals takes its radius from the
        first half of the draw's uniforms and its angle from the second
        half, and the first half of the normals are the real parts."""
        parts = np.empty((2,) + _shape(shape))
        out = parts.reshape(-1)
        pairs = out.size // 2
        i = self._take(2 * pairs)
        u = self._uniforms[i : i + 2 * pairs]
        # 1 - u lies in (0, 1], so the log is finite.
        radius = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
        angle = 2.0 * np.pi * u[pairs:]
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return parts[0] + 1j * parts[1]

    def permutation(self, n: int) -> np.ndarray:
        """A permutation of range(n), determined by the stream."""
        i = self._take(_size(n))
        return np.argsort(self._uniforms[i : i + n], kind="stable")


def derive_seed(seed: int, *tags: int) -> int:
    """Mix extra integer tags into a seed to get an independent stream."""
    z = seed & _MASK64
    for t in tags:
        z ^= (t & _MASK64) * _GAMMA & _MASK64
        z = (z ^ (z >> 30)) * _MIX1 & _MASK64
        z = (z ^ (z >> 27)) * _MIX2 & _MASK64
        z ^= z >> 31
    return z
