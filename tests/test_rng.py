"""The portable generator against a scalar reimplementation.

The vectorized uint64 arithmetic in rng.py is rebuilt here with plain
Python integers, and the raw stream is additionally pinned to the
published splitmix64 reference outputs for seed 0, so a silent change
in either implementation shows up immediately.

No test here pins a normal by digest: the normals are checked against
the same numpy calls made per draw, so the file passes on any numpy
SIMD path.
"""

import math
import warnings

import numpy as np
import pytest

from opsumbounds import rng as rng_module
from opsumbounds.rng import _BLOCK, PortableRng, derive_seed

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def _scalar_raw(seed, n, offset=0):
    return [_mix((seed + (offset + k + 1) * GAMMA) & MASK) for k in range(n)]


def test_raw_matches_published_splitmix64_vector():
    # splitmix64 seeded with 0 famously starts e220a8397b1dcdaf, ...
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [int(x) for x in PortableRng(0).raw(3)] == expected
    assert _scalar_raw(0, 3) == expected


def test_raw_matches_scalar_oracle_across_seeds():
    for seed in (1, 7, 123456789, 2**63, MASK):
        got = [int(x) for x in PortableRng(seed).raw(10)]
        assert got == _scalar_raw(seed, 10), seed


def test_draws_are_silent_under_strict_floating_point_errors():
    # the uint64 arithmetic wraps modulo 2**64 without any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            pinned = [int(x) for x in PortableRng(0).raw(3)]
            others = {seed: [int(x) for x in PortableRng(seed).raw(10)] for seed in (7, 2**63, MASK)}
            PortableRng(9).complex_normal((3, 4))
            PortableRng(9).permutation(6)
            derive_seed(MASK, MASK, 3)
    assert pinned == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for seed, got in others.items():
        assert got == _scalar_raw(seed, 10), seed


def test_stream_is_stateful_and_counter_based():
    r = PortableRng(42)
    first = [int(x) for x in r.raw(4)]
    second = [int(x) for x in r.raw(4)]
    assert first == _scalar_raw(42, 4)
    assert second == _scalar_raw(42, 4, offset=4)
    assert first != second


def test_uniform_matches_scalar_and_range():
    r = PortableRng(7)
    got = r.uniform(200)
    expected = [(x >> 11) * 2.0**-53 for x in _scalar_raw(7, 200)]
    assert np.array_equal(got, np.array(expected))
    assert got.min() >= 0.0
    assert got.max() < 1.0


def test_complex_normal_matches_scalar_box_muller():
    # k draws take 2k normals: the real parts are normals 0..k-1, the
    # imaginary parts normals k..2k-1
    k = 9
    u = [(x >> 11) * 2.0**-53 for x in _scalar_raw(11, 2 * k)]
    expected = []
    for i in range(k):
        radius = math.sqrt(-2.0 * math.log1p(-u[i]))
        angle = 2.0 * math.pi * u[k + i]
        expected.append(radius * math.cos(angle))
        expected.append(radius * math.sin(angle))
    got = PortableRng(11).complex_normal(k)
    assert np.allclose(got.real, expected[:k], rtol=0, atol=1e-15)
    assert np.allclose(got.imag, expected[k:], rtol=0, atol=1e-15)


def test_complex_normal_shapes():
    assert PortableRng(1).complex_normal(5).shape == (5,)
    assert PortableRng(1).complex_normal((2, 3)).shape == (2, 3)
    a = PortableRng(3).complex_normal((2, 2, 2))
    assert a.shape == (2, 2, 2) and np.isfinite(a).all()


def test_complex_normal_parts():
    # a shaped draw is the flat draw of its size, in C order
    z = PortableRng(55).complex_normal((3, 2))
    normals = _box_muller(_uniforms(55, 12, 0), 12)
    assert z.real.tobytes() == normals[:6].reshape(3, 2).tobytes()
    assert z.imag.tobytes() == normals[6:].reshape(3, 2).tobytes()


def test_permutation_frozen_and_valid():
    # frozen output of the argsort-of-uniforms construction for seed 0
    assert list(PortableRng(0).permutation(8)) == [2, 4, 6, 5, 1, 7, 0, 3]
    p = PortableRng(123).permutation(50)
    assert sorted(p) == list(range(50))


def test_determinism_and_seed_separation():
    a = PortableRng(1000).complex_normal((4, 4))
    b = PortableRng(1000).complex_normal((4, 4))
    c = PortableRng(1001).complex_normal((4, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_matches_scalar_oracle():
    def scalar_derive(seed, *tags):
        z = seed & MASK
        for t in tags:
            z = _mix(z ^ ((t & MASK) * GAMMA & MASK))
        return z

    assert derive_seed(5, 1, 2, 3) == scalar_derive(5, 1, 2, 3)
    for seed in (-1, -(2**63), 2**64 + 3, -(2**70)):
        for tags in ((), (2**64,), (2**64 + 5, -7), (2**80, 3, -(2**65))):
            assert derive_seed(seed, *tags) == scalar_derive(seed, *tags), (seed, tags)
    assert derive_seed(0) == 0
    assert derive_seed(9, 4) != derive_seed(9, 5)
    assert derive_seed(9, 4, 0) != derive_seed(9, 4)


@pytest.mark.parametrize("kind, seed", [
    (kind, seed) for kind in (np.int64, np.int32, np.uint8, np.uint64)
    for seed in (5, 0, -1, 2**63 - 1, -(2**63)) if np.iinfo(kind).min <= seed <= np.iinfo(kind).max
])
def test_a_numpy_integer_seed_gives_the_stream_of_the_equal_int(kind, seed):
    # numpy turned the 64-bit mask into a C long, which overflowed
    assert PortableRng(kind(seed)).raw(4).tobytes() == PortableRng(seed).raw(4).tobytes()
    assert derive_seed(kind(seed), kind(1), 2) == derive_seed(seed, 1, 2)
    assert derive_seed(seed, kind(seed)) == derive_seed(seed, seed)
    assert type(derive_seed(kind(seed), kind(1))) is int


@pytest.mark.parametrize("bad", [5.0, np.float64(5.0), "5", None])
def test_a_seed_or_tag_that_is_no_integer_raises_type_error(bad):
    with pytest.raises(TypeError):
        PortableRng(bad)
    with pytest.raises(TypeError):
        derive_seed(bad)
    with pytest.raises(TypeError):
        derive_seed(3, 1, bad)


def _uniforms(seed, n, offset):
    return np.array([(x >> 11) * 2.0**-53 for x in _scalar_raw(seed, n, offset)])


def _box_muller(u, n):
    # one draw of an even count n of normals from its own uniforms, with
    # the numpy calls of the generator
    radius = np.sqrt(-2.0 * np.log1p(-u[: n // 2]))
    angle = 2.0 * np.pi * u[n // 2 :]
    out = np.empty(n)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out


def _expected(seed, method, k, offset):
    """Expected result of one draw of size k at a counter offset, and the
    words it uses."""
    if method == "raw":
        return np.array(_scalar_raw(seed, k, offset), dtype=np.uint64), k
    if method == "uniform":
        return _uniforms(seed, k, offset), k
    if method == "permutation":
        u = _uniforms(seed, k, offset)
        return np.array(sorted(range(k), key=lambda i: u[i]), dtype=np.intp), k
    z = _box_muller(_uniforms(seed, 2 * k, offset), 2 * k)
    return z[:k] + 1j * z[k:], 2 * k


METHODS = ("raw", "uniform", "complex_normal", "permutation")
SIZES = (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK)


def _interleaved(r):
    # every (method, size) pair once: gcd(4, 7) = 1
    return [(m, k, getattr(r, m)(k)) for m, k in
            ((METHODS[i % 4], SIZES[i % 7]) for i in range(28))]


def test_interleaved_draws_across_block_boundaries():
    seed = 2024
    offset = 0
    for method, k, got in _interleaved(PortableRng(seed)):
        want, used = _expected(seed, method, k, offset)
        assert got.dtype == want.dtype and got.shape == want.shape, (method, k)
        assert got.tobytes() == want.tobytes(), (method, k, offset)
        offset += used


@pytest.mark.parametrize("block", [1, 2, 7, 1000])
def test_bits_do_not_depend_on_the_block_size(monkeypatch, block):
    default = _interleaved(PortableRng(77))
    monkeypatch.setattr(rng_module, "_BLOCK", block)
    for (m, k, want), (_, _, got) in zip(default, _interleaved(PortableRng(77))):
        assert got.tobytes() == want.tobytes(), (m, k)


@pytest.mark.parametrize("method", METHODS)
def test_draws_own_their_data(method):
    r, twin = PortableRng(5), PortableRng(5)
    got = getattr(r, method)(3)
    getattr(twin, method)(3)
    assert got.flags.owndata and got.flags.writeable
    assert got.base is None
    got[...] = 0
    # the next draw comes from the same block and is unchanged
    assert r.uniform(4).tobytes() == twin.uniform(4).tobytes()
    assert r.complex_normal((2, 2)).tobytes() == twin.complex_normal((2, 2)).tobytes()


@pytest.mark.parametrize("method, size", [
    ("raw", 2.5),
    ("raw", -2),
    ("raw", True),
    ("uniform", -1),
    ("uniform", np.int64(3)),
    ("permutation", False),
    ("complex_normal", -3),
    ("complex_normal", (2, 1.5)),
    ("complex_normal", (2, -1)),
    ("complex_normal", True),
    ("complex_normal", (3, True)),
])
def test_an_invalid_size_is_rejected_before_the_stream_moves(method, size):
    r = PortableRng(31)
    first = r.raw(3)
    with pytest.raises(ValueError, match="non-negative int"):
        getattr(r, method)(size)
    assert [int(x) for x in first] == _scalar_raw(31, 3)
    assert [int(x) for x in r.raw(2)] == _scalar_raw(31, 2, offset=3)
    assert r.uniform(1).tobytes() == _uniforms(31, 1, 5).tobytes()
