"""The C kernels draw exactly what numpy's ``Generator`` draws.

The native GA step and topological walk reproduce ``Generator.random``,
``integers(lo, hi)`` and ``permutation(k)`` through the bit generator's
``ctypes`` interface; the population fill adds ``integers(m, size=n)``
and the Monte-Carlo kernel ``uniform(low, high, size=(R, n))``.  Each C
primitive must return numpy's values and leave an equal
``bit_generator.state``, on every numpy bit generator and from a
half-used 32-bit buffer (PCG64 keeps the upper half of a 64-bit output
for the next 32-bit draw).
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.graph import _native

BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]

#: 1, 2, 3, every power of two and every power of two plus one below 2^32,
#: and the largest range a 32-bit draw covers.
RANGES = sorted(
    {1, 2, 3, 2**32 - 1}
    | {2**k for k in range(1, 32)}
    | {2**k + 1 for k in range(1, 32)}
)


@pytest.fixture
def lib():
    lib = _native.get_lib()
    if lib is None:
        pytest.skip("native kernel unavailable")
    return lib


def c_random(lib, gen):
    with gen.bit_generator.lock:
        return lib.rg_random(_native.bitgen(gen))


def c_integers(lib, gen, lo, hi):
    out = ctypes.c_int64()
    with gen.bit_generator.lock:
        rc = lib.rg_integers(_native.bitgen(gen), lo, hi, ctypes.addressof(out))
    assert rc == 0
    return out.value


def c_permutation(lib, gen, k):
    out = np.empty(k, dtype=np.int64)
    with gen.bit_generator.lock:
        rc = lib.rg_permutation(_native.bitgen(gen), k, out.ctypes.data)
    assert rc == 0
    return out


def c_integers_fill(lib, gen, m, k):
    out = np.empty(k, dtype=np.int64)
    with gen.bit_generator.lock:
        rc = lib.rg_integers_fill(_native.bitgen(gen), m, k, out.ctypes.data)
    assert rc == 0
    return out


def c_uniform(lib, gen, low, high, r):
    """``rg_uniform``'s node-major block, as numpy's ``(r, n)`` layout."""
    low = np.ascontiguousarray(low)
    span = np.ascontiguousarray(high - low)
    out = np.empty((low.size, r))
    with gen.bit_generator.lock:
        lib.rg_uniform(
            _native.bitgen(gen),
            r,
            low.size,
            low.ctypes.data,
            span.ctypes.data,
            out.ctypes.data,
        )
    return out.T


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 array's bit patterns: equal bits, not merely equal values."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def same_state(a, b) -> bool:
    """Bit generator states compare field by field (MT19937 holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def twin_generators(bit_generator, seed):
    """Two equal generators, each with half of a 64-bit output buffered."""
    a = np.random.Generator(bit_generator(seed))
    b = np.random.Generator(bit_generator(seed))
    a.integers(0, 3)
    b.integers(0, 3)
    return a, b


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
class TestDrawContract:
    def test_integers_over_every_range(self, lib, bit_generator):
        numpy_gen, c_gen = twin_generators(bit_generator, 11)
        for width in RANGES:
            lo = int(numpy_gen.integers(-1000, 1000))
            assert lo == c_integers(lib, c_gen, -1000, 1000)
            assert numpy_gen.integers(lo, lo + width) == c_integers(
                lib, c_gen, lo, lo + width
            )
        assert same_state(numpy_gen.bit_generator.state, c_gen.bit_generator.state)

    def test_permutations_up_to_70(self, lib, bit_generator):
        numpy_gen, c_gen = twin_generators(bit_generator, 12)
        for k in range(71):
            assert np.array_equal(numpy_gen.permutation(k), c_permutation(lib, c_gen, k))
        assert same_state(numpy_gen.bit_generator.state, c_gen.bit_generator.state)

    def test_integer_arrays(self, lib, bit_generator):
        """``integers(m, size=k)`` for every range of ``RANGES`` below
        2^32 and several lengths; ``m = 1`` draws nothing."""
        numpy_gen, c_gen = twin_generators(bit_generator, 13)
        for m in [r for r in RANGES if r < 2**32]:
            for k in (0, 1, 7, 60):
                assert np.array_equal(
                    numpy_gen.integers(m, size=k), c_integers_fill(lib, c_gen, m, k)
                )
        assert same_state(numpy_gen.bit_generator.state, c_gen.bit_generator.state)
        before = c_gen.bit_generator.state
        assert not c_integers_fill(lib, c_gen, 1, 60).any()
        assert same_state(before, c_gen.bit_generator.state)

    def test_uniform_blocks(self, lib, bit_generator):
        """``uniform(low, high, size=(r, n))``, bit for bit, for task
        counts and block widths on both sides of the Monte-Carlo block."""
        numpy_gen, c_gen = twin_generators(bit_generator, 14)
        script = np.random.default_rng(15)
        for n in (1, 2, 17, 70):
            block = _native.MC_BLOCK
            for r in (1, block - 1, block, 2 * block + 3):
                low = script.uniform(0.5, 20.0, size=n)
                high = low * script.uniform(1.0, 15.0, size=n)
                assert np.array_equal(
                    bits(numpy_gen.uniform(low, high, size=(r, n))),
                    bits(c_uniform(lib, c_gen, low, high, r)),
                )
        assert same_state(numpy_gen.bit_generator.state, c_gen.bit_generator.state)

    def test_random_draw_scripts(self, lib, bit_generator):
        """Interleaved random(), integers() and permutation() calls, each
        script from its own seed, end in the same state on both sides."""
        for seed in range(40):
            numpy_gen, c_gen = twin_generators(bit_generator, seed)
            script = np.random.default_rng(1000 + seed)
            for _ in range(30):
                op = script.integers(3)
                if op == 0:
                    assert numpy_gen.random() == c_random(lib, c_gen)
                elif op == 1:
                    width = int(script.choice(RANGES))
                    lo = int(script.integers(-(2**40), 2**40))
                    assert numpy_gen.integers(lo, lo + width) == c_integers(
                        lib, c_gen, lo, lo + width
                    )
                else:
                    k = int(script.integers(71))
                    assert np.array_equal(
                        numpy_gen.permutation(k), c_permutation(lib, c_gen, k)
                    )
            assert same_state(
                numpy_gen.bit_generator.state, c_gen.bit_generator.state
            )


@pytest.mark.parametrize("m", [0, -3, 2**32])
def test_integer_arrays_outside_32_bits_are_an_error(lib, m):
    """A range below 1 or of 2^32 or more draws nothing and fails."""
    gen = np.random.default_rng(4)
    before = gen.bit_generator.state
    out = np.empty(5, dtype=np.int64)
    with gen.bit_generator.lock:
        rc = lib.rg_integers_fill(_native.bitgen(gen), m, 5, out.ctypes.data)
    assert rc == -1
    assert gen.bit_generator.state == before


@pytest.mark.parametrize("lo, hi", [(0, 0), (5, 4), (0, 2**32), (-(2**40), 2**40)])
def test_integers_outside_32_bits_is_an_error(lib, lo, hi):
    """An empty range or one of 2^32 or more draws nothing and fails."""
    gen = np.random.default_rng(3)
    before = gen.bit_generator.state
    out = ctypes.c_int64()
    with gen.bit_generator.lock:
        rc = lib.rg_integers(_native.bitgen(gen), lo, hi, ctypes.addressof(out))
    assert rc == -1
    assert gen.bit_generator.state == before
