"""The C kernels draw exactly what numpy's ``Generator`` draws.

The native GA step and topological walk reproduce ``Generator.random``,
``integers(lo, hi)`` and ``permutation(k)`` through the bit generator's
``ctypes`` interface.  Each C primitive must return numpy's value and
leave an equal ``bit_generator.state``, on every numpy bit generator and
from a half-used 32-bit buffer (PCG64 keeps the upper half of a 64-bit
output for the next 32-bit draw).
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
