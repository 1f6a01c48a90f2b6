import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycode import gf256
from polycode.gf256 import (
    gf_inv,
    gf_mul,
    gf_pow,
    scale_bytes,
)


def slow_mul(a, b):
    """Independent schoolbook reference: shift-and-add mod x^8+x^4+x^3+x^2+1."""
    product = 0
    for bit in range(8):
        if (b >> bit) & 1:
            product ^= a << bit
    for bit in range(15, 7, -1):
        if (product >> bit) & 1:
            product ^= 0x11D << (bit - 8)
    return product


def test_tables_match_schoolbook_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == slow_mul(a, b)


@pytest.mark.parametrize("a", [0, 1, 2, 0x53, 0x80, 0xFF])
def test_identity_and_zero(a):
    assert gf_mul(a, 1) == a
    assert gf_mul(a, 0) == 0
    assert gf_mul(0, a) == 0


def test_known_products():
    # 0x80 * x == x^8 == x^4+x^3+x^2+1 under the reduction polynomial
    assert slow_mul(0x80, 0x02) == 0x1D
    assert gf_mul(0x80, 0x02) == 0x1D
    assert gf_pow(0x02, 8) == 0x1D


def test_inverse_exhaustive():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1
        assert gf_inv(gf_inv(a)) == a
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def test_inverse_of_two_by_search():
    candidates = [b for b in range(1, 256) if slow_mul(0x02, b) == 1]
    assert candidates == [0x8E]
    assert gf_inv(0x02) == 0x8E


def test_associativity_and_distributivity_sampled():
    rng = random.Random(0xC0DE)
    for _ in range(100_000):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_generator_is_primitive():
    powers = {gf_pow(0x02, i) for i in range(255)}
    assert len(powers) == 255
    assert gf_pow(0x02, 255) == 1


def test_pow_edge_cases():
    assert gf_pow(0, 0) == 1
    assert gf_pow(0x02, 0) == 1
    assert gf_pow(0x02, 1) == 0x02
    assert gf_pow(0, 5) == 0
    with pytest.raises(ValueError):
        gf_pow(3, -1)


@given(st.binary(min_size=0, max_size=64), st.integers(0, 255))
def test_scale_bytes_matches_per_byte(data, coef):
    assert scale_bytes(coef, data) == bytes(gf_mul(coef, x) for x in data)


def xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def test_scale_is_linear_over_xor():
    rng = random.Random(3)
    a = rng.randbytes(128)
    b = rng.randbytes(128)
    for coef in (0, 1, 2, 0x8E, 0xFF):
        assert scale_bytes(coef, xor(a, b)) == xor(scale_bytes(coef, a), scale_bytes(coef, b))


def test_module_constants():
    assert gf256.REDUCING_POLY == 0x11D
    assert gf256.GENERATOR == 0x02
