"""Arithmetic over GF(2^8).

Convention: reduction polynomial 0x11D (x^8 + x^4 + x^3 + x^2 + 1) with
primitive element 0x02, the usual Reed-Solomon parameterization.  Because
0x02 is primitive under this polynomial, its powers give distinct nonzero
coefficients for up to 255 symbol positions, which is what the global
parities of the heptagon-local code rely on.

The log/antilog tables are immutable after import and every operation here
is a pure function, so concurrent use needs no synchronization.  The
tests check every table product against an independent schoolbook
multiplier, and every inverse.
"""

from __future__ import annotations

REDUCING_POLY = 0x11D
GENERATOR = 0x02


def mul_bitwise(a: int, b: int) -> int:
    """Carry-less schoolbook product of two field elements, reduced mod
    REDUCING_POLY.  Slow table-free reference path."""
    if not (0 <= a < 256 and 0 <= b < 256):
        raise ValueError("field elements live in [0, 255]")
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= REDUCING_POLY
    return acc


def _build_tables():
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = mul_bitwise(x, GENERATOR)
    if x != 1:
        raise AssertionError("generator 0x02 is not primitive under 0x11D")
    # doubled antilog table lets gf_mul skip the mod-255 reduction
    for i in range(255, 510):
        exp[i] = exp[i - 255]
    return tuple(exp), tuple(log)


_EXP, _LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return _EXP[255 - _LOG[a]]


def gf_pow(a: int, k: int) -> int:
    """a**k with 0**0 defined as 1."""
    if k < 0:
        raise ValueError("negative exponent")
    if k == 0:
        return 1
    if a == 0:
        return 0
    return _EXP[(_LOG[a] * k) % 255]


# ---------------------------------------------------------------------------
# Block scaling: a "block" is an opaque bytes payload treated as a vector
# over GF(2^8), one field element per byte position.  Adding blocks needs no
# helper here: callers XOR the blocks' little-endian int forms.

_SCALE_TABLES: dict[int, bytes] = {}


def _scale_table(coef: int) -> bytes:
    tbl = _SCALE_TABLES.get(coef)
    if tbl is None:
        lc = _LOG[coef]
        tbl = bytes(_EXP[lc + _LOG[x]] if x else 0 for x in range(256))
        _SCALE_TABLES[coef] = tbl
    return tbl


def scale_bytes(coef: int, data: bytes) -> bytes:
    """Multiply every byte of *data* by *coef*."""
    if coef == 0:
        return bytes(len(data))
    if coef == 1:
        return bytes(data)
    return bytes(data).translate(_scale_table(coef))

