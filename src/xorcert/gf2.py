"""GF(2^s) arithmetic on int-encoded polynomials and bitset linear algebra.

Field elements are ints whose bits are polynomial coefficients. The modulus
for each degree s <= 32 is a fixed published primitive polynomial.
"""

from __future__ import annotations

from typing import Sequence

# Primitive polynomials over GF(2), degree -> int encoding (bit i = coeff of x^i).
IRREDUCIBLE: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: 0b1000000000010000001,
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
    21: 0b1000000000000000000101,
    22: 0b10000000000000000000011,
    23: 0b100000000000000000100001,
    24: 0b1000000000000000010000111,
    25: 0b10000000000000000000001001,
    26: 0b100000000000000000001000111,
    27: 0b1000000000000000000000100111,
    28: 0b10000000000000000000000001001,
    29: 0b100000000000000000000000000101,
    30: 0b1000000100000000000000000000111,
    31: 0b10000000000000000000000000001001,
    32: 0b100000000010000000000000000000111,
}


def gf_mul(a: int, b: int, s: int) -> int:
    """Product in GF(2^s)."""
    poly = IRREDUCIBLE[s]
    top = 1 << s
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return acc


def find_xor_dependency(vectors: Sequence[int]) -> list[int] | None:
    """Indices of a nonempty subset of vectors XOR-ing to zero, if one exists.

    Returns the first dependency found while inserting vectors in order, so the
    result is deterministic. Each vector is an int-encoded GF(2) row.
    """
    # pivot bit -> (reduced row, combination mask over input indices)
    basis: dict[int, tuple[int, int]] = {}
    for idx, row in enumerate(vectors):
        combo = 1 << idx
        while row:
            pivot = row.bit_length() - 1
            entry = basis.get(pivot)
            if entry is None:
                basis[pivot] = (row, combo)
                break
            row ^= entry[0]
            combo ^= entry[1]
        else:
            return [i for i in range(idx + 1) if (combo >> i) & 1]
    return None
