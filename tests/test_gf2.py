import random

from xorcert.gf2 import IRREDUCIBLE, find_xor_dependency, gf_mul

from helpers import gf2_rank, gf_pow


def _poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _poly_mul_mod(a: int, b: int, m: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a = _poly_mod(a << 1, m)
    return acc


def _poly_pow_mod(a: int, e: int, m: int) -> int:
    acc = 1
    while e:
        if e & 1:
            acc = _poly_mul_mod(acc, a, m)
        a = _poly_mul_mod(a, a, m)
        e >>= 1
    return acc


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def test_table_entries_are_irreducible():
    """Rabin's test on every shipped modulus."""
    for s, poly in IRREDUCIBLE.items():
        assert poly.bit_length() - 1 == s
        if s == 1:
            continue
        x = 0b10
        assert _poly_pow_mod(x, 1 << s, poly) == _poly_mod(x, poly)
        factors = set()
        q, d = s, 2
        while d * d <= q:
            while q % d == 0:
                factors.add(d)
                q //= d
            d += 1
        if q > 1:
            factors.add(q)
        for p in factors:
            h = _poly_pow_mod(x, 1 << (s // p), poly) ^ x
            assert _poly_gcd(poly, h) == 1


def test_field_axioms_small():
    for s in (2, 3, 4):
        size = 1 << s
        for a in range(size):
            assert gf_mul(a, 1, s) == a
            for b in range(size):
                assert gf_mul(a, b, s) == gf_mul(b, a, s)
        # nonzero elements form a group: every one has an inverse
        for a in range(1, size):
            assert any(gf_mul(a, b, s) == 1 for b in range(1, size))


def test_pow_matches_repeated_mul():
    rng = random.Random(1)
    for _ in range(50):
        s = rng.randint(2, 8)
        a = rng.randrange(1 << s)
        e = rng.randrange(12)
        acc = 1
        for _ in range(e):
            acc = gf_mul(acc, a, s)
        assert gf_pow(a, e, s) == acc
    assert gf_pow(0, 0, 3) == 1


def test_rank():
    assert gf2_rank([0b001, 0b010, 0b100]) == 3
    assert gf2_rank([0b011, 0b101, 0b110]) == 2
    assert gf2_rank([0, 0]) == 0


def test_find_xor_dependency():
    assert find_xor_dependency([0b01, 0b10, 0b11]) == [0, 1, 2]
    assert find_xor_dependency([0b01, 0b10]) is None
    assert find_xor_dependency([0b0]) == [0]
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 10)
        vectors = [rng.randrange(1 << n) for _ in range(n + 1)]
        dep = find_xor_dependency(vectors)
        assert dep is not None  # n+1 vectors in an n-dim space must collide
        acc = 0
        for i in dep:
            acc ^= vectors[i]
        assert acc == 0
