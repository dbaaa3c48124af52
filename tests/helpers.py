"""Shared generators for the test suites; everything is seeded and cheap."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from xorcert.circuits import Circuit, JuntaGate
from xorcert.core import (
    Dyadic,
    Hypergraph,
    XorInstance,
    XorScheme,
    make_instance,
    subset_rank,
)
from xorcert.fourier import FourierExpansion, ParityClass, classify_parity, expand_junta
from xorcert.gf2 import gf_mul


def random_instance(
    rng: random.Random,
    n: int,
    k: int,
    m: int,
    weighted: bool = False,
    rhs: list[int] | None = None,
) -> XorInstance:
    edges = [tuple(sorted(rng.sample(range(n), k))) for _ in range(m)]
    if rhs is None:
        rhs = [rng.choice((1, -1)) for _ in range(m)]
    weights = None
    if weighted:
        weights = [Dyadic(rng.randint(-8, 8), 3) for _ in range(m)]
    return make_instance(n, edges, rhs, weights=weights)


def random_other_circuit(rng: random.Random, n: int, t: int, m: int) -> Circuit:
    """Junta circuit whose outputs are all non-parities."""
    gates = []
    while len(gates) < m:
        inputs = tuple(sorted(rng.sample(range(n), t)))
        table = tuple(rng.randrange(2) for _ in range(1 << t))
        gate = JuntaGate(inputs, table)
        if classify_parity(expand_junta(gate, n)) is ParityClass.OTHER:
            gates.append(gate)
    return Circuit(n, 1, t, tuple(gates))


def random_pruned_circuit(rng: random.Random, n: int, t: int, m: int) -> Circuit:
    """Non-parity junta circuit with 3 outputs overwritten by single-input
    gates on distinct inputs: avoid prunes them, and they hold no GF(2)
    dependency, so only the refutation path can succeed."""
    gates = list(random_other_circuit(rng, n, t, m).gates)
    for pos, v in zip(rng.sample(range(m), 3), rng.sample(range(n), 3)):
        gates[pos] = JuntaGate((v,), rng.choice(((0, 1), (1, 0))))
    return Circuit(n, 1, t, tuple(gates))


def signs(rng: random.Random, m: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(m))


def reference_kikuchi(
    inst: XorInstance, r: int
) -> tuple[dict[tuple[int, int], Dyadic], tuple[int, ...]]:
    """(entries, degrees) of the level-r Kikuchi matrix, enumerated per edge
    copy: every ordered pair (S, T) with S xor T equal to the copy adds 1 to
    the degree of S and, above the diagonal, b * w to the entry. Zero sums
    are dropped. The uniform even arity and the level are taken as given."""
    n = inst.n
    half = inst.arity // 2
    entries: dict[tuple[int, int], Dyadic] = {}
    degrees = [0] * comb(n, r)
    for edge, w, b in zip(inst.scheme.hypergraph.edges, inst.scheme.weights, inst.rhs):
        value = Dyadic(b * w.num, w.log_den)
        outside = [v for v in range(n) if v not in edge]
        for inner in combinations(edge, half):
            comp = tuple(v for v in edge if v not in inner)
            for out in combinations(outside, r - half):
                si = subset_rank(tuple(sorted(inner + out)), n, r)
                ti = subset_rank(tuple(sorted(comp + out)), n, r)
                degrees[si] += 1
                if si < ti:
                    entries[(si, ti)] = entries.get((si, ti), Dyadic(0)) + value
    entries = {key: v for key, v in entries.items() if not v.is_zero()}
    return entries, tuple(degrees)


def reference_odd_split(
    inst: XorInstance,
) -> tuple[int, Fraction, dict[int, XorInstance]]:
    """(n_groups, diag_term, buckets) of the Cauchy-Schwarz split, written out
    one copy at a time: edges are grouped on their minimum vertex (zero
    weights skipped), every pair of group-mates with an empty symmetric
    difference adds 2 * b * w to the constant part, and every other pair is
    emitted twice, as an edge of weight w_a * w_b and sign b_a * b_b in the
    bucket of its difference's size. The uniform odd arity is taken as given."""
    groups: dict[int, list[int]] = {}
    for idx, (edge, w) in enumerate(zip(inst.scheme.hypergraph.edges, inst.scheme.weights)):
        if not w.is_zero():
            groups.setdefault(edge[0], []).append(idx)
    edges, weights, rhs = inst.scheme.hypergraph.edges, inst.scheme.weights, inst.rhs
    diag = Fraction(0)
    copies: dict[int, list[tuple[tuple[int, ...], Dyadic, int]]] = {}
    for members in groups.values():
        for idx in members:
            diag += weights[idx].as_fraction() ** 2
        for pos, ia in enumerate(members):
            for ib in members[pos + 1:]:
                sym = tuple(sorted(set(edges[ia]) ^ set(edges[ib])))
                w = weights[ia] * weights[ib]
                sign = rhs[ia] * rhs[ib]
                if not sym:
                    diag += 2 * sign * w.as_fraction()
                else:
                    copies.setdefault(len(sym), []).extend([(sym, w, sign)] * 2)
    buckets = {
        size: XorInstance(
            XorScheme(
                Hypergraph(inst.n, tuple(e for e, _, _ in items)),
                tuple(w for _, w, _ in items),
                size,
            ),
            tuple(b for _, _, b in items),
        )
        for size, items in copies.items()
    }
    return len(groups), diag, buckets



def split_to_unit_weights(inst: XorInstance) -> tuple[XorInstance, Fraction]:
    """Per-granule reference for ``RefuteParams(split_weights=True)``: every
    edge of weight num * 2^-L, with 2^-L the finest weight scale, becomes
    |num| parallel copies of weight 2^-L, the sign moved into the copied
    right-hand sides. The term sums agree, so with m' copies in total,
    val(original) = (m' / m) * val(split). Returns (split instance, m'/m)."""
    log_scale = max((w.log_den for w in inst.scheme.weights), default=0)
    granule = Dyadic(1, log_scale)
    edges = []
    rhs = []
    for edge, w, b in zip(inst.scheme.hypergraph.edges, inst.scheme.weights, inst.rhs):
        scaled = w.scaled(log_scale)
        sign = 1 if scaled >= 0 else -1
        for _ in range(abs(scaled)):
            edges.append(edge)
            rhs.append(sign * b)
    split = XorInstance(
        XorScheme(Hypergraph(inst.n, tuple(edges)), (granule,) * len(edges), inst.arity),
        tuple(rhs),
    )
    if inst.m == 0:
        return split, Fraction(1)
    return split, Fraction(len(edges), inst.m)


def dyadic_div(a: Dyadic, b: Dyadic) -> Dyadic:
    """a / b, which must again be dyadic; ValueError otherwise."""
    if b.num == 0:
        raise ZeroDivisionError("dyadic division by zero")
    # split the divisor numerator into odd part and power of two
    two_exp = (abs(b.num) & -abs(b.num)).bit_length() - 1
    odd = b.num >> two_exp
    if a.num % odd != 0:
        raise ValueError(f"{a} / {b} is not dyadic")
    return Dyadic(a.num // odd, a.log_den + two_exp - b.log_den)


def subset_unrank(rank: int, n: int, r: int) -> tuple[int, ...]:
    """Inverse of ``subset_rank``: the r-subset of range(n) of that colex rank."""
    assert 0 <= rank < comb(n, r)
    out = []
    hi = n
    for i in range(r, 0, -1):
        # largest v with C(v, i) <= rank; scan downward from the previous pick
        v = hi - 1
        while comb(v, i) > rank:
            v -= 1
        out.append(v)
        rank -= comb(v, i)
        hi = v
    return tuple(reversed(out))


def gf_pow(a: int, e: int, s: int) -> int:
    """a**e in GF(2^s) by square and multiply; 0**0 is taken to be 1."""
    acc = 1
    base = a
    while e:
        if e & 1:
            acc = gf_mul(acc, base, s)
        base = gf_mul(base, base, s)
        e >>= 1
    return acc


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of int-encoded row vectors."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def l1_mass(exp: FourierExpansion) -> Dyadic:
    """Sum of |coefficient| over the expansion."""
    total = Dyadic(0)
    for c in exp.coeffs.values():
        total = total + abs(c)
    return total
