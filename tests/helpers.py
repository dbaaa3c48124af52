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
from xorcert.fourier import ParityClass, classify_parity, expand_junta


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
