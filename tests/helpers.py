"""Shared generators for the test suites; everything is seeded and cheap."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
from hypothesis import strategies as st

from xorcert import refuter
from xorcert.avoid import AvoidResult, _parity_dependency
from xorcert.circuits import Circuit, JuntaGate, LayeredCircuit, Leaf, Node, TreeNode, WordDecisionTree
from xorcert.core import (
    MAX_LOG_DEN,
    Dyadic,
    Hypergraph,
    ValidationError,
    XorInstance,
    XorScheme,
    make_instance,
    validate_instance,
)
from xorcert.fourier import (
    FourierExpansion,
    ParityClass,
    classify_parity,
    expand_junta,
    junta_spectra,
)
from xorcert.gf2 import gf_mul
from xorcert.refuter import (
    Certificate,
    KikuchiOperator,
    PreparedPart,
    PreparedScheme,
    PreparedSchemes,
    RefuteParams,
)


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


def random_junta_gate(rng: random.Random, n: int, fan_in: int) -> JuntaGate:
    """A gate on fan_in of n inputs, in any order: a random table, a
    constant, a (negated) parity, or a random table on a random subset of
    its inputs, so that its true support is smaller than its fan-in."""
    inputs = tuple(rng.sample(range(n), fan_in))
    kind = rng.randrange(4)
    used = rng.randrange(1 << fan_in)
    if kind == 0:
        table = [rng.randrange(2) for _ in range(1 << fan_in)]
    elif kind == 1:
        table = [rng.randrange(2)] * (1 << fan_in)
    elif kind == 2:
        flip = rng.randrange(2)
        table = [((a & used).bit_count() + flip) & 1 for a in range(1 << fan_in)]
    else:
        sub = [rng.randrange(2) for _ in range(1 << fan_in)]
        table = [sub[a & used] for a in range(1 << fan_in)]
    return JuntaGate(inputs, tuple(table))


def reference_junta_violations(gate: JuntaGate, n: int, t: int) -> list[str]:
    """A junta gate's violations by one walk over its inputs and table, in
    the order of ``Circuit.violations``; a gate with an input that is not
    an integer gets no duplicate or range check."""
    out = []
    if len(gate.inputs) > t:
        out.append(f"{len(gate.inputs)} inputs exceed fan-in bound {t}")
    if not all(hasattr(type(v), "__index__") for v in gate.inputs):
        out.append(f"non-integer input index in {gate.inputs}")
    else:
        if len(set(gate.inputs)) != len(gate.inputs):
            out.append(f"duplicate input index in {gate.inputs}")
        if any(not 0 <= v < n for v in gate.inputs):
            out.append(f"input index out of range in {gate.inputs}")
    if len(gate.table) != 1 << len(gate.inputs):
        out.append(f"table length {len(gate.table)} != 2^{len(gate.inputs)}")
    if any(b not in (0, 1) for b in gate.table):
        out.append("table entries must be bits")
    return out


def draw_tree(draw, n: int, w: int, t: int, depth: int = 0) -> TreeNode:
    """A valid word tree of depth at most t over n symbols, drawn by
    Hypothesis: it may stop at any depth, the root included, and a path may
    query a symbol twice."""
    if depth == t or draw(st.integers(0, 2), label="leaf") == 0:
        return Leaf(draw(st.sampled_from((1, -1)), label="value"))
    query = draw(st.integers(0, n - 1), label="query")
    return Node(query, tuple(draw_tree(draw, n, w, t, depth + 1) for _ in range(1 << w)))


def reference_tree_violations(tree: WordDecisionTree, n: int, w: int, t: int) -> list[str]:
    """A tree gate's violations by one recursive walk over its nodes, in the
    order of ``Circuit.violations``; a node at depth t is too deep, and
    nothing below it is walked."""
    out: list[str] = []

    def go(node: TreeNode, depth: int) -> None:
        if isinstance(node, Leaf):
            if node.value not in (1, -1):
                out.append(f"leaf value {node.value} not a sign")
            return
        if depth >= t:
            out.append(f"query depth exceeds {t}")
            return
        if not hasattr(type(node.query), "__index__"):
            out.append(f"non-integer query index {node.query}")
        elif not 0 <= node.query < n:
            out.append(f"query index {node.query} out of range [0, {n})")
        if len(node.children) != 1 << w:
            out.append(f"node has {len(node.children)} children, expected {1 << w}")
        for c in node.children:
            go(c, depth + 1)

    go(tree.root, 0)
    return out


def random_pruned_circuit(rng: random.Random, n: int, t: int, m: int) -> Circuit:
    """Non-parity junta circuit with 3 outputs overwritten by single-input
    gates on distinct inputs: avoid prunes them, and they hold no GF(2)
    dependency, so only the refutation path can succeed."""
    gates = list(random_other_circuit(rng, n, t, m).gates)
    for pos, v in zip(rng.sample(range(m), 3), rng.sample(range(n), 3)):
        gates[pos] = JuntaGate((v,), rng.choice(((0, 1), (1, 0))))
    return Circuit(n, 1, t, tuple(gates))


def reference_expand_junta(gate: JuntaGate, n_vars: int | None = None) -> FourierExpansion:
    """Exact transform of a junta truth table by direct character summation,
    O(4^t) steps: the reference for the batched transform."""
    t = len(gate.inputs)
    if n_vars is None:
        n_vars = max(gate.inputs, default=-1) + 1
    coeffs: dict[tuple[int, ...], Dyadic] = {}
    for mask in range(1 << t):
        num = 0
        for a in range(1 << t):
            num += 1 - 2 * ((gate.table[a] + (a & mask).bit_count()) & 1)
        if num:
            alpha = tuple(
                sorted(gate.inputs[j] for j in range(t) if (mask >> j) & 1)
            )
            coeffs[alpha] = Dyadic(num, t)
    return FourierExpansion(n_vars, coeffs)


Buckets = dict[tuple[int, ...], tuple[Hypergraph, tuple[Dyadic, ...]]]


def reference_buckets(c: Circuit) -> Buckets:
    """The junta split of c written out densely from the reference
    expansions: every proper subset alpha of the t gate positions maps to a
    hypergraph and weights with one edge per output, the character on the
    gate's inputs at alpha with its coefficient, or a zero-weight filler edge
    range(|alpha|) where the gate reads alpha[-1] or fewer inputs."""
    expansions = [reference_expand_junta(gate, c.n) for gate in c.gates]
    buckets: Buckets = {}
    for size in range(c.t):
        for alpha in combinations(range(c.t), size):
            edges = []
            weights = []
            for gate, exp in zip(c.gates, expansions):
                if alpha and alpha[-1] >= len(gate.inputs):
                    edges.append(tuple(range(size)))  # zero-weight filler
                    weights.append(Dyadic(0))
                    continue
                char = tuple(sorted(gate.inputs[j] for j in alpha))
                edges.append(char)
                weights.append(exp.coeffs.get(char, Dyadic(0)))
            buckets[alpha] = (Hypergraph(c.n, tuple(edges)), tuple(weights))
    return buckets


def bucket_instance(buckets: Buckets, alpha: tuple[int, ...], b) -> XorInstance:
    """Bucket alpha of a reference split with right-hand side b."""
    hyper, weights = buckets[alpha]
    return XorInstance(XorScheme(hyper, weights, len(alpha)), tuple(b))


def edge_mask(edge) -> int:
    """The vertex bitmask of an edge given as its vertices."""
    return sum(1 << v for v in edge)


def reference_prepare_copies(m: int, schemes) -> PreparedSchemes:
    """Per-copy reference for preparation: each scheme, given as (vertex
    count n, [(rhs position, edge, weight)], {edge: zero-weight copies with
    no rhs position}), is put at the finest scale of its Dyadic weights, and
    its distinct edges are collected in a dict in order of first appearance,
    the zero-weight copies without a rhs position first, then grouped by
    size."""
    prepared = []
    rows: list[int] = []
    outputs: list[int] = []
    all_units: list[int] = []
    n_rows = 0
    for n, copies, zeros in schemes:
        log_den = max((w.log_den for _, _, w in copies), default=0)
        # edge -> [copies, live copies]
        acc = {edge: [count, 0] for edge, count in zeros.items() if count}
        start = len(outputs)
        live_edges = []
        for out, edge, w in copies:
            units = w.num << (log_den - w.log_den)
            entry = acc.setdefault(edge, [0, 0])
            entry[0] += 1
            if units:
                entry[1] += 1
                live_edges.append(edge)
                outputs.append(out)
                all_units.append(units)
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for edge in acc:
            by_size.setdefault(len(edge), []).append(edge)
        parts = []
        row_of: dict[tuple[int, ...], int] = {}
        for k, edges in sorted(by_size.items()):
            counts = [acc[e] for e in edges]
            # the prepared form keys each edge by its vertex bitmask
            masks = [edge_mask(e) for e in edges]
            parts.append(PreparedPart(
                n,
                k,
                log_den,
                slice(n_rows, n_rows + len(edges)),
                sum(c for c, _ in counts),
                tuple(masks),
                tuple(c for c, _ in counts),
                tuple(live for _, live in counts),
            ))
            for edge in edges:
                row_of[edge] = n_rows
                n_rows += 1
        rows.extend(map(row_of.__getitem__, live_edges))
        prepared.append(PreparedScheme(n, log_den, tuple(parts), (start, len(rows))))
    return PreparedSchemes(
        m,
        tuple(prepared),
        n_rows,
        np.array(rows, dtype=np.intp),
        np.array(outputs, dtype=np.intp),
        np.array(all_units, dtype=object),
    )


def reference_number_distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(number of each row's distinct key, the distinct keys in number
    order) for rows of keys (scheme, size, vertices): numbered by column 0,
    then column 1, then first row, by sorting all columns. The reference for
    the one-code numbering of ``prepare_rows``."""
    # a stable sort puts each distinct key's first row at the head of its run
    by_key = np.lexsort(keys.T[::-1])
    ordered = keys[by_key]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    distinct, first = ordered[head], by_key[head]
    order = np.lexsort((first, distinct[:, 1], distinct[:, 0]))
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.arange(len(order))
    row = np.empty(len(keys), dtype=np.intp)
    row[by_key] = number[np.cumsum(head) - 1]
    return row, distinct[order]


def reference_layered_characters(lc: LayeredCircuit, i: int) -> dict[tuple[int, ...], int]:
    """Characters of output i of a layered circuit, by one integer recursion
    per node: the reference for ``fourier.layered_characters``, keyed by the
    same per-layer codes, with coefficients in the same units of 2^-(t*w).

    The q-th query of the tree reads a whole w-bit group of layer q; the
    indicator of each symbol value v contributes (-1)^|v & gamma| * 2^-w on
    every sub-pattern gamma of the group, and deeper recursion only touches
    later layers, so a character's codes concatenate.
    """
    c = lc.circuit
    w, t = c.w, c.t
    flips = [[(v & gamma).bit_count() & 1 for v in range(1 << w)] for gamma in range(1 << w)]

    def go(node: TreeNode, layer: int) -> dict[tuple[int, ...], int]:
        if isinstance(node, Leaf):
            return {(0,) * (t - layer): node.value << ((t - layer) * w)}
        subs = [go(child, layer + 1) for child in node.children]
        out: dict[tuple[int, ...], int] = {}
        for gamma, flip in enumerate(flips):
            code = ((node.query << w) | gamma if gamma else 0,)
            for negate, sub in zip(flip, subs):
                for rest, units in sub.items():
                    key = code + rest
                    out[key] = out.get(key, 0) + (-units if negate else units)
        return {key: units for key, units in out.items() if units}

    return go(c.gates[i].root, 0)


def reference_expand_layered_output(lc: LayeredCircuit, i: int) -> FourierExpansion:
    """Expansion of output i of a layered circuit by the Dyadic recursion over
    bit indices: the reference for the integer recursion."""
    c = lc.circuit
    w = c.w

    def go(node, layer: int) -> dict[tuple[int, ...], Dyadic]:
        if isinstance(node, Leaf):
            return {(): Dyadic(node.value)}
        out: dict[tuple[int, ...], Dyadic] = {}
        base = lc.bit_index(layer, node.query, 0)
        for v, child in enumerate(node.children):
            sub = go(child, layer + 1)
            for gamma in range(1 << w):
                sign = 1 - 2 * ((v & gamma).bit_count() & 1)
                gvars = tuple(base + b for b in range(w) if (gamma >> b) & 1)
                for alpha, cf in sub.items():
                    char = gvars + alpha  # later layers only: already sorted
                    contrib = Dyadic(sign * cf.num, cf.log_den + w)
                    prev = out.get(char)
                    out[char] = contrib if prev is None else prev + contrib
        return {a: cf for a, cf in out.items() if not cf.is_zero()}

    return FourierExpansion(lc.n_bits, go(c.gates[i].root, 0))


def reference_group_characters(lc: LayeredCircuit) -> PreparedSchemes:
    """Every key's scheme of a tree circuit's ensemble in sorted key order,
    prepared by the per-copy reference from the reference expansions: a
    character's bits give its per-layer (mask, group), the characters of one
    output and one beta fill slots 1, 2, ... in colex order of their bit
    indices, and the outputs without a character at a key are zero-weight
    copies of the key's filler edge, group 0 of every used layer."""
    c = lc.circuit
    n, w, t, m = c.n, c.w, c.t, c.m
    slots = 1 << (t * w)
    keys = product(product(range(1 << w), repeat=t), range(1, slots + 1))
    copies: dict = {key: [] for key in keys}
    for i in range(m):
        per_beta: dict[tuple[int, ...], list] = {}
        for alpha, coeff in reference_expand_layered_output(lc, i).coeffs.items():
            beta = [0] * t
            groups = [0] * t
            for bit in alpha:
                layer, rem = divmod(bit, n * w)
                groups[layer], b = divmod(rem, w)
                beta[layer] |= 1 << b
            per_beta.setdefault(tuple(beta), []).append((alpha, groups, coeff))
        for beta, chars in per_beta.items():
            chars.sort(key=lambda ac: tuple(reversed(ac[0])))  # colex
            for slot, (_, groups, coeff) in enumerate(chars, 1):
                edge = tuple(layer * n + groups[layer] for layer in range(t) if beta[layer])
                copies[(beta, slot)].append((i, edge, coeff))
    return reference_prepare_copies(m, [
        (n * t, chars, {tuple(layer * n for layer in range(t) if beta[layer]): m - len(chars)})
        for (beta, _), chars in copies.items()
    ])


def prepare_buckets(m: int, buckets: Buckets) -> PreparedSchemes:
    """The reference buckets in sorted order, prepared by the per-copy
    reference."""
    return reference_prepare_copies(m, (
        (hyper.n, list(zip(range(m), hyper.edges, weights)), {})
        for _, (hyper, weights) in sorted(buckets.items())
    ))


def prepared_fields(p: PreparedSchemes) -> tuple:
    """Every field of prepared schemes, arrays as lists with their dtypes,
    so that two of them compare with ==."""
    return (
        p.m, p.schemes, p.n_rows, p.rows.tolist(), p.rows.dtype,
        p.outputs.tolist(), p.outputs.dtype, p.units.tolist(),
    )


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


def reference_kikuchi_pattern(n: int, k: int, r: int, edges, copies) -> refuter.KikuchiPattern:
    """The level-r pattern by the former build: each edge's vertices from a
    row of n bits per edge, the vertices outside it listed at every level
    and merged into both halves, and degrees summed by ``np.add.at``."""
    masks = np.array(edges, dtype=np.int64 if n <= 63 else object)
    bits = (masks[:, None] >> np.arange(n)) & 1
    verts = np.nonzero(bits)[1].reshape(len(edges), k)

    def ranks(chosen, added, table):
        below = added[..., None, :] < chosen[..., :, None]
        at_chosen = np.arange(chosen.shape[-1]) + below.sum(axis=-1)
        at_added = np.arange(added.shape[-1]) + (~below).sum(axis=-2)
        return table[chosen, at_chosen].sum(axis=-1) + table[added, at_added].sum(axis=-1)

    half = k // 2
    dim = comb(n, r)
    count = len(edges)
    member = np.zeros((count, n), dtype=bool)
    member[np.arange(count)[:, None], verts] = True
    outside = np.nonzero(~member)[1].reshape(count, n - k)
    picks = np.array(list(combinations(range(n - k), r - half)), dtype=np.intp)
    added = outside[:, picks][:, None]  # edge, 1, pick, vertex
    firsts = [c for c in combinations(range(k), half) if c[0] == 0]
    seconds = [[p for p in range(k) if p not in c] for c in firsts]
    table = np.array(
        [[comb(v, p + 1) if p <= v <= n - r + p else 0 for p in range(r)] for v in range(n)],
        dtype=np.int64,
    ).reshape(n, r)
    s = ranks(verts[:, firsts][:, :, None], added, table)  # edge, half, pick
    t = ranks(verts[:, seconds][:, :, None], added, table)
    edge = np.broadcast_to(np.arange(count)[:, None, None], s.shape).ravel()
    s, t = s.ravel(), t.ravel()
    rows, cols = np.minimum(s, t), np.maximum(s, t)
    order = np.argsort(rows * dim + cols)

    total = sum(copies) * comb(k, half) * comb(n - k, r - half)
    dtype = np.int64 if total < 1 << 63 else object
    weight = np.array(copies, dtype=dtype)[edge]
    degrees = np.zeros(dim, dtype=dtype)
    np.add.at(degrees, s, weight)
    np.add.at(degrees, t, weight)
    pattern = refuter.KikuchiPattern(rows[order], cols[order], edge[order], degrees)
    for array in (pattern.rows, pattern.cols, pattern.edge, pattern.degrees):
        array.flags.writeable = False
    return pattern


def pattern_fields(pattern: refuter.KikuchiPattern) -> list:
    """Each array of a pattern as (values, dtype, shape, writeable)."""
    return [
        (array.tolist(), array.dtype, array.shape, array.flags.writeable)
        for array in (pattern.rows, pattern.cols, pattern.edge, pattern.degrees)
    ]


def entry_dict(op: KikuchiOperator) -> dict[tuple[int, int], int]:
    """The stored entries of an operator as {(row, column): numerator}."""
    return dict(zip(zip(op.rows.tolist(), op.cols.tolist()), op.entries.tolist()))


def edge_table(part: PreparedPart, sums: np.ndarray) -> dict[int, tuple[int, int]]:
    """The distinct edges of a part, given the signed sums it reads its
    rows of, as {bitmask: (copies, signed sum)}."""
    return dict(zip(part.edges, zip(part.copies, sums[part.rows].tolist())))


def dyadic_entries(op: KikuchiOperator) -> dict[tuple[int, int], Dyadic]:
    """The entries of an operator as Dyadics, the form of ``reference_kikuchi``."""
    return {key: Dyadic(num, op.log_den) for key, num in entry_dict(op).items()}


def reference_gamma(op: KikuchiOperator) -> list[float]:
    """Gamma of every row by the former conversion: deg + d as a Fraction,
    then its float."""
    d = Fraction(op.trace_degree, op.dim)
    return [float(deg + d) for deg in op.degrees.tolist()]


def reference_dense_matrix(op: KikuchiOperator) -> np.ndarray:
    """The dense matrix by the former conversion: one float(Dyadic) per
    entry, scattered to both triangles."""
    a = np.zeros((op.dim, op.dim))
    for (i, j), num in entry_dict(op).items():
        a[i, j] = a[j, i] = float(Dyadic(num, op.log_den))
    return a


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



def reference_instance_violations(inst: XorInstance) -> list[str]:
    """An instance's violations by one walk per edge, weight and sign, in
    the order of ``XorInstance.violations``: an edge with a vertex that is
    not an integer gets no range or order check, and a weight whose log_den
    exceeds the bit length of its numerator is within [-1, 1]."""
    hypergraph, weights, arity = inst.scheme.hypergraph, inst.scheme.weights, inst.arity
    n = hypergraph.n
    out = [f"negative vertex count {n}"] if n < 0 else []
    for idx, e in enumerate(hypergraph.edges):
        if not all(hasattr(type(v), "__index__") for v in e):
            out.append(f"edge {idx}: non-integer vertex in {e}")
            continue
        if any(not 0 <= v < n for v in e):
            out.append(f"edge {idx}: vertex out of range in {e}")
        if any(e[i - 1] >= e[i] for i in range(1, len(e))):
            out.append(f"edge {idx}: vertices not strictly increasing in {e}")
    if len(weights) != hypergraph.m:
        out.append(f"{len(weights)} weights for {hypergraph.m} edges")
    for idx, w in enumerate(weights):
        if w.log_den <= abs(w.num).bit_length() and abs(w.as_fraction()) > 1:
            out.append(f"edge {idx}: weight {w} outside [-1, 1]")
        if w.log_den > MAX_LOG_DEN:
            out.append(f"edge {idx}: weight {w} log_den above {MAX_LOG_DEN}")
    if arity is not None:
        for idx, e in enumerate(hypergraph.edges):
            if len(e) != arity:
                out.append(f"edge {idx}: arity {len(e)} != declared {arity}")
    if len(inst.rhs) != hypergraph.m:
        out.append(f"{len(inst.rhs)} rhs signs for {hypergraph.m} edges")
    for idx, b in enumerate(inst.rhs):
        if b not in (1, -1):
            out.append(f"edge {idx}: rhs {b} not in {{+1, -1}}")
    return out


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


def dyadic_from_fraction(f: Fraction) -> Dyadic:
    """The Dyadic equal to f; ValueError if its denominator is not a power of two."""
    den = f.denominator
    log_den = den.bit_length() - 1
    if den != 1 << log_den:
        raise ValueError(f"{f} is not a dyadic rational")
    return Dyadic(f.numerator, log_den)


def evaluate(exp: FourierExpansion, x) -> Dyadic:
    """The expansion's value at the +-1 point x: the sum of c_alpha * x^alpha."""
    total = Dyadic(0)
    for alpha, c in exp.coeffs.items():
        sign = 1
        for v in alpha:
            sign *= x[v]
        total = total + Dyadic(sign * c.num, c.log_den)
    return total


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


def subset_rank(subset, n: int, r: int) -> int:
    """Colexicographic rank of a sorted r-subset of range(n)."""
    errors = []
    if len(subset) != r:
        errors.append(f"expected {r} elements, got {len(subset)}")
    for i, v in enumerate(subset):
        if i > 0 and subset[i - 1] >= v:
            errors.append(f"elements not strictly increasing at position {i}")
        if not 0 <= v < n:
            errors.append(f"element {v} out of range [0, {n})")
    if errors:
        raise ValidationError(errors)
    return sum(comb(v, i + 1) for i, v in enumerate(subset))


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


def coalesce(inst: XorInstance) -> tuple[PreparedPart, np.ndarray]:
    """(part, signed sums) of a validated instance of a single edge size, as
    ``refute`` prepares it: the input of ``build_kikuchi`` and
    ``odd_to_even``."""
    validate_instance(inst)
    prepared = refuter._prepare_instance(inst)
    parts = prepared.schemes[0].parts
    if len(parts) > 1:
        raise ValidationError([f"needs a uniform arity, got {[part.k for part in parts]}"])
    if not parts:
        return PreparedPart(inst.n, 0, 0, slice(0, 0), 0, (), (), ()), np.zeros(0, dtype=np.int64)
    return parts[0], prepared.signed_sums(inst.rhs)


def quadratic_form(op: KikuchiOperator, x) -> Dyadic:
    """Exact (x^r)^T A (x^r) of a Kikuchi operator for a +-1 assignment x."""
    signs = [0] * op.dim
    for s in combinations(range(op.n), op.r):
        sign = 1
        for v in s:
            sign *= x[v]
        signs[subset_rank(s, op.n, op.r)] = sign
    total = sum(signs[i] * signs[j] * num for (i, j), num in entry_dict(op).items())
    return Dyadic(2 * total, op.log_den)


def _merge_char(alpha: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Symmetric difference alpha ^ {j}; x_j^2 = 1 folds repeated queries."""
    if j in alpha:
        return tuple(v for v in alpha if v != j)
    return tuple(sorted(alpha + (j,)))


def expand_decision_tree(
    tree: WordDecisionTree, n_vars: int, max_depth: int | None = None
) -> FourierExpansion:
    """Expansion of a Boolean-query (w = 1) decision tree.

    Uses the restriction recursion g = (1 + x_j)/2 * g_{x_j=+1}
    + (1 - x_j)/2 * g_{x_j=-1}, so sparse trees never touch a full table.
    """

    def go(node: TreeNode, depth: int) -> dict[tuple[int, ...], Dyadic]:
        if isinstance(node, Leaf):
            if node.value not in (1, -1):
                raise ValidationError([f"leaf value {node.value} not a sign"])
            return {(): Dyadic(node.value)}
        if max_depth is not None and depth >= max_depth:
            raise ValidationError(
                [f"tree depth exceeds declared bound {max_depth}"]
            )
        if len(node.children) != 2:
            raise ValidationError(
                ["decision-tree expansion requires Boolean queries (w = 1)"]
            )
        if not 0 <= node.query < n_vars:
            raise ValidationError([f"query {node.query} out of range"])
        pos = go(node.children[0], depth + 1)  # x_j = +1 branch (bit 0)
        neg = go(node.children[1], depth + 1)
        out: dict[tuple[int, ...], Dyadic] = {}

        def add(alpha: tuple[int, ...], c: Dyadic) -> None:
            prev = out.get(alpha)
            out[alpha] = c if prev is None else prev + c

        j = node.query
        for alpha, c in pos.items():
            half = Dyadic(c.num, c.log_den + 1)
            add(alpha, half)
            add(_merge_char(alpha, j), half)
        for alpha, c in neg.items():
            half = Dyadic(c.num, c.log_den + 1)
            add(alpha, half)
            add(_merge_char(alpha, j), -half)
        return {a: c for a, c in out.items() if not c.is_zero()}

    return FourierExpansion(n_vars, go(tree.root, 0))


def level_weight(exp: FourierExpansion, level: int) -> Dyadic:
    """Exact sum of |coefficient| over characters of the given size."""
    total = Dyadic(0)
    for alpha, c in exp.coeffs.items():
        if len(alpha) == level:
            total = total + abs(c)
    return total


def find_parity_dependency(c: Circuit) -> tuple[list[int], int] | None:
    """The parity dependency ``avoid`` looks for first, on a junta circuit."""
    return _parity_dependency(junta_spectra(c.junta_table)) if c.is_junta_circuit() else None


def certificate_from_obj(obj: dict) -> Certificate:
    """The certificate that ``Certificate.to_obj`` wrote."""
    return Certificate(
        mode=obj["mode"],
        bound=obj["bound"],
        status=obj["status"],
        r=obj.get("r"),
        ell=obj.get("ell"),
        breakdown=tuple(certificate_from_obj(c) for c in obj.get("breakdown", ())),
    )


def avoid_result_from_obj(obj: dict) -> AvoidResult:
    """The avoid result that ``AvoidResult.to_obj`` wrote."""
    return AvoidResult(
        y=tuple(obj["y"]) if obj["y"] is not None else None,
        justification=obj["justification"],
        certificates=tuple(certificate_from_obj(c) for c in obj["certificates"]),
        seeds_tried=obj["seeds_tried"],
        stats=obj.get("stats", {}),
    )


def exactly_psd(matrix: list[list[Fraction]]) -> bool:
    """Whether a symmetric rational matrix of side at most 40 is positive
    semidefinite, by exact LDL^T elimination: a negative pivot refutes it,
    and a zero pivot needs a zero row, as in every PSD matrix."""
    a = [row[:] for row in matrix]
    n = len(a)
    assert n <= 40, "exact elimination is for small matrices"
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(a[k][k + 1:]):
                return False
            continue
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                row_i, row_k = a[i], a[k]
                for j in range(k + 1, n):
                    row_i[j] -= factor * row_k[j]
    return True


def spectral_bound_holds(op: KikuchiOperator, lam: float) -> bool:
    """Whether lam * Gamma - A and lam * Gamma + A are both exactly PSD, with
    Gamma = deg + d and A taken as exact rationals: the statement
    ``spectral_certificate`` proves when it returns lam."""
    d = Fraction(op.trace_degree, op.dim)
    a = [[Fraction(0)] * op.dim for _ in range(op.dim)]
    for (i, j), num in entry_dict(op).items():
        a[i][j] = a[j][i] = Fraction(num, 1 << op.log_den)
    for sign in (-1, 1):
        side = [[sign * x for x in row] for row in a]
        for i, deg in enumerate(op.degrees.tolist()):
            side[i][i] = Fraction(lam) * (deg + d)
        if not exactly_psd(side):
            return False
    return True


def reference_prepared_refute(
    prepared: PreparedSchemes, b, params: RefuteParams | None = None
) -> list[Certificate]:
    """``PreparedSchemes.refute`` by a walk over the schemes, without a
    plan: every nonzero scheme builds the operators of its parts, proves
    each one alone and folds their bounds into its certificate."""
    params = params or RefuteParams()
    sums = prepared.signed_sums(b)
    schemes = prepared.schemes
    if params.split_weights:
        rows, schemes = prepared.unit_schemes
        sums = sums[rows]
    certs = [refuter._ZERO] * len(prepared.schemes)
    for j in prepared.nonzero:
        certs[j] = _reference_scheme(schemes[j], prepared.m, sums, params)
    return certs


def _reference_scheme(
    scheme: PreparedScheme, m_edges: int, sums: np.ndarray, params: RefuteParams
) -> Certificate:
    certs = [refuter._clamp(_reference_part(part, sums, params)) for part in scheme.parts]
    if len(certs) == 1:
        cert = certs[0]
    else:
        copies = [p.m for p in scheme.parts]
        mean = sum(m * Fraction(c.bound) for m, c in zip(copies, certs)) / sum(copies)
        cert = refuter._combine(certs, refuter._float_up(mean))
    if params.split_weights and cert.certified:
        m = sum(part.m for part in scheme.parts)
        cert = replace(cert, bound=refuter._float_up(Fraction(cert.bound) * Fraction(m, m_edges)))
    return refuter._clamp(cert)


def _reference_part(part: PreparedPart, sums: np.ndarray, params: RefuteParams) -> Certificate:
    if not any(part.live):
        return refuter._ZERO
    if part.k < 2:
        total = sum(map(abs, sums[part.rows].tolist()))
        bound = refuter._ratio_up(total, part.m << part.log_den)
        return Certificate(mode="direct", bound=bound, status="certified")
    if part.k % 2 == 0:
        return _reference_even(part, sums, params)
    split = refuter.odd_to_even(part, sums)
    parts, inner = [], split.diag_term
    for size, bucket in split.buckets.items():
        bucket_r = params.r
        if bucket_r is None or bucket_r < size // 2 or bucket_r - size // 2 > part.n - size:
            bucket_r = size // 2
        sub = refuter._clamp(_reference_even(bucket, split.sums, replace(params, r=bucket_r)))
        parts.append(sub)
        inner += bucket.m * Fraction(sub.bound)
    bound = refuter._sqrt_up(refuter._float_up(split.n_groups * max(inner, Fraction(0)))) / part.m
    return refuter._combine(parts, refuter._up(bound))


def _reference_even(part: PreparedPart, sums: np.ndarray, params: RefuteParams) -> Certificate:
    k = part.k
    r = max(params.r if params.r is not None else k // 2, k // 2)
    mode, ell = "spectral", None
    if params.mode == "trace":
        mode = "trace"
        ell = params.ell if params.ell is not None else refuter.default_ell(r, part.n)
        refuter._check_ell(ell)
    try:
        op = refuter.build_kikuchi(part, sums, r, params.dense_cap)
    except refuter.ResourceCap:
        return refuter._uncertain(mode, r=r, ell=ell)
    if ell is None:
        bound = refuter.spectral_certificate([op])[0]
        if bound is None:
            return refuter._uncertain("spectral", r=r)
        return Certificate(mode="spectral", bound=2.0 * bound, status="certified", r=r)
    bound, ell = refuter.trace_certificate(op, ell, params.work_flops)
    return Certificate(mode="trace", bound=2.0 * bound, status="certified", r=r, ell=ell)
