"""Brute-force ground truth for every certificate: exact XOR values, range
membership, minimum Hamming distance, generator audits, and the reduction
identity check.

Everything here is exact: numpy is used only for integer vectorization, and
all results are rationals. Enumeration caps keep each call desk-sized.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .circuits import Circuit, TreeTable, check_input, to_layered
from .core import ValidationError, XorInstance, validate_instance
from .fourier import walsh_hadamard
from .prg import GeneratorSpec, sample_output_bits, seed_count
from .reduction import SchemeEnsemble, group_characters

MAX_VAL_VARS = 24
MAX_INPUT_BITS = 24
MAX_AUDIT_OUTPUTS = 16
MAX_AUDIT_SEED_BITS = 20


def brute_val(inst: XorInstance, max_vars: int = MAX_VAL_VARS) -> Fraction:
    """Exact max over +-1 assignments of |average signed agreement|."""
    validate_instance(inst)
    n, m = inst.n, inst.m
    if n > max_vars:
        raise ValidationError([f"{n} variables exceed the enumeration cap {max_vars}"])
    if m == 0:
        return Fraction(0)
    log_scale = max((w.log_den for w in inst.scheme.weights), default=0)
    if m << log_scale >= 1 << 60:
        raise ValidationError(["weight granularity too fine for exact int64 totals"])

    best = 0
    chunk_bits = min(n, 20)
    total_assignments = 1 << n
    step = 1 << chunk_bits
    for start in range(0, total_assignments, step):
        assigns = np.arange(start, start + step, dtype=np.uint64)
        if assigns.shape[0] > total_assignments - start:
            assigns = assigns[: total_assignments - start]
        totals = np.zeros(assigns.shape[0], dtype=np.int64)
        for edge, w, b in zip(
            inst.scheme.hypergraph.edges, inst.scheme.weights, inst.rhs
        ):
            if w.is_zero():
                continue
            par = np.zeros(assigns.shape[0], dtype=np.uint64)
            for v in edge:
                par ^= (assigns >> np.uint64(v)) & np.uint64(1)
            coeff = b * w.scaled(log_scale)
            totals += coeff * (1 - 2 * par.astype(np.int64))
        best = max(best, int(np.max(np.abs(totals))))
    return Fraction(best, m << log_scale)


GATHER_STATES = 1 << 14  # (input, gate) pairs the oracle evaluates at once


def brute_outputs(c: Circuit, max_input_bits: int = MAX_INPUT_BITS) -> np.ndarray:
    """All outputs over the full input space as an int8 matrix [inputs, m],
    read from the circuit's gate tables: every junta gate at once by its
    table entries, and every tree at once by gathers along the tree table.
    The inputs are taken a block at a time, so that the gathers stay in
    cache."""
    c.ensure_valid()
    bits_total = c.w * c.n
    if bits_total > max_input_bits:
        raise ValidationError(
            [f"input space 2^{bits_total} exceeds cap 2^{max_input_bits}"]
        )
    count = 1 << bits_total
    shifts = c.w * np.arange(c.n, dtype=np.uint32)
    x = (np.arange(count, dtype=np.uint32)[:, None] >> shifts) & ((1 << c.w) - 1)
    outputs = np.empty((count, c.m), dtype=np.int8)
    junta = c.junta_table
    if len(junta.positions) < c.m:
        trees = c.tree_table
        heads = np.flatnonzero(np.diff(trees.outputs, prepend=-1))  # each tree's first leaf
        moves = _tree_moves(trees, c.w)
        values = trees.values.astype(np.int8)
    block = max(1, GATHER_STATES // max(c.m, 1))
    for lo in range(0, count, block):
        rows = x[lo:lo + block]
        if len(junta.positions):
            entry = np.zeros((len(rows), len(junta.positions)), dtype=np.intp)
            for j in range(int(junta.fan_ins.max())):
                reads = np.flatnonzero(junta.fan_ins > j)
                entry[:, reads] |= (rows[:, junta.inputs[junta.inputs_at[reads] + j]] & 1) << j
            bits = junta.bits[junta.table_at + entry].astype(np.int8)
            outputs[lo:lo + block, junta.positions] = 1 - 2 * bits
        if len(junta.positions) < c.m:
            at = np.repeat(heads[None], len(rows), axis=0)
            offsets = np.arange(len(rows))[:, None] * c.n
            for group, move in moves:
                at = move[(at << c.w) + rows.ravel()[offsets + group[at]]]
            outputs[lo:lo + block, trees.outputs[heads]] = values[at]
    return outputs


def _tree_moves(trees: TreeTable, w: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, each leaf's queried group and, at leaf * 2^w + symbol,
    the leaf an (input, tree) at that leaf moves to when it reads the
    symbol.

    A tree's leaves run in depth-first order, so the leaves below a node on
    layer q are a run that splits into one run per child, by the symbol on
    layer q. An (input, tree) keeps the first leaf of the run it is in, and
    moves to the first leaf of the child run of the symbol it reads; at a
    leaf that ends its path it stays.
    """
    leaves = len(trees.outputs)
    moves = []
    for q in range(trees.symbols.shape[1]):
        prefix = np.column_stack((trees.outputs, trees.symbols[:, :q + 1]))
        new = np.r_[True, (prefix[1:] != prefix[:-1]).any(axis=1)]
        ends = np.r_[np.flatnonzero(new)[1:], leaves]  # where each child run ends
        skip = np.r_[ends[np.cumsum(new) - 1], leaves]  # a leaf's next run, past the last: the end
        child = [np.arange(leaves)]  # child[s][l]: the first leaf of run s, l that of run 0
        for _ in range((1 << w) - 1):
            child.append(skip[child[-1]])
        move = np.where((trees.depths > q)[:, None], np.stack(child, axis=1), child[0][:, None])
        moves.append((trees.groups[:, q].copy(), move.ravel()))
    return moves


def brute_range_member(c: Circuit, y: Sequence[int]) -> bool:
    """Exhaustive test of whether y is hit by some input."""
    if len(y) != c.m:
        raise ValidationError([f"target length {len(y)} != m = {c.m}"])
    outputs = brute_outputs(c)
    target = np.array(y, dtype=np.int8)
    return bool(np.any(np.all(outputs == target, axis=1)))


def brute_min_distance(c: Circuit, b: Sequence[int]) -> Fraction:
    """Exact minimum fractional Hamming distance from b to the range."""
    if len(b) != c.m:
        raise ValidationError([f"target length {len(b)} != m = {c.m}"])
    outputs = brute_outputs(c)
    dots = outputs.astype(np.int32) @ np.array(b, dtype=np.int32)
    # distance = (m - <C(x), b>) / (2m)
    return Fraction(c.m - int(dots.max()), 2 * c.m)


def _output_histogram(spec: GeneratorSpec) -> np.ndarray:
    if spec.m > MAX_AUDIT_OUTPUTS:
        raise ValidationError(
            [f"audit supports m <= {MAX_AUDIT_OUTPUTS}, got {spec.m}"]
        )
    if spec.seed_bits > MAX_AUDIT_SEED_BITS:
        raise ValidationError(
            [f"audit supports seed_bits <= {MAX_AUDIT_SEED_BITS}, got {spec.seed_bits}"]
        )
    counts = np.zeros(1 << spec.m, dtype=np.int64)
    for seed in range(seed_count(spec)):
        counts[sample_output_bits(spec, seed)] += 1
    return counts


def brute_bias(spec: GeneratorSpec) -> Fraction:
    """Exact max over nonempty parities of |E[chi_I]| over the whole seed space."""
    counts = _output_histogram(spec)
    spectrum = walsh_hadamard(counts.reshape(-1, 1))[:, 0]
    worst = int(np.max(np.abs(spectrum[1:]))) if spectrum.shape[0] > 1 else 0
    return Fraction(worst, seed_count(spec))


def brute_independence(spec: GeneratorSpec, k: int) -> Fraction:
    """Exact max deviation of any k-coordinate marginal from uniform."""
    if not 1 <= k <= spec.m:
        raise ValidationError([f"marginal size {k} outside [1, {spec.m}]"])
    counts = _output_histogram(spec)
    total = seed_count(spec)
    z = np.arange(counts.shape[0], dtype=np.int64)
    worst = Fraction(0)
    for subset in combinations(range(spec.m), k):
        keys = np.zeros(counts.shape[0], dtype=np.int64)
        for j, coord in enumerate(subset):
            keys |= ((z >> coord) & 1) << j
        marg = np.zeros(1 << k, dtype=np.int64)
        np.add.at(marg, keys, counts)
        dev_num = int(np.max(np.abs(marg * (1 << k) - total)))
        dev = Fraction(dev_num, total * (1 << k))
        worst = max(worst, dev)
    return worst


def check_decomposition(
    c: Circuit,
    x: Sequence[int],
    b: Sequence[int],
    ensemble: SchemeEnsemble | None = None,
) -> Fraction:
    """Exact residual of the correlation decomposition; zero when it holds.

    Compares the average output/target agreement at x against the sum over
    ensemble keys of the scheme values at the induced valuations.
    """
    tree_circ = c.with_tree_gates()
    lc = to_layered(tree_circ)
    if ensemble is None:
        ensemble = group_characters(lc)
    if len(b) != c.m or len(x) != c.n:
        raise ValidationError(["shape mismatch between circuit, input, and target"])
    check_input(c, x)  # duplicate() keeps only the low w bits of a symbol
    bits = lc.duplicate(x)

    lhs = sum(out * bi for out, bi in zip(lc.eval_bits(bits), b))  # m * <C(x), b>

    log_scale = 0
    for scheme in ensemble.schemes.values():
        for w in scheme.weights:
            log_scale = max(log_scale, w.log_den)
    rhs_scaled = 0  # m * sum of scheme values, in units of 2^-log_scale
    valuations: dict[tuple[int, ...], tuple[int, ...]] = {}
    for (beta, slot), scheme in ensemble.schemes.items():
        y = valuations.get(beta)
        if y is None:
            y = ensemble.valuation(beta, bits)
            valuations[beta] = y
        for edge, w, bi in zip(scheme.hypergraph.edges, scheme.weights, b):
            if w.is_zero():
                continue
            sign = bi
            for var in edge:
                sign *= y[var]
            rhs_scaled += sign * w.scaled(log_scale)
    return Fraction((lhs << log_scale) - rhs_scaled, c.m << log_scale)
