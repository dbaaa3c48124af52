"""Exact Fourier expansions of junta gates and layered tree outputs, with
parity classification.

Junta gates are analysed as integer arrays: ``junta_spectra`` reads a
circuit's packed gate table (``circuits.JuntaTable``), stacks the +-1 tables
of all gates of one fan-in f as columns and applies one in-place
Walsh-Hadamard transform, which gives every gate's
exact spectrum at the scale 2^-f; the parity class, the true support and the leading coefficient
are read from it. ``expand_junta`` and ``classify_parity`` are the same
transform and the same classification rule for one gate and for a sparse
expansion.

Layered tree outputs are expanded as arrays too: ``layered_characters``
reads a circuit's tree table (``circuits.TreeTable``) and gives every
character of every output a code per layer (its group and bit mask there)
and its coefficient as an integer at the one scale 2^-(t*w). Each leaf
emits one row per character of its path, and one sort and one sum per
chunk of whole outputs combine them; ``expand_layered_output`` reads one
output's rows. The sparse
``FourierExpansion`` keys characters by sorted index tuples (not bitmasks),
so its variable count is unbounded, and every coefficient is an exact
dyadic rational.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuits import JuntaGate, JuntaTable, LayeredCircuit
from .core import Dyadic, ValidationError


@dataclass(frozen=True)
class FourierExpansion:
    """Sparse expansion g(x) = sum_alpha coeff[alpha] * prod_{i in alpha} x_i."""

    n_vars: int
    coeffs: Mapping[tuple[int, ...], Dyadic]

    def __post_init__(self) -> None:
        clean = {
            tuple(a): c for a, c in self.coeffs.items() if not c.is_zero()
        }
        object.__setattr__(self, "coeffs", clean)

    def parseval_sum(self) -> Dyadic:
        total = Dyadic(0)
        for c in self.coeffs.values():
            total = total + c * c
        return total

    def support(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for alpha in self.coeffs:
            seen.update(alpha)
        return tuple(sorted(seen))

    def degree(self) -> int:
        return max((len(a) for a in self.coeffs), default=0)


TRANSFORM_CAP = 16  # largest junta fan-in whose 2^f-entry table is transformed


def walsh_hadamard(tables: np.ndarray) -> np.ndarray:
    """Integer Walsh-Hadamard transform along axis 0 of a C-contiguous int64
    array of shape (2^f, G), in place, one butterfly level at a time.

    Entry S of a column becomes sum_a column[a] * (-1)^|a & S|, so a column
    of +-1 table values becomes 2^f times the gate's Fourier coefficients.
    Each butterfly adds and subtracts whole rows of G values.
    """
    size = tables.shape[0]
    h = 1
    while h < size:
        pairs = tables.reshape(size // (2 * h), 2, h, -1)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi  # lo + hi
        hi *= -2
        hi += lo  # (lo + hi) - 2 hi = lo - hi
        h *= 2
    return tables


@dataclass(frozen=True, eq=False)
class GateSpectra:
    """Exact spectra of junta gates that share one fan-in f, a row per gate.

    Gate g sits at output ``positions[g]`` and reads ``inputs[g]``.
    ``spectra[g, S]`` is 2^f times its coefficient on the character that
    multiplies its inputs at the positions in the bitmask S, an exact integer
    (a transposed view of the transformed columns).
    ``parity[g]`` is +1 for XOR, -1 for NXOR and 0 for any other gate, and
    ``support[g]`` is the bitmask of input positions the gate depends on.
    """

    fan_in: int
    positions: np.ndarray
    inputs: np.ndarray
    spectra: np.ndarray
    parity: np.ndarray
    support: np.ndarray

    def take(self, rows: np.ndarray, positions: np.ndarray) -> "GateSpectra":
        """The selected rows, moved to new output positions."""
        return GateSpectra(
            self.fan_in,
            positions,
            self.inputs[rows],
            self.spectra[rows],
            self.parity[rows],
            self.support[rows],
        )


def junta_spectra(table: JuntaTable) -> list[GateSpectra]:
    """Spectra and parity classes of junta gates, grouped by fan-in, read
    from their packed table (``Circuit.junta_table``).

    Every gate of the table's sequence must be a junta gate of fan-in at
    most ``TRANSFORM_CAP`` with a table of 2^f entries, checked on the
    packed lengths, and the first gate that is not one is named. Each fan-in's +-1
    tables are stacked and go through one :func:`walsh_hadamard` call, so
    every gate's table is transformed once.
    """
    fan_ins, sizes = table.fan_ins, table.sizes
    count = len(fan_ins)
    skipped = np.flatnonzero(table.positions != np.arange(count))
    other_at = int(skipped[0]) if len(skipped) else count  # the first gate not in the table
    wrong = (fan_ins > TRANSFORM_CAP) | (sizes != 1 << np.minimum(fan_ins, TRANSFORM_CAP))
    first = int(np.argmax(wrong)) if wrong.any() else count
    if first < count and table.positions[first] < other_at:
        t = int(fan_ins[first])
        if t > TRANSFORM_CAP:
            raise ValidationError([f"junta fan-in {t} exceeds the transform cap {TRANSFORM_CAP}"])
        raise ValidationError([f"table length {sizes[first]} != 2^{t}"])
    if other_at < table.m:
        raise ValidationError([f"gate {other_at} is not a junta gate"])
    out = []
    for t in np.flatnonzero(np.bincount(fan_ins)).tolist():
        positions = np.flatnonzero(fan_ins == t)
        tables = table.bits[np.arange(1 << t)[:, None] + table.table_at[positions]]
        columns = walsh_hadamard(1 - 2 * tables.astype(np.int64))
        parity, support = _classify_spectra(columns, t)
        out.append(GateSpectra(
            t, positions, table.inputs[table.inputs_at[positions, None] + np.arange(t)],
            columns.T, parity, support,
        ))
    return out


def _classify_spectra(columns: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(parity, support) of every column of a spectrum array at the scale
    2^-t, one column per gate."""
    nonzero = columns != 0
    support = np.bitwise_or.reduce(np.where(nonzero, np.arange(1 << t)[:, None], 0), axis=0)
    lead = columns[support, np.arange(columns.shape[1])]
    parity = _parity_rule(
        (columns * columns).sum(axis=0),
        nonzero.sum(axis=0),
        np.bitwise_count(support).astype(np.int64),
        lead,
        t,
    )
    return parity, support


def expand_junta(gate: JuntaGate, n_vars: int | None = None) -> FourierExpansion:
    """Exact expansion of one junta gate, read from :func:`junta_spectra`."""
    (spec,) = junta_spectra(JuntaTable.of([gate]))
    if n_vars is None:
        n_vars = max(gate.inputs, default=-1) + 1
    t = spec.fan_in
    coeffs = {
        tuple(sorted(gate.inputs[j] for j in range(t) if (mask >> j) & 1)): Dyadic(num, t)
        for mask, num in enumerate(spec.spectra[0].tolist())
        if num
    }
    return FourierExpansion(n_vars, coeffs)


EXPANSION_ROWS = 1 << 14  # the stretch of rows whose outputs one expansion chunk holds


def layered_characters(lc: LayeredCircuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero character of every output of a layered circuit, as
    ``(outputs, codes, units)`` sorted by output and then by codes, expanded
    from the circuit's tree table (``Circuit.tree_table``).

    A character has one code per layer in ``codes[:, q]``: group * 2^w +
    gamma where it multiplies the bits gamma (a nonzero mask) of that group
    of layer q, and 0 on a layer it does not touch. ``units`` is its
    coefficient in units of 2^-(t*w). The outputs are expanded in chunks of
    whole outputs: a chunk holds the outputs whose first row falls in one
    stretch of ``EXPANSION_ROWS`` rows, so its rows stay bounded however
    many outputs there are.
    """
    table = lc.circuit.tree_table
    rows = np.left_shift(1, lc.circuit.w * table.depths)
    before = np.cumsum(rows) - rows
    heads = np.flatnonzero(np.diff(table.outputs, prepend=-1))  # each output's first leaf
    cuts = heads[np.flatnonzero(np.diff(before[heads] // EXPANSION_ROWS, prepend=-1))].tolist()
    cuts = cuts or [0]
    parts = [_expand_leaves(lc, lo, hi) for lo, hi in zip(cuts, [*cuts[1:], len(rows)])]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _expand_leaves(lc: LayeredCircuit, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The characters of the leaves ``lo:hi`` of the tree table, whole
    outputs, as :func:`layered_characters` gives them.

    A leaf at depth d with value s emits one row per gamma tuple in
    [2^w]^d, with sign prod_q (-1)^|v_q & gamma_q|, v_q its symbol on layer
    q, and s * 2^((t-d)*w) units. One sort by (output, codes) and one
    ``np.add.reduceat`` sum the rows, and zero sums drop out.
    """
    c = lc.circuit
    n, w, t, table = c.n, c.w, c.t, c.tree_table
    radix, base = n << w, table.outputs[lo] if hi > lo else 0
    span = int(table.outputs[hi - 1] - base) + 1 if hi > lo else 1
    # (output, codes) packs into one int64 key, base-radix digits, unless it might not fit
    packed = span * radix ** t < 1 << 63
    place = radix ** np.arange(t - 1, -1, -1) if packed else None
    none = np.zeros(0, dtype=np.int64)
    keys, outputs, codes, units = [none], [none], [np.zeros((0, t), dtype=np.int64)], [none]
    depths = table.depths[lo:hi]
    for d in np.unique(depths).tolist():
        leaves = lo + np.flatnonzero(depths == d)
        gammas = np.arange(1 << (w * d))  # gamma_q in bits w*q up
        digits = (gammas[:, None] >> (w * np.arange(d))) & ((1 << w) - 1)
        symbols = (table.symbols[leaves, :d] << (w * np.arange(d))).sum(axis=1)
        flips = np.bitwise_count(symbols[:, None] & gammas) & 1
        units.append((np.where(flips, -1, 1) * (table.values[leaves, None] << (t - d) * w)).ravel())
        groups = table.groups[leaves, :d] << w
        if packed:
            high = (table.outputs[leaves, None] - base) * radix ** t
            keys.append((high + (groups * place[:d]) @ (digits != 0).T + digits @ place[:d]).ravel())
            continue
        layers = np.zeros((len(leaves), len(gammas), t), dtype=np.int64)
        layers[:, :, :d] = np.where(digits, groups[:, None] | digits, 0)
        codes.append(layers.reshape(len(leaves) * len(gammas), t))
        outputs.append(np.repeat(table.outputs[leaves], len(gammas)))
    units = np.concatenate(units)
    if packed:
        keys = np.concatenate(keys)
        order = np.argsort(keys)
        keys = keys[order]
        head = np.flatnonzero(np.diff(keys, prepend=-1))
    else:
        outputs, codes = np.concatenate(outputs), np.concatenate(codes)
        order = np.lexsort((*codes.T[::-1], outputs))
        columns = np.column_stack((outputs, codes))[order]
        head = np.flatnonzero(np.diff(columns, axis=0, prepend=-1).any(axis=1))
    sums = np.add.reduceat(units[order], head)
    nonzero = sums != 0
    if packed:
        kept = keys[head[nonzero]]
        return kept // radix ** t + base, kept[:, None] // place % radix, sums[nonzero]
    kept = order[head[nonzero]]
    return outputs[kept], codes[kept], sums[nonzero]


def expand_layered_output(lc: LayeredCircuit, i: int) -> FourierExpansion:
    """Expansion of output i of a layered circuit over its w*n*t bit inputs,
    from the rows of its leaves in the tree table."""
    c = lc.circuit
    i = range(c.m)[i]
    lo, hi = np.searchsorted(c.tree_table.outputs, [i, i + 1]).tolist()
    w, scale = c.w, c.t * c.w
    _, codes, units = _expand_leaves(lc, lo, hi)
    coeffs = {
        tuple(
            lc.bit_index(layer, code >> w, b)
            for layer, code in enumerate(row)
            for b in range(w)
            if (code >> b) & 1
        ): Dyadic(num, scale)
        for row, num in zip(codes.tolist(), units.tolist())
    }
    return FourierExpansion(lc.n_bits, coeffs)


class ParityClass(enum.Enum):
    XOR = "xor"
    NXOR = "nxor"
    OTHER = "other"


def classify_parity(exp: FourierExpansion) -> ParityClass:
    """Detect (negated) parities on the true dependency support, by the rule
    that :func:`junta_spectra` applies to whole spectra."""
    support = exp.support()
    log_scale = max((c.log_den for c in exp.coeffs.values()), default=0)
    nums = [c.scaled(log_scale) for c in exp.coeffs.values()]
    lead = exp.coeffs.get(support)
    summary = (
        sum(num * num for num in nums),
        len(nums),
        len(support),
        lead.scaled(log_scale) if lead is not None else 0,
    )
    (parity,) = _parity_rule(*(np.array([v], dtype=object) for v in summary), log_scale)
    return _PARITY_CLASS[parity]


def _parity_rule(
    square_sum: np.ndarray,
    nonzero: np.ndarray,
    support_size: np.ndarray,
    lead: np.ndarray,
    log_scale: int,
) -> np.ndarray:
    """+1 (XOR), -1 (NXOR) or 0 (other) for each expansion, given its sum of
    squared coefficients, its number of nonzero coefficients, the size of its
    support and its leading coefficient, the one on the whole support, all
    as integers at the scale 2^-log_scale.

    A parity has the single coefficient +-1. For any other gate the leading
    coefficient is checked against the 1 - 2^(1-t) ceiling, t the support
    size, that separates it from parities.
    """
    one = 1 << log_scale
    if np.any(square_sum != one * one):
        raise ValidationError(["expansion is not +-1-valued (Parseval != 1)"])
    parity = np.where((nonzero == 1) & (abs(lead) == one), lead // one, 0)
    half = 1 << np.maximum(support_size - 1, 0)
    over = (parity == 0) & (abs(lead) * half > (half - 1) * one)
    if np.any(over):
        g = int(np.argmax(over))
        raise AssertionError(
            f"non-parity gate with |leading coefficient| {abs(lead[g])}/{one}"
            f" > 1 - 1/{half[g]}"
        )
    return parity


_PARITY_CLASS = {1: ParityClass.XOR, -1: ParityClass.NXOR, 0: ParityClass.OTHER}
