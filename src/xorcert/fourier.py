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

A layered tree output is expanded the same way: ``layered_characters``
gives each character a code per layer (its group and bit mask there) and its
coefficient as an integer at the one scale 2^-(t*w), by one integer
recursion; ``expand_layered_output`` is a thin wrapper. The sparse
``FourierExpansion`` keys characters by sorted index tuples (not bitmasks),
so its variable count is unbounded, and every coefficient is an exact
dyadic rational.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuits import JuntaGate, JuntaTable, Leaf, LayeredCircuit, TreeNode, WordDecisionTree
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


def layered_characters(lc: LayeredCircuit, i: int) -> dict[tuple[int, ...], int]:
    """Characters of output i of a layered circuit, by one integer recursion.

    A character is keyed by one code per layer: group * 2^w + gamma where it
    multiplies the bits gamma (a nonzero mask) of that group of the layer, and
    0 on a layer it does not touch. Its value is its coefficient in units of
    2^-(t*w). The q-th query of the tree reads a whole w-bit group of layer q;
    the indicator of each symbol value v contributes (-1)^|v & gamma| * 2^-w
    on every sub-pattern gamma of the group, and deeper recursion only
    touches later layers, so a character's codes concatenate.
    """
    c = lc.circuit
    w, t = c.w, c.t
    gate = c.gates[i]
    if not isinstance(gate, WordDecisionTree):
        raise ValidationError([f"output {i} is not a decision tree"])
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

    return go(gate.root, 0)


def expand_layered_output(lc: LayeredCircuit, i: int) -> FourierExpansion:
    """Expansion of output i of a layered circuit over its w*n*t bit inputs,
    read from :func:`layered_characters`."""
    w, scale = lc.circuit.w, lc.circuit.t * lc.circuit.w
    coeffs = {
        tuple(
            lc.bit_index(layer, code >> w, b)
            for layer, code in enumerate(codes)
            for b in range(w)
            if (code >> b) & 1
        ): Dyadic(units, scale)
        for codes, units in layered_characters(lc, i).items()
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
