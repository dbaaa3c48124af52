"""Decomposition of max-correlation with a target string into an ensemble of
weighted XOR schemes over valuation variables, plus the junta-circuit split
that buckets characters by their position pattern.

Both are prepared for refutation by ``refuter.prepare_rows`` when they are
built, with no per-output expansion and no dense buckets: ``group_characters``
prepares every ensemble key straight from the integer arrays of all outputs'
characters (``fourier.layered_characters``), and a ``JuntaSplit`` its buckets straight
from the gates' integer spectra (``fourier.junta_spectra``). A target then
pays one scatter-add of its signed sums plus the engines
(``refuter.PreparedSchemes``). An ensemble's dense
per-output schemes, with a zero-weight filler edge wherever an output has no
character at a key, are made only when ``SchemeEnsemble.schemes`` is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .circuits import Circuit, LayeredCircuit
from .core import (
    Dyadic,
    Hypergraph,
    ValidationError,
    XorInstance,
    XorScheme,
    sign_of_bit,
)
from .fourier import TRANSFORM_CAP, GateSpectra, junta_spectra, layered_characters
from .refuter import PreparedSchemes, prepare_rows

# An ensemble key is (beta, slot): beta gives one bit pattern inside [w] per
# layer (as a mask), slot separates the different characters of one output
# that share a beta pattern. Slots are 1-based.
EnsembleKey = tuple[tuple[int, ...], int]

# An ensemble has 2^(t*w) beta patterns with as many slots each: 4^(t*w)
# keys. Past this many no ensemble is grouped.
KEY_CAP = 1 << 16


@dataclass(frozen=True)
class SchemeEnsemble:
    """One weighted XOR scheme per (beta, slot) key, each with m edges.

    Schemes live over n*t valuation variables; variable t'*n + j stands for
    the product of the beta-selected bits of group j in layer t'. Outputs
    with no character at a key get a zero-weight filler edge, so edge i
    always originates from circuit output i.

    ``group_characters`` also records the tree-gate ``circuit`` the ensemble
    was grouped from, and ``prepared``, every key's scheme in sorted key
    order prepared for refutation.
    """

    n: int
    w: int
    t: int
    m: int
    schemes: Mapping[EnsembleKey, XorScheme]
    circuit: Circuit | None = field(default=None, repr=False, compare=False)
    prepared: PreparedSchemes | None = field(default=None, repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return self.n * self.t

    def keys(self) -> list[EnsembleKey]:
        return sorted(self.schemes.keys())

    @staticmethod
    def key_arity(key: EnsembleKey) -> int:
        beta, _ = key
        return sum(1 for mask in beta if mask)

    def valuation(self, beta: tuple[int, ...], layered_bits: Sequence[int]) -> tuple[int, ...]:
        """Signs y[t'*n + j] induced by a layered bit string under beta."""
        group_width = self.n * self.w
        y = []
        for layer in range(self.t):
            mask = beta[layer]
            for j in range(self.n):
                sign = 1
                base = layer * group_width + j * self.w
                for b in range(self.w):
                    if (mask >> b) & 1:
                        sign *= sign_of_bit(layered_bits[base + b])
                y.append(sign)
        return tuple(y)


def _filler_edge(beta: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Valid zero-weight edge for a beta pattern: group 0 of every used layer."""
    return tuple(layer * n for layer, mask in enumerate(beta) if mask)


class _DenseSchemes(Mapping):
    """The dense scheme of every key of a prepared ensemble, each made from
    the key's live copies when it is first read."""

    def __init__(self, n: int, keys: Sequence[EnsembleKey], prepared: PreparedSchemes):
        self._n = n
        self._index = {key: j for j, key in enumerate(keys)}
        self._prepared = prepared
        self._made: dict[EnsembleKey, XorScheme] = {}

    def __getitem__(self, key: EnsembleKey) -> XorScheme:
        scheme = self._made.get(key)
        if scheme is None:
            scheme = self._made[key] = self._dense(key)
        return scheme

    def __iter__(self) -> Iterator[EnsembleKey]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def _dense(self, key: EnsembleKey) -> XorScheme:
        prepared = self._prepared
        scheme = prepared.schemes[self._index[key]]
        beta, _ = key
        n_vars = self._n * len(beta)
        edge_of = {  # the rows' vertex bitmasks as sorted tuples
            row: tuple(v for v in range(n_vars) if e >> v & 1)
            for part in scheme.parts for row, e in enumerate(part.edges, part.rows.start)
        }
        edges = [_filler_edge(beta, self._n)] * prepared.m
        weights = [Dyadic(0)] * prepared.m
        lo, hi = scheme.span
        for row, out, units in zip(
            prepared.rows[lo:hi].tolist(),
            prepared.outputs[lo:hi].tolist(),
            prepared.units[lo:hi].tolist(),
        ):
            edges[out] = edge_of[row]
            weights[out] = Dyadic(units, scheme.log_den)
        return XorScheme(
            Hypergraph(n_vars, tuple(edges)),
            tuple(weights),
            SchemeEnsemble.key_arity(key),
        )


def group_characters(lc: LayeredCircuit) -> SchemeEnsemble:
    """Assign every nonzero character of every output to a (beta, slot) key.

    The resulting schemes satisfy, exactly and for every layered input and
    every right-hand side, that the average output/target agreement equals
    the sum of the per-key instance values. The characters of one output and
    one beta fill slots 1, 2, ... in colex order of their bit indices, which
    for a fixed beta is the order of their groups from the highest used layer
    down. Every key is prepared from the characters of all outputs, which
    ``fourier.layered_characters`` expands at once from the circuit's tree
    table and gives as integer arrays: a row per character, in output
    order, after one row for the key's filler copies, the outputs without a
    character there.

    Raises ``ValidationError`` before anything is sized by t or w where the
    4^(t*w) keys exceed ``KEY_CAP``, or 4^w does: at t = 0 a huge w still
    sizes the symbol range.
    """
    c = lc.circuit
    n, w, t, m = c.n, c.w, c.t, c.m
    cap_bits = KEY_CAP.bit_length() - 1
    if 2 * w > cap_bits:
        raise ValidationError([f"ensemble over w = {w}: 4^w keys per layer exceed the cap 2^{cap_bits}"])
    if 2 * t * w > cap_bits:
        raise ValidationError([f"ensemble over t*w = {t * w}: 4^(t*w) keys exceed the cap 2^{cap_bits}"])
    slots = 1 << (t * w)
    keys = list(itertools.product(itertools.product(range(1 << w), repeat=t), range(1, slots + 1)))

    # every |coefficient| is at most 1: a unit is at most 2^(t*w), and the
    # key cap keeps t*w too small for the units to leave int64
    outputs, codes, units = layered_characters(lc)
    total = len(units)
    places = w * np.arange(t - 1, -1, -1)  # beta's first layer is its most significant
    beta = ((codes & ((1 << w) - 1)) << places).sum(axis=1)
    # slots count off each (output, beta) run; an output has at most
    # 2^(w*(t-1)) group tuples per beta, fewer than the slots
    order = np.lexsort((*codes.T, beta, outputs))
    run = np.ones(total, dtype=bool)
    run[1:] = (np.diff(outputs[order]) != 0) | (np.diff(beta[order]) != 0)
    first = np.maximum.accumulate(np.where(run, np.arange(total), 0))
    key = np.empty(total, dtype=np.int64)
    key[order] = beta[order] * slots + np.arange(total) - first

    # one row for each key's filler copies, if it has any, ahead of its characters
    fillers = m - np.bincount(key, minlength=len(keys))
    filled = np.flatnonzero(fillers)
    zeros = np.zeros(len(filled), dtype=np.int64)
    key = np.concatenate((filled, key))
    outputs = np.concatenate((zeros, outputs))
    rows = np.lexsort((outputs, key))
    filler_codes = ((filled // slots)[:, None] >> places) & ((1 << w) - 1)  # group 0
    codes = np.concatenate((filler_codes, codes))[rows]
    edges = np.sort(np.where(codes != 0, n * np.arange(t) + (codes >> w), n * t), axis=1)
    edges[edges == n * t] = -1  # the unused layers, moved to the end
    prepared = prepare_rows(
        m,
        [(n * t, t * w)] * len(keys),
        key[rows],
        edges,
        outputs[rows],
        np.concatenate((zeros, units))[rows],
        np.concatenate((fillers[filled], np.ones(total, dtype=np.int64)))[rows],
    )
    schemes = _DenseSchemes(n, keys, prepared)
    return SchemeEnsemble(n, w, t, m, schemes, circuit=c, prepared=prepared)


def attach_rhs(
    ens: SchemeEnsemble, b: Sequence[int]
) -> dict[EnsembleKey, XorInstance]:
    """Sign-normalized instances: negative weights flip the matching rhs sign."""
    if len(b) != ens.m:
        raise ValidationError([f"rhs length {len(b)} != m = {ens.m}"])
    out: dict[EnsembleKey, XorInstance] = {}
    for key, scheme in ens.schemes.items():
        weights = []
        rhs = []
        for w, bi in zip(scheme.weights, b):
            if w.num < 0:
                weights.append(-w)
                rhs.append(-bi)
            else:
                weights.append(w)
                rhs.append(bi)
        out[key] = XorInstance(
            XorScheme(scheme.hypergraph, tuple(weights), scheme.arity),
            tuple(rhs),
        )
    return out


def key_filename(key: EnsembleKey) -> str:
    beta, slot = key
    return "scheme_b" + "-".join(str(mask) for mask in beta) + f"_l{slot}.json"


@dataclass(frozen=True)
class JuntaSplit:
    """Per-pattern XOR schemes of a junta circuit with no parity outputs.

    Every proper subset alpha of the t gate positions is a bucket, a scheme
    with one copy per output: output i contributes the character on its
    inputs at the positions alpha with its coefficient or, if its gate reads
    alpha[-1] or fewer inputs, a zero-weight filler edge range(|alpha|). The
    full-degree characters are excluded; their total magnitude obeys the
    non-parity ceiling 1 - 2^(1-t) gate by gate. ``gates`` holds the spectra
    of the outputs, numbered 0 to m - 1, and ``prepared`` the buckets in
    sorted order, prepared for refutation straight from those spectra.
    """

    t: int
    m: int
    n: int
    gates: tuple[GateSpectra, ...] = field(repr=False, compare=False)
    prepared: PreparedSchemes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.t > TRANSFORM_CAP:  # the buckets are the 2^t - 1 proper subsets of the positions
            raise ValidationError(
                [f"junta split over t = {self.t} positions exceeds the transform cap {TRANSFORM_CAP}"]
            )
        object.__setattr__(self, "prepared", self._prepare())

    def patterns(self) -> list[tuple[int, ...]]:
        """The buckets' position patterns, in sorted order."""
        return sorted(
            alpha for size in range(self.t) for alpha in itertools.combinations(range(self.t), size)
        )

    def _characters(self, alpha: tuple[int, ...]) -> list[tuple[GateSpectra, np.ndarray, np.ndarray]]:
        """(gates, sorted edges, coefficients at the scale 2^-f) of every
        fan-in f above the positions alpha."""
        mask = sum(1 << j for j in alpha)
        return [
            (g, np.sort(g.inputs[:, list(alpha)], axis=1), g.spectra[:, mask])
            for g in self.gates
            if not alpha or alpha[-1] < g.fan_in
        ]

    def _prepare(self) -> PreparedSchemes:
        """``prepare_rows`` of the buckets: a row per character and one row
        for all of a bucket's filler copies, at the first of their outputs,
        each bucket's rows in output order, with units at the scale 2^-f of
        the widest fan-in f.

        The gates' inputs and spectra are first laid out by output, one
        column each, so that every bucket's characters are read for all
        outputs at once, as (bucket, output) arrays whose occupied places,
        in order, are the rows."""
        m, width = self.m, max(self.t - 1, 0)
        log_den = max((g.fan_in for g in self.gates), default=0)
        reach = max(self.t, log_den)
        patterns = self.patterns()
        size = np.array([len(alpha) for alpha in patterns], dtype=np.int64)
        last = np.array([alpha[-1] if alpha else -1 for alpha in patterns], dtype=np.int64)
        mask = [sum(1 << j for j in alpha) for alpha in patterns]
        # row `reach` of the inputs is padding, which sorts last; the
        # characters are (vertex, bucket, output) arrays, so the rows' edges
        # come out one vertex column at a time
        columns = [alpha + (reach,) * (width - len(alpha)) for alpha in patterns]
        top = np.iinfo(np.int64).max
        fan_in = np.zeros(m, dtype=np.int64)
        inputs = np.full((reach + 1, m), top, dtype=np.int64)
        spectra = np.zeros((1 << reach, m), dtype=np.int64)
        for g in self.gates:
            fan_in[g.positions] = g.fan_in
            inputs[:g.fan_in, g.positions] = g.inputs.T
            spectra[:1 << g.fan_in, g.positions] = (g.spectra << (log_den - g.fan_in)).T
        chars = inputs[np.array(columns, dtype=np.intp).reshape(len(patterns), width).T]
        _sort_axis0(chars)
        chars[chars == top] = -1
        units = spectra[mask]
        used = last[:, None] < fan_in
        # a bucket's fillers are the outputs of fan-in at most alpha[-1]:
        # their number, and the first of them, by fan-in
        at_most = np.cumsum(np.bincount(fan_in, minlength=reach + 1))
        first = np.full(reach + 1, m, dtype=np.int64)
        np.minimum.at(first, fan_in, np.arange(m))
        first = np.minimum.accumulate(first)
        fillers = np.where(last >= 0, at_most[last], 0)  # the empty pattern has none
        filled = np.flatnonzero(fillers)
        at = filled, first[last[filled]]
        place = np.arange(width)
        chars[:, at[0], at[1]] = np.where(place[:, None] < size[filled], place[:, None], -1)
        counts = np.ones(used.shape, dtype=np.int64)
        counts[at] = fillers[filled]
        used[at] = True
        rows = np.flatnonzero(used)
        scheme = np.repeat(np.arange(len(patterns)), used.sum(axis=1))
        outputs = rows - scheme * m
        return prepare_rows(
            m,
            [(self.n, log_den)] * len(patterns),
            scheme,
            np.take(chars.reshape(width, len(patterns) * m), rows, axis=1).T,
            outputs,
            units.ravel()[rows],
            counts.ravel()[rows],
        )

    def instance(self, alpha: tuple[int, ...], b: Sequence[int]) -> XorInstance:
        """Bucket alpha with right-hand side b as an instance, an edge per output."""
        edges = [tuple(range(len(alpha)))] * self.m
        weights = [Dyadic(0)] * self.m
        for g, edge, col in self._characters(alpha):
            for out, e, num in zip(g.positions.tolist(), edge.tolist(), col.tolist()):
                edges[out] = tuple(e)
                weights[out] = Dyadic(num, g.fan_in)
        scheme = XorScheme(Hypergraph(self.n, tuple(edges)), tuple(weights), len(alpha))
        return XorInstance(scheme, tuple(b))


def _sort_axis0(values: np.ndarray) -> None:
    """Sort an array in place along axis 0, which is short: an odd-even
    transposition network of elementwise minima and maxima over whole
    slices, far cheaper than a sort call per short column."""
    width = len(values)
    for rnd in range(width):
        for j in range(rnd % 2, width - 1, 2):
            lo, hi = values[j], values[j + 1]
            low = np.minimum(lo, hi)
            np.maximum(lo, hi, out=hi)
            lo[...] = low


def nonadaptive_split(c: Circuit) -> JuntaSplit:
    """Bucket junta-gate characters by their local position pattern.

    Every gate must classify as non-parity; XOR/NXOR outputs are rejected and
    have to be pruned by the caller first.
    """
    gates = junta_spectra(c.junta_table)
    parities = [pos for g in gates for pos in g.positions[g.parity != 0].tolist()]
    if parities:
        raise ValidationError(
            [f"gate {min(parities)} is a parity or negated parity; prune it first"]
        )
    return JuntaSplit(c.t, c.m, c.n, tuple(gates))
