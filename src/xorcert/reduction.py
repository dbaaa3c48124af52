"""Decomposition of max-correlation with a target string into an ensemble of
weighted XOR schemes over valuation variables, plus the junta-circuit split
that buckets characters by their position pattern.

Both are prepared for refutation when they are built: ``group_characters``
prepares every ensemble key straight from the circuit's characters, and a
``JuntaSplit`` its buckets straight from the gates' integer spectra
(``fourier.junta_spectra``), with no per-gate expansion and no dense
buckets, so that a target pays one bincount of its signed sums plus the
engines (``refuter.PreparedSchemes``). An ensemble's dense
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
from .fourier import GateSpectra, expand_layered_output, junta_spectra
from .refuter import PreparedSchemes, prepare_copies, prepare_rows

# An ensemble key is (beta, slot): beta gives one bit pattern inside [w] per
# layer (as a mask), slot separates the different characters of one output
# that share a beta pattern. Slots are 1-based.
EnsembleKey = tuple[tuple[int, ...], int]


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


def _character_profile(
    lc: LayeredCircuit, alpha: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
    """Per-layer (bit pattern mask, group index) of a layered character."""
    c = lc.circuit
    group_width = c.n * c.w
    beta = [0] * c.t
    groups: list[int | None] = [None] * c.t
    for bit in alpha:
        layer, rem = divmod(bit, group_width)
        j, b = divmod(rem, c.w)
        if groups[layer] is None:
            groups[layer] = j
        elif groups[layer] != j:
            raise ValidationError(
                [f"character {alpha} touches two groups in layer {layer}"]
            )
        beta[layer] |= 1 << b
    return tuple(beta), tuple(groups)


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
        edge_of = {
            part.row + j: edge for part in scheme.parts for j, edge in enumerate(part.edges)
        }
        edges = [_filler_edge(beta, self._n)] * prepared.m
        weights = [Dyadic(0)] * prepared.m
        lo, hi = scheme.span
        for row, out, units in zip(
            prepared.rows[lo:hi].tolist(), prepared.outputs[lo:hi].tolist(), prepared.units[lo:hi]
        ):
            edges[out] = edge_of[row]
            weights[out] = Dyadic(units, scheme.log_den)
        return XorScheme(
            Hypergraph(self._n * len(beta), tuple(edges)),
            tuple(weights),
            SchemeEnsemble.key_arity(key),
        )


def group_characters(lc: LayeredCircuit) -> SchemeEnsemble:
    """Assign every nonzero character of every output to a (beta, slot) key.

    The resulting schemes satisfy, exactly and for every layered input and
    every right-hand side, that the average output/target agreement equals
    the sum of the per-key instance values. Each key is prepared from its
    characters alone; the outputs without one count as zero-weight copies
    of the key's filler edge.
    """
    c = lc.circuit
    n, w, t, m = c.n, c.w, c.t, c.m
    slots = 1 << (t * w)
    keys = list(itertools.product(itertools.product(range(1 << w), repeat=t), range(1, slots + 1)))

    # key -> [(output, edge, weight)] of its characters, keys in sorted order
    copies: dict[EnsembleKey, list] = {key: [] for key in keys}
    for i in range(m):
        exp = expand_layered_output(lc, i)
        per_beta: dict[tuple[int, ...], list] = {}
        for alpha, coeff in exp.coeffs.items():
            beta, groups = _character_profile(lc, alpha)
            per_beta.setdefault(beta, []).append((alpha, groups, coeff))
        for beta, chars in per_beta.items():
            chars.sort(key=lambda ac: tuple(reversed(ac[0])))  # colex
            if len(chars) > slots:
                raise ValidationError(
                    [f"output {i}: {len(chars)} characters exceed {slots} slots"]
                )
            for slot, (_, groups, coeff) in enumerate(chars, 1):
                edge = tuple(layer * n + groups[layer] for layer in range(t) if beta[layer])
                copies[(beta, slot)].append((i, edge, coeff))

    prepared = prepare_copies(m, [
        (n * t, chars, {_filler_edge(beta, n): m - len(chars)})
        for (beta, _), chars in copies.items()
    ])
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
        each bucket's rows in output order. A bucket's scale 2^-L is the
        finest of its coefficients num * 2^-f in lowest terms."""
        width = max(self.t - 1, 0)
        schemes = []
        # an empty block keeps the concatenation defined when m = 0
        blocks = [tuple(np.zeros(shape, dtype=np.int64) for shape in (0, 0, (0, width), 0, 0))]
        for j, alpha in enumerate(self.patterns()):
            chars = self._characters(alpha)
            log_den = 0
            for g, _, col in chars:
                low = int(np.bitwise_or.reduce(np.abs(col)))
                if low:
                    log_den = max(log_den, g.fan_in - (low & -low).bit_length() + 1)
            schemes.append((self.n, log_den))
            outputs = [g.positions for g, _, _ in chars]
            edges = [edge for _, edge, _ in chars]
            units = [
                col << (log_den - g.fan_in) if log_den >= g.fan_in else col >> (g.fan_in - log_den)
                for g, _, col in chars
            ]
            counts = [np.ones(len(col), dtype=np.int64) for _, _, col in chars]
            fillers = [g.positions for g in self.gates if alpha and alpha[-1] >= g.fan_in]
            if fillers:
                outputs.append(np.array([min(pos.min() for pos in fillers)]))
                edges.append(np.arange(len(alpha))[None, :])
                units.append(np.zeros(1, dtype=np.int64))
                counts.append(np.array([sum(map(len, fillers))]))
            if not outputs:
                continue
            out = np.concatenate(outputs)
            order = np.argsort(out, kind="stable")
            padded = np.full((len(out), width), -1, dtype=np.int64)
            padded[:, :len(alpha)] = np.concatenate(edges)
            blocks.append((
                np.full(len(out), j), out[order], padded[order],
                np.concatenate(units)[order], np.concatenate(counts)[order],
            ))
        scheme, outputs, edges, units, counts = map(np.concatenate, zip(*blocks))
        return prepare_rows(self.m, schemes, scheme, edges, outputs, units, counts)

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


def nonadaptive_split(c: Circuit) -> JuntaSplit:
    """Bucket junta-gate characters by their local position pattern.

    Every gate must classify as non-parity; XOR/NXOR outputs are rejected and
    have to be pruned by the caller first.
    """
    gates = junta_spectra(c.gates)
    parities = [pos for g in gates for pos in g.positions[g.parity != 0].tolist()]
    if parities:
        raise ValidationError(
            [f"gate {min(parities)} is a parity or negated parity; prune it first"]
        )
    return JuntaSplit(c.t, c.m, c.n, tuple(gates))
