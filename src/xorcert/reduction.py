"""Decomposition of max-correlation with a target string into an ensemble of
weighted XOR schemes over valuation variables, plus the junta-circuit split
that buckets characters by their position pattern.

Both are prepared for refutation when they are built: ``group_characters``
prepares every ensemble key straight from the circuit's characters, and a
``JuntaSplit`` its buckets, so that a target pays one bincount of its signed
sums plus the engines (``refuter.PreparedSchemes``). An ensemble's dense
per-output schemes, with a zero-weight filler edge wherever an output has no
character at a key, are made only when ``SchemeEnsemble.schemes`` is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .circuits import Circuit, JuntaGate, LayeredCircuit
from .core import (
    Dyadic,
    Hypergraph,
    ValidationError,
    XorInstance,
    XorScheme,
    sign_of_bit,
)
from .fourier import (
    FourierExpansion,
    ParityClass,
    classify_parity,
    expand_junta,
    expand_layered_output,
)
from .refuter import PreparedSchemes, prepare_copies

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
    """Per-pattern hypergraphs for a junta circuit with no parity outputs.

    ``buckets`` maps every proper subset of gate positions to the hypergraph
    of input projections and the per-gate coefficient vector; the full-degree
    characters are excluded and their total magnitude obeys the non-parity
    ceiling 1 - 2^(1-t) gate by gate. ``prepared`` holds the buckets in
    sorted order, prepared for refutation without validating them again:
    their edges and weights come from a validated circuit's expansions.
    """

    t: int
    m: int
    n: int
    buckets: Mapping[tuple[int, ...], tuple[Hypergraph, tuple[Dyadic, ...]]]
    prepared: PreparedSchemes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prepared", prepare_copies(self.m, (
            (hyper.n, list(zip(range(self.m), hyper.edges, weights)), {})
            for _, (hyper, weights) in sorted(self.buckets.items())
        )))

    def instance(self, alpha: tuple[int, ...], b: Sequence[int]) -> XorInstance:
        hyper, weights = self.buckets[alpha]
        scheme = XorScheme(hyper, weights, len(alpha))
        return XorInstance(scheme, tuple(b))


GateAnalysis = Sequence[tuple[ParityClass, FourierExpansion]]


def _analyze_gates(c: Circuit) -> GateAnalysis:
    """(Parity class, Fourier expansion) of every gate of a junta circuit: the
    one expansion that dependency search, pruning and splitting all share."""
    out = []
    for i, gate in enumerate(c.gates):
        if not isinstance(gate, JuntaGate):
            raise ValidationError([f"gate {i} is not a junta gate"])
        exp = expand_junta(gate, c.n)
        out.append((classify_parity(exp), exp))
    return out


def nonadaptive_split(c: Circuit) -> JuntaSplit:
    """Bucket junta-gate characters by their local position pattern.

    Every gate must classify as non-parity; XOR/NXOR outputs are rejected and
    have to be pruned by the caller first.
    """
    return _split_analyzed(c, _analyze_gates(c))


def _split_analyzed(c: Circuit, analysis: GateAnalysis) -> JuntaSplit:
    """:func:`nonadaptive_split` given ``_analyze_gates(c)``."""
    t = c.t
    for i, (cls, _) in enumerate(analysis):
        if cls is not ParityClass.OTHER:
            raise ValidationError(
                [f"gate {i} is a parity or negated parity; prune it first"]
            )

    buckets: dict[tuple[int, ...], tuple[Hypergraph, tuple[Dyadic, ...]]] = {}
    for size in range(t):
        for alpha in itertools.combinations(range(t), size):
            edges = []
            weights = []
            for gate, (_, exp) in zip(c.gates, analysis):
                if alpha and alpha[-1] >= len(gate.inputs):
                    edges.append(tuple(range(size)))  # zero-weight filler
                    weights.append(Dyadic(0))
                    continue
                char = tuple(sorted(gate.inputs[j] for j in alpha))
                edges.append(char)
                weights.append(exp.coeffs.get(char, Dyadic(0)))
            buckets[alpha] = (
                Hypergraph(c.n, tuple(edges)),
                tuple(weights),
            )
    return JuntaSplit(t, c.m, c.n, buckets)
