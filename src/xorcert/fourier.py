"""Exact Fourier expansions of junta gates, shallow decision trees, and
layered tree outputs, with level weights and parity classification.

Characters are sorted index tuples (not bitmasks) so the variable count is
unbounded. Every coefficient is an exact dyadic rational.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .circuits import JuntaGate, Leaf, LayeredCircuit, TreeNode, WordDecisionTree
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

    def evaluate(self, x: Sequence[int]) -> Dyadic:
        total = Dyadic(0)
        for alpha, c in self.coeffs.items():
            sign = 1
            for v in alpha:
                sign *= x[v]
            total = total + Dyadic(sign * c.num, c.log_den)
        return total

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


def expand_junta(gate: JuntaGate, n_vars: int | None = None) -> FourierExpansion:
    """Exact transform of a junta truth table by direct character summation."""
    t = len(gate.inputs)
    if t > 16:
        raise ValidationError([f"junta fan-in {t} exceeds the transform cap 16"])
    if len(gate.table) != 1 << t:
        raise ValidationError(
            [f"table length {len(gate.table)} != 2^{t}"]
        )
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


def expand_layered_output(lc: LayeredCircuit, i: int) -> FourierExpansion:
    """Expansion of output i of a layered circuit over its w*n*t bit inputs.

    The q-th query of the tree reads a whole w-bit group inside layer q; the
    indicator of each symbol value contributes +-2^{-w} on every sub-pattern
    of the group, and deeper recursion only touches later layers, so the
    character sets concatenate disjointly.
    """
    c = lc.circuit
    w = c.w
    gate = c.gates[i]
    if not isinstance(gate, WordDecisionTree):
        raise ValidationError([f"output {i} is not a decision tree"])

    def go(node: TreeNode, layer: int) -> dict[tuple[int, ...], Dyadic]:
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

    return FourierExpansion(lc.n_bits, go(gate.root, 0))


def level_weight(exp: FourierExpansion, level: int) -> Dyadic:
    """Exact sum of |coefficient| over characters of the given size."""
    total = Dyadic(0)
    for alpha, c in exp.coeffs.items():
        if len(alpha) == level:
            total = total + abs(c)
    return total


class ParityClass(enum.Enum):
    XOR = "xor"
    NXOR = "nxor"
    OTHER = "other"


def classify_parity(exp: FourierExpansion) -> ParityClass:
    """Detect (negated) parities on the true dependency support.

    For OTHER gates the leading coefficient on the full support is checked
    against the 1 - 2^(1-t) ceiling that separates them from parities.
    """
    if exp.parseval_sum() != Dyadic(1):
        raise ValidationError(["expansion is not +-1-valued (Parseval != 1)"])
    support = exp.support()
    if set(exp.coeffs) == {support}:
        lead = exp.coeffs[support]
        if lead == Dyadic(1):
            return ParityClass.XOR
        if lead == Dyadic(-1):
            return ParityClass.NXOR
    t = len(support)
    lead = abs(exp.coeffs.get(support, Dyadic(0)))
    ceiling = Dyadic((1 << (t - 1)) - 1, t - 1) if t >= 1 else Dyadic(0)
    if ceiling < lead:
        raise AssertionError(
            f"non-parity gate with |leading coefficient| {lead} > {ceiling}"
        )
    return ParityClass.OTHER
