"""Multi-output circuits: bounded-fan-in junta gates and word decision trees,
plus the layered view that spreads a t-query tree across t layers of groups.

A circuit is held as flat arrays: its junta gates as one ``JuntaTable``, on
which validation checks every junta gate at once and from which
``fourier.junta_spectra`` transforms, and its trees as one ``TreeTable`` of
leaves, filled by one walk over a level of every tree at a time that also
checks their nodes. The layered expansion (``fourier.layered_characters``)
and the oracle's evaluation read the leaves. A circuit made from gate
objects packs them when a table is first read. ``circuit_from_json`` fills
the tables straight from the parsed JSON, through the same packer and the
same walk, and builds gate objects only if ``Circuit.gates`` is read.
"""

from __future__ import annotations

import json
import random
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter, contains, index, itemgetter, not_
from typing import Sequence, Union

import numpy as np

from .core import (
    ValidationError, bit_of_sign, check_fields, flagged, is_index, is_int, packed_rows, parse_json,
    sign_of_bit,
)


@dataclass(frozen=True, slots=True)
class Leaf:
    value: int  # +1 or -1


@dataclass(frozen=True, slots=True)
class Node:
    query: int
    children: tuple  # 2**w subtrees, indexed by the queried symbol


TreeNode = Union[Leaf, Node]


@dataclass(frozen=True)
class WordDecisionTree:
    """Adaptive decision tree querying symbols of width w bits."""

    root: TreeNode

    def eval(self, x: Sequence[int]) -> int:
        node = self.root
        while isinstance(node, Node):
            node = node.children[x[node.query]]
        return node.value


@dataclass(frozen=True)
class JuntaGate:
    """Single-output gate reading <= t distinct bits through a truth table.

    ``table[idx]`` is the output bit for the input whose j-th read bit is
    ``(idx >> j) & 1``; bits map to signs through the global convention.
    """

    inputs: tuple[int, ...]
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        # the loader passes tuples, and shares one table tuple among gates
        if type(self.inputs) is not tuple:
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if type(self.table) is not tuple:
            object.__setattr__(self, "table", tuple(self.table))

    def eval(self, x: Sequence[int]) -> int:
        idx = 0
        for j, v in enumerate(self.inputs):
            idx |= (x[v] & 1) << j
        return sign_of_bit(self.table[idx])


Gate = Union[JuntaGate, WordDecisionTree]


def _junta_positions(gates: Sequence, junta: Sequence[bool]) -> tuple[np.ndarray, Sequence]:
    """(the positions of the gates that ``junta`` flags, those gates)."""
    if all(junta):
        return np.arange(len(gates)), gates
    positions = np.flatnonzero(np.array(junta, dtype=bool))
    return positions, [gates[i] for i in positions.tolist()]


@dataclass(frozen=True, eq=False)
class JuntaTable:
    """The junta gates of a sequence of ``m`` gates as flat arrays, packed
    once, from the gates by :meth:`of` or from circuit JSON by the loader.

    Junta gate g sits at ``positions[g]`` of the sequence. It reads the
    ``fan_ins[g]`` inputs that start at ``inputs[inputs_at[g]]``, and its
    ``sizes[g]`` table entries start at ``bits[table_at[g]]``, one byte
    each: the entry's low bit. ``unpacked[g]`` holds gate g's inputs as
    given where they are not all ints that fit int64; the row packs as
    zeros where one is not an integer that fits int64. ``bit_tables[g]`` is
    False where an entry is not 0 or 1. Only validation reads these two.
    """

    m: int
    positions: np.ndarray
    fan_ins: np.ndarray
    inputs: np.ndarray
    inputs_at: np.ndarray
    sizes: np.ndarray
    bits: np.ndarray
    table_at: np.ndarray
    bit_tables: np.ndarray
    unpacked: dict[int, tuple]

    @classmethod
    def of(cls, gates: Sequence) -> "JuntaTable":
        positions, junta = _junta_positions(gates, list(map(isinstance, gates, repeat(JuntaGate))))
        tables = list(map(attrgetter("table"), junta))
        sizes = np.fromiter(map(len, tables), np.int64, len(junta))
        return cls.packed(
            len(gates), positions, list(map(attrgetter("inputs"), junta)), sizes,
            *_packed_bits(tables, sizes),
        )

    @classmethod
    def packed(
        cls, m: int, positions: np.ndarray, inputs: list[Sequence], sizes: np.ndarray,
        bits: np.ndarray, bit_tables: np.ndarray,
    ) -> "JuntaTable":
        """The table of m gates whose junta gates sit at ``positions``, read
        ``inputs`` and have tables of ``sizes`` entries, packed as ``bits``."""
        fan_ins = np.fromiter(map(len, inputs), np.int64, len(inputs))
        flat, unpacked = packed_rows(inputs)
        return cls(
            m, positions, fan_ins, flat, np.cumsum(fan_ins) - fan_ins,
            sizes, bits, np.cumsum(sizes) - sizes, bit_tables, unpacked,
        )

    def gate_inputs(self, g: int) -> tuple:
        """Junta gate g's inputs as given."""
        if g in self.unpacked:
            return self.unpacked[g]
        at = self.inputs_at[g]
        return tuple(self.inputs[at:at + self.fan_ins[g]].tolist())

    def violations(self, n: int, w: int, t: int) -> list[tuple[int, str]]:
        """(position, message) for each violation of the junta gates, in
        gate order and each gate's in the order of its checks. The checks
        run on the arrays at once; the inputs of a gate that did not pack
        as ints are checked as given."""
        count = len(self.positions)
        entry_gate = np.repeat(np.arange(count), self.fan_ins)
        outside = np.zeros(count, dtype=bool)
        outside[entry_gate[(self.inputs < 0) | (self.inputs >= n)]] = True
        # sorted within each gate, a repeated input sits next to its copy
        by_gate = np.lexsort((self.inputs, entry_gate))
        ordered, owner = self.inputs[by_gate], entry_gate[by_gate]
        repeated = np.zeros(count, dtype=bool)
        repeated[owner[1:][(ordered[1:] == ordered[:-1]) & (owner[1:] == owner[:-1])]] = True
        untyped = np.zeros(count, dtype=bool)
        for g, inputs in self.unpacked.items():
            integers = all(map(is_index, inputs))
            untyped[g] = not integers
            repeated[g] = integers and len(set(inputs)) != len(inputs)
            outside[g] = integers and any(not 0 <= v < n for v in inputs)
        fits = self.fan_ins < 63
        size_ok = fits & (self.sizes == 1 << np.where(fits, self.fan_ins, 0))
        inputs = self.gate_inputs
        checks = [
            (np.full(count, w != 1), lambda g: "junta gate requires w == 1"),
            (self.fan_ins > t, lambda g: f"{self.fan_ins[g]} inputs exceed fan-in bound {t}"),
            (untyped, lambda g: f"non-integer input index in {inputs(g)}"),
            (repeated, lambda g: f"duplicate input index in {inputs(g)}"),
            (outside, lambda g: f"input index out of range in {inputs(g)}"),
            (~size_ok, lambda g: f"table length {self.sizes[g]} != 2^{self.fan_ins[g]}"),
            (~self.bit_tables, lambda g: "table entries must be bits"),
        ]
        return [(int(self.positions[g]), message) for g, message in flagged(checks)]


def _packed_bits(tables: list[tuple], sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the low bit of every entry of all tables in order, one uint8 each,
    whether each table's entries are all 0 or 1): through one bytes object
    while every entry is an integer in range(256), one table at a time past
    that; an entry that is not an integer reads 1 where it equals 1."""
    try:
        flat = np.frombuffer(bytes(chain.from_iterable(tables)), np.uint8)
    except (TypeError, ValueError):
        bits, ok = [], []
        for table in tables:
            ok.append(all(v in (0, 1) for v in table))
            try:
                row = [index(v) & 1 for v in table]
            except TypeError:
                row = [v == 1 for v in table]
            bits.extend(row)
        return np.array(bits, dtype=np.uint8), np.array(ok, dtype=bool)
    bad = flat > 1
    if not bad.any():
        return flat, np.ones(len(tables), dtype=bool)
    ok = np.ones(len(tables), dtype=bool)
    ok[np.repeat(np.arange(len(tables)), sizes)[bad]] = False
    return flat & 1, ok


@dataclass(frozen=True, eq=False)
class TreeTable:
    """The decision trees of a sequence of gates as flat per-leaf arrays,
    filled by :meth:`walk`, which takes a level of every tree at a time and
    checks each node and leaf it reaches.

    Each leaf is a row; the rows run in gate order and, within a gate, in
    the order of a depth-first walk. ``outputs`` holds the leaf's gate
    position, ``depths`` its depth d, ``groups[:, q]`` the group queried on
    layer q and ``symbols[:, q]`` the symbol read there on the way to the
    leaf (for q < d, 0 past d), and ``values`` its value (0 where it is not
    a sign). The columns run to the deepest leaf, at most t.

    ``violations`` holds (position, message) for each violation, in gate
    order and each gate's in walk order; a node at depth t is too deep, and
    nothing below it is packed or named.
    """

    outputs: np.ndarray
    depths: np.ndarray
    groups: np.ndarray
    symbols: np.ndarray
    values: np.ndarray
    violations: tuple[tuple[int, str], ...]

    @classmethod
    def of(cls, gates: Sequence, n: int, w: int, t: int) -> "TreeTable":
        """The table of every gate that is not a junta gate, read as a tree."""
        owner = [i for i, g in enumerate(gates) if not isinstance(g, JuntaGate)]
        return cls.walk(owner, [gates[i].root for i in owner], n, w, t, _ObjectNodes)

    @classmethod
    def walk(
        cls, owner: list[int], level: list, n: int, w: int, t: int, read: type
    ) -> "TreeTable":
        """The table of the trees with these roots at the gate positions
        ``owner``, each level read by ``read`` (``_ObjectNodes`` or
        ``_JsonNodes``)."""
        owner = np.array(owner, dtype=np.int64)
        groups = symbols = np.zeros((len(level), 0), dtype=np.int64)
        if not level:  # no trees, so nothing to walk or pack
            return cls(owner, owner, groups, symbols, owner, ())
        fan_out = 1 << w if 0 <= w < 62 else -1  # -1: no node has the right count
        expected = fan_out if fan_out >= 0 else f"2^{w}"
        blocks, found = [], []
        depth = 0
        while level:
            leaf, values, nodes = read.level(level)
            is_leaf = np.fromiter(leaf, bool, len(leaf))
            at = np.flatnonzero(is_leaf)
            try:
                signed = np.fromiter(map(index, values), np.int64, len(values))
            except (TypeError, OverflowError):  # a sign that is not an integer, such as 1.0, reads as one
                signed = np.array([v if v in (1, -1) else 0 for v in values], dtype=np.int64)
            signs = (signed == 1) | (signed == -1)
            blocks.append((owner[at], depth, groups[at], symbols[at], np.where(signs, signed, 0)))
            found += [
                (int(owner[at[j]]), symbols[at[j]].tolist(), 0, f"leaf value {values[j]} not a sign")
                for j in np.flatnonzero(~signs).tolist()
            ]
            inner = np.flatnonzero(~is_leaf)
            if depth >= t:
                found += [
                    (int(owner[j]), symbols[j].tolist(), 0, f"query depth exceeds {t}")
                    for j in inner.tolist()
                ]
                read.below(nodes)
                break
            queries, kids = read.nodes(nodes)
            fan_outs = np.fromiter(map(len, kids), np.int64, len(kids))
            packed, unpacked = packed_rows(list(zip(queries)))
            flagged = (packed < 0) | (packed >= n) | (fan_outs != fan_out)
            flagged[list(unpacked)] = True
            # a flagged node's checks read its query itself, also one that did not pack
            for j in np.flatnonzero(flagged).tolist():
                query, path = queries[j], (int(owner[inner[j]]), symbols[inner[j]].tolist())
                if not is_index(query):
                    found.append((*path, 0, f"non-integer query index {query}"))
                elif not 0 <= query < n:
                    found.append((*path, 0, f"query index {query} out of range [0, {n})"))
                if fan_outs[j] != fan_out:
                    found.append((*path, 1, f"node has {fan_outs[j]} children, expected {expected}"))
            parent = np.repeat(inner, fan_outs)
            groups = np.column_stack((groups[parent], np.repeat(packed, fan_outs)))
            first = np.repeat(np.cumsum(fan_outs) - fan_outs, fan_outs)
            symbols = np.column_stack((symbols[parent], np.arange(len(parent)) - first))
            owner = owner[parent]
            level = list(chain.from_iterable(kids))
            depth += 1
        blocks = [b for b in blocks if len(b[0])]
        sizes = [len(b[0]) for b in blocks]
        depths = np.repeat([b[1] for b in blocks], sizes).astype(np.int64)
        width = int(depths.max(initial=0))
        groups, symbols = (np.zeros((len(depths), width), dtype=np.int64) for _ in range(2))
        for (_, d, group, symbol, _), lo in zip(blocks, np.cumsum(sizes) - sizes):
            groups[lo:lo + len(group), :d], symbols[lo:lo + len(group), :d] = group, symbol
        outputs, values = (
            np.concatenate([np.zeros(0, dtype=np.int64)] + [b[k] for b in blocks]) for k in (0, 4)
        )
        order = np.lexsort((*symbols.T[::-1], outputs))
        found.sort(key=itemgetter(0, 1, 2))
        return cls(
            outputs[order], depths[order], groups[order], symbols[order], values[order],
            tuple((pos, message) for pos, _, _, message in found),
        )


class _ObjectNodes:
    """Reads a level of tree objects for :meth:`TreeTable.walk`: whatever
    is not a Leaf is read as a Node."""

    @staticmethod
    def level(level: list) -> tuple[list[bool], list, list]:
        """(whether each node is a leaf, the leaves' values, the other nodes)."""
        leaf = list(map(isinstance, level, repeat(Leaf)))
        return (
            leaf, list(map(attrgetter("value"), compress(level, leaf))),
            list(compress(level, map(not_, leaf))),
        )

    @staticmethod
    def nodes(nodes: list) -> tuple[list, list]:
        """(the nodes' queries, their children)."""
        return list(map(attrgetter("query"), nodes)), list(map(attrgetter("children"), nodes))

    @staticmethod
    def below(nodes: list) -> None:
        """Nothing below depth t is read."""


_BAD_NODE = "tree node is neither a 0/1 leaf nor a query with a list of children"


class _JsonNodes:
    """Reads a level of JSON tree nodes for :meth:`TreeTable.walk`, with
    the same results as :class:`_ObjectNodes` on the nodes they stand for.
    A node that is neither a 0/1 leaf nor an integer query with a list of
    children raises, also below depth t."""

    @staticmethod
    def level(level: list) -> tuple[list[bool], list, list]:
        if not set(map(type, level)) <= {dict}:
            raise ValidationError([_BAD_NODE])
        leaf = list(map(contains, level, repeat("leaf")))
        bits = list(map(itemgetter("leaf"), compress(level, leaf)))
        if not (set(map(type, bits)) <= {int} and set(bits) <= {0, 1}):
            raise ValidationError([_BAD_NODE])
        return leaf, list(map(_SIGNS.__getitem__, bits)), list(compress(level, map(not_, leaf)))

    @staticmethod
    def nodes(nodes: list) -> tuple[list, list]:
        queries = list(map(dict.get, nodes, repeat("query")))
        kids = list(map(dict.get, nodes, repeat("children")))
        if not (set(map(type, queries)) <= {int} and set(map(type, kids)) <= {list}):
            raise ValidationError([_BAD_NODE])
        return queries, kids

    @classmethod
    def below(cls, nodes: list) -> None:
        """Read on to the leaves, for the nodes' structure only."""
        while nodes:
            nodes = cls.level(list(chain.from_iterable(cls.nodes(nodes)[1])))[2]


_SIGNS = (sign_of_bit(0), sign_of_bit(1))  # a leaf's sign, by its JSON bit


class Circuit:
    """m-output circuit over n input symbols of w bits each.

    Junta gates are only meaningful for bit inputs (w == 1); decision trees
    work for any word width. A circuit is immutable. One made from gates
    packs them into its tables when a table is first read; one loaded by
    ``circuit_from_json`` has only its tables, and builds its gates when
    ``gates`` is first read. Equality and hashing read the gates.
    """

    n: int
    w: int
    t: int
    m: int

    def __init__(self, n: int, w: int, t: int, gates: Sequence[Gate]) -> None:
        gates = tuple(gates)
        vars(self).update(n=n, w=w, t=t, m=len(gates), gates=gates)

    @classmethod
    def of_tables(
        cls, n: int, w: int, t: int, junta_table: JuntaTable, tree_table: TreeTable
    ) -> "Circuit":
        """The circuit of ``junta_table.m`` gates held by these tables."""
        c = cls.__new__(cls)
        vars(c).update(
            n=n, w=w, t=t, m=junta_table.m, junta_table=junta_table, tree_table=tree_table
        )
        return c

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.n, self.w, self.t, self.gates

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Circuit(n={self.n!r}, w={self.w!r}, t={self.t!r}, gates={self.gates!r})"

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates of a loaded circuit, built from its tables."""
        return _gates_of(self.junta_table, self.tree_table)

    def violations(self) -> list[str]:
        # a circuit is immutable, so a target certified against it does not
        # pay for checking every gate again
        cached = self.__dict__.get("_violations")
        if cached is not None:
            return list(cached)
        out = []
        if self.n < 1 or self.w < 1 or self.t < 0:
            out.append(f"bad shape (n={self.n}, w={self.w}, t={self.t})")
        table = self.junta_table
        found = table.violations(self.n, self.w, self.t)
        if len(table.positions) < self.m:
            found += self.tree_table.violations
            found.sort(key=itemgetter(0))  # stable: a gate's own order stays
        out.extend(f"gate {i}: {v}" for i, v in found)
        vars(self)["_violations"] = tuple(out)
        return out

    @cached_property
    def junta_table(self) -> JuntaTable:
        """The junta gates packed once, for validation and the transform."""
        return JuntaTable.of(self.gates)

    @cached_property
    def tree_table(self) -> TreeTable:
        """The tree gates' leaves packed and their nodes checked in one walk,
        for validation, the layered expansion and the oracle."""
        return TreeTable.of(self.gates, self.n, self.w, self.t)

    def ensure_valid(self) -> "Circuit":
        out = self.violations()
        if out:
            raise ValidationError(out)
        return self

    def is_junta_circuit(self) -> bool:
        return len(self.junta_table.positions) == self.m

    def with_tree_gates(self) -> "Circuit":
        if not len(self.junta_table.positions):
            return self  # all trees already, and immutable
        gates = tuple(
            junta_to_tree(g) if isinstance(g, JuntaGate) else g
            for g in self.gates
        )
        return Circuit(self.n, self.w, self.t, gates)


def _gates_of(junta: JuntaTable, trees: TreeTable) -> tuple[Gate, ...]:
    """The gates held by the tables of a valid circuit: a junta gate per row
    of the junta table, with one table tuple per distinct table, and a tree
    per output of the tree table, rebuilt from its leaves' paths."""
    gates: list = [None] * junta.m
    bits, tables = junta.bits.tobytes(), {}
    for g, (pos, start, size) in enumerate(zip(
        junta.positions.tolist(), junta.table_at.tolist(), junta.sizes.tolist()
    )):
        key = bits[start:start + size]
        table = tables.get(key)
        if table is None:
            table = tables[key] = tuple(key)
        gates[pos] = JuntaGate(junta.gate_inputs(g), table)
    outputs, depths, values = trees.outputs.tolist(), trees.depths.tolist(), trees.values.tolist()
    groups, symbols = trees.groups.tolist(), trees.symbols.tolist()

    def subtree(lo: int, hi: int, d: int) -> TreeNode:
        # rows lo to hi share their first d symbols; their symbol d picks the child
        if depths[lo] == d:
            return Leaf(values[lo])
        kids, start = [], lo
        for j in range(lo + 1, hi + 1):
            if j == hi or symbols[j][d] != symbols[start][d]:
                kids.append(subtree(start, j, d + 1))
                start = j
        return Node(groups[lo][d], tuple(kids))

    lo = 0
    for hi in range(1, len(outputs) + 1):
        if hi == len(outputs) or outputs[hi] != outputs[lo]:
            gates[outputs[lo]] = WordDecisionTree(subtree(lo, hi, 0))
            lo = hi
    return tuple(gates)


def eval_circuit(c: Circuit, x: Sequence[int]) -> tuple[int, ...]:
    """Evaluate every output on a symbol string x in [2**w]^n."""
    check_input(c, x)
    return tuple(g.eval(x) for g in c.gates)


def check_input(c: Circuit, x: Sequence[int]) -> None:
    """Raise ValidationError unless x is a string of n symbols in [0, 2**w)."""
    if len(x) != c.n:
        raise ValidationError([f"input length {len(x)} != n = {c.n}"])
    top = 1 << c.w
    for j, sym in enumerate(x):
        if not 0 <= sym < top:
            raise ValidationError([f"symbol {sym} at position {j} out of range"])


def junta_to_tree(gate: JuntaGate) -> WordDecisionTree:
    """Equivalent nonadaptive tree querying the gate inputs in order."""

    def go(j: int, idx: int) -> TreeNode:
        if j == len(gate.inputs):
            return Leaf(sign_of_bit(gate.table[idx]))
        return Node(
            gate.inputs[j],
            (go(j + 1, idx), go(j + 1, idx | (1 << j))),
        )

    return WordDecisionTree(go(0, 0))


@dataclass(frozen=True)
class LayeredCircuit:
    """View of a tree circuit over t layers of n groups of w bits.

    The q-th query of every output is redirected to the queried group inside
    layer q, so each output touches at most one group per layer. Inputs are
    never materialized: :meth:`duplicate` produces the layered bit string that
    corresponds to an original symbol string.
    """

    circuit: Circuit

    def __post_init__(self) -> None:
        self.circuit.ensure_valid()
        bad = [
            f"gate {i}: junta gate in layered circuit"
            for i in self.circuit.junta_table.positions.tolist()
        ]
        if bad:
            raise ValidationError(bad)

    @property
    def n_bits(self) -> int:
        c = self.circuit
        return c.w * c.n * c.t

    def bit_index(self, layer: int, group: int, bit: int) -> int:
        c = self.circuit
        return layer * (c.n * c.w) + group * c.w + bit

    def group_symbol(self, bits: Sequence[int], layer: int, group: int) -> int:
        base = self.bit_index(layer, group, 0)
        sym = 0
        for b in range(self.circuit.w):
            sym |= (bits[base + b] & 1) << b
        return sym

    def duplicate(self, x: Sequence[int]) -> tuple[int, ...]:
        """Layered bit string carrying t identical copies of x."""
        c = self.circuit
        layer = []
        for sym in x:
            for b in range(c.w):
                layer.append((sym >> b) & 1)
        return tuple(layer * c.t)

    def eval_bits(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Evaluate all outputs on a layered bit string of length w*n*t."""
        if len(bits) != self.n_bits:
            raise ValidationError(
                [f"layered input length {len(bits)} != {self.n_bits}"]
            )
        out = []
        for g in self.circuit.gates:
            node = g.root
            layer = 0
            while isinstance(node, Node):
                sym = self.group_symbol(bits, layer, node.query)
                node = node.children[sym]
                layer += 1
            out.append(node.value)
        return tuple(out)


def to_layered(c: Circuit) -> LayeredCircuit:
    """Layered view; requires a valid circuit of word decision trees."""
    return LayeredCircuit(c)


# Seeded generators for test suites.


def random_junta_circuit(
    rng: random.Random, n: int, t: int, m: int
) -> Circuit:
    gates = []
    for _ in range(m):
        inputs = tuple(sorted(rng.sample(range(n), t)))
        table = tuple(rng.randrange(2) for _ in range(1 << t))
        gates.append(JuntaGate(inputs, table))
    return Circuit(n, 1, t, tuple(gates)).ensure_valid()


def random_tree_circuit(
    rng: random.Random,
    n: int,
    w: int,
    t: int,
    m: int,
    leaf_prob: float = 0.2,
) -> Circuit:
    def build(depth: int, used: frozenset[int]) -> TreeNode:
        stop = depth >= t or len(used) == n
        if stop or (depth >= 1 and rng.random() < leaf_prob):
            return Leaf(rng.choice((1, -1)))
        j = rng.choice([v for v in range(n) if v not in used])
        kids = tuple(build(depth + 1, used | {j}) for _ in range(1 << w))
        return Node(j, kids)

    gates = tuple(WordDecisionTree(build(0, frozenset())) for _ in range(m))
    return Circuit(n, w, t, gates).ensure_valid()


def random_parity_circuit(
    rng: random.Random, n: int, t: int, m: int
) -> Circuit:
    """Circuit whose outputs are all parities or negated parities."""
    gates = []
    for _ in range(m):
        size = rng.randint(1, t)
        inputs = tuple(sorted(rng.sample(range(n), size)))
        negate = rng.randrange(2)
        table = tuple(
            (bin(idx).count("1") + negate) % 2 for idx in range(1 << size)
        )
        gates.append(JuntaGate(inputs, table))
    return Circuit(n, 1, t, tuple(gates)).ensure_valid()


# JSON circuit files.


def _tree_node_to_obj(node: TreeNode):
    if isinstance(node, Leaf):
        return {"leaf": bit_of_sign(node.value)}
    return {
        "query": node.query,
        "children": [_tree_node_to_obj(c) for c in node.children],
    }


def circuit_to_json(c: Circuit) -> str:
    gates = []
    for g in c.gates:
        if isinstance(g, JuntaGate):
            gates.append(
                {
                    "kind": "junta",
                    "inputs": list(g.inputs),
                    "table": "".join(str(b) for b in g.table),
                }
            )
        else:
            gates.append({"kind": "tree", "root": _tree_node_to_obj(g.root)})
    payload = {"n": c.n, "w": c.w, "t": c.t, "m": c.m, "gates": gates}
    return json.dumps(payload)


_CIRCUIT_FIELDS = dict.fromkeys("nwtm", is_int) | {"gates": lambda v: type(v) is list}


def circuit_from_json(text: str) -> Circuit:
    # the parsed text is dropped before the circuit is checked
    return _circuit_of(parse_json(text, "circuit")).ensure_valid()


def _circuit_of(data) -> Circuit:
    """The circuit of parsed circuit JSON, its tables filled straight from
    the gates' objects. The first malformed gate raises, a tree gate for a
    node anywhere in it, and then a wrong ``m``."""
    check_fields(data, "circuit", _CIRCUIT_FIELDS)
    n, w, t, gates = data["n"], data["w"], data["t"], data["gates"]
    kinds = [g.get("kind") if type(g) is dict else None for g in gates]
    bad = len(gates)  # the first malformed gate
    if kinds.count("junta") + kinds.count("tree") < bad:
        bad = next(i for i, kind in enumerate(kinds) if kind not in ("junta", "tree"))
    positions, junta = _junta_positions(gates, [kind == "junta" for kind in kinds])
    inputs = list(map(dict.get, junta, repeat("inputs")))
    tables = list(map(dict.get, junta, repeat("table")))
    table = None
    if set(map(type, inputs)) <= {list} and set(map(type, tables)) <= {str}:
        chars = "".join(tables).encode("ascii", "replace")
        if not chars.translate(None, b"01"):  # nothing but 0s and 1s
            table = JuntaTable.packed(
                len(gates), positions, inputs, np.fromiter(map(len, tables), np.int64, len(tables)),
                np.frombuffer(chars, np.uint8) & 1, np.ones(len(tables), dtype=bool),
            )
            # a row of ints past int64 is well formed, and validation names it
            if not set(map(type, chain.from_iterable(table.unpacked.values()))) <= {int}:
                table = None
    if table is None:
        well_formed = [
            type(row) is list and set(map(type, row)) <= {int} and type(bits) is str
            and not bits.strip("01")
            for row, bits in zip(inputs, tables)
        ]
        bad = min(bad, int(positions[well_formed.index(False)]))
    trees = [i for i, kind in enumerate(kinds[:bad]) if kind == "tree"] if "tree" in kinds else []
    tree_table = TreeTable.walk(trees, [gates[i].get("root") for i in trees], n, w, t, _JsonNodes)
    if bad < len(gates):
        raise ValidationError(
            [f"gate {bad} is neither a tree nor a junta with integer inputs and a 0/1 table"]
        )
    if len(gates) != data["m"]:
        raise ValidationError([f"declared m = {data['m']} but {len(gates)} gates"])
    return Circuit.of_tables(n, w, t, table, tree_table)
