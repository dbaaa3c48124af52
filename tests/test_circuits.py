import dataclasses
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcert.avoid import CertifyParams, avoid, certify_not_in_range
from xorcert.circuits import (
    Circuit,
    JuntaGate,
    JuntaTable,
    Leaf,
    Node,
    TreeTable,
    WordDecisionTree,
    _circuit_of,
    circuit_from_json,
    circuit_to_json,
    eval_circuit,
    random_junta_circuit,
    random_parity_circuit,
    random_tree_circuit,
    to_layered,
)
from xorcert.core import Dyadic, ValidationError
from xorcert.fourier import expand_layered_output
from xorcert.prg import parse_spec
from xorcert.reduction import group_characters

from helpers import (
    draw_tree,
    l1_mass,
    random_pruned_circuit,
    reference_junta_violations,
    reference_tree_violations,
)


OR01 = JuntaGate((0, 1), (0, 1, 1, 1))


def all_inputs(n, w):
    for code in range((1 << w) ** n):
        yield [(code >> (j * w)) & ((1 << w) - 1) for j in range(n)]


class TestEval:
    def test_identity_gate_bit_convention(self):
        c = Circuit(1, 1, 1, (JuntaGate((0,), (0, 1)),))
        assert eval_circuit(c, (1,)) == (-1,)
        assert eval_circuit(c, (0,)) == (1,)

    def test_two_gate_circuit(self):
        xor = JuntaGate((0, 1), (0, 1, 1, 0))
        and_true = JuntaGate((0, 1), (0, 0, 0, 1))
        c = Circuit(2, 1, 2, (xor, and_true))
        # x = (0, 1): xor bit 1 -> -1; and bit 0 -> +1
        assert eval_circuit(c, (0, 1)) == (-1, 1)

    def test_word_tree_leaf_table(self):
        leaves = tuple(Leaf(1 - 2 * (v % 2)) for v in range(4))
        c = Circuit(1, 2, 1, (WordDecisionTree(Node(0, leaves)),))
        for v in range(4):
            assert eval_circuit(c, (v,)) == (1 - 2 * (v % 2),)

    def test_symbol_out_of_range(self):
        c = Circuit(1, 1, 1, (JuntaGate((0,), (0, 1)),))
        with pytest.raises(ValidationError):
            eval_circuit(c, (2,))

    def test_junta_tree_agree(self):
        rng = random.Random(3)
        for _ in range(20):
            c = random_junta_circuit(rng, 5, 3, 4)
            ct = c.with_tree_gates()
            for x in all_inputs(5, 1):
                assert eval_circuit(c, x) == eval_circuit(ct, x)


class TestValidation:
    def test_junta_requires_bit_inputs(self):
        c = Circuit(2, 2, 1, (JuntaGate((0,), (0, 1)),))
        with pytest.raises(ValidationError, match="w == 1"):
            c.ensure_valid()

    def test_tree_depth_checked(self):
        deep = WordDecisionTree(Node(0, (Node(1, (Leaf(1), Leaf(1))), Leaf(-1))))
        with pytest.raises(ValidationError, match="depth"):
            Circuit(2, 1, 1, (deep,)).ensure_valid()

    def test_children_count_checked(self):
        bad = WordDecisionTree(Node(0, (Leaf(1), Leaf(1))))
        with pytest.raises(ValidationError, match="children"):
            Circuit(1, 2, 1, (bad,)).ensure_valid()

    def test_non_integer_input_is_named(self):
        # 0.5 is in range, so a range check alone lets the transform read it as 0
        c = Circuit(2, 1, 2, (OR01, JuntaGate((0.5, 1), (0, 1, 1, 1))))
        assert c.violations() == ["gate 1: non-integer input index in (0.5, 1)"]
        with pytest.raises(ValidationError, match="gate 1: non-integer input"):
            c.ensure_valid()

    @pytest.mark.parametrize("c, messages", [
        (Circuit(3, 1, 1, (OR01,)), ["gate 0: 2 inputs exceed fan-in bound 1"]),
        (Circuit(3, 1, 2, (JuntaGate((1, 1), (0, 1, 1, 1)),)),
         ["gate 0: duplicate input index in (1, 1)"]),
        (Circuit(3, 1, 2, (JuntaGate((0, 3), (0, 1, 1, 1)),)),
         ["gate 0: input index out of range in (0, 3)"]),
        (Circuit(3, 1, 2, (OR01, JuntaGate((-1,), (0, 1)))),
         ["gate 1: input index out of range in (-1,)"]),
        (Circuit(3, 1, 2, (JuntaGate((0, 1), (0, 1, 1)),)), ["gate 0: table length 3 != 2^2"]),
        (Circuit(3, 1, 2, (JuntaGate((), ()),)), ["gate 0: table length 0 != 2^0"]),
        (Circuit(3, 1, 2, (JuntaGate((2,), (0, 2)),)), ["gate 0: table entries must be bits"]),
        (Circuit(3, 1, 2, (OR01, JuntaGate((0, 0, 5), (0, -1, 1)))), [
            "gate 1: 3 inputs exceed fan-in bound 2",
            "gate 1: duplicate input index in (0, 0, 5)",
            "gate 1: input index out of range in (0, 0, 5)",
            "gate 1: table length 3 != 2^3",
            "gate 1: table entries must be bits",
        ]),
        # a duplicate is found among inputs that span most of int64
        (Circuit(3, 1, 3, (
            OR01,
            JuntaGate((2 ** 62, -2 ** 62, 2 ** 62), (0,) * 8),
            JuntaGate((2 ** 62, -2 ** 62, 1), (0,) * 8),
        )), [
            "gate 1: duplicate input index in "
            "(4611686018427387904, -4611686018427387904, 4611686018427387904)",
            "gate 1: input index out of range in "
            "(4611686018427387904, -4611686018427387904, 4611686018427387904)",
            "gate 2: input index out of range in (4611686018427387904, -4611686018427387904, 1)",
        ]),
        (Circuit(3, 2, 2, (OR01, JuntaGate((0, 1), (0, 1)))), [
            "gate 0: junta gate requires w == 1",
            "gate 1: junta gate requires w == 1",
            "gate 1: table length 2 != 2^2",
        ]),
        (Circuit(3, 1, 1, (
            JuntaGate((0, 0), (0, 1, 1, 1)),
            WordDecisionTree(Node(4, (Leaf(1), Leaf(2)))),
            OR01,
            WordDecisionTree(Leaf(1)),
            JuntaGate((1,), (0, 1, 1)),
            WordDecisionTree(Node(0, (Leaf(1),))),
        )), [
            "gate 0: 2 inputs exceed fan-in bound 1",
            "gate 0: duplicate input index in (0, 0)",
            "gate 1: query index 4 out of range [0, 3)",
            "gate 1: leaf value 2 not a sign",
            "gate 2: 2 inputs exceed fan-in bound 1",
            "gate 4: table length 3 != 2^1",
            "gate 5: node has 1 children, expected 2",
        ]),
    ])
    def test_junta_messages_are_pinned(self, c, messages):
        """Every violation of a circuit, as a whole list in gate order, each
        gate's in the order of its checks; tree gates keep theirs."""
        assert c.violations() == messages
        with pytest.raises(ValidationError) as err:
            c.ensure_valid()
        assert err.value.violations == messages


    @pytest.mark.parametrize("c, messages", [
        (Circuit(2, 1, 1, (WordDecisionTree(Node(0, (Node(1, (Leaf(1), Leaf(1))), Leaf(-1)))),)),
         ["gate 0: query depth exceeds 1"]),
        (Circuit(3, 2, 1, (WordDecisionTree(Node(7, (Leaf(1), Leaf(0), Leaf(1)))),)), [
            "gate 0: query index 7 out of range [0, 3)",
            "gate 0: node has 3 children, expected 4",
            "gate 0: leaf value 0 not a sign",
        ]),
        (Circuit(2, 1, 1, (WordDecisionTree(Node(2 ** 70, (Leaf(1), Leaf(-1)))),)),
         ["gate 0: query index 1180591620717411303424 out of range [0, 2)"]),
        (Circuit(2, 1, 2, (WordDecisionTree(Node(True, (Leaf(1.0), Leaf(True)))),)), []),
        (Circuit(2, 1, 0, (WordDecisionTree(Leaf(3)), WordDecisionTree(Node(0, ())))), [
            "gate 0: leaf value 3 not a sign",
            "gate 1: query depth exceeds 0",
        ]),
        (Circuit(3, 1, 2, (
            OR01,
            WordDecisionTree(Node(-1, (
                Node(3, (Leaf(2), Node(0, (Leaf(1), Leaf(1))))),
                Leaf(5),
            ))),
            JuntaGate((0, 0), (0, 1, 1, 1)),
            WordDecisionTree(Leaf(-1)),
            WordDecisionTree(Node(1, (Leaf(1),))),
            WordDecisionTree(Node(0, (Node(1, (Leaf(0), Leaf(1), Leaf(1))), Node(4, (Leaf(1), Leaf(1)))))),
        )), [
            "gate 1: query index -1 out of range [0, 3)",
            "gate 1: query index 3 out of range [0, 3)",
            "gate 1: leaf value 2 not a sign",
            "gate 1: query depth exceeds 2",
            "gate 1: leaf value 5 not a sign",
            "gate 2: duplicate input index in (0, 0)",
            "gate 4: node has 1 children, expected 2",
            "gate 5: node has 3 children, expected 2",
            "gate 5: leaf value 0 not a sign",
            "gate 5: query index 4 out of range [0, 3)",
        ]),
        # a query that is not an integer is named, the way junta inputs are
        (Circuit(2, 1, 1, (WordDecisionTree(Node(0.5, (Leaf(1), Leaf(-1)))),)),
         ["gate 0: non-integer query index 0.5"]),
        # 2^w in decimal while it fits an int64, as a power past that
        (Circuit(1, 61, 1, (WordDecisionTree(Node(0, (Leaf(1),))),)),
         ["gate 0: node has 1 children, expected 2305843009213693952"]),
        (Circuit(1, 62, 1, (WordDecisionTree(Node(0, (Leaf(1),))),)),
         ["gate 0: node has 1 children, expected 2^62"]),
        (Circuit(2, 1, 2, (OR01, WordDecisionTree(Node(0, (Node(0.5, (Leaf(1),)), Leaf(1)))))), [
            "gate 1: non-integer query index 0.5",
            "gate 1: node has 1 children, expected 2",
        ]),
    ])
    def test_tree_messages_are_pinned(self, c, messages):
        """Every violation of tree gates, among junta gates too, as a whole
        list in gate order, each tree's in the order of a depth-first walk
        and each node's in the order of its checks."""
        assert c.violations() == messages
        if messages:
            with pytest.raises(ValidationError) as err:
                c.ensure_valid()
            assert err.value.violations == messages


def _junta_gates(draw, n: int) -> list:
    """Junta gates of fan-in 0 to 4, valid or not, with a tree gate now and
    then: inputs repeated, out of range, past int64 or not integers, tables
    of the wrong length or with entries that are not bits."""
    out = []
    for _ in range(draw(st.integers(0, 8), label="m")):
        if draw(st.integers(0, 9), label="tree") == 0:
            out.append(WordDecisionTree(Leaf(draw(st.sampled_from([1, -1, 2])))))
            continue
        fan_in = draw(st.integers(0, 4), label="fan-in")
        inputs = draw(st.one_of(
            st.permutations(range(max(n, fan_in))).map(lambda p: tuple(p[:fan_in])),
            st.lists(st.one_of(st.integers(-1, n + 1), st.sampled_from([0.5, True, 2 ** 70])),
                     min_size=fan_in, max_size=fan_in).map(tuple),
        ), label="inputs")
        size = draw(st.one_of(st.just(1 << fan_in), st.integers(0, 17)), label="size")
        table = draw(st.lists(st.one_of(
            st.integers(0, 1), st.sampled_from([2, -1, 300, 1.0, 0.5, True])
        ), min_size=size, max_size=size).map(tuple), label="table")
        out.append(JuntaGate(inputs, table))
    return out


class TestJuntaTable:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_checks_and_packing_match_the_gates(self, data):
        """``Circuit.violations`` on the packed table against one walk per
        gate, and the packed arrays against the gates' tuples."""
        n = data.draw(st.integers(1, 6), label="n")
        t = data.draw(st.integers(0, 4), label="t")
        gates = _junta_gates(data.draw, n)
        c = Circuit(n, 1, t, tuple(gates))
        expected = []
        for i, g in enumerate(gates):
            found = (
                reference_junta_violations(g, n, t) if isinstance(g, JuntaGate)
                else reference_tree_violations(g, n, 1, t)
            )
            expected += [f"gate {i}: {v}" for v in found]
        assert c.violations() == expected
        table = c.junta_table
        junta = [i for i, g in enumerate(gates) if isinstance(g, JuntaGate)]
        assert table.m == len(gates)
        assert table.positions.tolist() == junta
        for g, pos in enumerate(junta):
            gate = gates[pos]
            f, size = len(gate.inputs), len(gate.table)
            assert (table.fan_ins[g], table.sizes[g]) == (f, size)
            at, inputs = table.inputs_at[g], table.inputs[table.inputs_at[g]:][:f].tolist()
            typed = all(isinstance(v, int) and v < 1 << 63 for v in gate.inputs)
            ints = all(type(v) is int and -1 << 63 <= v < 1 << 63 for v in gate.inputs)
            assert table.unpacked.get(g) == (None if ints else gate.inputs)
            assert inputs == (list(gate.inputs) if typed else [0] * f)
            bits = table.bits[table.table_at[g]:][:size].tolist()
            assert table.bit_tables[g] == all(v in (0, 1) for v in gate.table)
            if all(isinstance(v, int) for v in gate.table):
                assert bits == [v & 1 for v in gate.table]
            assert table.bits.dtype == np.uint8
            assert at == sum(len(gates[p].inputs) for p in junta[:g])
            assert table.table_at[g] == sum(len(gates[p].table) for p in junta[:g])

    def test_a_loaded_circuit_shares_its_tables(self):
        c = random_junta_circuit(random.Random(5), 4, 1, 40)
        loaded = circuit_from_json(circuit_to_json(c))
        assert loaded == c
        assert len({id(g.table) for g in loaded.gates}) == len({g.table for g in c.gates})
        assert JuntaTable.of(loaded.gates).bits.tolist() == loaded.junta_table.bits.tolist()


def _any_tree(draw, n: int, w: int, t: int, depth: int = 0):
    """A tree node, valid or not, down to depth t + 1: queries out of range,
    past int64 or not integers, the wrong number of children, and leaf
    values that are not signs (1.0 and True are)."""
    if depth > t or draw(st.integers(0, 2), label="leaf") == 0:
        return Leaf(draw(st.sampled_from([1, -1, 1, -1, 0, 2, 1.0, True, 0.5]), label="value"))
    query = draw(st.one_of(
        st.integers(0, n - 1), st.integers(-1, n + 1), st.sampled_from([0.5, True, 2 ** 70, "a"])
    ), label="query")
    fan_out = draw(st.one_of(st.just(1 << w), st.integers(0, (1 << w) + 1)), label="fan-out")
    return Node(query, tuple(_any_tree(draw, n, w, t, depth + 1) for _ in range(fan_out)))


def _tree_leaves(node, groups=(), symbols=()):
    """(depth, groups, symbols, value) of each leaf, depth first."""
    if isinstance(node, Leaf):
        yield len(groups), groups, symbols, node.value
        return
    for s, child in enumerate(node.children):
        yield from _tree_leaves(child, groups + (node.query,), symbols + (s,))


class TestTreeTable:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_checks_match_the_walk(self, data):
        """``Circuit.violations`` on the level-by-level walk against one
        recursive walk per tree, junta gates among the trees when w = 1."""
        n = data.draw(st.integers(1, 4), label="n")
        w = data.draw(st.sampled_from((1, 2)), label="w")
        t = data.draw(st.integers(0, 3), label="t")
        gates = _junta_gates(data.draw, n) if w == 1 else []
        for _ in range(data.draw(st.integers(0, 4), label="trees")):
            at = data.draw(st.integers(0, len(gates)), label="at")
            gates.insert(at, WordDecisionTree(_any_tree(data.draw, n, w, t)))
        expected = []
        for i, g in enumerate(gates):
            found = (
                reference_junta_violations(g, n, t) if isinstance(g, JuntaGate)
                else reference_tree_violations(g, n, w, t)
            )
            expected += [f"gate {i}: {v}" for v in found]
        assert Circuit(n, w, t, tuple(gates)).violations() == expected

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_leaves_are_the_trees_in_walk_order(self, data):
        """Each leaf of each valid tree is a row, in gate order and depth
        first, with its depth, groups, symbols and value, padded with zeros
        to the deepest leaf; junta gates have no rows."""
        n = data.draw(st.integers(1, 4), label="n")
        w = data.draw(st.sampled_from((1, 2)), label="w")
        t = data.draw(st.integers(0, 3), label="t")
        gates = [
            WordDecisionTree(draw_tree(data.draw, n, w, t))
            if w == 2 or data.draw(st.booleans(), label="tree") else JuntaGate((), (1,))
            for _ in range(data.draw(st.integers(0, 5), label="m"))
        ]
        table = Circuit(n, w, t, tuple(gates)).tree_table
        rows = [
            (i, *leaf) for i, g in enumerate(gates) if isinstance(g, WordDecisionTree)
            for leaf in _tree_leaves(g.root)
        ]
        width = max((depth for _, depth, *_ in rows), default=0)
        assert table.groups.shape == table.symbols.shape == (len(rows), width)
        assert table.outputs.tolist() == [i for i, *_ in rows]
        assert table.depths.tolist() == [depth for _, depth, *_ in rows]
        pad = [0] * width
        assert table.groups.tolist() == [list(g) + pad[len(g):] for _, _, g, _, _ in rows]
        assert table.symbols.tolist() == [list(s) + pad[len(s):] for _, _, _, s, _ in rows]
        assert table.values.tolist() == [v for *_, v in rows]
        assert table.violations == ()


class TestLayered:
    def test_identity_single_bit(self):
        tree = WordDecisionTree(Node(0, (Leaf(1), Leaf(-1))))
        lc = to_layered(Circuit(1, 1, 1, (tree,)))
        assert lc.n_bits == 1
        assert lc.eval_bits((0,)) == (1,)
        assert lc.eval_bits((1,)) == (-1,)

    def test_duplicate_layers_reproduce_circuit(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 4)
            w = rng.randint(1, 2)
            t = rng.randint(1, 2)
            c = random_tree_circuit(rng, n, w, t, rng.randint(1, 4))
            lc = to_layered(c)
            for x in all_inputs(n, w):
                assert eval_circuit(c, x) == lc.eval_bits(lc.duplicate(x))

    def test_range_containment_exhaustive(self):
        rng = random.Random(17)
        for _ in range(10):
            c = random_tree_circuit(rng, 2, 1, 2, 3)
            lc = to_layered(c)
            circuit_range = {eval_circuit(c, x) for x in all_inputs(2, 1)}
            layered_range = set()
            for code in range(1 << lc.n_bits):
                bits = tuple((code >> i) & 1 for i in range(lc.n_bits))
                layered_range.add(lc.eval_bits(bits))
            assert circuit_range <= layered_range

    def test_rejects_junta_gates(self):
        c = Circuit(2, 1, 1, (JuntaGate((0,), (0, 1)),))
        with pytest.raises(ValidationError):
            to_layered(c)

    def test_layered_character_structure(self):
        """Characters touch at most one group per layer; degree and mass bounds."""
        rng = random.Random(23)
        one = Dyadic(1)
        for _ in range(40):
            n = rng.randint(1, 3)
            w = rng.randint(1, 2)
            t = rng.randint(1, 2)
            c = random_tree_circuit(rng, n, w, t, 2)
            lc = to_layered(c)
            group_width = n * w
            for i in range(c.m):
                exp = expand_layered_output(lc, i)
                assert exp.degree() <= t * w
                assert len(exp.coeffs) <= 4 ** (t * w)
                mass = l1_mass(exp)
                assert mass <= Dyadic(1 << (t * w))
                for alpha in exp.coeffs:
                    for layer in range(t):
                        touched = {
                            (bit - layer * group_width) // w
                            for bit in alpha
                            if layer * group_width <= bit < (layer + 1) * group_width
                        }
                        assert len(touched) <= 1
                assert exp.parseval_sum() == one


class TestGenerators:
    def test_seeded_reproducibility(self):
        a = random_junta_circuit(random.Random(7), 5, 2, 6)
        b = random_junta_circuit(random.Random(7), 5, 2, 6)
        assert a == b

    def test_parity_circuit_gates_are_parities(self):
        from xorcert.fourier import ParityClass, classify_parity, expand_junta

        c = random_parity_circuit(random.Random(5), 6, 3, 10)
        for g in c.gates:
            assert classify_parity(expand_junta(g, 6)) in (
                ParityClass.XOR,
                ParityClass.NXOR,
            )

    def test_tree_paths_have_distinct_queries(self):
        c = random_tree_circuit(random.Random(9), 6, 1, 4, 5, leaf_prob=0.1)

        def walk(node, seen):
            if isinstance(node, Leaf):
                return
            assert node.query not in seen
            for child in node.children:
                walk(child, seen | {node.query})

        for g in c.gates:
            walk(g.root, set())


class TestJson:
    def test_roundtrip_junta(self):
        c = random_junta_circuit(random.Random(1), 4, 2, 3)
        assert circuit_from_json(circuit_to_json(c)) == c

    def test_roundtrip_tree(self):
        c = random_tree_circuit(random.Random(2), 3, 2, 2, 4)
        assert circuit_from_json(circuit_to_json(c)) == c

    def test_bad_m_rejected(self):
        c = random_junta_circuit(random.Random(1), 4, 2, 3)
        text = circuit_to_json(c).replace('"m": 3', '"m": 5')
        with pytest.raises(ValidationError):
            circuit_from_json(text)


L0, L1 = {"leaf": 0}, {"leaf": 1}
AND = {"kind": "junta", "inputs": [0, 1], "table": "0001"}


def _node(query, *children):
    return {"query": query, "children": list(children)}


def _tree(root):
    return {"kind": "tree", "root": root}


def _circuit(gates, n=3, w=1, t=2, m=None):
    return {"n": n, "w": w, "t": t, "m": len(gates) if m is None else m, "gates": gates}


_MALFORMED_GATE = "gate {} is neither a tree nor a junta with integer inputs and a 0/1 table"
_MALFORMED_NODE = "tree node is neither a 0/1 leaf nor a query with a list of children"


def _fields(table) -> dict:
    """A table's fields, each array as its entries and its dtype."""
    return {
        f.name: (v.tolist(), v.dtype) if isinstance(v, np.ndarray) else v
        for f in dataclasses.fields(table)
        for v in [getattr(table, f.name)]
    }


def _json_tree(draw, n: int, w: int, t: int, depth: int = 0):
    """A tree that circuit JSON can hold, valid or not: queries out of
    range or past int64, the wrong number of children, nodes past depth t."""
    if depth > t or draw(st.integers(0, 2), label="leaf") == 0:
        return Leaf(draw(st.sampled_from((1, -1)), label="value"))
    query = draw(st.one_of(st.integers(0, n - 1), st.integers(-1, n + 1), st.just(2 ** 70)), label="query")
    fan_out = draw(st.one_of(st.just(1 << w), st.integers(0, (1 << w) + 1)), label="fan-out")
    return Node(query, tuple(_json_tree(draw, n, w, t, depth + 1) for _ in range(fan_out)))


def _json_junta(draw, n: int, t: int, valid: bool) -> JuntaGate:
    """A junta gate that circuit JSON can hold; unless valid, its inputs
    may repeat, fall out of range or pass int64, and its table may have
    the wrong length."""
    if valid:
        fan_in = draw(st.integers(0, min(n, t)), label="fan-in")
        inputs = draw(st.permutations(range(n)), label="inputs")[:fan_in]
        size = 1 << fan_in
    else:
        fan_in = draw(st.integers(0, 3), label="fan-in")
        inputs = draw(st.lists(
            st.one_of(st.integers(-1, n + 1), st.just(2 ** 70)), min_size=fan_in, max_size=fan_in
        ), label="inputs")
        size = draw(st.one_of(st.just(1 << fan_in), st.integers(0, 9)), label="size")
    table = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size), label="table")
    return JuntaGate(tuple(inputs), tuple(table))


class TestLoader:
    @pytest.mark.parametrize("obj, messages", [
        (_circuit([AND, {"kind": "junta", "inputs": [True, 1], "table": "0111"}]),
         [_MALFORMED_GATE.format(1)]),
        (_circuit([{"kind": "junta", "inputs": [0.0, 1], "table": "0111"}]), [_MALFORMED_GATE.format(0)]),
        (_circuit([{"kind": "junta", "inputs": "01", "table": "0111"}]), [_MALFORMED_GATE.format(0)]),
        (_circuit([{"kind": "junta", "inputs": [0, 1], "table": "0121"}]), [_MALFORMED_GATE.format(0)]),
        (_circuit([{"kind": "junta", "inputs": [0], "table": [0, 1]}]), [_MALFORMED_GATE.format(0)]),
        (_circuit([AND, {"kind": "junta", "inputs": [0], "table": "0\u00e9"}]), [_MALFORMED_GATE.format(1)]),
        (_circuit([AND, {"kind": "junta", "inputs": [0], "table": "\ud8001"}]), [_MALFORMED_GATE.format(1)]),
        (_circuit([_tree(_node(True, L0, L1))]), [_MALFORMED_NODE]),
        (_circuit([_tree(_node(0, {"leaf": True}, L1))]), [_MALFORMED_NODE]),
        (_circuit([_tree(_node(0, {"leaf": 2}, L1))]), [_MALFORMED_NODE]),
        (_circuit([_tree(_node(0, [L0], L1))]), [_MALFORMED_NODE]),
        (_circuit([AND, _tree(3)]), [_MALFORMED_NODE]),
        (_circuit([{"kind": "tree"}]), [_MALFORMED_NODE]),
        (_circuit([_tree({"query": 0})]), [_MALFORMED_NODE]),
        (_circuit([_tree(_node(0, _node(1, L0, L1), L1))], t=1), ["gate 0: query depth exceeds 1"]),
        # a node past depth t is still read for its structure
        (_circuit([_tree(_node(0, _node(1, L0, {"leaf": 5}), L1))], t=1), [_MALFORMED_NODE]),
        (_circuit([AND, {"inputs": [0], "table": "01"}]), [_MALFORMED_GATE.format(1)]),
        (_circuit([AND, [0, 1]]), [_MALFORMED_GATE.format(1)]),
        (_circuit([AND, AND], m=3), ["declared m = 3 but 2 gates"]),
        ({"n": 3, "w": 1, "t": 2, "m": 0, "gates": {}}, ["circuit: field 'gates' is missing or mistyped"]),
        ([1, 2], ["circuit is not a JSON object"]),
        # the first malformed gate in order is named, a tree's nodes all count as the tree's
        (_circuit([_tree(_node(0, L0, {"leaf": 7})), {"kind": "x"}]), [_MALFORMED_NODE]),
        (_circuit([AND, {"kind": "junta", "inputs": [0], "table": "2"}, _tree(_node(0, L0, {}))]),
         [_MALFORMED_GATE.format(1)]),
        (_circuit([{"kind": "junta"}], m=4), [_MALFORMED_GATE.format(0)]),
        (_circuit([{"kind": "x"}, {"kind": "junta", "inputs": [0], "table": "2"}]), [_MALFORMED_GATE.format(0)]),
        (_circuit([_tree({"leaf": None})], m=4), [_MALFORMED_NODE]),
        (_circuit([{"kind": "junta", "inputs": [0, 2 ** 70], "table": "0111"}]),
         ["gate 0: input index out of range in (0, 1180591620717411303424)"]),
        (_circuit([
            {"kind": "junta", "inputs": [0, 0], "table": "011"},
            _tree(_node(5, L0, L1, L1)),
            {"kind": "junta", "inputs": [0, 1, 2], "table": "01110111"},
        ]), [
            "gate 0: duplicate input index in (0, 0)",
            "gate 0: table length 3 != 2^2",
            "gate 1: query index 5 out of range [0, 3)",
            "gate 1: node has 3 children, expected 2",
            "gate 2: 3 inputs exceed fan-in bound 2",
        ]),
    ])
    def test_malformed_json_messages_are_pinned(self, obj, messages):
        """The whole list of messages of malformed circuit JSON, in order."""
        with pytest.raises(ValidationError) as err:
            circuit_from_json(json.dumps(obj))
        assert err.value.violations == messages

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_tables_and_gates_match_the_objects(self, data):
        """A loaded circuit's tables equal those packed from the gates it was
        written from, field by field, and so do its violations; a valid
        one's gates, built on demand, equal those gates."""
        n = data.draw(st.integers(1, 4), label="n")
        w = data.draw(st.sampled_from((1, 2)), label="w")
        t = data.draw(st.integers(0, 3), label="t")
        kind = data.draw(st.sampled_from(("junta", "tree", "mixed")), label="kind")
        valid = data.draw(st.booleans(), label="valid")
        gates = []
        for _ in range(data.draw(st.integers(0, 6), label="m")):
            if kind == "junta" or kind == "mixed" and data.draw(st.booleans(), label="junta"):
                gates.append(_json_junta(data.draw, n, t, valid))
            elif valid:
                gates.append(WordDecisionTree(draw_tree(data.draw, n, w, t)))
            else:
                gates.append(WordDecisionTree(_json_tree(data.draw, n, w, t)))
        c = Circuit(n, w, t, tuple(gates))
        text = circuit_to_json(c)
        loaded = _circuit_of(json.loads(text))
        assert _fields(loaded.junta_table) == _fields(JuntaTable.of(gates))
        assert _fields(loaded.tree_table) == _fields(TreeTable.of(gates, n, w, t))
        assert loaded.m == len(gates)
        assert loaded.violations() == c.violations()
        assert "gates" not in vars(loaded)
        if c.violations():
            with pytest.raises(ValidationError) as err:
                circuit_from_json(text)
            assert err.value.violations == c.violations()
        else:
            assert loaded.gates == tuple(gates)
            assert loaded == c and hash(loaded) == hash(c)

    def test_loaded_circuits_build_no_gates(self):
        """Validation, avoid, certification against a prepared ensemble and
        the grouping read the tables alone."""
        junta = circuit_from_json(circuit_to_json(random_pruned_circuit(random.Random(4), 8, 3, 24)))
        tree = circuit_from_json(circuit_to_json(random_tree_circuit(random.Random(4), 5, 2, 2, 12)))
        assert avoid(junta, parse_spec("biased:m=24,s=6")).seeds_tried >= 0
        certify_not_in_range(junta, [1] * 24)
        ens = group_characters(to_layered(tree))
        for b in ([1] * 12, [-1] * 12):
            certify_not_in_range(tree, b, CertifyParams(eps=Fraction(2, 5)), prepared=ens)
        for c in (junta, tree):
            assert c.violations() == []
            assert "gates" not in vars(c)
        assert tree.gates == random_tree_circuit(random.Random(4), 5, 2, 2, 12).gates
