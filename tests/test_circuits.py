import random

import pytest

from xorcert.circuits import (
    Circuit,
    JuntaGate,
    Leaf,
    Node,
    WordDecisionTree,
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

from helpers import l1_mass


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
