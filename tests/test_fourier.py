import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcert import fourier
from xorcert.circuits import (
    Circuit,
    JuntaGate,
    JuntaTable,
    Leaf,
    Node,
    WordDecisionTree,
    junta_to_tree,
    random_tree_circuit,
    to_layered,
)
from xorcert.core import Dyadic, ValidationError
from xorcert.fourier import (
    ParityClass,
    classify_parity,
    expand_junta,
    expand_layered_output,
    junta_spectra,
    layered_characters,
)

from helpers import (
    draw_tree,
    evaluate,
    expand_decision_tree,
    level_weight,
    random_junta_gate,
    reference_expand_junta,
    reference_layered_characters,
)

XOR = JuntaGate((0, 1), (0, 1, 1, 0))
NXOR = JuntaGate((0, 1), (1, 0, 0, 1))
OR = JuntaGate((0, 1), (0, 1, 1, 1))


def all_tables(t):
    for code in range(1 << (1 << t)):
        yield tuple((code >> i) & 1 for i in range(1 << t))


class TestExpandJunta:
    def test_xor_is_single_character(self):
        assert dict(expand_junta(XOR).coeffs) == {(0, 1): Dyadic(1)}

    def test_or_expansion(self):
        exp = expand_junta(OR)
        assert exp.coeffs[()] == Dyadic(-1, 1)
        assert exp.coeffs[(0,)] == Dyadic(1, 1)
        assert exp.coeffs[(1,)] == Dyadic(1, 1)
        assert exp.coeffs[(0, 1)] == Dyadic(1, 1)

    def test_constant_true(self):
        assert dict(expand_junta(JuntaGate((), (1,))).coeffs) == {(): Dyadic(-1)}

    def test_inverse_transform_reproduces_table(self):
        rng = random.Random(5)
        for _ in range(50):
            t = rng.randint(0, 4)
            inputs = tuple(range(t))
            table = tuple(rng.randrange(2) for _ in range(1 << t))
            gate = JuntaGate(inputs, table)
            exp = expand_junta(gate)
            for idx in range(1 << t):
                x = [1 - 2 * ((idx >> j) & 1) for j in range(max(t, 1))]
                assert evaluate(exp, x) == Dyadic(1 - 2 * table[idx])

    def test_table_length_mismatch(self):
        with pytest.raises(ValidationError):
            expand_junta(JuntaGate((0, 1), (0, 1)))

    def test_unsorted_inputs_respected(self):
        """Table indexing follows input positions, not sorted variable order."""
        rng = random.Random(31)
        for _ in range(20):
            inputs = tuple(rng.sample(range(6), 3))  # arbitrary order
            table = tuple(rng.randrange(2) for _ in range(8))
            gate = JuntaGate(inputs, table)
            exp = expand_junta(gate, 6)
            for code in range(64):
                bits = [(code >> j) & 1 for j in range(6)]
                x = [1 - 2 * b for b in bits]
                assert evaluate(exp, x) == Dyadic(gate.eval(bits))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_parseval_exhaustive(self, t):
        for table in all_tables(t):
            exp = expand_junta(JuntaGate(tuple(range(t)), table))
            assert exp.parseval_sum() == Dyadic(1)
            assert len(exp.coeffs) <= 1 << t
            assert all(c.log_den <= t for c in exp.coeffs.values())

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=300)
    def test_parseval_t4(self, code):
        table = tuple((code >> i) & 1 for i in range(16))
        exp = expand_junta(JuntaGate((0, 1, 2, 3), table))
        assert exp.parseval_sum() == Dyadic(1)


def parity_of_table(table) -> int:
    """+1 if the table is a parity of some of its inputs, -1 if a negated
    one, else 0: the definition, checked against every parity table."""
    size = len(table)
    for used in range(size):
        par = [(a & used).bit_count() & 1 for a in range(size)]
        if list(table) == par:
            return 1
        if [1 - v for v in table] == par:
            return -1
    return 0


def support_of_table(table) -> int:
    """Bitmask of the input positions whose flip changes some output."""
    size = len(table)
    t = size.bit_length() - 1
    return sum(
        1 << j for j in range(t) if any(table[a] != table[a ^ (1 << j)] for a in range(size))
    )


class TestJuntaSpectra:
    """The batched transform and classification against exact references."""

    @staticmethod
    def _by_position(gates):
        rows = {}
        for g in junta_spectra(JuntaTable.of(gates)):
            for pos, row, parity, support in zip(
                g.positions.tolist(), g.spectra.tolist(), g.parity.tolist(), g.support.tolist()
            ):
                rows[pos] = (g.fan_in, row, parity, support)
        assert sorted(rows) == list(range(len(gates)))
        return [rows[i] for i in range(len(gates))]

    @pytest.mark.parametrize("t", [3, 4])
    def test_every_table(self, t):
        """All 256 three-input and all 65,536 four-input tables: spectra
        against a dense +-1 Hadamard matrix product, supports and classes
        against their definitions."""
        size = 1 << t
        tables = np.array(list(product((0, 1), repeat=size)), dtype=np.int64)
        (g,) = junta_spectra(JuntaTable.of([JuntaGate(tuple(range(t)), tuple(row)) for row in tables.tolist()]))
        hadamard = np.array(
            [[1 - 2 * ((a & s).bit_count() & 1) for s in range(size)] for a in range(size)]
        )
        assert (g.spectra == (1 - 2 * tables) @ hadamard).all()
        flips = [np.arange(size) ^ (1 << j) for j in range(t)]
        support = sum((tables != tables[:, flip]).any(axis=1) << j for j, flip in enumerate(flips))
        assert (g.support == support).all()
        parity = np.zeros(len(tables), dtype=np.int64)
        for used in range(size):
            par = np.array([(a & used).bit_count() & 1 for a in range(size)])
            parity[(tables == par).all(axis=1)] = 1
            parity[(tables != par).all(axis=1)] = -1
        assert (g.parity == parity).all()
        assert (g.positions == np.arange(len(tables))).all()
        if t == 3:
            for row, table in zip(g.spectra.tolist(), tables.tolist()):
                coeffs = reference_expand_junta(JuntaGate((0, 1, 2), tuple(table))).coeffs
                chars = [tuple(j for j in range(3) if s >> j & 1) for s in range(8)]
                assert row == [coeffs.get(char, Dyadic(0)).scaled(3) for char in chars]

    def test_random_tables_fan_in_0_to_6(self):
        """One call over mixed fan-ins, constants, parities and gates whose
        true support is smaller than their fan-in, against the direct
        summation and the definitions."""
        rng = random.Random(41)
        gates = [random_junta_gate(rng, 9, rng.randint(0, 6)) for _ in range(200)]
        smaller = 0
        classes = Counter()
        for gate, (t, row, parity, support) in zip(gates, self._by_position(gates)):
            exp = reference_expand_junta(gate, 9)
            assert t == len(gate.inputs)
            assert expand_junta(gate, 9) == exp
            assert {
                tuple(sorted(gate.inputs[j] for j in range(t) if s >> j & 1)): Dyadic(num, t)
                for s, num in enumerate(row) if num
            } == exp.coeffs
            assert support == support_of_table(gate.table)
            assert tuple(sorted(gate.inputs[j] for j in range(t) if support >> j & 1)) == exp.support()
            assert parity == parity_of_table(gate.table)
            assert _CLASS[parity] is classify_parity(exp)
            smaller += support.bit_count() < t
            classes[parity, t == 0] += 1
        assert smaller > 20
        assert set(classes) == {(1, True), (-1, True), (1, False), (-1, False), (0, False)}

    def test_fan_in_twelve(self):
        """A random 12-input table against the decision-tree recursion, and
        the 12-input AND against its closed form."""
        rng = random.Random(43)
        inputs = tuple(rng.sample(range(14), 12))
        gate = JuntaGate(inputs, tuple(rng.randrange(2) for _ in range(1 << 12)))
        assert expand_junta(gate, 14) == expand_decision_tree(junta_to_tree(gate), 14, 12)
        assert classify_parity(expand_junta(gate, 14)) is ParityClass.OTHER
        # AND: -1 only on all ones, so 1 - 2 * prod (1 - x_i) / 2
        conj = JuntaGate(inputs, (0,) * ((1 << 12) - 1) + (1,))
        (g,) = junta_spectra(JuntaTable.of([conj]))
        expected = [-2 * (-1) ** s.bit_count() for s in range(1 << 12)]
        expected[0] += 1 << 12
        assert g.spectra[0].tolist() == expected
        assert (g.parity.tolist(), g.support.tolist()) == ([0], [(1 << 12) - 1])

    def test_fan_in_cap(self):
        gate = JuntaGate(tuple(range(17)), (0,) * (1 << 17))
        with pytest.raises(ValidationError, match="junta fan-in 17 exceeds the transform cap 16"):
            junta_spectra(JuntaTable.of([gate]))

    @pytest.mark.parametrize("bad, message", [
        (WordDecisionTree(Leaf(1)), "gate 2 is not a junta gate"),
        (JuntaGate(tuple(range(17)), (0,) * (1 << 17)), "junta fan-in 17 exceeds the transform cap 16"),
        (JuntaGate((0, 1, 2), (0, 1, 1, 0)), "table length 4 != 2^3"),
        (JuntaGate((0, 1), (0, 1) * 4), "table length 8 != 2^2"),
        (JuntaGate((), ()), "table length 0 != 2^0"),
    ])
    def test_rejections_among_valid_gates(self, bad, message):
        """The first bad gate is named with its message, wherever it sits
        among valid gates, and a later bad gate does not mask it."""
        good = [JuntaGate((0,), (0, 1)), OR]
        with pytest.raises(ValidationError) as err:
            junta_spectra(JuntaTable.of(good + [bad] + good))
        assert err.value.violations == [message]
        later = [JuntaGate((0, 1), (0,)), WordDecisionTree(Leaf(1))]
        with pytest.raises(ValidationError) as err:
            junta_spectra(JuntaTable.of(good + [bad] + later))
        assert err.value.violations == [message]

    def test_table_entries_past_a_byte(self):
        """Entries are read by their low bit, also past 255, as the circuit
        never checks them here."""
        plain = junta_spectra(JuntaTable.of([OR, JuntaGate((1, 300), (1, 0, 0, 0))]))
        wide = junta_spectra(JuntaTable.of([JuntaGate((0, 1), (0, 257, 3, 1)), JuntaGate((1, 300), (1, 0, 0, 256))]))
        for g, h in zip(plain, wide):
            assert g.spectra.tolist() == h.spectra.tolist()
            assert g.inputs.tolist() == h.inputs.tolist() == [[0, 1], [1, 300]]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_fan_ins_match_the_reference(self, data):
        """One call over gates of fan-in 0 to 4 in any order: every gate's
        spectrum, inputs and parity class as the direct summation gives."""
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        gates = [
            random_junta_gate(rng, 6, data.draw(st.integers(0, 4), label="fan-in"))
            for _ in range(data.draw(st.integers(0, 30), label="m"))
        ]
        rows = self._by_position(gates)
        for gate, (t, row, parity, _) in zip(gates, rows):
            exp = reference_expand_junta(gate, 6)
            assert t == len(gate.inputs)
            assert {
                tuple(sorted(gate.inputs[j] for j in range(t) if s >> j & 1)): Dyadic(num, t)
                for s, num in enumerate(row) if num
            } == exp.coeffs
            assert _CLASS[parity] is classify_parity(exp)
        for g in junta_spectra(JuntaTable.of(gates)):
            assert g.inputs.tolist() == [list(gates[i].inputs) for i in g.positions.tolist()]


_CLASS = {1: ParityClass.XOR, -1: ParityClass.NXOR, 0: ParityClass.OTHER}


class TestDecisionTree:
    def test_single_query(self):
        tree = WordDecisionTree(Node(4, (Leaf(1), Leaf(-1))))
        assert dict(expand_decision_tree(tree, 6, 1).coeffs) == {(4,): Dyadic(1)}

    def test_index_function(self):
        tree = WordDecisionTree(
            Node(0, (Node(2, (Leaf(1), Leaf(-1))), Node(1, (Leaf(1), Leaf(-1)))))
        )
        exp = expand_decision_tree(tree, 3, 2)
        assert set(exp.coeffs) == {(1,), (2,), (0, 1), (0, 2)}
        assert all(abs(c) == Dyadic(1, 1) for c in exp.coeffs.values())
        assert abs(exp.coeffs[(0, 1)]) + abs(exp.coeffs[(0, 2)]) == Dyadic(1)
        assert level_weight(exp, 2) == Dyadic(1)

    def test_matches_junta_expansion(self):
        rng = random.Random(9)
        for _ in range(30):
            t = rng.randint(1, 3)
            inputs = tuple(sorted(rng.sample(range(6), t)))
            table = tuple(rng.randrange(2) for _ in range(1 << t))
            gate = JuntaGate(inputs, table)
            tree = junta_to_tree(gate)
            assert dict(expand_decision_tree(tree, 6, t).coeffs) == dict(
                expand_junta(gate, 6).coeffs
            )

    def test_depth_violation(self):
        tree = WordDecisionTree(Node(0, (Node(1, (Leaf(1), Leaf(1))), Leaf(-1))))
        with pytest.raises(ValidationError, match="depth"):
            expand_decision_tree(tree, 2, 1)

    def test_level_weight_bounded_random_trees(self):
        """Top-level absolute coefficient mass of a depth-t tree is at most 1."""
        rng = random.Random(13)
        one = Dyadic(1)
        for _ in range(200):
            t = rng.randint(1, 4)
            c = random_tree_circuit(rng, 12, 1, t, 1, leaf_prob=0.2)
            exp = expand_decision_tree(c.gates[0], 12, t)
            assert level_weight(exp, t) <= one
            assert exp.parseval_sum() == one


class TestLevelWeight:
    def test_or_level_2(self):
        assert level_weight(expand_junta(OR), 2) == Dyadic(1, 1)

    def test_parity_level_t(self):
        for t in (1, 2, 3, 4):
            table = tuple(bin(i).count("1") % 2 for i in range(1 << t))
            exp = expand_junta(JuntaGate(tuple(range(t)), table))
            assert level_weight(exp, t) == Dyadic(1)


class TestClassifyParity:
    def test_basic(self):
        assert classify_parity(expand_junta(XOR)) is ParityClass.XOR
        assert classify_parity(expand_junta(NXOR)) is ParityClass.NXOR
        assert classify_parity(expand_junta(OR)) is ParityClass.OTHER

    def test_constants_are_parities(self):
        assert classify_parity(expand_junta(JuntaGate((), (0,)))) is ParityClass.XOR
        assert classify_parity(expand_junta(JuntaGate((), (1,)))) is ParityClass.NXOR

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_other_leading_coefficient_ceiling(self, t):
        """Exhaustive: non-parity gates never reach the 1 - 2^(1-t) ceiling."""
        for table in all_tables(t):
            exp = expand_junta(JuntaGate(tuple(range(t)), table))
            cls = classify_parity(exp)  # raises internally if ceiling broken
            support = exp.support()
            if cls is ParityClass.OTHER:
                ts = len(support)
                lead = abs(exp.coeffs.get(support, Dyadic(0)))
                assert lead <= Dyadic((1 << (ts - 1)) - 1, ts - 1)

    def test_rejects_non_boolean(self):
        from xorcert.fourier import FourierExpansion

        bad = FourierExpansion(2, {(0,): Dyadic(1, 1)})
        with pytest.raises(ValidationError, match="Parseval"):
            classify_parity(bad)


class TestLayeredExpansion:
    def test_matches_layered_evaluation(self):
        rng = random.Random(21)
        for _ in range(20):
            n, w, t = rng.choice([(2, 1, 2), (2, 2, 2), (3, 2, 1)])
            c = random_tree_circuit(rng, n, w, t, 2)
            lc = to_layered(c)
            exps = [expand_layered_output(lc, i) for i in range(c.m)]
            for bits_code in range(1 << lc.n_bits):
                bits = [(bits_code >> i) & 1 for i in range(lc.n_bits)]
                x = [1 - 2 * b for b in bits]
                vals = lc.eval_bits(bits)
                for i, exp in enumerate(exps):
                    assert evaluate(exp, x) == Dyadic(vals[i])


def _characters(lc) -> dict:
    """``layered_characters`` as {(output, *codes): units}, after checking
    the arrays' types, shapes and order."""
    outputs, codes, units = layered_characters(lc)
    assert outputs.dtype == codes.dtype == units.dtype == np.int64
    assert codes.shape == (len(outputs), lc.circuit.t) and units.shape == outputs.shape
    found = {(i, *row): u for i, row, u in zip(outputs.tolist(), codes.tolist(), units.tolist())}
    assert list(found) == sorted(found) and len(found) == len(units)
    return found


def _reference_characters(lc) -> dict:
    return {
        (i, *codes): units
        for i in range(lc.circuit.m)
        for codes, units in reference_layered_characters(lc, i).items()
    }


def _one_path_tree(queries, w: int) -> WordDecisionTree:
    """A tree that queries ``queries`` down its first branch and stops at a
    leaf on every other branch: leaves at every depth, few rows."""
    node = Leaf(-1)
    for depth, q in reversed(list(enumerate(queries))):
        node = Node(q, (node,) + tuple(Leaf(1 - 2 * ((depth + s) % 2)) for s in range(1, 1 << w)))
    return WordDecisionTree(node)


class TestLayeredCharacters:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_table_expansion_is_the_recursion(self, data):
        """Every output's characters from the tree table at once equal the
        per-node recursion's, output by output."""
        w = data.draw(st.sampled_from((1, 2)), label="w")
        t = data.draw(st.integers(0, 3), label="t")
        n = data.draw(st.integers(1, 4), label="n")
        m = data.draw(st.one_of(st.just(0), st.just(1), st.integers(2, 6)), label="m")
        gates = tuple(WordDecisionTree(draw_tree(data.draw, n, w, t)) for _ in range(m))
        lc = to_layered(Circuit(n, w, t, gates))
        assert _characters(lc) == _reference_characters(lc)

    def test_chunks_give_the_unchunked_characters(self, monkeypatch):
        """Expanded in chunks of whole outputs, of one output each or of a
        few, the characters are those of one chunk for all outputs."""
        c = random_tree_circuit(random.Random(5), 4, 2, 3, 30, leaf_prob=0.2)
        lc = to_layered(c)
        rows = sum(1 << (c.w * d) for d in c.tree_table.depths.tolist())
        calls = []
        expand = fourier._expand_leaves
        monkeypatch.setattr(fourier, "_expand_leaves", lambda *a: calls.append(a) or expand(*a))
        monkeypatch.setattr(fourier, "EXPANSION_ROWS", rows)
        whole = layered_characters(lc)
        assert len(calls) == 1
        for size in (1, 500, rows // 3):
            monkeypatch.setattr(fourier, "EXPANSION_ROWS", size)
            calls.clear()
            chunked = layered_characters(lc)
            assert len(calls) > 1 if size > 1 else len(calls) == c.m
            for a, b in zip(chunked, whole):
                assert np.array_equal(a, b)
        assert _characters(lc) == _reference_characters(lc)

    @pytest.mark.parametrize("n, m", [(2 ** 18, 7), (2 ** 18, 8), (2 ** 19, 1), (2 ** 20 - 1, 5)])
    def test_wide_circuits_do_not_overflow_the_sort_key(self, n, m):
        """At t = 3 and w = 2 the codes of one output take radix n * 2^w per
        layer: 7 outputs of n = 2^18 pack into one int64 key (7 * 2^60), 8
        do not, nor does one output of n = 2^19 (2^63). Queries near 0 and
        near n - 1 give the largest and smallest codes."""
        rng = random.Random(n + m)
        gates = tuple(
            _one_path_tree([rng.choice((0, 1, n - 2, n - 1)) for _ in range(3)], 2)
            for _ in range(m)
        )
        lc = to_layered(Circuit(n, 2, 3, gates))
        assert _characters(lc) == _reference_characters(lc)
