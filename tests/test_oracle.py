import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcert.circuits import (
    Circuit,
    JuntaGate,
    WordDecisionTree,
    eval_circuit,
    random_junta_circuit,
    to_layered,
)
from xorcert.core import Dyadic, ValidationError, make_instance
from xorcert.oracle import (
    brute_bias,
    brute_independence,
    brute_min_distance,
    brute_outputs,
    brute_range_member,
    brute_val,
    check_decomposition,
)
from xorcert.prg import GeneratorSpec
from xorcert.reduction import group_characters

from helpers import draw_tree, random_instance, signs

IDENT = JuntaGate((0,), (0, 1))


class TestBruteVal:
    def test_examples(self):
        assert brute_val(make_instance(2, [(0, 1)], [1])) == 1
        assert brute_val(make_instance(2, [(0, 1), (0, 1)], [1, -1])) == 0
        triangle = make_instance(3, [(0, 1), (1, 2), (0, 2)], [1, 1, -1])
        assert brute_val(triangle) == 1

    def test_matches_naive_enumeration(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 6)
            k = rng.randint(1, n)
            inst = random_instance(rng, n, k, rng.randint(1, 8), weighted=True)
            naive = Fraction(0)
            for code in range(1 << n):
                x = [1 - 2 * ((code >> j) & 1) for j in range(n)]
                naive = max(naive, abs(inst.value(x)))
            assert brute_val(inst) == naive

    def test_weighted_scaling(self):
        inst = make_instance(2, [(0, 1)], [1], weights=[Dyadic(3, 2)])
        assert brute_val(inst) == Fraction(3, 4)

    def test_cap(self):
        inst = make_instance(30, [(0, 1)], [1])
        with pytest.raises(ValidationError):
            brute_val(inst, max_vars=24)


class TestRangeOracles:
    def test_identity_always_member(self):
        c = Circuit(2, 1, 1, (IDENT, JuntaGate((1,), (0, 1))))
        for y in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            assert brute_range_member(c, y)

    def test_duplicate_outputs(self):
        c = Circuit(1, 1, 1, (IDENT, IDENT))
        assert not brute_range_member(c, (1, -1))
        assert brute_min_distance(c, (1, -1)) == Fraction(1, 2)

    def test_distance_zero_iff_member(self):
        rng = random.Random(2)
        for _ in range(20):
            c = random_junta_circuit(rng, rng.randint(2, 5), 2, rng.randint(2, 6))
            b = signs(rng, c.m)
            member = brute_range_member(c, b)
            dist = brute_min_distance(c, b)
            assert member == (dist == 0)

    def test_constant_true_distance(self):
        c = Circuit(1, 1, 0, (JuntaGate((), (1,)),))
        assert brute_min_distance(c, (1,)) == 1
        assert brute_min_distance(c, (-1,)) == 0

    def test_outputs_match_eval(self):
        from xorcert.circuits import eval_circuit, random_tree_circuit

        rng = random.Random(3)
        c = random_tree_circuit(rng, 3, 2, 2, 4)
        outs = brute_outputs(c)
        for code in range(4**3):
            x = [(code >> (2 * j)) & 3 for j in range(3)]
            assert tuple(outs[code]) == eval_circuit(c, x)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_outputs_are_the_gates_on_every_input(self, data):
        """The outputs read from the gate tables, junta gates and trees
        mixed, against evaluating every gate on every input."""
        w = data.draw(st.sampled_from((1, 2)), label="w")
        n = data.draw(st.integers(1, 5 if w == 1 else 3), label="n")
        t = data.draw(st.integers(0, 3), label="t")
        m = data.draw(st.one_of(st.just(0), st.just(1), st.integers(2, 6)), label="m")
        gates = []
        for _ in range(m):
            if w == 1 and data.draw(st.booleans(), label="junta"):
                inputs = data.draw(st.lists(
                    st.integers(0, n - 1), unique=True, max_size=min(n, t)
                ), label="inputs")
                size = 1 << len(inputs)
                table = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
                gates.append(JuntaGate(tuple(inputs), tuple(table)))
            else:
                gates.append(WordDecisionTree(draw_tree(data.draw, n, w, t)))
        c = Circuit(n, w, t, tuple(gates))
        outs = brute_outputs(c)
        assert outs.shape == (1 << (w * n), m) and outs.dtype == np.int8
        for code in range(1 << (w * n)):
            x = [(code >> (w * j)) & ((1 << w) - 1) for j in range(n)]
            assert tuple(outs[code].tolist()) == eval_circuit(c, x)


class TestGeneratorAudits:
    def test_uniform_is_unbiased(self):
        assert brute_bias(GeneratorSpec.uniform(4)) == 0
        assert brute_independence(GeneratorSpec.uniform(4), 2) == 0

    def test_eps_biased_audit(self):
        spec = GeneratorSpec.eps_biased(4, 4)
        assert brute_bias(spec) <= Fraction(3, 16)

    def test_kwise_audit(self):
        spec = GeneratorSpec.kwise(2, 4, 2)
        assert brute_independence(spec, 2) == 0

    def test_biased_but_not_independent(self):
        # the eps-biased space is NOT exactly 2-wise independent
        spec = GeneratorSpec.eps_biased(4, 4)
        assert brute_independence(spec, 2) > 0


class TestDecomposition:
    def test_residual_zero(self):
        rng = random.Random(4)
        c = random_junta_circuit(rng, 3, 2, 4)
        for code in range(8):
            x = [(code >> j) & 1 for j in range(3)]
            b = signs(rng, 4)
            assert check_decomposition(c, x, b) == 0

    def test_negative_control(self):
        """Perturbing one scheme weight breaks the identity."""
        rng = random.Random(5)
        c = random_junta_circuit(rng, 2, 2, 3)
        ens = group_characters(to_layered(c.with_tree_gates()))
        key = next(
            k
            for k, s in sorted(ens.schemes.items())
            if any(not w.is_zero() for w in s.weights)
        )
        scheme = ens.schemes[key]
        pos = next(i for i, w in enumerate(scheme.weights) if not w.is_zero())
        tweaked_weights = list(scheme.weights)
        tweaked_weights[pos] = tweaked_weights[pos] + Dyadic(1, c.t)
        from xorcert.core import XorScheme
        from xorcert.reduction import SchemeEnsemble

        tweaked = dict(ens.schemes)
        tweaked[key] = XorScheme(scheme.hypergraph, tuple(tweaked_weights), scheme.arity)
        bad_ens = SchemeEnsemble(ens.n, ens.w, ens.t, ens.m, tweaked)
        nonzero = 0
        for code in range(4):
            x = [(code >> j) & 1 for j in range(2)]
            b = (1, 1, 1)
            if check_decomposition(c, x, b, bad_ens) != 0:
                nonzero += 1
        assert nonzero > 0

    def test_constant_circuit_all_mass_at_empty_key(self):
        from xorcert.circuits import Leaf, WordDecisionTree

        c = Circuit(2, 1, 1, (WordDecisionTree(Leaf(1)),))
        ens = group_characters(to_layered(c))
        assert check_decomposition(c, [0, 1], (1,), ens) == 0
        assert check_decomposition(c, [1, 0], (-1,), ens) == 0
