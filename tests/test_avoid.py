import random
import sys
from fractions import Fraction

import pytest

from xorcert import fourier
from xorcert.avoid import (
    AvoidParams,
    CertifyParams,
    avoid,
    certify_not_in_range,
    find_parity_dependency,
)
from xorcert.circuits import (
    Circuit,
    JuntaGate,
    random_parity_circuit,
    random_tree_circuit,
)
from xorcert.core import ValidationError
from xorcert.oracle import brute_min_distance, brute_range_member
from xorcert.prg import GeneratorSpec, sample

from helpers import random_other_circuit, random_pruned_circuit, signs

X0 = JuntaGate((0,), (0, 1))
X1 = JuntaGate((1,), (0, 1))
NOT_X0 = JuntaGate((0,), (1, 0))
XOR01 = JuntaGate((0, 1), (0, 1, 1, 0))
OR01 = JuntaGate((0, 1), (0, 1, 1, 1))


@pytest.fixture()
def expand_calls(monkeypatch):
    """Counts calls of ``expand_junta`` through every xorcert module that
    binds it."""
    calls = []
    original = fourier.expand_junta

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "xorcert" and getattr(module, "expand_junta", None) is original:
            monkeypatch.setattr(module, "expand_junta", counted)
    return calls


class TestParityDependency:
    def test_three_parities(self):
        c = Circuit(2, 1, 2, (X0, X1, XOR01))
        assert find_parity_dependency(c) == ([0, 1, 2], 1)

    def test_negated_pair(self):
        c = Circuit(1, 1, 1, (X0, NOT_X0))
        assert find_parity_dependency(c) == ([0, 1], -1)

    def test_independent_parities(self):
        c = Circuit(2, 1, 1, (X0, X1))
        assert find_parity_dependency(c) is None

    def test_constant_is_immediate_dependency(self):
        c = Circuit(2, 1, 1, (JuntaGate((), (0,)), X0))
        assert find_parity_dependency(c) == ([0], 1)

    def test_guaranteed_beyond_n(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(2, 8)
            c = random_parity_circuit(rng, n, min(n, 3), n + 1)
            dep = find_parity_dependency(c)
            assert dep is not None
            outputs, forced = dep
            for code in range(1 << n):
                x = [(code >> j) & 1 for j in range(n)]
                prod = 1
                for i in outputs:
                    prod *= c.gates[i].eval(x)
                assert prod == forced


class TestCertify:
    def test_in_range_target_is_uncertain(self):
        rng = random.Random(2)
        for _ in range(10):
            c = random_other_circuit(rng, 4, 2, 6)
            x = [rng.randint(0, 1) for _ in range(4)]
            from xorcert.circuits import eval_circuit

            b = eval_circuit(c, x)
            rc = certify_not_in_range(c, b)
            assert not rc.certified

    def test_or_pair_certifies(self):
        c = Circuit(2, 1, 2, (OR01, OR01))
        rc = certify_not_in_range(c, (1, -1))
        assert rc.certified
        assert brute_min_distance(c, (1, -1)) >= rc.min_distance

    def test_certified_junta_targets_are_outside_range(self):
        rng = random.Random(3)
        hits = 0
        for _ in range(15):
            c = random_other_circuit(rng, 6, 3, 900)
            b = signs(rng, c.m)
            rc = certify_not_in_range(c, b)
            if rc.certified:
                hits += 1
                assert not brute_range_member(c, b)
                assert brute_min_distance(c, b) >= rc.min_distance
        assert hits > 0

    def test_tree_path_certifies_remoteness(self):
        rng = random.Random(4)
        hits = 0
        for _ in range(6):
            c = random_tree_circuit(rng, 6, 1, 2, 500, leaf_prob=0.15)
            b = signs(rng, c.m)
            eps = Fraction(1, 4)
            rc = certify_not_in_range(c, b, CertifyParams(eps=eps))
            if rc.certified:
                hits += 1
                assert rc.path == "tree"
                d = brute_min_distance(c, b)
                assert d >= rc.min_distance
                assert d >= Fraction(1, 2) - eps
        assert hits > 0

    def test_all_parity_circuit_is_uncertain(self):
        c = Circuit(2, 1, 1, (X0, X1))
        rc = certify_not_in_range(c, (1, 1))
        assert not rc.certified

    def test_target_length_checked(self):
        c = Circuit(2, 1, 2, (OR01,))
        with pytest.raises(ValidationError):
            certify_not_in_range(c, (1, 1))


class TestAvoid:
    def test_parity_path_duplicate_outputs(self):
        c = Circuit(2, 1, 1, (X0, X0, X0))
        res = avoid(c, GeneratorSpec.uniform(3))
        assert res.succeeded
        assert res.justification["kind"] == "parity_dependency"
        assert not brute_range_member(c, res.y)

    def test_budget_zero_without_dependency(self):
        c = random_other_circuit(random.Random(5), 6, 3, 20)
        res = avoid(c, GeneratorSpec.eps_biased(20, 6), AvoidParams(budget=0))
        assert not res.succeeded
        assert res.justification["kind"] == "failed"

    def test_refutation_path_verified_outside_range(self):
        rng = random.Random(6)
        c = random_other_circuit(rng, 8, 2, 300)
        res = avoid(c, GeneratorSpec.eps_biased(300, 10), AvoidParams(budget=16))
        assert res.succeeded
        assert res.justification["kind"] == "refutation"
        assert not brute_range_member(c, res.y)

    def test_pruning_consistency(self):
        """Parity outputs restored with +1 never land back inside the range."""
        rng = random.Random(7)
        found = 0
        for trial in range(30):
            base = random_other_circuit(rng, 6, 2, 150)
            # splice in a few parity gates without creating a dependency
            gates = list(base.gates)
            gates[0] = XOR01
            c = Circuit(6, 1, 2, tuple(gates))
            if find_parity_dependency(c) is not None:
                continue
            res = avoid(c, GeneratorSpec.eps_biased(c.m, 9), AvoidParams(budget=8))
            if res.succeeded:
                found += 1
                assert res.stats["parity_outputs"] >= 1
                assert not brute_range_member(c, res.y)
        assert found > 0

    def test_generator_length_mismatch(self):
        c = Circuit(2, 1, 1, (X0,))
        with pytest.raises(ValidationError):
            avoid(c, GeneratorSpec.uniform(5))

    def test_deterministic(self):
        rng = random.Random(8)
        c = random_other_circuit(rng, 6, 2, 200)
        gen = GeneratorSpec.eps_biased(200, 9)
        a = avoid(c, gen, AvoidParams(budget=8))
        b = avoid(c, gen, AvoidParams(budget=8))
        assert a == b

    def test_workers_match_sequential(self):
        rng = random.Random(9)
        c = random_other_circuit(rng, 6, 2, 200)
        gen = GeneratorSpec.eps_biased(200, 9)
        seq = avoid(c, gen, AvoidParams(budget=8))
        par = avoid(c, gen, AvoidParams(budget=8, workers=2))
        assert seq.y == par.y
        assert seq.justification == par.justification

    def test_workers_honour_wall_clock(self):
        c = random_other_circuit(random.Random(10), 6, 2, 200)
        gen = GeneratorSpec.eps_biased(200, 9)
        res = avoid(c, gen, AvoidParams(budget=8, workers=2, wall_clock_s=0.0))
        assert not res.succeeded
        assert res.justification["kind"] == "failed"
        assert res.stats["aborted"] == "wall clock"
        assert res.seeds_tried == 0


class TestOneAnalysis:
    def test_each_gate_expanded_once(self, expand_calls):
        c = random_pruned_circuit(random.Random(11), 8, 2, 120)
        res = avoid(c, GeneratorSpec.eps_biased(120, 10), AvoidParams(budget=16))
        assert res.stats["parity_outputs"] == 3
        assert sorted(map(id, expand_calls)) == sorted(map(id, c.gates))
        expand_calls.clear()
        certify_not_in_range(c, (1,) * c.m)
        assert sorted(map(id, expand_calls)) == sorted(map(id, c.gates))

    @pytest.mark.parametrize("kind", ["junta", "tree"])
    def test_certify_agrees_with_avoid(self, kind):
        rng = random.Random(12)
        if kind == "junta":
            c = random_pruned_circuit(rng, 8, 2, 120)
            params = AvoidParams(budget=16)
        else:
            c = random_tree_circuit(rng, 6, 1, 2, 300, leaf_prob=0.15)
            params = AvoidParams(budget=16, certify=CertifyParams(eps=Fraction(1, 4)))
        gen = GeneratorSpec.eps_biased(c.m, 10)
        res = avoid(c, gen, params)
        assert res.justification["kind"] == "refutation"
        assert res.justification["path"] == kind
        rc = certify_not_in_range(c, sample(gen, res.justification["seed"]), params.certify)
        assert rc.certified
        assert rc.path == kind
        assert (rc.certificate,) == res.certificates
        assert [rc.min_distance.numerator, rc.min_distance.denominator] == (
            res.justification["min_distance"]
        )
