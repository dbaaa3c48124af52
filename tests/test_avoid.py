import importlib
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from xorcert import core, fourier, reduction
from xorcert.avoid import (
    AvoidParams,
    CertifyParams,
    avoid,
    certify_not_in_range,
)
from xorcert.circuits import (
    Circuit,
    JuntaGate,
    JuntaTable,
    circuit_from_json,
    circuit_to_json,
    eval_circuit,
    random_parity_circuit,
    random_tree_circuit,
    to_layered,
)
from xorcert.core import ValidationError
from xorcert.oracle import brute_min_distance, brute_range_member
from xorcert.prg import GeneratorSpec, sample, seed_to_str
from xorcert.reduction import SchemeEnsemble, group_characters

from helpers import find_parity_dependency, random_other_circuit, random_pruned_circuit, signs

avoid_module = importlib.import_module("xorcert.avoid")
refuter = importlib.import_module("xorcert.refuter")

X0 = JuntaGate((0,), (0, 1))
X1 = JuntaGate((1,), (0, 1))
NOT_X0 = JuntaGate((0,), (1, 0))
XOR01 = JuntaGate((0, 1), (0, 1, 1, 0))
OR01 = JuntaGate((0, 1), (0, 1, 1, 1))


def record_calls(monkeypatch, original, note=lambda *args: args) -> list:
    """``note`` of the arguments of every call of ``original`` made through
    any xorcert module that binds it, taken before the call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(note(*args))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "xorcert":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture()
def transformed_rows(monkeypatch):
    """The tables of every array that enters ``walsh_hadamard``, one per
    column, copied before the transform overwrites them."""
    return record_calls(monkeypatch, fourier.walsh_hadamard, lambda tables: tables.T.tolist())


def sign_tables(c: Circuit) -> list[list[int]]:
    return sorted([1 - 2 * bit for bit in gate.table] for gate in c.gates)


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

    def test_depth_zero_tree_circuit_does_not_certify_its_output(self):
        # eps defaults to 2^-2t = 1 at t = 0: only the sum below 1 can refuse
        rng = random.Random(1)
        c = random_tree_circuit(rng, 4, 1, 0, 6)
        b = eval_circuit(c, [rng.randrange(2) for _ in range(c.n)])
        rc = certify_not_in_range(c, b)
        assert not rc.certified
        assert brute_min_distance(c, b) == 0

    def test_eps_one_certifies_no_in_range_target(self):
        rng = random.Random(1)
        c = random_tree_circuit(rng, 5, 1, 2, 60, leaf_prob=0.3)
        for _ in range(20):
            b = eval_circuit(c, [rng.randrange(2) for _ in range(c.n)])
            rc = certify_not_in_range(c, b, CertifyParams(eps=Fraction(1)))
            assert not rc.certified
            assert rc.min_distance == 0

    def test_all_parity_circuit_is_uncertain(self):
        c = Circuit(2, 1, 1, (X0, X1))
        rc = certify_not_in_range(c, (1, 1))
        assert not rc.certified

    def test_target_length_checked(self):
        c = Circuit(2, 1, 2, (OR01,))
        with pytest.raises(ValidationError):
            certify_not_in_range(c, (1, 1))

    @pytest.mark.parametrize("at", [0, 5])
    def test_target_signs_checked_at_their_own_positions(self, at):
        # output 0 is a parity, pruned before refutation: its sign is still
        # checked, and every sign is named by its index in b, not among the
        # kept outputs
        c = Circuit(2, 1, 2, (XOR01,) + (OR01,) * 59)
        b = [1] * c.m
        b[at] = 7
        with pytest.raises(ValidationError) as err:
            certify_not_in_range(c, b)
        assert err.value.violations == [f"edge {at}: rhs 7 not in {{+1, -1}}"]

    @pytest.mark.parametrize("eps", [Fraction(-1), Fraction(-1, 1 << 40)])
    def test_negative_eps_is_rejected(self, eps):
        # eps < 0 asks for a distance above 1/2: an impossible knob, not a
        # target that fails to certify
        with pytest.raises(ValidationError, match="eps must be at least 0"):
            CertifyParams(eps=eps)
        assert CertifyParams(eps=Fraction(0)).eps_for(2) == 0


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

    def test_serial_search_on_a_pruned_junta_circuit(self):
        c = random_pruned_circuit(random.Random(11), 8, 2, 120)
        res = avoid(c, GeneratorSpec.eps_biased(120, 10), AvoidParams(budget=16))
        assert res.justification["kind"] == "refutation"
        assert res.justification["path"] == "junta"
        assert res.stats["parity_outputs"] == 3

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_other_than_one_raise(self, workers):
        with pytest.raises(ValidationError, match=f"workers must be 1, got {workers}"):
            AvoidParams(workers=workers)

    def test_winning_seed_sampled_once(self, monkeypatch):
        sampled = record_calls(monkeypatch, avoid_module.sample_int, lambda gen, seed: seed)
        c = random_other_circuit(random.Random(0), 4, 2, 10)
        gen = GeneratorSpec.uniform(10)
        res = avoid(c, gen, AvoidParams(budget=8))
        assert res.justification["kind"] == "refutation"
        s = res.seeds_tried - 1
        assert s >= 1  # a seed before the winning one failed
        assert res.justification["seed"] == seed_to_str(gen, s)
        assert sampled == list(range(s + 1))


def plus_one_circuit(rng: random.Random, n: int, t: int, m: int) -> Circuit:
    """Non-parity junta circuit whose gates all give +1 on the input 0...0,
    so that the all-+1 string is in its range."""
    gates = []
    while len(gates) < m:
        inputs = tuple(sorted(rng.sample(range(n), t)))
        gate = JuntaGate(inputs, (0,) + tuple(rng.randrange(2) for _ in range((1 << t) - 1)))
        if fourier.junta_spectra(JuntaTable.of([gate]))[0].parity[0] == 0:
            gates.append(gate)
    return Circuit(n, 1, t, tuple(gates))


class TestSeedSearch:
    """One serial seed loop, degenerate seeds last, stopped by budget or
    wall clock."""

    @pytest.fixture(scope="class")
    def circuit(self):
        c = plus_one_circuit(random.Random(3), 12, 3, 600)
        assert brute_range_member(c, (1,) * c.m)
        return c

    @pytest.mark.parametrize("s", [9, 10])
    def test_all_plus_one_in_range_is_avoided(self, circuit, s):
        # ascending seeds start with 2^s all-+1 targets and fail at budget 256
        gen = GeneratorSpec.eps_biased(circuit.m, s)
        res = avoid(circuit, gen)
        assert res.justification["kind"] == "refutation"
        assert res.stats["parity_outputs"] == 0
        assert res.y == sample(gen, res.justification["seed"])
        assert not brute_range_member(circuit, res.y)

    def test_serial_honours_wall_clock(self):
        c = random_other_circuit(random.Random(10), 6, 2, 200)
        gen = GeneratorSpec.eps_biased(200, 9)
        res = avoid(c, gen, AvoidParams(budget=8, wall_clock_s=0.0))
        assert res.justification["kind"] == "failed"
        assert res.stats["aborted"] == "wall clock"
        assert res.seeds_tried == 0

    def test_deadline_passing_mid_search_starts_no_further_seed(self, monkeypatch):
        # each certification takes one second of a fake clock, so seeds start
        # at 0, 1 and 2 s; the one that would start at 3 s is past 2.5 s
        now = [0.0]
        certified = []

        def never_certifies(prepared, b_kept, m_full, params):
            certified.append(now[0])
            now[0] += 1.0
            return avoid_module._uncertain_remote("junta", len(b_kept))

        monkeypatch.setattr(avoid_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
        monkeypatch.setattr(avoid_module, "_certify_prepared", never_certifies)
        c = random_other_circuit(random.Random(10), 6, 2, 200)
        res = avoid(c, GeneratorSpec.eps_biased(200, 9), AvoidParams(budget=8, wall_clock_s=2.5))
        assert certified == [0.0, 1.0, 2.0]
        assert res.justification["kind"] == "failed"
        assert res.stats["aborted"] == "wall clock"
        assert res.seeds_tried == res.stats["seeds_tried"] == 3


class TestOneAnalysis:
    def test_each_gate_expanded_once(self, transformed_rows):
        c = random_pruned_circuit(random.Random(11), 8, 2, 120)
        transformed_rows.clear()  # making c classified its gates
        res = avoid(c, GeneratorSpec.eps_biased(120, 10), AvoidParams(budget=16))
        assert res.stats["parity_outputs"] == 3
        assert res.justification["kind"] == "refutation"
        assert len(transformed_rows) == 2  # one call per fan-in
        assert sorted(row for rows in transformed_rows for row in rows) == sign_tables(c)
        transformed_rows.clear()
        certify_not_in_range(c, (1,) * c.m)
        assert sorted(row for rows in transformed_rows for row in rows) == sign_tables(c)

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


class TestPreparedTargets:
    """A prepared ensemble or split serves every target without building,
    attaching or validating a per-key instance."""

    @staticmethod
    def _circuits():
        rng = random.Random(0)
        a = random_tree_circuit(rng, 6, 1, 2, 200)
        b = random_tree_circuit(rng, 6, 1, 2, 200)
        small = random_tree_circuit(rng, 4, 1, 2, 200)
        return a, b, small

    def test_ensemble_of_another_circuit_is_rejected(self):
        a, b, small = self._circuits()
        target = eval_circuit(a, [0] * a.n)  # in the range of a
        params = CertifyParams(eps=Fraction(2, 5))
        own = certify_not_in_range(a, target, params, prepared=group_characters(to_layered(a)))
        assert not own.certified
        # unchecked, each of these ensembles certifies the in-range target
        for other in (b, small):
            with pytest.raises(ValidationError, match="not grouped from this circuit"):
                certify_not_in_range(
                    a, target, params, prepared=group_characters(to_layered(other))
                )

    def test_ensemble_of_an_equal_circuit_is_accepted(self):
        a, _, _ = self._circuits()
        target = signs(random.Random(1), a.m)
        params = CertifyParams(eps=Fraction(2, 5))
        twin = circuit_from_json(circuit_to_json(a))
        assert twin == a and twin.gates[0] is not a.gates[0]
        ens = group_characters(to_layered(twin))
        assert certify_not_in_range(a, target, params, prepared=ens) == (
            certify_not_in_range(a, target, params)
        )
        # a junta gate matches the tree it was grouped as
        mixed = Circuit(a.n, a.w, a.t, (OR01,) + a.gates[1:])
        ens = group_characters(to_layered(mixed.with_tree_gates()))
        assert certify_not_in_range(mixed, target, params, prepared=ens) == (
            certify_not_in_range(mixed, target, params)
        )

    def test_hand_built_ensemble_is_rejected(self):
        a, _, _ = self._circuits()
        ens = group_characters(to_layered(a))
        bare = SchemeEnsemble(ens.n, ens.w, ens.t, ens.m, dict(ens.schemes))
        with pytest.raises(ValidationError, match="not grouped from this circuit"):
            certify_not_in_range(a, (1,) * a.m, prepared=bare)

    def test_target_signs_checked(self):
        a, _, _ = self._circuits()
        ens = group_characters(to_layered(a))
        with pytest.raises(ValidationError, match="rhs 0"):
            certify_not_in_range(a, (0,) + (1,) * (a.m - 1), prepared=ens)

    def test_bucket_wider_than_the_inputs_is_zero(self):
        # t = 4 allows patterns of 3 positions, but every gate reads 2 of the
        # n = 2 inputs, so those buckets hold only zero-weight fillers
        c = Circuit(2, 1, 4, (JuntaGate((0, 1), (0, 0, 0, 1)), JuntaGate((0, 1), (0, 1, 1, 1))))
        split = reduction.nonadaptive_split(c)
        certs = dict(zip(split.patterns(), split.prepared.refute((1, -1))))
        assert all(certs[alpha].bound == 0.0 for alpha in certs if len(alpha) == 3)
        assert not certify_not_in_range(c, (1, -1)).certified  # no error

    def test_certify_builds_and_validates_no_instance(self, monkeypatch):
        rng = random.Random(13)
        c = random_tree_circuit(rng, 6, 2, 2, 300, leaf_prob=0.4)
        ens = group_characters(to_layered(c))
        validated = record_calls(monkeypatch, core.validate_instance)
        attached = record_calls(monkeypatch, reduction.attach_rhs)
        params = CertifyParams(eps=Fraction(2, 5))
        rc = certify_not_in_range(c, signs(rng, c.m), params, prepared=ens)
        assert rc.path == "tree"
        assert validated == []
        assert attached == []

    def test_a_target_proves_every_operator_in_one_engine_call(self, monkeypatch):
        # the shape of the benchmark's remote-tree circuit
        rng = random.Random(14)
        c = random_tree_circuit(rng, 6, 2, 2, 800, leaf_prob=0.4)
        ens = group_characters(to_layered(c))
        target = signs(rng, c.m)
        params = CertifyParams(eps=Fraction(2, 5))
        built = record_calls(monkeypatch, refuter.build_kikuchi)
        batches = record_calls(monkeypatch, refuter.spectral_certificate, len)
        expected = certify_not_in_range(c, target, params, prepared=ens)
        # the first target builds every operator and proves them in one call
        assert len(batches) == 1 and batches[0] == len(built) > 10
        # a later one builds none, and proves as many in one call
        rc = certify_not_in_range(c, target, params, prepared=ens)
        assert rc == expected
        assert batches == [batches[0]] * 2 and len(built) == batches[0]

    def test_junta_avoid_validates_no_bucket(self, monkeypatch):
        c = random_pruned_circuit(random.Random(11), 8, 2, 120)
        validated = record_calls(monkeypatch, core.validate_instance)
        res = avoid(c, GeneratorSpec.eps_biased(120, 10), AvoidParams(budget=16))
        assert res.justification["kind"] == "refutation"
        assert validated == []
