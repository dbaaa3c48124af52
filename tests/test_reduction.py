import importlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcert.circuits import (
    Circuit,
    JuntaGate,
    LayeredCircuit,
    Leaf,
    Node,
    WordDecisionTree,
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
)
from xorcert.oracle import brute_min_distance, brute_val, check_decomposition
from xorcert.reduction import (
    attach_rhs,
    group_characters,
    key_filename,
    nonadaptive_split,
)
from xorcert.refuter import RefuteParams, refute

from helpers import (
    bucket_instance,
    prepare_buckets,
    prepared_fields,
    random_junta_gate,
    random_other_circuit,
    reference_buckets,
    reference_expand_junta,
    reference_expand_layered_output,
    reference_group_characters,
    signs,
)


avoid_module = importlib.import_module("xorcert.avoid")


def assert_split_is(split, buckets):
    """The split prepares exactly the reference buckets, field for field,
    and its instances are theirs."""
    assert split.patterns() == sorted(buckets)
    assert prepared_fields(split.prepared) == prepared_fields(prepare_buckets(split.m, buckets))
    b = tuple((-1) ** i for i in range(split.m))
    for alpha in buckets:
        assert split.instance(alpha, b) == bucket_instance(buckets, alpha, b)


def tree_identity(j):
    return WordDecisionTree(Node(j, (Leaf(1), Leaf(-1))))


class TestGroupCharacters:
    @pytest.mark.parametrize("w, t", [(1, 8), (1, 9), (3, 3), (10 ** 20, 0)])
    def test_key_space_is_capped(self, w, t):
        """A circuit of leaf trees is valid at any t and w. Its 4^(t*w) keys
        are grouped up to the cap of 2^16 and refused past it, as is a w
        whose 4^w passes it, before anything is sized by t or w."""
        c = Circuit(1, w, t, (WordDecisionTree(Leaf(-1)),))
        if 2 * max(w, t * w) <= 16:
            assert len(group_characters(to_layered(c)).schemes) == 4 ** (t * w)
        else:
            with pytest.raises(ValidationError, match="keys .*exceed the cap 2\\^16"):
                group_characters(to_layered(c))

    def test_single_output_identity(self):
        c = Circuit(1, 1, 1, (tree_identity(0),))
        ens = group_characters(to_layered(c))
        assert len(ens.schemes) == 4
        nonzero = {
            key: scheme
            for key, scheme in ens.schemes.items()
            if any(not w.is_zero() for w in scheme.weights)
        }
        assert set(nonzero) == {((1,), 1)}
        scheme = nonzero[((1,), 1)]
        assert scheme.hypergraph.edges == ((0,),)
        assert scheme.weights == (Dyadic(1),)

    def test_constant_output_goes_to_empty_key(self):
        c = Circuit(1, 1, 1, (WordDecisionTree(Leaf(-1)),))
        ens = group_characters(to_layered(c))
        scheme = ens.schemes[((0,), 1)]
        assert scheme.weights == (Dyadic(-1),)
        assert scheme.arity == 0

    def test_key_count_is_exactly_4_pow_tw(self):
        rng = random.Random(1)
        for n, w, t in [(2, 1, 2), (2, 2, 1), (3, 1, 1)]:
            c = random_tree_circuit(rng, n, w, t, 3)
            ens = group_characters(to_layered(c))
            assert len(ens.schemes) == 4 ** (t * w)
            for scheme in ens.schemes.values():
                assert scheme.m == c.m

    def test_l1_mass_per_output(self):
        rng = random.Random(5)
        c = random_tree_circuit(rng, 3, 2, 2, 4)
        ens = group_characters(to_layered(c))
        bound = Fraction(1 << (c.t * c.w))
        for i in range(c.m):
            mass = Fraction(0)
            for scheme in ens.schemes.values():
                mass += abs(scheme.weights[i].as_fraction())
            assert mass <= bound

    def test_decomposition_identity_exhaustive(self):
        rng = random.Random(7)
        for _ in range(5):
            c = random_tree_circuit(rng, 2, 1, 2, 3)
            ens = group_characters(to_layered(c))
            for x_code in range(4):
                x = [(x_code >> j) & 1 for j in range(2)]
                for b_code in range(8):
                    b = [1 - 2 * ((b_code >> i) & 1) for i in range(3)]
                    assert check_decomposition(c, x, b, ens) == 0

    def test_averaging_principle(self):
        """If some input is close to b, one instance value is large."""
        rng = random.Random(11)
        found_nontrivial = 0
        for _ in range(20):
            c = random_tree_circuit(rng, 2, 1, 2, 4)
            ens = group_characters(to_layered(c))
            key_count = len(ens.schemes)
            b = signs(rng, c.m)
            dist = brute_min_distance(c, b)
            if dist > Fraction(1, 2):
                continue
            eps = Fraction(1, 2) - dist
            if eps == 0:
                continue
            found_nontrivial += 1
            best = max(
                brute_val(inst) for inst in attach_rhs(ens, b).values()
            )
            assert best >= 2 * eps / key_count
        assert found_nontrivial > 0

    def test_attach_rhs_normalizes_signs(self):
        c = Circuit(2, 1, 2, (WordDecisionTree(
            Node(0, (Node(1, (Leaf(1), Leaf(-1))), Leaf(1)))
        ),))
        ens = group_characters(to_layered(c))
        insts = attach_rhs(ens, (1,))
        for inst in insts.values():
            for w in inst.scheme.weights:
                assert w.num >= 0

    def test_attach_rhs_preserves_value(self):
        rng = random.Random(13)
        for _ in range(20):
            c = random_tree_circuit(rng, 2, 1, 2, 3)
            ens = group_characters(to_layered(c))
            b = signs(rng, c.m)
            for key, scheme in ens.schemes.items():
                raw = brute_val(
                    attach_rhs(ens, b)[key]
                )
                from xorcert.core import XorInstance

                direct = brute_val(XorInstance(scheme, b))
                assert raw == direct

    def test_length_mismatch(self):
        c = Circuit(1, 1, 1, (tree_identity(0),))
        ens = group_characters(to_layered(c))
        with pytest.raises(ValidationError):
            attach_rhs(ens, (1, 1))

    def test_key_filename(self):
        assert key_filename(((0, 3), 2)) == "scheme_b0-3_l2.json"

    def test_layered_view_checks_query_depth(self):
        # a t=1 circuit whose tree queries twice: the layered view has no
        # second layer for it, so it is refused before any grouping
        c = Circuit(2, 1, 1, (WordDecisionTree(Node(0, (Node(1, (Leaf(1), Leaf(-1))), Leaf(1)))),))
        with pytest.raises(ValidationError, match="query depth exceeds 1"):
            group_characters(LayeredCircuit(c))


class TestGroupingMatchesReference:
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        t=st.integers(1, 3),
        w=st.integers(1, 2),
        leaf_prob=st.sampled_from((0.0, 0.3, 0.6)),
    )
    @settings(max_examples=60, deadline=None)
    def test_prepared_field_for_field(self, seed, t, w, leaf_prob):
        """The integer grouping prepares exactly what the Dyadic recursion
        and the per-copy reference prepare, constant outputs among the trees,
        and the expansion read from it is the reference expansion."""
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        c = random_tree_circuit(rng, n, w, t, m, leaf_prob=leaf_prob)
        gates = tuple(
            WordDecisionTree(Leaf(rng.choice((1, -1)))) if rng.random() < 0.2 else g
            for g in c.gates
        )
        lc = to_layered(Circuit(n, w, t, gates))
        assert prepared_fields(group_characters(lc).prepared) == (
            prepared_fields(reference_group_characters(lc))
        )
        for i in range(m):
            assert expand_layered_output(lc, i) == reference_expand_layered_output(lc, i)


class TestNonadaptiveSplit:
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_no_outputs(self, t):
        assert_split_is(nonadaptive_split(Circuit(4, 1, t, ())), reference_buckets(Circuit(4, 1, t, ())))

    def test_or_pair_example(self):
        org1 = JuntaGate((0, 1), (0, 1, 1, 1))
        org2 = JuntaGate((1, 2), (0, 1, 1, 1))
        c = Circuit(3, 1, 2, (org1, org2))
        buckets = reference_buckets(c)
        assert_split_is(nonadaptive_split(c), buckets)
        hyper, weights = buckets[(0,)]
        assert hyper.edges == ((0,), (1,))
        assert weights == (Dyadic(1, 1), Dyadic(1, 1))
        hyper0, weights0 = buckets[()]
        assert weights0 == (Dyadic(-1, 1), Dyadic(-1, 1))

    def test_rejects_parity_gate(self):
        xor = JuntaGate((0, 1), (0, 1, 1, 0))
        c = Circuit(2, 1, 2, (xor,))
        with pytest.raises(ValidationError, match="parity"):
            nonadaptive_split(c)

    def test_rejects_t_past_the_transform_cap(self):
        """A bucket per proper subset of the t positions: 2^17 - 1 of them
        for one AND gate declared with t = 17, named before any is made."""
        c = Circuit(2, 1, 17, (JuntaGate((0, 1), (0, 0, 0, 1)),))
        with pytest.raises(ValidationError, match="t = 17 positions exceeds the transform cap 16"):
            nonadaptive_split(c)
        assert_split_is(nonadaptive_split(Circuit(2, 1, 3, c.gates)), reference_buckets(Circuit(2, 1, 3, c.gates)))

    def test_bucket_count_and_shapes(self):
        rng = random.Random(3)
        c = random_other_circuit(rng, 6, 3, 10)
        buckets = reference_buckets(c)
        assert_split_is(nonadaptive_split(c), buckets)
        assert len(buckets) == 7  # proper subsets of a 3-element set
        for alpha, (hyper, weights) in buckets.items():
            assert hyper.m == c.m
            assert len(weights) == c.m
            assert all(len(e) == len(alpha) for e in hyper.edges)

    def test_split_reconstructs_correlation(self):
        """Sum of bucket values plus leading terms equals the correlation."""
        rng = random.Random(19)
        c = random_other_circuit(rng, 5, 2, 6)
        buckets = reference_buckets(c)
        assert_split_is(nonadaptive_split(c), buckets)
        from xorcert.circuits import eval_circuit

        for trial in range(10):
            x_bits = [rng.randint(0, 1) for _ in range(5)]
            x = [1 - 2 * b for b in x_bits]
            b = signs(rng, c.m)
            corr = Fraction(
                sum(o * bi for o, bi in zip(eval_circuit(c, x_bits), b)), c.m
            )
            total = Fraction(0)
            for alpha, _ in buckets.items():
                inst = bucket_instance(buckets, alpha, b)
                total += inst.value(x)
            lead = Fraction(0)
            for gate, bi in zip(c.gates, b):
                exp = reference_expand_junta(gate, 5)
                char = tuple(sorted(gate.inputs))
                coeff = exp.coeffs.get(char)
                if coeff is not None and len(gate.inputs) == c.t:
                    sign = bi
                    for v in char:
                        sign *= x[v]
                    lead += Fraction(sign * coeff.num, (1 << coeff.log_den) * c.m)
            assert corr == total + lead


_PARAMS = st.builds(
    RefuteParams,
    r=st.sampled_from((None, 1, 2, 3)),
    mode=st.sampled_from(("trace", "spectral", "auto")),
    split_weights=st.booleans(),
)


def _mixed_fan_in_circuit(rng: random.Random, n: int, t: int, m: int) -> Circuit:
    """Non-parity junta circuit whose gates read 2 to t inputs, so buckets
    of the larger patterns hold zero-weight filler edges."""
    gates = []
    while len(gates) < m:
        inputs = tuple(sorted(rng.sample(range(n), rng.randint(2, t))))
        gate = JuntaGate(inputs, tuple(rng.randrange(2) for _ in range(1 << len(inputs))))
        if classify_parity(expand_junta(gate, n)) is ParityClass.OTHER:
            gates.append(gate)
    return Circuit(n, 1, t, tuple(gates))


class TestPreparedMatchesInstances:
    """A prepared key or bucket certifies exactly as ``refute`` of the
    instance that ``attach_rhs`` or the reference split builds."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ensemble_keys(self, data):
        shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
        t, w = data.draw(st.sampled_from(shapes), label="t, w")
        small = t * w > 4  # 4^6 keys: keep the circuit tiny
        n = data.draw(st.integers(t, 3 if small else 4), label="n")
        m = data.draw(st.integers(1, 3 if small else 12), label="m")
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        c = random_tree_circuit(rng, n, w, t, m, leaf_prob=0.3)
        ens = group_characters(to_layered(c))
        b = signs(rng, m)
        params = data.draw(_PARAMS, label="params")
        instances = attach_rhs(ens, b)
        expected = [refute(instances[key], params) for key in ens.keys()]
        assert ens.prepared.refute(b, params) == expected

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_junta_buckets(self, data):
        t = data.draw(st.integers(2, 4), label="t")
        n = data.draw(st.integers(t, 7), label="n")
        m = data.draw(st.integers(1, 30), label="m")
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        c = _mixed_fan_in_circuit(rng, n, t, m)
        split = nonadaptive_split(c)
        buckets = reference_buckets(c)
        b = signs(rng, m)
        params = data.draw(_PARAMS, label="params")
        assert split.prepared.refute(b, params) == [
            refute(bucket_instance(buckets, alpha, b), params) for alpha in sorted(buckets)
        ]

    def test_filler_edge_merges_with_a_real_edge(self):
        # output 1 has no character at key ((1,), 1), so its filler edge (0,)
        # is the edge of output 0's character there
        c = Circuit(2, 1, 1, (tree_identity(0), WordDecisionTree(Leaf(1)), tree_identity(1)))
        ens = group_characters(to_layered(c))
        key = ((1,), 1)
        (part,) = ens.prepared.schemes[ens.keys().index(key)].parts
        # edges are vertex bitmasks: 0b01 is (0,) and 0b10 is (1,)
        assert dict(zip(part.edges, part.copies)) == {0b01: 2, 0b10: 1}
        assert part.live == (1, 1)
        assert ens.schemes[key].hypergraph.edges == ((0,), (0,), (1,))
        for b in product((1, -1), repeat=3):
            for params in (RefuteParams(), RefuteParams(split_weights=True)):
                assert ens.prepared.refute(b, params) == [
                    refute(inst, params) for _, inst in sorted(attach_rhs(ens, b).items())
                ]

    def test_rhs_checked(self):
        c = Circuit(1, 1, 1, (tree_identity(0),))
        ens = group_characters(to_layered(c))
        with pytest.raises(ValidationError, match="rhs signs for 1 edges"):
            ens.prepared.refute((1, 1))
        with pytest.raises(ValidationError, match="rhs 2 not in"):
            ens.prepared.refute((2,))


class TestSplitMatchesReference:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_mixed_fan_in(self, data):
        """Pruning and splitting the spectra prepares exactly the reference
        buckets of the non-parity outputs, field for field."""
        t = data.draw(st.integers(1, 5), label="t")
        n = data.draw(st.integers(t, 8), label="n")
        m = data.draw(st.integers(1, 25), label="m")
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        c = Circuit(n, 1, t, tuple(random_junta_gate(rng, n, rng.randint(0, t)) for _ in range(m)))
        kept, split = avoid_module._prune_parities(c, junta_spectra(c.junta_table))
        assert kept.tolist() == [
            i for i, gate in enumerate(c.gates)
            if classify_parity(reference_expand_junta(gate, n)) is ParityClass.OTHER
        ]
        if not len(kept):
            assert split is None
            return
        pruned = Circuit(n, 1, t, tuple(c.gates[i] for i in kept))
        buckets = reference_buckets(pruned)
        assert_split_is(split, buckets)
        assert_split_is(nonadaptive_split(pruned), buckets)
