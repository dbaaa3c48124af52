import json
import random
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcert import core
from xorcert.core import (
    MAX_LOG_DEN,
    Dyadic,
    ValidationError,
    instance_from_json,
    instance_to_json,
    make_instance,
    sign_array,
    unit_weights,
    validate_instance,
)

from helpers import (
    dyadic_div,
    dyadic_from_fraction,
    reference_instance_violations,
    subset_rank,
    subset_unrank,
)

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=40),
)


class TestDyadic:
    def test_canonical_form(self):
        assert Dyadic(4, 2) == Dyadic(1, 0)
        assert Dyadic(6, 1) == Dyadic(3, 0)
        assert Dyadic(0, 7) == Dyadic(0, 0)
        d = Dyadic(12, 4)
        assert d.num % 2 == 1 or d.num == 0

    @given(a=dyadics, b=dyadics)
    def test_add_sub_roundtrip(self, a: Dyadic, b: Dyadic):
        assert (a + b) - b == a

    @given(a=dyadics, b=dyadics)
    def test_mul_div_roundtrip(self, a: Dyadic, b: Dyadic):
        if not b.is_zero():
            assert dyadic_div(a * b, b) == a

    @given(a=dyadics, b=dyadics)
    def test_matches_fraction_arithmetic(self, a: Dyadic, b: Dyadic):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()

    def test_division_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            dyadic_div(Dyadic(1), Dyadic(3))

    def test_fraction_roundtrip(self):
        f = Fraction(-13, 32)
        assert dyadic_from_fraction(f).as_fraction() == f
        with pytest.raises(ValueError):
            dyadic_from_fraction(Fraction(1, 3))

    def test_ordering(self):
        assert Dyadic(1, 2) < Dyadic(1, 1) < Dyadic(1)
        assert abs(Dyadic(-3, 2)) == Dyadic(3, 2)

    def test_ten_thousand_random_pairs(self):
        rng = random.Random(12)
        for _ in range(10_000):
            a = Dyadic(rng.randint(-(2**30), 2**30), rng.randrange(24))
            b = Dyadic(rng.randint(-(2**30), 2**30), rng.randrange(24))
            assert (a + b) - b == a
            if not b.is_zero():
                assert dyadic_div(a * b, b) == a


class TestSubsetRank:
    def test_spec_values(self):
        assert subset_rank((0, 1), 4, 2) == 0
        assert subset_rank((2, 3), 4, 2) == 5
        assert subset_rank((0, 2), 4, 2) == 1

    def test_colex_matches_enumeration(self):
        ordered = sorted(combinations(range(5), 3), key=lambda s: tuple(reversed(s)))
        for want, subset in enumerate(ordered):
            assert subset_rank(subset, 5, 3) == want

    @pytest.mark.parametrize("n", range(1, 13))
    def test_roundtrip_exhaustive(self, n):
        from math import comb

        for r in range(0, min(n, 6) + 1):
            for rank in range(comb(n, r)):
                subset = subset_unrank(rank, n, r)
                assert subset_rank(subset, n, r) == rank
            for subset in combinations(range(n), r):
                assert subset_unrank(subset_rank(subset, n, r), n, r) == subset

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError):
            subset_rank((1, 1), 4, 2)
        with pytest.raises(ValidationError):
            subset_rank((0, 5), 4, 2)
        with pytest.raises(ValidationError):
            subset_rank((0,), 4, 2)


class TestInstance:
    def test_validate_ok(self):
        inst = make_instance(3, [(0, 1), (1, 2), (0, 2)], [1, 1, -1])
        validate_instance(inst)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            validate_instance(make_instance(3, [(1, 1)], [1]))

    def test_overweight_rejected(self):
        inst = make_instance(2, [(0, 1)], [1], weights=[Dyadic(3, 1)])
        with pytest.raises(ValidationError, match="outside"):
            validate_instance(inst)

    def test_empty_edge_needs_zero_arity_or_mixed(self):
        ok = make_instance(2, [()], [1], arity=0)
        validate_instance(ok)
        mixed = make_instance(2, [(), (0, 1)], [1, 1])
        assert mixed.arity is None
        validate_instance(mixed)
        with pytest.raises(ValidationError):
            validate_instance(make_instance(2, [(), (0, 1)], [1, 1], arity=2))

    def test_value_is_order_independent(self):
        rng = random.Random(0)
        for _ in range(30):
            n, k, m = 6, 2, 8
            edges = [tuple(sorted(rng.sample(range(n), k))) for _ in range(m)]
            rhs = [rng.choice((1, -1)) for _ in range(m)]
            weights = [Dyadic(rng.randint(-4, 4), 2) for _ in range(m)]
            inst = make_instance(n, edges, rhs, weights=weights)
            perm = list(range(m))
            rng.shuffle(perm)
            shuffled = make_instance(
                n,
                [edges[i] for i in perm],
                [rhs[i] for i in perm],
                weights=[weights[i] for i in perm],
            )
            x = [rng.choice((1, -1)) for _ in range(n)]
            assert inst.value(x) == shuffled.value(x)

    def test_value_example(self):
        inst = make_instance(2, [(0, 1)], [1])
        assert inst.value([1, 1]) == 1
        assert inst.value([1, -1]) == -1

    def test_json_roundtrip(self):
        inst = make_instance(
            4,
            [(0, 1), (2, 3)],
            [1, -1],
            weights=[Dyadic(1, 1), Dyadic(-3, 2)],
        )
        again = instance_from_json(instance_to_json(inst))
        assert again == inst

    def test_json_defaults(self):
        inst = instance_from_json('{"k": 2, "n": 3, "edges": [[0, 1], [1, 2]]}')
        assert all(w == Dyadic(1) for w in inst.scheme.weights)
        assert inst.rhs == (1, 1)


# vertices that are not ints of int64, or not integers at all
ODD_VERTICES = [2 ** 63, 2 ** 70, -(2 ** 64), 1.5, "0", None, True, False, np.int64(3)]
# rhs entries of every type; 1.0, True and np.int64(1) are signs
ODD_SIGNS = [
    1.0, -1.0, True, False, np.int64(1), np.int64(-1), 0, 2, 2 ** 70, 1.5, "1", None, Fraction(1), (1,),
]


@st.composite
def any_instance(draw):
    """An instance, valid or not: mixed arity and empty edges, vertices out
    of range, past int64 or not integers, a negative n, weights outside
    [-1, 1] or with a log_den far past the cap, rhs entries of every type,
    and counts of weights or signs that do not match the edges."""
    n = draw(st.integers(-2, 6), label="n")
    vertex = st.one_of(st.integers(-1, 7), st.sampled_from(ODD_VERTICES))
    edge = st.one_of(
        st.lists(st.integers(0, 5), max_size=4, unique=True).map(lambda e: tuple(sorted(e))),
        st.lists(vertex, max_size=4).map(tuple),
    )
    edges = draw(st.lists(edge, max_size=8), label="edges")
    m = len(edges)
    weight = st.builds(
        Dyadic,
        st.one_of(st.integers(-4, 4), st.integers(-(2 ** 70), 2 ** 70)),
        st.one_of(st.integers(0, 70), st.sampled_from([MAX_LOG_DEN, MAX_LOG_DEN + 1, 10 ** 20])),
    )
    count = st.sampled_from([m, m, m, max(m - 1, 0), m + 1])
    weights = draw(st.one_of(st.none(), count.flatmap(lambda c: st.lists(weight, min_size=c, max_size=c))),
                   label="weights")
    sign = st.one_of(st.sampled_from([1, -1]), st.sampled_from(ODD_SIGNS))
    rhs = draw(count.flatmap(lambda c: st.lists(sign, min_size=c, max_size=c)), label="rhs")
    arity = draw(st.one_of(st.just(...), st.none(), st.integers(0, 4)), label="arity")
    return make_instance(n, edges, rhs, weights=weights, arity=arity)


class TestInstanceChecks:
    @given(inst=any_instance())
    @settings(max_examples=300, deadline=None)
    def test_array_checks_match_the_walk(self, inst):
        """``XorInstance.violations`` over the packed edges and the weight
        and sign arrays against one walk per edge, weight and sign."""
        expected = reference_instance_violations(inst)
        assert inst.violations() == expected
        assert inst.violations() == expected  # from the cache, as a new list
        vertices, sizes, unpacked = inst.scheme.hypergraph.packed
        edges = inst.scheme.hypergraph.edges
        assert sizes.tolist() == [len(e) for e in edges]
        typed = [all(type(v) is int and -(1 << 63) <= v < 1 << 63 for v in e) for e in edges]
        assert unpacked == {idx: e for idx, e in enumerate(edges) if not typed[idx]}
        if all(typed):
            assert vertices.tolist() == list(chain.from_iterable(edges))
        signs = inst.signs
        assert (signs is None) == any(b not in (1, -1) for b in inst.rhs)
        if signs is not None:
            assert signs.dtype == np.int64 and signs.tolist() == [1 if b == 1 else -1 for b in inst.rhs]

    @pytest.mark.parametrize("args, kwargs, messages", [
        ((4, [(0, 1.5)], [1]), {}, ["edge 0: non-integer vertex in (0, 1.5)"]),
        ((4, [("0", 1)], [1]), {}, ["edge 0: non-integer vertex in ('0', 1)"]),
        ((4, [(0, 2 ** 70)], [1]), {}, [f"edge 0: vertex out of range in (0, {2 ** 70})"]),
        ((4, [(False, True), (np.int64(2), 3)], [1, 1]), {}, []),
        ((-1, [(0, 1), ()], [1, 1]), {}, [
            "negative vertex count -1", "edge 0: vertex out of range in (0, 1)",
        ]),
        ((4, [(1, 1), (3, 5, 2), (0, 1)], [1, 1, 1]), {"arity": 2}, [
            "edge 0: vertices not strictly increasing in (1, 1)",
            "edge 1: vertex out of range in (3, 5, 2)",
            "edge 1: vertices not strictly increasing in (3, 5, 2)",
            "edge 1: arity 3 != declared 2",
        ]),
        ((2, [(0, 1)] * 3, [1] * 3), {
            "weights": [Dyadic(3, 1), Dyadic(1, 10 ** 20), Dyadic(-(2 ** 70) - 1, 70)],
        }, [
            "edge 0: weight Dyadic(3/2^1) outside [-1, 1]",
            f"edge 1: weight Dyadic(1/2^{10 ** 20}) log_den above {MAX_LOG_DEN}",
            f"edge 2: weight Dyadic({-(2 ** 70) - 1}/2^70) outside [-1, 1]",
        ]),
        ((2, [(0, 1)] * 2, [1] * 2), {"weights": [Dyadic(1, MAX_LOG_DEN), Dyadic(-(2 ** 70), 70)]}, []),
        ((2, [(0, 1)], [1]), {"weights": []}, ["0 weights for 1 edges"]),
        ((2, [(0, 1)] * 8, ["1", 1.5, 0, None, 1.0, True, np.int64(-1), -1]), {}, [
            "edge 0: rhs 1 not in {+1, -1}",
            "edge 1: rhs 1.5 not in {+1, -1}",
            "edge 2: rhs 0 not in {+1, -1}",
            "edge 3: rhs None not in {+1, -1}",
        ]),
        ((2, [(0, 1)] * 2, [1]), {}, ["1 rhs signs for 2 edges"]),
    ], ids=[
        "float-vertex", "str-vertex", "past-int64", "bool-and-numpy-vertices", "negative-n",
        "order-range-arity", "weights", "weights-at-the-bounds", "weight-count", "rhs-types", "rhs-count",
    ])
    def test_pinned_messages(self, args, kwargs, messages):
        inst = make_instance(*args, **kwargs)
        assert inst.violations() == messages
        if messages:
            with pytest.raises(ValidationError) as info:
                validate_instance(inst)
            assert info.value.violations == messages
        else:
            validate_instance(inst)

    @pytest.mark.parametrize("log_den", [10 ** 20, -(10 ** 20), MAX_LOG_DEN + 1, -MAX_LOG_DEN - 1])
    def test_loader_names_a_log_den_past_the_cap(self, log_den):
        text = json.dumps({"k": 2, "n": 4, "edges": [[0, 1], [1, 2]], "rhs": [1, 1], "weights": [
            {"num": 1, "log_den": 0}, {"num": 1, "log_den": log_den},
        ]})
        with pytest.raises(ValidationError) as info:
            instance_from_json(text)
        assert info.value.violations == [
            f"edge 1: weight log_den {log_den} outside [-{MAX_LOG_DEN}, {MAX_LOG_DEN}]"
        ]

    def test_loader_accepts_the_cap(self):
        text = json.dumps({"k": 2, "n": 4, "edges": [[0, 1], [1, 2]], "rhs": [1, 1], "weights": [
            {"num": 0, "log_den": -MAX_LOG_DEN}, {"num": 1, "log_den": MAX_LOG_DEN},
        ]})
        assert instance_from_json(text).scheme.weights == (Dyadic(0), Dyadic(1, MAX_LOG_DEN))

    def test_one_load_scans_the_edges_once(self, monkeypatch):
        """The field check and the hypergraph read one packing of the
        edges: one flatten and one type scan per load."""
        rng = random.Random(5)
        edges = [sorted(rng.sample(range(20), 4)) for _ in range(50)]
        text = json.dumps({"k": 4, "n": 20, "edges": edges, "rhs": [1] * 50})
        flattened = []
        monkeypatch.setattr(core, "chain", type("Counted", (), {
            "from_iterable": staticmethod(lambda rows: flattened.append(rows) or chain.from_iterable(rows))
        }))
        inst = instance_from_json(text)
        assert len(flattened) == 1
        vertices, sizes, unpacked = inst.scheme.hypergraph.packed
        assert vertices.tolist() == list(chain.from_iterable(edges))
        assert sizes.tolist() == [4] * 50 and unpacked == {}

    @pytest.mark.parametrize("edges, messages", [
        ([[0, 1], [1, True]], ["instance: field 'edges' is missing or mistyped"]),
        ([[0, "1"]], ["instance: field 'edges' is missing or mistyped"]),
        ([[0, 1.0]], ["instance: field 'edges' is missing or mistyped"]),
        ([[0, [1]]], ["instance: field 'edges' is missing or mistyped"]),
        ([[0, 1], 2], ["instance: field 'edges' is missing or mistyped"]),
        ([[0, 2 ** 70], [1, 2]], [f"edge 0: vertex out of range in (0, {2 ** 70})"]),
        ([[0, 2 ** 63 - 1]], [f"edge 0: vertex out of range in (0, {2 ** 63 - 1})"]),
    ], ids=["bool", "string", "float", "nested", "not-a-list", "past-int64", "int64-max"])
    def test_loader_names_mistyped_edges(self, edges, messages):
        text = json.dumps({"n": 4, "edges": edges})
        with pytest.raises(ValidationError) as info:
            instance_from_json(text)
        assert info.value.violations == messages
        # with another field wrong, both are named in field order
        bad_rhs = json.dumps({"n": 4, "edges": edges, "rhs": [1.5]})
        if messages[0].startswith("instance:"):
            with pytest.raises(ValidationError) as info:
                instance_from_json(bad_rhs)
            assert info.value.violations == messages + ["instance: field 'rhs' is missing or mistyped"]

    def test_unit_weights_share_one_object(self):
        weights = unit_weights(5)
        assert weights == (Dyadic(1),) * 5 and len(set(map(id, weights))) == 1
        inst = make_instance(3, [(0, 1), (1, 2)], [1, -1])
        nums, log_dens = inst.scheme.weight_arrays
        assert nums.tolist() == [1, 1] and log_dens.tolist() == [0, 0]

    @pytest.mark.parametrize("values, signs", [
        ([1, -1, 1], [1, -1, 1]),
        ((True, -1), [1, -1]),
        ([1.0, -1.0], [1, -1]),
        (np.array([1, -1], dtype=np.int8), [1, -1]),
        ([Fraction(1), -1], [1, -1]),
        ([], []),
        ([1, "1"], None),
        ([1, 1.5], None),
        ([1, 0], None),
        ([None], None),
        ([False], None),
        ([1, 2 ** 70], None),
        ([[1], [1]], None),
        ([1, [1]], None),
    ])
    def test_sign_array(self, values, signs):
        got = sign_array(values)
        if signs is None:
            assert got is None
        else:
            assert got.dtype == np.int64 and got.tolist() == signs
