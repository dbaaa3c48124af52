import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xorcert.core import (
    Dyadic,
    ValidationError,
    instance_from_json,
    instance_to_json,
    make_instance,
    validate_instance,
)

from helpers import dyadic_div, dyadic_from_fraction, subset_rank, subset_unrank

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
