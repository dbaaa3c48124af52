import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xorcert.circuits import random_tree_circuit, to_layered
from xorcert.core import MAX_LOG_DEN, Dyadic, ValidationError, int_array, make_instance
from xorcert.oracle import brute_val
from xorcert.reduction import attach_rhs, group_characters, nonadaptive_split
from xorcert import refuter
from xorcert.refuter import (
    Certificate,
    KikuchiOperator,
    KikuchiPattern,
    RefuteParams,
    ResourceCap,
    build_kikuchi,
    default_ell,
    odd_to_even,
    refute,
    spectral_certificate,
    trace_certificate,
)

from helpers import (
    certificate_from_obj,
    coalesce,
    dyadic_entries,
    edge_mask,
    edge_table,
    entry_dict,
    pattern_fields,
    prepared_fields,
    quadratic_form,
    random_instance,
    random_other_circuit,
    reference_dense_matrix,
    reference_gamma,
    reference_kikuchi,
    reference_kikuchi_pattern,
    reference_number_distinct,
    reference_odd_split,
    reference_prepare_copies,
    reference_prepared_refute,
    signs,
    spectral_bound_holds,
    split_to_unit_weights,
)


def _weights(max_log_den: int = 3):
    """Dyadic weights in [-1, 1] at mixed scales, zero among them."""
    return st.integers(0, max_log_den).flatmap(
        lambda L: st.builds(Dyadic, st.integers(-(1 << L), 1 << L), st.just(L))
    )


def _check_per_copy_reference(data, n: int, k: int, r: int) -> None:
    """Draw copies of a few distinct edges on n vertices, weights at the
    scale 2^-70 among them, whose signed sums pass 2^63, and check the
    level-r operator against the per-copy enumeration."""
    big = st.builds(Dyadic, st.integers(-(1 << 70), 1 << 70), st.just(70))
    edge_strategy = st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k, unique=True
    ).map(lambda e: tuple(sorted(e)))
    # few distinct edges and many copies, so most edges are parallel
    pool = data.draw(
        st.lists(edge_strategy, min_size=1, max_size=3, unique=True), label="pool"
    )
    copies = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool),
                st.one_of(st.just(Dyadic(0)), _weights(), big),
                st.sampled_from((1, -1)),
            ),
            min_size=1,
            max_size=24,
        ),
        label="copies",
    )
    # a twin has the same edge and weight and the opposite sign
    twins = data.draw(
        st.lists(st.booleans(), min_size=len(copies), max_size=len(copies)),
        label="twins",
    )
    copies += [(e, w, -b) for (e, w, b), twin in zip(copies, twins) if twin]
    inst = make_instance(
        n,
        [e for e, _, _ in copies],
        [b for _, _, b in copies],
        weights=[w for _, w, _ in copies],
        arity=k,
    )
    op = build_kikuchi(*coalesce(inst), r)
    entries, degrees = reference_kikuchi(inst, r)
    assert dyadic_entries(op) == entries
    assert tuple(op.degrees.tolist()) == degrees


class TestBuild:
    def test_two_edge_example(self):
        inst = make_instance(4, [(0, 1), (2, 3)], [1, -1])
        op = build_kikuchi(*coalesce(inst), 1)
        assert op.edge_multiplier == 2
        assert op.trace_degree == op.dim
        assert op.degrees.tolist() == [1, 1, 1, 1]
        assert (entry_dict(op), op.log_den) == ({(0, 1): 1, (2, 3): -1}, 0)

    def test_single_4_edge(self):
        inst = make_instance(6, [(0, 1, 2, 3)], [1])
        op = build_kikuchi(*coalesce(inst), 2)
        assert op.edge_multiplier == 6
        assert sum(op.degrees) == 6
        assert len(op.entries) == 3

    def test_trace_degree_identity(self):
        rng = random.Random(1)
        for _ in range(30):
            k = rng.choice((2, 4))
            n = rng.randint(k + 1, 9)
            r = rng.randint(k // 2, min(4, n - k // 2))
            inst = random_instance(rng, n, k, rng.randint(1, 12), weighted=True)
            op = build_kikuchi(*coalesce(inst), r)
            assert sum(op.degrees) == op.m * op.edge_multiplier

    def test_quadratic_form_identity(self):
        rng = random.Random(2)
        for _ in range(40):
            k = rng.choice((2, 4))
            n = rng.randint(k + 1, 9)
            r = rng.randint(k // 2, min(3, n - k // 2))
            inst = random_instance(rng, n, k, rng.randint(1, 10), weighted=True)
            op = build_kikuchi(*coalesce(inst), r)
            for _ in range(5):
                x = [rng.choice((1, -1)) for _ in range(n)]
                expected = inst.term_sum(x) * Dyadic(op.edge_multiplier)
                assert quadratic_form(op, x) == expected

    def test_quadratic_form_all_ones(self):
        inst = make_instance(5, [(0, 1), (1, 2), (3, 4)], [1, -1, 1])
        op = build_kikuchi(*coalesce(inst), 1)
        total = sum(b for b in inst.rhs)
        assert quadratic_form(op, [1] * 5) == Dyadic(op.edge_multiplier * total)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_quadratic_form_identity_property(self, data):
        n = data.draw(st.integers(min_value=3, max_value=8), label="n")
        k = data.draw(st.sampled_from([v for v in (2, 4) if v <= n]), label="k")
        r = data.draw(st.integers(min_value=k // 2, max_value=n - k // 2), label="r")
        m = data.draw(st.integers(min_value=1, max_value=6), label="m")
        edge_strategy = st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k, unique=True
        ).map(lambda e: tuple(sorted(e)))
        edges = data.draw(st.lists(edge_strategy, min_size=m, max_size=m), label="edges")
        rhs = data.draw(
            st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m), label="rhs"
        )
        weights = data.draw(
            st.lists(
                st.builds(Dyadic, st.integers(-4, 4), st.just(2)),
                min_size=m,
                max_size=m,
            ),
            label="weights",
        )
        inst = make_instance(n, edges, rhs, weights=weights, arity=k)
        op = build_kikuchi(*coalesce(inst), r)
        x = data.draw(
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), label="x"
        )
        assert quadratic_form(op, x) == inst.term_sum(x) * Dyadic(op.edge_multiplier)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_copy_reference(self, data):
        """Entries and degrees equal the per-copy enumeration at every level
        of small shapes."""
        k = data.draw(st.sampled_from((2, 4, 6)), label="k")
        n = data.draw(st.integers(min_value=k, max_value=8), label="n")
        r = data.draw(st.integers(min_value=k // 2, max_value=n - k // 2), label="r")
        _check_per_copy_reference(data, n, k, r)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_copy_reference_on_wide_instances(self, data):
        """The same on up to 70 vertices, where bitmasks pass 64 bits."""
        k, r = data.draw(st.sampled_from(((2, 1), (2, 2), (4, 2))), label="k, r")
        n = data.draw(st.integers(min_value=56, max_value=70), label="n")
        _check_per_copy_reference(data, n, k, r)

    def test_pattern_is_read_only(self):
        # the degrees are the pattern's, shared by every later target
        parts = refuter._prepare_instance(make_instance(4, [(0, 1), (2, 3)], [1, -1]))
        (part,) = parts.schemes[0].parts
        sums = parts.signed_sums([1, -1])
        op = build_kikuchi(part, sums, 1)
        with pytest.raises(ValueError):
            op.degrees[0] = 5
        for array in vars(part.patterns[1]).values():
            with pytest.raises(ValueError):
                array[0] = 0
        assert build_kikuchi(part, sums, 1).degrees.tolist() == [1, 1, 1, 1]

    def test_signed_sums_past_int64_stay_exact(self):
        # three parallel copies of weight about 1 at the scale 2^-70: the
        # sums pass 2^63, and only Python ints hold them
        w = Dyadic((1 << 70) - 1, 70)
        inst = make_instance(70, [(3, 68), (3, 68), (3, 68), (0, 69)], [1, 1, 1, -1], weights=[w] * 4)
        op = build_kikuchi(*coalesce(inst), 1)
        assert op.entries.dtype == object
        assert entry_dict(op) == {(0, 69): -((1 << 70) - 1), (3, 68): 3 * ((1 << 70) - 1)}
        assert dyadic_entries(op) == reference_kikuchi(inst, 1)[0]

    def test_parallel_copies_that_cancel_leave_no_entry(self):
        inst = make_instance(
            4,
            [(0, 1), (0, 1), (0, 1), (2, 3)],
            [1, -1, -1, 1],
            weights=[Dyadic(1, 1), Dyadic(1, 2), Dyadic(1, 2), Dyadic(3, 2)],
        )
        op = build_kikuchi(*coalesce(inst), 1)
        assert op.degrees.tolist() == [3, 3, 1, 1]
        assert (entry_dict(op), op.log_den) == ({(2, 3): 3}, 2)
        assert dyadic_entries(op) == reference_kikuchi(inst, 1)[0]

    def test_rejects_odd_and_bad_levels(self):
        odd = make_instance(4, [(0, 1, 2)], [1])
        with pytest.raises(ValidationError):
            build_kikuchi(*coalesce(odd), 2)
        even = make_instance(4, [(0, 1, 2, 3)], [1])
        with pytest.raises(ResourceCap):
            build_kikuchi(*coalesce(even), 1)
        with pytest.raises(ResourceCap):
            build_kikuchi(*coalesce(even), 3)  # r - k/2 > n - k
        with pytest.raises(ResourceCap):
            build_kikuchi(*coalesce(make_instance(12, [(0, 1)], [1])), 5, dense_cap=100)


def _check_former_build(n: int, k: int, r: int, edges, copies) -> None:
    got = refuter._kikuchi_pattern(n, k, r, edges, copies)
    assert pattern_fields(got) == pattern_fields(reference_kikuchi_pattern(n, k, r, edges, copies))


class TestPatternBuild:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_the_former_build(self, data):
        """Positions, edges and degrees equal the former build's array for
        array: values, dtype, order and read-only flags, on up to 70
        vertices and at every level whose side stays small."""
        k = data.draw(st.sampled_from((2, 4, 6)), label="k")
        n = data.draw(st.integers(min_value=k, max_value=70), label="n")
        half = k // 2
        levels = [
            r for r in range(half, n - half + 1)
            if comb(n, r) <= 60_000 and comb(n - k, r - half) <= 300
        ]
        r = data.draw(st.sampled_from(levels), label="r")
        subsets = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        edges = sorted(data.draw(
            st.lists(subsets.map(edge_mask), min_size=1, max_size=8, unique=True), label="edges"
        ))
        # copies that keep the trace degree below 2^53, in int64, or past 2^63
        top = data.draw(st.sampled_from((3, 1 << 50, 1 << 62, 1 << 70)), label="top")
        copies = data.draw(
            st.lists(st.integers(1, top), min_size=len(edges), max_size=len(edges)), label="copies"
        )
        _check_former_build(n, k, r, edges, copies)

    @pytest.mark.parametrize("n, k, r", [(63, 4, 2), (64, 4, 3), (70, 2, 69), (70, 6, 3), (70, 6, 67)])
    def test_wide_shapes_equal_the_former_build(self, n, k, r):
        # random edges beside the lowest one
        rng = random.Random(n * k + r)
        edges = sorted({edge_mask(rng.sample(range(n), k)) for _ in range(6)} | {(1 << k) - 1})
        _check_former_build(n, k, r, edges, [rng.randint(1, 3) for _ in edges])

    @pytest.mark.parametrize("n, masks, copies, trace", [
        # the triangle on 3 vertices: the trace degree is twice the copies,
        # so always even, and it sits at 2^53 - 2, 2^53 and 2^53 + 2
        (3, (3, 5, 6), ((1 << 51) - 1, (1 << 50) + 1, (1 << 50) - 1), (1 << 53) - 2),
        (3, (3, 5, 6), ((1 << 51) - 1, (1 << 50) + 1, 1 << 50), 1 << 53),
        (3, (3, 5, 6), ((1 << 51) - 1, (1 << 50) + 1, (1 << 50) + 1), (1 << 53) + 2),
        # one edge whose odd degree 2^53 + 1 no float holds
        (2, (3,), ((1 << 53) + 1,), (1 << 54) + 2),
        # past 2^63 the degrees are Python ints
        (2, (3,), ((1 << 63) + 1,), (1 << 64) + 2),
    ])
    def test_degrees_at_the_float_and_int64_edges(self, n, masks, copies, trace):
        got = refuter._kikuchi_pattern(n, 2, 1, masks, copies)
        assert sum(got.degrees.tolist()) == trace
        assert got.degrees.dtype == (np.int64 if trace < 1 << 63 else object)
        assert pattern_fields(got) == pattern_fields(reference_kikuchi_pattern(n, 2, 1, masks, copies))
        if n == 2:
            assert got.degrees.tolist() == [copies[0]] * 2

    def test_wide_masks_take_memory_per_edge_vertex(self):
        # 800 edges on 4000 vertices, a shape the default dense cap allows at
        # r = 1: nothing may be sized by the 4000 vertices per edge
        rng = random.Random(0)
        edges = set()
        while len(edges) < 800:
            edges.add(edge_mask(rng.sample(range(4000), 2)))
        edges = sorted(edges)
        tracemalloc.start()
        try:
            pattern = refuter._kikuchi_pattern(4000, 2, 1, edges, (1,) * len(edges))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pattern.rows) == len(edges) and sum(pattern.degrees.tolist()) == 2 * len(edges)
        assert peak < 10 << 20


class TestTrace:
    def test_hand_computed_2x2(self):
        inst = make_instance(2, [(0, 1)], [1])
        op = build_kikuchi(*coalesce(inst), 1)
        bound, used = trace_certificate(op, 2)
        assert used == 2
        assert math.isclose(bound, math.sqrt(0.5), rel_tol=1e-9)
        assert bound >= math.sqrt(0.5)

    def test_zero_matrix(self):
        inst = make_instance(2, [(0, 1), (0, 1)], [1, -1])
        op = build_kikuchi(*coalesce(inst), 1)
        assert trace_certificate(op, 4)[0] == 0.0

    def test_longer_powers_tighten(self):
        rng = random.Random(3)
        for _ in range(50):
            inst = random_instance(rng, rng.randint(4, 8), 2, rng.randint(4, 20))
            op = build_kikuchi(*coalesce(inst), 1)
            b2, _ = trace_certificate(op, 2)
            b4, _ = trace_certificate(op, 4)
            assert b4 <= b2 + 1e-12

    def test_odd_ell_rejected(self):
        op = build_kikuchi(*coalesce(make_instance(2, [(0, 1)], [1])), 1)
        with pytest.raises(ValidationError):
            trace_certificate(op, 3)

    def test_ell_capped(self):
        assert refuter.truncate_ell(10**11, 15, 4e9) == refuter.ELL_CAP == 1024
        assert refuter.truncate_ell(1025, 15, 4e9) == 1024
        assert refuter.truncate_ell(1022, 15, 4e9) == 1022

    def test_work_cap_truncates(self):
        inst = random_instance(random.Random(4), 10, 2, 30)
        op = build_kikuchi(*coalesce(inst), 2)
        _, used = trace_certificate(op, 20, work_flops=10.0)
        assert used == 2

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_intervals_hold_the_exact_matrix_in_the_subnormal_range(self, data):
        """Gamma^-1 A and its square, in exact rationals, lie within the
        trace engine's intervals for weights at scales 2^-1040 to 2^-1074,
        where entries and products underflow."""
        op, exact = _tiny_weight_op(data, 1040, 1074)
        square = [
            [sum(exact[i][t] * exact[t][j] for t in range(op.dim)) for j in range(op.dim)]
            for i in range(op.dim)
        ]
        interval = refuter._reweighted_interval(op)
        for matrix, (mid, rad) in ((exact, interval), (square, refuter._interval_matmul(interval, interval))):
            for i, row in enumerate(matrix):
                for j, value in enumerate(row):
                    assert abs(Fraction(mid[i, j]) - value) <= Fraction(rad[i, j]), (i, j)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_trace_sum_holds_where_its_products_underflow(self, data):
        """At ell = 2 the bound's square is at least the exact trace of
        (Gamma^-1 A)^2 for weights at scales 2^-530 to 2^-545, where the
        products of the trace sum are subnormal."""
        op, exact = _tiny_weight_op(data, 530, 545)
        bound, used = trace_certificate(op, 2)
        assert used == 2
        trace = sum(exact[i][j] * exact[j][i] for i in range(op.dim) for j in range(op.dim))
        assert Fraction(bound) ** 2 >= trace


class TestSpectral:
    def test_hand_computed(self):
        inst = make_instance(2, [(0, 1)], [1])
        op = build_kikuchi(*coalesce(inst), 1)
        bound = spectral_certificate([op])[0]
        assert 0.5 <= bound <= 0.5 + 1e-10

    def test_spectral_at_most_trace(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = random_instance(rng, rng.randint(4, 9), 2, rng.randint(2, 25))
            op = build_kikuchi(*coalesce(inst), 1)
            t, _ = trace_certificate(op, default_ell(1, inst.n))
            s = spectral_certificate([op])[0]
            assert s <= t + 1e-9

    def test_dense_matrix_is_fresh_and_symmetric(self):
        inst = random_instance(random.Random(6), 8, 4, 40)
        op = build_kikuchi(*coalesce(inst), 2)
        expected = spectral_certificate([build_kikuchi(*coalesce(inst), 2)])[0]
        trace_certificate(op, 4)
        assert spectral_certificate([op])[0] == expected  # trace left the operator as it was
        dense = op.dense_matrix()
        assert dense is not op.dense_matrix() and (dense == op.dense_matrix()).all()
        for (i, j), num in entry_dict(op).items():
            assert dense[i, j] == dense[j, i] == float(Dyadic(num, op.log_den))
        assert np.count_nonzero(dense) == 2 * len(op.entries)


def _tiny_weight_op(data, lo: int, hi: int):
    """A level-1 or level-2 operator of a drawn 2-XOR instance on 3 to 6
    vertices with weights num * 2^-L, |num| < 1024 and L from lo to hi,
    and its Gamma^-1 A in exact rationals."""
    n = data.draw(st.integers(3, 6), label="n")
    r = data.draw(st.integers(1, 2), label="r")
    m = data.draw(st.integers(1, 12), label="m")
    edges = [tuple(sorted(data.draw(st.permutations(range(n)))[:2])) for _ in range(m)]
    weights = data.draw(st.lists(
        st.builds(Dyadic, st.integers(-1023, 1023), st.integers(lo, hi)),
        min_size=m, max_size=m,
    ), label="weights")
    rhs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m), label="rhs")
    op = build_kikuchi(*coalesce(make_instance(n, edges, rhs, weights=weights)), r)
    d = Fraction(op.trace_degree, op.dim)
    degrees = op.degrees.tolist()
    exact = [[Fraction(0)] * op.dim for _ in range(op.dim)]
    for (i, j), num in entry_dict(op).items():
        a = Fraction(num, 1 << op.log_den)
        exact[i][j] = a / (degrees[i] + d)
        exact[j][i] = a / (degrees[j] + d)
    return op, exact


def _eigen_norm(op: KikuchiOperator) -> float:
    """Float estimate of the reweighted norm, by a dense eigensolve."""
    scale = 1.0 / np.sqrt(refuter._gamma(op))
    eigvals = np.linalg.eigvalsh(op.dense_matrix() * scale[:, None] * scale)
    return float(max(-eigvals[0], eigvals[-1]))


def _two_copies(inst):
    """The instance beside a copy of itself on fresh vertices."""
    n, edges = inst.n, list(inst.scheme.hypergraph.edges)
    shifted = [tuple(v + n for v in e) for e in edges]
    weights = list(inst.scheme.weights) * 2
    return make_instance(2 * n, edges + shifted, list(inst.rhs) * 2, weights=weights)


def _graph_op(n, edges, rng, weights=None):
    """Level-1 operator of a 2-XOR instance: its signed adjacency matrix."""
    inst = make_instance(n, edges, [rng.choice((1, -1)) for _ in edges], weights=weights)
    return build_kikuchi(*coalesce(inst), 1)


class TestSpectralProof:
    """The spectral bound is a proof: lam Gamma +- A is exactly PSD at the
    returned lam, on both estimate paths and on shapes chosen to stress it."""

    @pytest.fixture(params=["eigvalsh", "lanczos"])
    def path(self, request, monkeypatch):
        if request.param == "lanczos":  # every side takes the Lanczos estimate
            monkeypatch.setattr(refuter, "_LANCZOS_FROM", 1)
        return request.param

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bound_is_exactly_psd(self, data):
        n = data.draw(st.integers(4, 8), label="n")
        k = data.draw(st.sampled_from((2, 4)), label="k")
        r = data.draw(st.integers(k // 2, n - k // 2), label="r")
        if comb(n, r) > 40:
            r = k // 2
        m = data.draw(st.integers(1, 24), label="m")
        edges = [tuple(sorted(data.draw(st.permutations(range(n)))[:k])) for _ in range(m)]
        big = st.builds(Dyadic, st.integers(-(1 << 60), 1 << 60), st.just(60))
        weights = data.draw(st.lists(st.one_of(_weights(), big), min_size=m, max_size=m))
        rhs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
        op = build_kikuchi(*coalesce(make_instance(n, edges, rhs, weights=weights)), r)
        lanczos = data.draw(st.booleans(), label="lanczos")
        old = refuter._LANCZOS_FROM
        refuter._LANCZOS_FROM = 1 if lanczos else old
        try:
            lam = spectral_certificate([op])[0]
        finally:
            refuter._LANCZOS_FROM = old
        assert spectral_bound_holds(op, lam)

    def test_two_disjoint_copies(self, path):
        # every eigenvalue of the matrix is double
        base = random_instance(random.Random(11), 6, 2, 14)
        op = build_kikuchi(*coalesce(_two_copies(base)), 1)
        lam = spectral_certificate([op])[0]
        assert spectral_bound_holds(op, lam)
        assert lam <= _eigen_norm(op) * (1 + 1e-7)

    def test_symmetric_spectrum(self, path):
        # a bipartite graph: every eigenvalue comes with its negative
        rng = random.Random(12)
        edges = [(i, j) for i in range(6) for j in range(6, 12) if rng.random() < 0.5]
        op = _graph_op(12, edges, rng)
        lam = spectral_certificate([op])[0]
        assert spectral_bound_holds(op, lam)
        assert lam <= _eigen_norm(op) * (1 + 1e-7)

    def test_star_heavy_degrees(self, path):
        # vertex 0 meets almost every edge: its Gamma is about 12 times the others'
        rng = random.Random(13)
        edges = [(0, j) for j in range(1, 36)] * 4 + [(3, 7), (5, 9), (2, 11)]
        op = _graph_op(36, edges, rng)
        gamma = refuter._gamma(op)
        assert gamma.max() > 10 * gamma.min()
        lam = spectral_certificate([op])[0]
        assert spectral_bound_holds(op, lam)
        assert lam <= _eigen_norm(op) * (1 + 1e-7)

    @pytest.mark.parametrize("num, log_den", [
        ((1 << 60) + 1, 61),  # entries above 2^53, not exact in floats
        ((1 << 1099) + 1, 1100),  # numerators past the float range
        (3, 1100),  # weights below the smallest float
    ], ids=["above-2^53", "past-the-float-range", "below-the-smallest-float"])
    def test_entries_beyond_the_float_format(self, path, num, log_den):
        rng = random.Random(14)
        edges = [tuple(sorted(rng.sample(range(8), 2))) for _ in range(20)]
        op = _graph_op(8, edges, rng, weights=[Dyadic(num, log_den)] * 20)
        lam = spectral_certificate([op])[0]
        assert 0.0 < lam and spectral_bound_holds(op, lam)

    def test_a_low_estimate_climbs_the_ladder(self, monkeypatch):
        inst = random_instance(random.Random(15), 8, 2, 20)
        op = build_kikuchi(*coalesce(inst), 1)
        calls = []
        proves = refuter._cholesky_proves

        def counting(*args):
            [lam] = args[2].tolist()  # a stack of one operator
            calls.append(lam)
            return proves(*args)

        monkeypatch.setattr(refuter, "_cholesky_proves", counting)
        estimate = refuter._estimate_top
        monkeypatch.setattr(refuter, "_estimate_top", lambda *args: estimate(*args) * (1 - 1e-9))
        lam = spectral_certificate([op])[0]
        assert len(calls) > 1 and calls[-1] > calls[0]
        assert spectral_bound_holds(op, lam)

    def test_half_the_estimate_is_uncertain_or_sound(self, monkeypatch):
        inst = random_instance(random.Random(16), 8, 2, 20)
        estimate = refuter._estimate_top
        monkeypatch.setattr(refuter, "_estimate_top", lambda *args: estimate(*args) / 2)
        calls = []
        proves = refuter._cholesky_proves
        monkeypatch.setattr(refuter, "_cholesky_proves", lambda *a: calls.append(a) or proves(*a))
        assert spectral_certificate([build_kikuchi(*coalesce(inst), 1)]) == [None]
        assert len(calls) == len(refuter._LADDER)
        cert = refute(inst)
        assert cert.status == "uncertain" and cert.bound == 1.0

    def test_empty_operator_is_zero(self):
        op = build_kikuchi(*coalesce(make_instance(4, [(0, 1), (0, 1)], [1, -1])), 1)
        assert not len(op.entries)
        assert spectral_certificate([op])[0] == 0.0

    def test_lanczos_matches_a_dense_eigensolve_with_empty_rows(self):
        # edges on the lower half of the vertices only: the upper half's rows
        # are empty, and so is the upper triangle's row of the top used vertex
        rng = random.Random(18)
        n = refuter._LANCZOS_FROM + 20
        op = _graph_op(n, [tuple(sorted(rng.sample(range(n // 2), 2))) for _ in range(3 * n)], rng)
        assert n // 2 - 1 not in set(op.rows.tolist()) and op.degrees[n // 2 - 1] > 0
        scale = 1.0 / np.sqrt(refuter._gamma(op))
        values, _ = refuter._entries_at(op.entries, op.log_den, refuter._top_bits(op.entries))
        estimate = refuter._lanczos_top((op.rows, op.cols, values), scale)
        norm = _eigen_norm(op)
        assert abs(estimate - norm) <= 2.0**-26 * norm

    def test_lanczos_calls_repeat_bitwise(self):
        rng = random.Random(17)
        n = refuter._LANCZOS_FROM + 20
        op = _graph_op(n, [tuple(sorted(rng.sample(range(n), 2))) for _ in range(6 * n)], rng)
        first = spectral_certificate([op])[0]
        np.random.seed(99)
        np.random.standard_normal(7)  # the global generator plays no part
        assert spectral_certificate([op])[0] == first
        norm = _eigen_norm(op)
        assert norm <= first <= norm * (1 + 1e-7)


def _hexed(bounds) -> list:
    """Bounds as exact strings, None kept: equal lists are equal bit for bit."""
    return [None if b is None else float.hex(b) for b in bounds]


class TestBatchedProof:
    """One ``spectral_certificate`` call proves a batch of operators, and
    each bound is bit-identical to the operator's own proof: a matrix that
    needs a higher rung climbs alone, and one without proof leaves every
    other certificate as it was."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_batch_equals_its_operators_one_at_a_time(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        batch = []
        sides = data.draw(st.lists(st.integers(4, 7), min_size=2, max_size=2, unique=True))
        for n in sides:
            for _ in range(data.draw(st.integers(1, 4), label="count")):
                m = rng.randint(1, 20)
                edges = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(m)]
                weights = data.draw(st.lists(_weights(), min_size=m, max_size=m), label="weights")
                batch.append(_graph_op(n, edges, rng, weights))
        batch += [batch[0], batch[0]]  # duplicates
        batch.append(build_kikuchi(*coalesce(make_instance(4, [(0, 1), (0, 1)], [1, -1])), 1))
        assert not len(batch[-1].entries)
        n = sides[0]  # in a stack with others
        wide = _graph_op(n, [tuple(sorted(rng.sample(range(n), 2))) for _ in range(12)], rng,
                         weights=[Dyadic((1 << 60) + 1, 61)] * 12)
        assert refuter._top_bits(wide.entries) > 53  # the values carry errors and a tail
        n = refuter._LANCZOS_FROM + 4
        big = _graph_op(n, [tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)], rng)
        batch = data.draw(st.permutations(batch + [wide, big]), label="order")
        # small stacks too: one of side 7, three of side 4
        cap = data.draw(st.sampled_from((refuter._STACK_ENTRIES, 49)), label="stack entries")
        old, proves = refuter._STACK_ENTRIES, refuter._cholesky_proves
        seen = Counter()

        def recording(stack, diag, lam, shift):
            # what each operator's Cholesky reads: its diagonal, lam and shift
            seen.update(zip(map(bytes, diag), lam.tolist(), shift.tolist()))
            return proves(stack, diag, lam, shift)

        refuter._STACK_ENTRIES, refuter._cholesky_proves = cap, recording
        try:
            bounds = spectral_certificate(batch)
            in_batch = seen.copy()
            seen.clear()
            alone = [spectral_certificate([op])[0] for op in batch]
        finally:
            refuter._STACK_ENTRIES, refuter._cholesky_proves = old, proves
        assert _hexed(bounds) == _hexed(alone)
        # a stack that falls back proves its operators alone too, so only a
        # surplus is allowed
        assert not seen - in_batch
        for op, bound in zip(batch, bounds):
            if op.dim < 10:
                assert spectral_bound_holds(op, bound)

    def test_a_mixed_batch_equals_its_operators_alone(self, monkeypatch):
        """A Lanczos operator, small operators of two side lengths, one whose
        sums are all zero and one with entries past int64, in one batch:
        each bound is bit-identical to the operator's proof alone, and a
        batch proved again lays out none of its stacks."""
        rng = random.Random(234)
        small = [
            _graph_op(n, [tuple(sorted(rng.sample(range(n), 2))) for _ in range(m)], rng)
            for n, m in ((5, 7), (8, 20), (5, 9), (8, 13))
        ]
        zero = build_kikuchi(*coalesce(make_instance(5, [(0, 1), (0, 1)], [1, -1])), 1)
        w = Dyadic((1 << 70) - 1, 70)
        wide = build_kikuchi(*coalesce(make_instance(
            8, [(3, 6)] * 3 + [(0, 7), (1, 2)], [1, 1, 1, -1, 1], weights=[w] * 5
        )), 1)
        n = refuter._LANCZOS_FROM + 4
        big = _graph_op(n, [tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)], rng)
        assert zero.empty and wide.values.dtype == object and big.dim >= refuter._LANCZOS_FROM
        batch = [small[0], big, small[1], zero, wide, small[2], small[3]]
        alone = [spectral_certificate([op])[0] for op in batch]
        joined = refuter._Batch.of(batch)  # its shape lays out its stacks
        layouts = []
        layout = refuter._layout
        monkeypatch.setattr(refuter, "_layout", lambda *a: layouts.append(a) or layout(*a))
        for _ in range(2):
            assert _hexed(spectral_certificate(joined)) == _hexed(alone)
        assert not layouts
        assert alone[3] == 0.0 and None not in alone
        for op, bound in zip(batch, alone):
            if op.dim < 10:
                assert spectral_bound_holds(op, bound)

    @pytest.mark.parametrize("weight", [Dyadic(3, 4), Dyadic((1 << 60) + 1, 61)],
                             ids=["exact", "above-2^53"])
    def test_zero_positions_change_no_bit(self, weight):
        """An operator with positions whose sums are zero is proved bit for
        bit as the operator of its nonzero positions alone."""
        rng = random.Random(235)
        edges = [(0, 1), (0, 1), (2, 3), (1, 4), (3, 5), (0, 5), (2, 4)]
        rhs = [1, -1] + [rng.choice((1, -1)) for _ in edges[2:]]
        op = build_kikuchi(*coalesce(make_instance(6, edges, rhs, weights=[weight] * 7)), 2)
        assert 0 < len(op.entries) < len(op.values)
        pattern = KikuchiPattern(op.rows, op.cols, np.arange(len(op.entries)), op.degrees)
        nonzero = KikuchiOperator(op.n, op.k, op.r, op.m, pattern, op.entries, op.log_den,
                                  op.edge_multiplier)
        assert _hexed(spectral_certificate([op])) == _hexed(spectral_certificate([nonzero]))
        assert (op.dense_matrix() == nonzero.dense_matrix()).all()

    def test_a_low_estimate_climbs_the_ladder_alone(self, monkeypatch):
        rng = random.Random(19)
        ops = [build_kikuchi(*coalesce(random_instance(rng, 8, 2, 20)), 1) for _ in range(5)]
        estimates = []
        estimate = refuter._estimate_top
        monkeypatch.setattr(
            refuter, "_estimate_top", lambda *a: estimates.append(estimate(*a)) or estimates[-1]
        )
        honest = spectral_certificate(ops)
        [first] = estimates  # one stack
        assert len(set(first.tolist())) == 5
        low = first[2]

        def lowered(*args):
            top = estimate(*args)
            return np.where(top == low, top * (1 - 1e-9), top)

        monkeypatch.setattr(refuter, "_estimate_top", lowered)
        calls = []
        proves = refuter._cholesky_proves
        monkeypatch.setattr(
            refuter, "_cholesky_proves", lambda *a: calls.append(a[2].tolist()) or proves(*a)
        )
        bounds = spectral_certificate(ops)
        # the stack fails at the first rung; then each operator alone, in order
        stacked, singles = calls[0], [lam for call in calls[1:] for lam in call]
        assert len(stacked) == 5 and len(singles) == len(calls) - 1
        assert singles[:2] == stacked[:2] and singles[-2:] == stacked[3:]
        climbed = singles[2:-2]
        assert len(climbed) > 1 and climbed[0] == stacked[2] and climbed == sorted(set(climbed))
        assert _hexed(bounds[:2] + bounds[3:]) == _hexed(honest[:2] + honest[3:])
        assert bounds[2] > honest[2] and spectral_bound_holds(ops[2], bounds[2])

    def test_an_operator_without_proof_makes_only_its_part_uncertain(self, monkeypatch):
        rng = random.Random(230)
        tree = group_characters(to_layered(random_tree_circuit(rng, 6, 2, 2, 300, leaf_prob=0.4)))
        b = signs(rng, tree.prepared.m)
        estimates = []
        estimate = refuter._estimate_top
        monkeypatch.setattr(
            refuter, "_estimate_top", lambda *a: estimates.append(estimate(*a)) or estimates[-1]
        )
        before = tree.prepared.refute(b)
        seen = Counter(np.concatenate(estimates).tolist())
        low = next(top for top, count in seen.items() if count == 1)

        def halved(*args):
            top = estimate(*args)
            return np.where(top == low, top / 2, top)

        monkeypatch.setattr(refuter, "_estimate_top", halved)
        after = tree.prepared.refute(b)
        changed = [i for i, (x, y) in enumerate(zip(before, after)) if x != y]
        assert len(changed) == 1
        old, new = before[changed[0]], after[changed[0]]
        assert old.certified and (new.status, new.bound) == ("uncertain", 1.0)
        if old.breakdown:  # of the scheme's parts, only one changed
            parts = [(x, y) for x, y in zip(old.breakdown, new.breakdown) if x != y]
            assert len(parts) == 1 and parts[0][1].status == "uncertain"


class TestExactConversions:
    """Gamma and the dense matrix are bit-identical to the former per-entry
    conversions through Fraction and Dyadic."""

    @pytest.mark.parametrize("bits, dtype, scales", [
        (20, np.int64, 60), (62, np.int64, 90), (80, object, 90), (20, object, 60),
        (40, np.int64, 1200), (70, object, 1200),
    ], ids=["int64", "int64-past-2^53", "past-int64", "small-as-objects",
            "int64-past-scale-1074", "past-int64-and-scale-1074"])
    def test_a_scale_per_entry_matches_one_call_per_operator(self, bits, dtype, scales):
        """One ``_entries_at`` call with a scale per entry gives the values
        of one call per operator at its own scale, and their errors, 0 for
        an operator converted exactly; every error bounds its value's."""
        rng = random.Random(bits * scales)
        groups = []
        for _ in range(6):
            nums = [rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(1, 8))]
            groups.append((np.array(nums + [0], dtype=dtype), rng.randint(0, scales)))
        groups.append((np.array([3, -1 << bits], dtype=dtype), scales))
        nums = np.concatenate([g for g, _ in groups])
        log_scales = np.repeat([s for _, s in groups], [len(g) for g, _ in groups])
        values, errors = refuter._entries_at(nums, log_scales, refuter._top_bits(nums))
        alone = [refuter._entries_at(g, s, refuter._top_bits(g)) for g, s in groups]
        assert values.tobytes() == np.concatenate([v for v, _ in alone]).tobytes()
        assert (errors is None) == all(e is None for _, e in alone) == (bits <= 53 and scales <= 1074)
        if errors is None:
            errors = np.zeros(len(nums))
        expected = [np.zeros(len(v)) if e is None else e for v, e in alone]
        assert errors.tobytes() == np.concatenate(expected).tobytes()
        for num, scale, value, error in zip(nums.tolist(), log_scales.tolist(), values, errors):
            assert abs(Fraction(float(value)) - Fraction(num, 1 << scale)) <= Fraction(float(error))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_the_per_entry_conversions(self, data):
        n = data.draw(st.integers(2, 7), label="n")
        r = data.draw(st.integers(1, n - 1), label="r")
        dim = comb(n, r)
        keys = data.draw(
            st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), max_size=24),
            label="keys",
        )
        # numerators past 2^53 round once, as float(Dyadic) rounds them
        nums = st.one_of(st.integers(-8, 8), st.integers(-(1 << 80), 1 << 80)).filter(bool)
        entries = {(i, j): data.draw(nums, label="num") for i, j in sorted(keys) if i < j}
        rows = np.array([i for i, _ in entries], dtype=np.intp)
        pattern = KikuchiPattern(
            rows=rows,
            cols=np.array([j for _, j in entries], dtype=np.intp),
            edge=np.arange(len(rows)),
            degrees=int_array(data.draw(
                st.lists(st.integers(0, 1 << 60), min_size=dim, max_size=dim), label="degrees"
            )),
        )
        op = KikuchiOperator(
            n=n,
            k=2,
            r=r,
            m=data.draw(st.integers(1, 1 << 40), label="m"),
            pattern=pattern,
            values=int_array(list(entries.values())),
            log_den=data.draw(st.integers(0, 60), label="log_den"),
            edge_multiplier=data.draw(st.integers(1, 1 << 20), label="multiplier"),
        )
        assert refuter._gamma(op).tolist() == reference_gamma(op)
        dense = op.dense_matrix()
        assert dense.tobytes() == reference_dense_matrix(op).tobytes()
        assert np.count_nonzero(dense) == 2 * len(entries)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, 2.0**-1074, 2.0**-1022 - 2.0**-1074, 1.0]),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                st.integers(-(1 << 70), 1 << 70),
            ),
            max_size=12,
        )
    )
    @example(pairs=[(0.0, 1 << 70), (2.0**-1074, 1 - (1 << 70)), (1.0, 3), (2.0**-1022, -1)])
    def test_exact_sum_of_floats(self, pairs):
        """The sum of floats, weighted or not, is exact: zero, subnormals,
        1.0 and the largest floats among them, with 70-bit weights."""
        values = [v for v, _ in pairs]
        assert refuter._exact_sum(values) == sum(map(Fraction, values), Fraction(0))
        expected = sum((Fraction(v) * w for v, w in pairs), Fraction(0))
        assert refuter._exact_sum(values, [w for _, w in pairs]) == expected


def _check_split(inst):
    """``odd_to_even`` of a uniform odd-arity instance against the per-copy
    ``reference_odd_split``: the groups, the constant part, and every
    bucket's edges, copies, signed sums and Kikuchi matrix. Returns the split."""
    split = odd_to_even(*coalesce(inst))
    n_groups, diag, ref_buckets = reference_odd_split(inst)
    assert split.n_groups == n_groups
    assert split.diag_term == diag
    assert sorted(split.buckets) == sorted(ref_buckets)
    for size, ref in ref_buckets.items():
        bucket = split.buckets[size]
        assert (bucket.n, bucket.k, bucket.m) == (inst.n, size, ref.m)
        multiplicity = Counter(ref.scheme.hypergraph.edges)
        sums = dict.fromkeys(multiplicity, Fraction(0))
        for e, w, b in zip(ref.scheme.hypergraph.edges, ref.scheme.weights, ref.rhs):
            sums[e] += b * w.as_fraction()
        assert {
            e: (count, Fraction(total, 1 << bucket.log_den))
            for e, (count, total) in edge_table(bucket, split.sums).items()
        } == {edge_mask(e): (multiplicity[e], sums[e]) for e in multiplicity}
        # and the bucket's matrix is the per-copy bucket's matrix
        op = build_kikuchi(bucket, split.sums, size // 2)
        assert (dyadic_entries(op), tuple(op.degrees.tolist())) == reference_kikuchi(ref, size // 2)
        assert op.trace_degree == build_kikuchi(*coalesce(ref), size // 2).trace_degree
    return split


class TestOddSplit:
    def test_disjoint_groups(self):
        inst = make_instance(6, [(0, 1, 2), (3, 4, 5)], [1, 1])
        split = odd_to_even(*coalesce(inst))
        assert split.n_groups == 2
        assert split.diag_term == 2
        assert not split.buckets

    def test_shared_min_vertex(self):
        inst = make_instance(5, [(0, 1, 2), (0, 1, 3)], [1, 1])
        split = odd_to_even(*coalesce(inst))
        bucket = split.buckets[2]
        # the pair counts in both orders: two copies of (2, 3), each 1 * 1
        assert edge_table(bucket, split.sums) == {edge_mask((2, 3)): (2, 2)}
        assert (bucket.m, bucket.log_den) == (2, 0)

    def test_sign_flipped_pairs_cancel(self):
        inst = make_instance(5, [(0, 1, 2), (0, 1, 3), (0, 1, 2)], [1, 1, -1])
        split = odd_to_even(*coalesce(inst))
        # squares 3, and the parallel pair with opposite signs 2 * (-1)
        assert split.diag_term == 1
        assert edge_table(split.buckets[2], split.sums) == {edge_mask((2, 3)): (4, 0)}
        assert split.buckets[2].m == 4
        assert not len(build_kikuchi(split.buckets[2], split.sums, 1).entries)
        cert = refute(inst)
        assert cert.certified
        assert Fraction(cert.bound) >= brute_val(inst) == Fraction(1, 3)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_pair_reference(self, data):
        k = data.draw(st.sampled_from((3, 5)), label="k")
        n = data.draw(st.integers(min_value=k, max_value=8), label="n")
        edge_strategy = st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k, unique=True
        ).map(lambda e: tuple(sorted(e)))
        # few distinct edges, so that edges share minimum vertices and repeat
        pool = data.draw(
            st.lists(edge_strategy, min_size=1, max_size=4, unique=True), label="pool"
        )
        copies = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(pool),
                    st.one_of(st.just(Dyadic(0)), _weights()),
                    st.sampled_from((1, -1)),
                ),
                min_size=1,
                max_size=16,
            ),
            label="copies",
        )
        # a twin flips the sign of every pair it forms, so pair sums cancel
        twins = data.draw(
            st.lists(st.booleans(), min_size=len(copies), max_size=len(copies)),
            label="twins",
        )
        copies += [(e, w, -b) for (e, w, b), twin in zip(copies, twins) if twin]
        _check_split(make_instance(
            n,
            [e for e, _, _ in copies],
            [b for _, _, b in copies],
            weights=[w for _, w, _ in copies],
            arity=k,
        ))

    @pytest.mark.parametrize("n", [63, 64, 70])
    def test_masks_at_and_past_63_vertices(self, n):
        # masks are int64 up to 63 vertices and go through object arrays past them
        t = n - 1
        edges = [
            (0, t - 5, t), (0, 1, t - 5), (0, t - 4, t - 3),
            (t - 6, t - 5, t), (t - 6, t - 4, t - 1), (2, t - 4, t - 2),
        ]
        split = _check_split(make_instance(n, edges * 2, [1, -1, 1, 1, -1, 1] * 2))
        assert split.n_groups == 3
        assert max(max(bucket.edges) for bucket in split.buckets.values()).bit_length() == n

    @pytest.mark.parametrize("log_den", [40, 55, 70])
    def test_products_past_2_63_stay_exact(self, log_den):
        # weights at 2^-log_den: their pair products pass 2^63, and at
        # 2^-70 the signed sums themselves do
        top = 1 << log_den
        copies = [
            ((0, 1, 2), Dyadic(top - 1, log_den), 1), ((0, 1, 3), Dyadic(-top + 3, log_den), 1),
            ((0, 2, 4), Dyadic(top - 7, log_den), -1), ((0, 1, 2), Dyadic(top - 5, log_den), 1),
            ((1, 2, 3), Dyadic(top - 9, log_den), -1), ((1, 3, 4), Dyadic(-top + 1, log_den), 1),
        ]
        inst = make_instance(
            5, [e for e, _, _ in copies], [b for _, _, b in copies],
            weights=[w for _, w, _ in copies],
        )
        split = _check_split(inst)
        assert max(abs(s) for s in split.sums.tolist()) >= 1 << 63

    def test_no_live_edge_has_no_group(self):
        zero = Dyadic(0)
        inst = make_instance(
            5, [(0, 1, 2), (0, 1, 3), (1, 2, 4)], [1, -1, 1], weights=[zero] * 3
        )
        split = _check_split(inst)
        assert (split.n_groups, split.diag_term, split.buckets) == (0, 0, {})

    def test_single_member_groups_pair_nothing(self):
        # every lowest vertex is that of one distinct edge, parallel copies aside
        inst = make_instance(
            6, [(0, 1, 2), (1, 2, 3), (2, 3, 5), (1, 2, 3), (3, 4, 5)], [1, 1, -1, 1, -1]
        )
        split = _check_split(inst)
        assert (split.n_groups, split.diag_term, split.buckets) == (4, 7, {})

    def test_parallel_edges_fold_into_diag(self):
        inst = make_instance(3, [(0, 1, 2), (0, 1, 2)], [1, 1])
        split = odd_to_even(*coalesce(inst))
        assert split.diag_term == 4
        assert not split.buckets

    def test_rejects_even(self):
        with pytest.raises(ValidationError):
            odd_to_even(*coalesce(make_instance(4, [(0, 1)], [1])))


class TestRefute:
    def test_single_constraint(self):
        inst = make_instance(2, [(0, 1)], [1])
        cert = refute(inst, RefuteParams(mode="trace", ell=2))
        assert cert.certified
        assert (cert.mode, cert.ell) == ("trace", 2)
        # the engine's bound, 2 * sqrt(1/2), is clamped at the trivial bound
        assert math.isclose(2 * trace_certificate(build_kikuchi(*coalesce(inst), 1), 2)[0], math.sqrt(2))
        assert cert.bound == 1.0
        assert Fraction(cert.bound) >= brute_val(inst)

    def test_single_edge_clamped_at_one(self):
        inst = make_instance(4, [(0, 1)], [1])
        assert 2 * spectral_certificate([build_kikuchi(*coalesce(inst), 1)])[0] > 1.0
        cert = refute(inst)
        assert cert.certified
        assert cert.bound == 1.0
        assert Fraction(cert.bound) >= brute_val(inst)

    @pytest.mark.parametrize("value", [True, 1.0, -1.0, np.int64(1)], ids=repr)
    def test_rhs_of_another_type_is_its_sign(self, value):
        prepared = refuter._prepare_instance(make_instance(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1] * 4))
        b = [1, -1, value, 1]
        expected = prepared.refute([1, -1, int(value), 1])
        assert [c.to_json() for c in prepared.refute(b)] == [c.to_json() for c in expected]

    @pytest.mark.parametrize("value", ["1", None, 0, 2, 1.5], ids=repr)
    def test_rhs_not_a_sign_is_rejected(self, value):
        prepared = refuter._prepare_instance(make_instance(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1] * 4))
        with pytest.raises(ValidationError) as err:
            prepared.refute([1, -1, value, 1])
        assert err.value.violations == [f"edge 2: rhs {value} not in {{+1, -1}}"]

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
        [(0, 1, 2), (1, 2, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2)],
        [(), (0,), (0, 1), (1, 2, 3), (0, 1, 2, 3)],
    ], ids=["even", "odd", "mixed"])
    def test_a_weight_at_the_log_den_cap_refutes(self, edges):
        weights = [Dyadic(1, MAX_LOG_DEN), Dyadic(1), Dyadic(-3, 2), Dyadic((1 << 70) - 1, 70), Dyadic(1)]
        inst = make_instance(4, edges, [1, -1, 1, 1, -1], weights=weights)
        cert = refute(inst)
        assert cert.certified
        # the oracle's int64 totals do not reach this scale; Fractions do
        assert Fraction(cert.bound) >= max(inst.value(x) for x in product((1, -1), repeat=4))

    @pytest.mark.parametrize("vertex", [1.5, "1", None])
    def test_a_non_integer_vertex_is_rejected(self, vertex):
        inst = make_instance(4, [(0, vertex), (1, 2)], [1, 1])
        with pytest.raises(ValidationError) as err:
            refute(inst)
        assert err.value.violations == [f"edge 0: non-integer vertex in {(0, vertex)}"]

    def test_an_instance_is_checked_and_packed_once(self, monkeypatch):
        inst = random_instance(random.Random(3), 6, 3, 40)
        first = refute(inst)
        packed, signs = inst.scheme.hypergraph.packed, inst.signs
        monkeypatch.setattr(refuter, "sign_array", None)  # a second check would fail
        assert refute(inst) == first
        assert inst.scheme.hypergraph.packed is packed and inst.signs is signs

    def test_dense_cap_checked_before_build(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("r-subsets enumerated")

        # build_kikuchi checks the cap before it enumerates a single r-subset
        monkeypatch.setattr(refuter, "combinations", no_enumeration)
        # dimension C(24, 4) = 10626 is above dense_cap
        inst = random_instance(random.Random(11), 24, 4, 2000)
        uncertain = Certificate(mode="spectral", bound=1.0, status="uncertain", r=4)
        assert refute(inst, RefuteParams(r=4)) == uncertain
        assert refute(inst, RefuteParams(r=4, ell=3, mode="spectral")) == uncertain
        cert = refute(inst, RefuteParams(r=4, mode="trace"))
        assert cert == replace(uncertain, mode="trace", ell=default_ell(4, 24))
        for ell in (0, 3):
            with pytest.raises(ValidationError):
                refute(inst, RefuteParams(r=4, ell=ell, mode="trace"))

    def test_cancelling_pairs(self):
        assert refute(make_instance(2, [(0, 1), (0, 1)], [1, -1])).bound == 0.0
        assert refute(make_instance(1, [(0,), (0,)], [1, -1])).bound == 0.0

    def test_weights_beyond_53_bits_take_the_exact_integer_path(self):
        a, b = Dyadic((1 << 60) - 1, 60), Dyadic((1 << 59) - 1, 59)
        inst = make_instance(2, [(0,), (0,), (0, 1)], [1, -1, 1], weights=[a, b, Dyadic(0)])
        prepared = refuter._prepare_instance(inst)
        # (1 - 2^-60) - (1 - 2^-59) = 2^-60, which rounds to 0 as floats; the
        # zero weight's shift of 60 makes the units Python ints, summed exactly
        sums = prepared.signed_sums(inst.rhs)
        assert prepared.units.dtype == sums.dtype == object
        assert sums.tolist() == [1, 0]
        cert = refute(inst)
        assert [c.bound for c in cert.breakdown] == [2.0 ** -61, 0.0]
        best = max(inst.value(x) for x in ((1, 1), (-1, 1)))
        assert Fraction(cert.bound) >= best == Fraction(1, 3 << 60)

    def test_int64_sums_match_the_python_int_sums(self):
        # units up to 2^45 on 200 copies, in int64, and again as Python ints
        rng = random.Random(21)
        for log_den in (3, 30, 45):
            edges = [tuple(sorted(rng.sample(range(6), rng.choice((1, 2))))) for _ in range(200)]
            weights = [Dyadic(rng.randint(-(1 << log_den), 1 << log_den), log_den) for _ in edges]
            inst = make_instance(6, edges, [rng.choice((1, -1)) for _ in edges], weights=weights)
            prepared = refuter._prepare_instance(inst)
            assert prepared.units.dtype == np.int64
            expected = [0] * prepared.n_rows
            for part in prepared.schemes[0].parts:
                for row, edge in enumerate(part.edges, part.rows.start):
                    expected[row] = sum(
                        b * w.scaled(prepared.schemes[0].log_den)
                        for e, w, b in zip(edges, weights, inst.rhs)
                        if edge_mask(e) == edge
                    )
            assert prepared.signed_sums(inst.rhs).tolist() == expected
            wide = replace(prepared, units=prepared.units.astype(object)).signed_sums(inst.rhs)
            assert wide.dtype == object and wide.tolist() == expected

    def test_k0_direct(self):
        inst = make_instance(2, [(), (), ()], [1, 1, -1], arity=0)
        cert = refute(inst)
        assert cert.mode == "direct"
        # rounded up to the nearest float at or above the exact value
        assert 0 <= Fraction(cert.bound) - Fraction(1, 3) < Fraction(1, 10**12)

    def test_mixed_arity_breakdown(self):
        inst = make_instance(4, [(0,), (0, 1), (1, 2, 3)], [1, -1, 1])
        cert = refute(inst)
        assert cert.certified
        assert len(cert.breakdown) == 3
        assert Fraction(cert.bound) >= brute_val(inst)

    def test_empty_instance(self):
        inst = make_instance(3, [], [], arity=2)
        assert refute(inst).bound == 0.0

    def test_uncertain_on_caps(self):
        inst = random_instance(random.Random(6), 12, 4, 20)
        cert = refute(inst, RefuteParams(dense_cap=5))
        assert cert.status == "uncertain"
        assert cert.bound == 1.0

    def test_explicit_small_r_is_lifted(self):
        inst = random_instance(random.Random(7), 8, 4, 10)
        cert = refute(inst, RefuteParams(r=1))
        assert cert.certified
        assert cert.r == 2

    def test_odd_refute_validates_once_and_never_a_bucket(self, monkeypatch):
        inst = random_instance(random.Random(12), 9, 3, 40)
        refutes = []
        validated = []
        real_refute, real_validate = refuter.refute, refuter.validate_instance

        def counting_refute(*args, **kwargs):
            refutes.append(args[0])
            return real_refute(*args, **kwargs)

        def recording_validate(x):
            validated.append(x)
            real_validate(x)

        monkeypatch.setattr(refuter, "refute", counting_refute)
        monkeypatch.setattr(refuter, "validate_instance", recording_validate)
        cert = refuter.refute(inst)
        assert len(cert.breakdown) == 2  # buckets of sizes 2 and 4
        assert refutes == [inst]
        assert 1 <= len(validated) <= 2
        assert all(x is inst for x in validated)

    def test_mixed_refute_validates_its_input_once_and_never_recurses(self, monkeypatch):
        inst = make_instance(
            6,
            [(), (2,), (0, 1), (0, 1, 2), (0, 1, 3), (1, 3, 4, 5)],
            [1, -1, 1, -1, 1, 1],
            weights=[Dyadic(1, 1), Dyadic(0), Dyadic(3, 2), Dyadic(1), Dyadic(-1, 1), Dyadic(1)],
        )
        refutes = []
        validated = []
        real_refute, real_validate = refuter.refute, refuter.validate_instance

        def counting_refute(*args, **kwargs):
            refutes.append(args[0])
            return real_refute(*args, **kwargs)

        def recording_validate(x):
            validated.append(x)
            real_validate(x)

        monkeypatch.setattr(refuter, "refute", counting_refute)
        monkeypatch.setattr(refuter, "validate_instance", recording_validate)
        # under split_weights the zero-weight arity-1 part has no copies
        for params, parts in ((RefuteParams(), 5), (RefuteParams(split_weights=True), 4)):
            refutes.clear()
            validated.clear()
            cert = refuter.refute(inst, params)
            assert len(cert.breakdown) == parts
            assert refutes == [inst]
            assert validated == [inst]

    def test_json_roundtrip(self):
        inst = make_instance(4, [(0,), (0, 1), (1, 2, 3)], [1, -1, 1])
        cert = refute(inst)
        again = certificate_from_obj(__import__("json").loads(cert.to_json()))
        assert again == cert


class TestPrepareInstance:
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_copy_reference(self, seed):
        """Field for field, over instances of mixed edge sizes with parallel
        copies, zero weights and weights whose units pass 2^53 and 2^63."""
        rng = random.Random(seed)
        m = rng.randint(0, 12)
        n = rng.randint(1, 6)
        sizes = rng.sample(range(min(4, n) + 1), rng.randint(1, 2))
        big = rng.random() < 0.2
        edges, weights = [], []
        for _ in range(m):
            if edges and rng.random() < 0.3:
                edge = rng.choice(edges)
            else:
                edge = tuple(sorted(rng.sample(range(n), rng.choice(sizes))))
            if rng.random() < 0.3:
                w = Dyadic(0)
            elif big:
                w = Dyadic(rng.randint(-(1 << 70), 1 << 70), 70)
            else:
                w = Dyadic(rng.randint(-8, 8), rng.randint(0, 3))
            edges.append(edge)
            weights.append(w)
        inst = make_instance(n, edges, signs(rng, m), weights=weights)
        copies = list(zip(range(m), edges, weights))
        prepared = refuter._prepare_instance(inst)
        assert prepared_fields(prepared) == (
            prepared_fields(reference_prepare_copies(m, [(n, copies, {})]))
        )
        # under split_weights each edge has sum |w| * 2^L copies, per copy
        log_den = prepared.schemes[0].log_den
        units: dict[int, dict[int, int]] = {}
        for edge, w in zip(edges, weights):
            if w.num:
                per_edge = units.setdefault(len(edge), {})
                per_edge[edge_mask(edge)] = per_edge.get(edge_mask(edge), 0) + abs(w.scaled(log_den))
        sums = prepared.signed_sums(inst.rhs)
        rows, (scheme,) = prepared.unit_schemes
        assert {
            part.k: (part.m, dict(zip(part.edges, part.copies))) for part in scheme.parts
        } == {k: (sum(per_edge.values()), per_edge) for k, per_edge in units.items()}
        # each unit part reads its edges' own signed sums
        assert {
            edge: total for part in scheme.parts for edge, (_, total) in edge_table(part, sums[rows]).items()
        } == {
            edge: total for part in prepared.schemes[0].parts
            for edge, (_, total) in edge_table(part, sums).items() if edge in units.get(part.k, {})
        }


def _random_rows(rng: random.Random, pool: list[int], width: int, n_schemes: int):
    """Rows of copies for ``prepare_rows`` in scheme order, with their
    per-copy description for ``reference_prepare_copies``: sorted edges of
    mixed sizes over the vertex pool, padded with -1, repeated edges, and
    zero-weight rows of one or more copies. A zero-weight row stands for
    its copies in place, so first rows and first appearances agree."""
    scheme, edges, outputs, units, counts = [], [], [], [], []
    described = []
    m = 12
    for j in range(n_schemes):
        log_den = rng.randint(0, 3)
        copies, seen = [], []
        for _ in range(rng.randint(0, 10)):
            if seen and rng.random() < 0.4:
                edge = rng.choice(seen)
            else:
                edge = tuple(sorted(rng.sample(pool, rng.randint(0, min(width, len(pool))))))
                seen.append(edge)
            zero = rng.random() < 0.3
            count = rng.randint(1, 3) if zero else 1
            out = rng.randrange(m)
            num = 0 if zero else rng.choice([-1, 1]) * rng.randint(1, 8)
            scheme.append(j)
            edges.append(edge + (-1,) * (width - len(edge)))
            outputs.append(out)
            units.append(num)
            counts.append(count)
            copies += [(out, edge, Dyadic(num, log_den))] * count
        described.append((max(pool, default=0) + 1, copies, {}, log_den))
    rows = (
        np.array(scheme, dtype=np.int64),
        np.array(edges, dtype=np.int64).reshape(len(edges), width),
        np.array(outputs, dtype=np.int64),
        np.array(units, dtype=np.int64),
        np.array(counts, dtype=np.int64),
    )
    return m, described, rows


# vertex pools that take each path of the numbering: a table over the code
# space, one sort of the codes, the same with Python-int vertex masks, and
# (at width 4, where 65,537^4 > 2^63) a sort of the columns
_POOLS = {
    "table": lambda rng: list(range(4)),
    "sorted codes": lambda rng: rng.sample(range(40), 8),
    "masks past 63": lambda rng: rng.sample(range(60, 140), 8),
    "past int64": lambda rng: rng.sample(range((1 << 16) - 40, 1 << 16), 8),
}


class TestNumbering:
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        pool=st.sampled_from(sorted(_POOLS)),
        width=st.integers(0, 4),
        n_schemes=st.integers(0, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_prepare_rows_numbers_as_the_reference(self, seed, pool, width, n_schemes):
        """Every row's number and every distinct key, in number order, as
        the column sort numbers them, and every field as the per-copy
        reference prepares it: mixed sizes, -1 padding, zero-weight rows,
        empty inputs, vertices past 63 and codes past int64."""
        rng = random.Random(seed)
        m, described, rows = _random_rows(rng, _POOLS[pool](rng), width, n_schemes)
        scheme, edges, outputs, units, counts = rows
        keys = np.column_stack((scheme, (edges >= 0).sum(axis=1), edges))
        number, distinct = reference_number_distinct(keys)
        got_number, got_distinct = refuter._number_rows(scheme, edges, n_schemes)
        assert got_number.tolist() == number.tolist()
        assert got_distinct.tolist() == distinct.reshape(len(distinct), width + 2).tolist()

        schemes = [(n, log_den) for n, _, _, log_den in described]
        prepared = refuter.prepare_rows(m, schemes, scheme, edges, outputs, units, counts)
        assert prepared.rows.tolist() == number[units != 0].tolist()
        assert prepared.n_rows == len(distinct)
        parts = [part for s in prepared.schemes for part in s.parts]
        assert [(j, part.k) for j, s in enumerate(prepared.schemes) for part in s.parts] == sorted(
            set(map(tuple, distinct[:, :2].tolist()))
        )
        assert [mask for part in parts for mask in part.edges] == [
            edge_mask(v for v in key if v >= 0) for key in distinct[:, 2:].tolist()
        ]
        assert prepared_fields(prepared) == prepared_fields(reference_prepare_copies(
            m, [(n, copies, zeros) for n, copies, zeros, _ in described]
        ))

    @pytest.mark.parametrize("pool", sorted(_POOLS))
    def test_each_path_on_many_rows(self, pool):
        """Hundreds of rows over few distinct keys, so that the table path
        is taken where the code space is small (5^4 codes per scheme)."""
        rng = random.Random(pool)
        vertices = _POOLS[pool](rng)
        width, count = 4, 600
        edges = np.full((count, width), -1, dtype=np.int64)
        scheme = np.sort(np.array([rng.randrange(3) for _ in range(count)], dtype=np.int64))
        for i in range(count):
            edge = sorted(rng.sample(vertices, rng.randint(0, width)))
            edges[i, :len(edge)] = edge
        keys = np.column_stack((scheme, (edges >= 0).sum(axis=1), edges))
        number, distinct = reference_number_distinct(keys)
        got_number, got_distinct = refuter._number_rows(scheme, edges, 3)
        assert got_number.tolist() == number.tolist()
        assert got_distinct.tolist() == distinct.tolist()


# Instances whose unit copies under split_weights leave the float range:
# a weight at the scale 2^-1100 beside weights of size 1
_FINE_SPLITS = {
    "even": (4, [(0, 1), (1, 2)], [1, -1], [Dyadic(1, 1100), Dyadic(1, 0)]),
    "odd": (6, [(0, 1, 2), (0, 1, 3), (1, 2, 4), (0, 2, 5)], [1, -1, 1, 1],
            [Dyadic(1, 1100), Dyadic(1, 0), Dyadic(1, 0), Dyadic(3, 2)]),
    "mixed": (4, [(0,), (1,), (2, 3)], [1, -1, 1], [Dyadic(1, 1100), Dyadic(1, 0), Dyadic(1, 0)]),
}


class TestWeightSplitting:
    @pytest.mark.parametrize("mode", ["auto", "trace"])
    @pytest.mark.parametrize("case", sorted(_FINE_SPLITS))
    def test_unit_copies_past_the_float_range_are_uncertain(self, case, mode):
        """A part whose unit copies would put its degrees, or the square of
        its copies, past the float range is uncertain at bound 1 under
        split_weights; the default knobs certify the instance."""
        n, edges, rhs, weights = _FINE_SPLITS[case]
        inst = make_instance(n, edges, rhs, weights=weights)
        assert refute(inst, RefuteParams(mode=mode)).certified
        cert = refute(inst, RefuteParams(mode=mode, split_weights=True))
        assert cert.status == "uncertain" and cert.bound == 1.0

    @pytest.mark.parametrize("mode", ["auto", "trace"])
    def test_an_odd_fold_past_the_float_range_is_at_the_trivial_bound(self, mode):
        """Odd unit copies below 2^511 whose fold passes the float range:
        33 groups times the 2^1019 copies of the one bucket edge. Whether
        the bucket is proved (trace) or not (spectral), the bound is 1."""
        edges = [(0, 1, 2), (0, 3, 4)] + [(v, 38, 39) for v in range(5, 37)]
        weights = [Dyadic(1, 1)] * 2 + [Dyadic(1, 510)] * 32
        inst = make_instance(40, edges, [1] * len(edges), weights=weights)
        assert refute(inst, RefuteParams(mode=mode)).bound < 1.0
        assert refute(inst, RefuteParams(mode=mode, split_weights=True)).bound == 1.0

    def test_a_rescale_past_the_float_range_clamps_at_one(self):
        """Arity 1 with unit copies past the float range: the rescale by
        m'/m passes it too, and the bound is clamped at 1."""
        inst = make_instance(4, [(0,), (1,)], [1, -1], weights=[Dyadic(1, 3000), Dyadic(1, 0)])
        cert = refute(inst, RefuteParams(split_weights=True))
        assert cert.certified and cert.bound == 1.0

    def test_term_sums_agree(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(2, 6)
            inst = random_instance(rng, n, 2, rng.randint(1, 10), weighted=True)
            split, scale = split_to_unit_weights(inst)
            assert scale == Fraction(split.m, inst.m)
            assert brute_val(inst) * inst.m == brute_val(split) * split.m
            x = [rng.choice((1, -1)) for _ in range(n)]
            assert inst.term_sum(x) == split.term_sum(x)

    def test_flag_matches_the_per_granule_reference(self):
        """refute with split_weights is, byte for byte, refute of the unit
        split followed by the rescale by m'/m and the clamp at 1."""
        rng = random.Random(10)
        for trial in range(150):
            n = rng.randint(4, 8)
            sizes = rng.sample(range(5), rng.choice((1, 2, 3)))
            edges, weights, rhs = [], [], []
            for _ in range(rng.randint(1, 12)):
                edges.append(tuple(sorted(rng.sample(range(n), rng.choice(sizes)))))
                log_den = rng.randint(0, 2)
                num = rng.randint(-(1 << log_den), 1 << log_den) if rng.random() < 0.7 else 0
                weights.append(Dyadic(num, log_den))
                rhs.append(rng.choice((1, -1)))
            if trial % 5 == 0:  # parallel copies
                edges, weights, rhs = edges * 2, weights + weights[::-1], rhs * 2
            inst = make_instance(n, edges, rhs, weights=weights)
            params = RefuteParams(mode=("auto", "trace", "spectral")[trial % 3])
            split, scale = split_to_unit_weights(inst)
            expected = refute(split, params)
            if expected.certified:
                rescaled = refuter._float_up(Fraction(expected.bound) * scale)
                expected = replace(expected, bound=min(rescaled, 1.0))
            got = refute(inst, replace(params, split_weights=True))
            assert got.to_json() == expected.to_json(), trial

    def test_refute_flag_rescales_soundly(self):
        rng = random.Random(9)
        for _ in range(20):
            inst = random_instance(rng, 6, 2, rng.randint(2, 12), weighted=True)
            cert = refute(inst, RefuteParams(split_weights=True))
            if cert.certified:
                assert Fraction(cert.bound) >= brute_val(inst)


def _shared_stack_set(rng: random.Random) -> refuter.PreparedSchemes:
    """Six 2-XOR schemes over one right-hand side of 40 positions, so that
    the operators of each side length (8, 6, 8, 8, 6, 8 at level 1) share
    a stack: ten random edges each, but the third scheme, two copies of one
    edge at positions 0 and 1."""
    sides = (8, 6, 8, 8, 6, 8)
    rows = []  # (scheme, edge, rhs position, units at the scale 2^-3)
    for j, n in enumerate(sides):
        if j == 2:
            rows += [(j, (0, 1), 0, 1), (j, (0, 1), 1, 1)]
            continue
        for _ in range(10):
            rows.append((j, tuple(sorted(rng.sample(range(n), 2))), rng.randrange(2, 40), rng.randint(1, 8)))
    scheme, edges, outputs, units = (np.array(column) for column in zip(*rows))
    counts = np.ones(len(rows), dtype=np.int64)
    return refuter.prepare_rows(40, [(n, 3) for n in sides], scheme, edges, outputs, units, counts)


def _emptying(rng: random.Random, m: int, empty: bool) -> list[int]:
    """A random target of ``_shared_stack_set``, whose third scheme's
    operator it leaves without entries if ``empty``."""
    b = [rng.choice((1, -1)) for _ in range(m)]
    b[1] = -b[0] if empty else b[0]
    return b


class TestPatternReuse:
    def test_targets_reuse_the_pattern_and_match_a_fresh_refute(self, monkeypatch):
        """Prepared schemes build each part's pattern once per level, at its
        first target, and every later target's certificate is byte-identical
        to a fresh refute of its instance; the parts under split_weights
        are prepared once too, and build their own patterns at their first
        target."""
        rng = random.Random(230)
        ens = group_characters(to_layered(random_tree_circuit(rng, 6, 2, 2, 120, leaf_prob=0.4)))
        built = []
        real = refuter._kikuchi_pattern
        monkeypatch.setattr(refuter, "_kikuchi_pattern", lambda *a: built.append(a) or real(*a))
        targets = [signs(rng, ens.prepared.m) for _ in range(6)]
        runs = [(b, RefuteParams()) for b in targets]
        later = (RefuteParams(split_weights=True), RefuteParams(r=2), RefuteParams(mode="trace"))
        runs += [(b, p) for p in later for b in targets[:2]]
        builds = []  # patterns built by each prepared call
        for b, params in runs:
            built.clear()
            got = [c.to_json() for c in ens.prepared.refute(b, params)]
            builds.append(len(built))
            fresh = [refute(inst, params).to_json() for _, inst in sorted(attach_rhs(ens, b).items())]
            assert got == fresh, params
        # only the first target of each level and of each set of parts
        # builds: the arity-2 parts at their own level, the unit parts of
        # split_weights at theirs, then the arity-2 parts at r=2; mode trace
        # reads the default levels, whose patterns are built
        assert builds[0] > 0 and builds[1:6] == [0] * 5
        assert builds[6] == builds[0] and builds[7] == 0
        assert builds[8] > 0 and builds[9] == 0
        assert builds[10:] == [0, 0]

    @pytest.mark.parametrize("params", [RefuteParams(), RefuteParams(split_weights=True)],
                             ids=["default", "split_weights"])
    def test_odd_parts_keep_their_pairing(self, monkeypatch, params):
        """On a t=3 tree ensemble, whose arity-3 keys take the odd split,
        the first target builds every pattern and every pairing, and later
        ones build neither; every target's certificates are byte-identical
        to a fresh refute of its instances."""
        rng = random.Random(234)
        ens = group_characters(to_layered(random_tree_circuit(rng, 8, 1, 3, 600, leaf_prob=0.4)))
        counts = Counter()
        real = refuter._kikuchi_pattern
        monkeypatch.setattr(
            refuter, "_kikuchi_pattern", lambda *a: counts.update(["pattern"]) or real(*a)
        )
        # the kept descriptor now counts each pairing it builds
        pairing = vars(refuter.PreparedPart)["pairing"]
        build = pairing.func
        monkeypatch.setattr(pairing, "func", lambda part: counts.update(["pairing"]) or build(part))
        per_target = []
        for _ in range(8):
            counts.clear()
            b = signs(rng, ens.prepared.m)
            got = [c.to_json() for c in ens.prepared.refute(b, params)]
            per_target.append(dict(counts))
            fresh = [refute(inst, params).to_json() for _, inst in sorted(attach_rhs(ens, b).items())]
            assert got == fresh
        assert per_target[0]["pairing"] > 0 and per_target[0]["pattern"] > 0
        assert per_target[1:] == [{}] * 7

    def test_later_targets_compute_no_reweighting(self, monkeypatch):
        """The reweighting of every pattern, and the layout of every stack,
        come from the first target: later ones compute neither, nor a
        pattern, also where one of their operators has no entries."""
        rng = random.Random(232)
        ens = group_characters(to_layered(random_tree_circuit(rng, 6, 2, 2, 120, leaf_prob=0.4)))
        counts = Counter()
        for name in ("_gamma_of", "_kikuchi_pattern", "_layout"):
            real = getattr(refuter, name)
            monkeypatch.setattr(
                refuter, name, lambda *a, name=name, real=real: counts.update([name]) or real(*a)
            )
        per_target = []
        for _ in range(5):
            counts.clear()
            # a target with no all-zero operator keeps the batch, and so its stacks, the same
            b = [1] * ens.prepared.m
            b[rng.randrange(len(b))] = -1
            ens.prepared.refute(b)
            per_target.append(dict(counts))
        assert per_target[0]["_gamma_of"] == per_target[0]["_kikuchi_pattern"] > 0
        assert per_target[0]["_layout"] > 0
        assert per_target[1:] == [{}] * 4
        prepared = _shared_stack_set(rng)
        prepared.refute(_emptying(rng, prepared.m, False))
        counts.clear()
        certs = prepared.refute(_emptying(rng, prepared.m, True))
        assert certs[2].bound == 0.0 and not counts

    @pytest.mark.parametrize("params", [RefuteParams(), RefuteParams(split_weights=True)],
                             ids=["default", "split_weights"])
    def test_targets_that_empty_an_operator_in_turn_lay_out_nothing(self, monkeypatch, params):
        """On a prepared set whose operators of each side length share a
        stack, targets that alternate between leaving one of them without
        entries and not lay out every stack at the first target alone, and
        match the walk over the schemes."""
        rng = random.Random(238)
        prepared = _shared_stack_set(rng)
        counts = Counter()
        for name in ("_gamma_of", "_layout"):
            real = getattr(refuter, name)
            monkeypatch.setattr(
                refuter, name, lambda *a, name=name, real=real: counts.update([name]) or real(*a)
            )
        per_target = []
        for i in range(6):
            b = _emptying(rng, prepared.m, i % 2 == 0)
            counts.clear()
            got = [c.to_json() for c in prepared.refute(b, params)]
            per_target.append(dict(counts))
            assert got == [c.to_json() for c in reference_prepared_refute(prepared, b, params)]
            assert (json.loads(got[2])["bound"] == 0.0) == (i % 2 == 0)
        assert per_target[0]["_layout"] > 0
        assert per_target[1:] == [{}] * 5

    def test_a_reused_ensemble_matches_a_fresh_one(self):
        """Certificates from an ensemble that keeps its patterns and layouts
        from earlier targets are byte-identical to those of an ensemble
        grouped afresh for each target."""
        rng = random.Random(233)
        circuit = to_layered(random_tree_circuit(rng, 6, 2, 2, 150, leaf_prob=0.4))
        warm = group_characters(circuit)
        for _ in range(5):
            b = signs(rng, warm.prepared.m)
            cold = group_characters(circuit)
            got = [c.to_json() for c in warm.prepared.refute(b)]
            assert got == [c.to_json() for c in cold.prepared.refute(b)]


def _mixed_instance(rng: random.Random, n: int, m: int):
    """m copies of edge sizes 0 to 5 on n variables, weighted at mixed scales."""
    edges = [tuple(sorted(rng.sample(range(n), rng.randint(0, 5)))) for _ in range(m)]
    weights = []
    for _ in edges:
        log_den = rng.randint(0, 3)
        weights.append(Dyadic(rng.randint(-(1 << log_den), 1 << log_den), log_den))
    return make_instance(n, edges, signs(rng, m), weights=weights)


# Knobs under which auto must equal spectral; ell=3, a bad trace power, is
# read by neither
_AUTO_PARAMS = [
    RefuteParams(),
    RefuteParams(split_weights=True),
    RefuteParams(r=3),
    RefuteParams(ell=3),
    RefuteParams(dense_cap=5),
]


class TestZeroSchemes:
    def test_zero_schemes_share_one_certificate(self, monkeypatch):
        """Only the schemes with a live copy are refuted; every other key of
        a tree ensemble gets the shared bound-0 certificate, which is what
        its dense instance refutes to."""
        rng = random.Random(220)
        ens = group_characters(to_layered(random_tree_circuit(rng, 6, 2, 2, 120, leaf_prob=0.4)))
        prepared = ens.prepared
        built = []
        original = refuter.build_kikuchi
        monkeypatch.setattr(
            refuter, "build_kikuchi", lambda part, *rest: built.append(part) or original(part, *rest)
        )
        b = signs(rng, prepared.m)
        certs = prepared.refute(b)
        # the plan places every nonzero scheme, with a place per part of
        # each one of several parts, and no other scheme; it builds only
        # their parts
        [plan] = prepared.plans.values()
        nonzero = [prepared.schemes[j] for j in prepared.nonzero]
        assert len(plan.pick) == len(nonzero)
        assert {at: len(places) for at, _, _, places in plan.mixed} == {
            at: len(s.parts) for at, s in enumerate(nonzero) if len(s.parts) > 1
        }
        assert 0 < len(built) and {id(p) for p in built} <= {id(p) for s in nonzero for p in s.parts}
        assert 0 < len(prepared.nonzero) < len(prepared.schemes)
        monkeypatch.undo()
        instances = attach_rhs(ens, b)
        for j, key in enumerate(ens.keys()):
            if j not in prepared.nonzero:
                assert certs[j] is refuter._ZERO
                assert refute(instances[key]).to_json() == certs[j].to_json()


# Knobs of the plan's equivalence test: those of auto, the trace engine at
# its own levels and capped, and a level above every arity's least
_PLAN_PARAMS = _AUTO_PARAMS + [
    RefuteParams(mode="trace"),
    RefuteParams(mode="trace", dense_cap=5),
    RefuteParams(r=2),
]


class TestPlan:
    """``PreparedSchemes`` records one plan per set of knobs at its first
    target and reads it at every later one."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1 << 16),
        source=st.sampled_from(["tree", "junta", "mixed"]),
        w=st.sampled_from([1, 2]),
        t=st.sampled_from([2, 3]),
        params=st.sampled_from(_PLAN_PARAMS),
    )
    # one edge of weight 0: no scheme is nonzero, so there is no plan
    @example(seed=11214, source="mixed", w=1, t=2, params=RefuteParams())
    def test_the_plan_equals_the_reference(self, seed, source, w, t, params):
        """Byte for byte, at the first target and at later ones, the plan's
        certificates are those of the walk over the schemes, on tree
        ensembles (odd parts among them at t=3), a junta split and
        mixed-arity instances, whose fresh refute records a plan too. Where
        every scheme is zero, no plan is recorded."""
        rng = random.Random(seed)
        if source == "tree":
            m = 16 if (w, t) == (2, 3) else 60
            prepared = group_characters(to_layered(random_tree_circuit(rng, 6, w, t, m, leaf_prob=0.4))).prepared
        elif source == "junta":
            prepared = nonadaptive_split(random_other_circuit(rng, 6, 3, 40)).prepared
        else:
            inst = _mixed_instance(rng, rng.randint(6, 8), rng.randint(1, 30))
            expected = reference_prepared_refute(refuter._prepare_instance(inst), inst.rhs, params)
            assert refute(inst, params).to_json() == expected[0].to_json()
            prepared = refuter._prepare_instance(inst)
        for _ in range(3):
            b = signs(rng, prepared.m)
            got = [c.to_json() for c in prepared.refute(b, params)]
            assert got == [c.to_json() for c in reference_prepared_refute(prepared, b, params)]
        assert list(prepared.plans) == ([params] if prepared.nonzero else [])

    @pytest.mark.parametrize(
        "params",
        [RefuteParams(), RefuteParams(split_weights=True), RefuteParams(mode="trace")],
        ids=["default", "split_weights", "trace"],
    )
    @pytest.mark.parametrize("bits", [62, 70])
    def test_weights_past_int64(self, params, bits):
        """Weights of 62 bits: each signed sum fits int64, but the units
        may not sum below 2^63, so they are Python ints, and so is the sum
        of the direct part's |signed sum|, which passes int64. Weights of 70
        bits: so are the unit copies of an odd part whose groups pair
        nowhere. At the first target and at later ones."""
        rng = random.Random(238)
        # the 3-edges have three lowest vertices, so no group has a pair
        edges = [(), (0,), (1,), (2,), (0, 1), (0, 1, 2), (1, 2, 3), (2, 4, 5), (0, 2, 3, 5)]
        weights = [Dyadic((1 << bits) - 1 - 2 * i, bits) for i in range(len(edges))]
        inst = make_instance(6, edges, signs(rng, len(edges)), weights=weights)
        prepared = refuter._prepare_instance(inst)
        assert prepared.units.dtype == prepared.signed_sums(inst.rhs).dtype == object
        expected = reference_prepared_refute(prepared, inst.rhs, params)
        assert refute(inst, params).to_json() == expected[0].to_json()
        for _ in range(3):
            b = signs(rng, prepared.m)
            got = [c.to_json() for c in prepared.refute(b, params)]
            assert got == [c.to_json() for c in reference_prepared_refute(prepared, b, params)]

    @pytest.mark.parametrize("shape", [(6, 2, 2, 800), (8, 1, 3, 600)], ids=["t=2", "t=3"])
    def test_alternating_knobs_build_only_at_their_first_target(self, monkeypatch, shape):
        """Targets that alternate between the default knobs and
        split_weights build patterns, pairings and stack layouts only at
        the first target of each, and match the walk over the schemes."""
        rng = random.Random(237)
        ens = group_characters(to_layered(random_tree_circuit(rng, *shape, leaf_prob=0.4)))
        counts = Counter()
        for name in ("_kikuchi_pattern", "_layout"):
            real = getattr(refuter, name)
            monkeypatch.setattr(
                refuter, name, lambda *a, name=name, real=real: counts.update([name]) or real(*a)
            )
        pairing = vars(refuter.PreparedPart)["pairing"]
        build = pairing.func
        monkeypatch.setattr(pairing, "func", lambda part: counts.update(["pairing"]) or build(part))
        per_target = []
        for _ in range(6):
            b = signs(rng, ens.prepared.m)
            for params in (RefuteParams(), RefuteParams(split_weights=True)):
                counts.clear()
                got = [c.to_json() for c in ens.prepared.refute(b, params)]
                per_target.append(dict(counts))
                expected = reference_prepared_refute(ens.prepared, b, params)
                assert got == [c.to_json() for c in expected]
        for first in per_target[:2]:
            assert first["_kikuchi_pattern"] > 0 and first["_layout"] > 0
            assert ("pairing" in first) == (shape[2] == 3)
        assert per_target[2:] == [{}] * 10


# units per regime: (copies, their bits, magnitudes, dtype). The sums stay
# below 2^53 in the first; 40 copies of 50 bits pass 2^53 in int64; 62 and
# 70 bits are Python ints; one +-2^62 among small units still sums below 2^63
# in int64, and many of them only as Python ints.
_UNIT_REGIMES = {
    "below 2^53": (12, 20, st.integers(0, 1 << 20), np.int64),
    "past 2^53": (40, 50, st.integers(1 << 49, 1 << 50), np.int64),
    "62 bits": (12, 62, st.integers(1 << 61, (1 << 62) - 1), object),
    "70 bits": (12, 70, st.integers(1 << 69, (1 << 70) - 1), object),
    "2^62 in int64": (12, 62, st.integers(0, 1 << 20), np.int64),
    "2^62 as Python ints": (12, 62, st.sampled_from([1 << 62, (1 << 62) - 1, 1]), object),
}


class TestSumsAtTheInt64Edge:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sums_and_direct_bounds_match_the_per_copy_reference(self, data):
        """In every regime of units, the signed sums, in the units' dtype,
        and the unit copies equal per-copy Python-int sums, and every
        certificate, direct bounds included, equals the reference fold of
        those sums, with and without ``split_weights``, at the first target
        and at a later one."""
        regime = data.draw(st.sampled_from(sorted(_UNIT_REGIMES)), label="regime")
        m, log_den, magnitudes, dtype = _UNIT_REGIMES[regime]
        n = 4
        edges = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), max_size=2, unique=True).map(sorted),
            min_size=m, max_size=m,
        ), label="edges")
        units = [
            sign * size for sign, size in zip(
                data.draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m)),
                data.draw(st.lists(magnitudes, min_size=m, max_size=m), label="magnitudes"),
            )
        ]
        if regime == "2^62 in int64":
            units[data.draw(st.integers(0, m - 1))] = data.draw(st.sampled_from((1 << 62, -(1 << 62))))
        padded = np.full((m, 2), -1, dtype=np.int64)
        for i, edge in enumerate(edges):
            padded[i, :len(edge)] = edge
        prepared = refuter.prepare_rows(
            m, [(n, log_den)], np.zeros(m, dtype=np.int64), padded, np.arange(m),
            np.array(units, dtype=dtype), np.ones(m, dtype=np.int64),
        )
        (scheme,) = prepared.schemes
        shift = log_den - scheme.log_den  # the powers of two all units share
        for step in range(2):
            b = data.draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m), label="b")
            signed: dict[int, int] = {}
            for edge, u, sign in zip(edges, units, b):
                signed[edge_mask(edge)] = signed.get(edge_mask(edge), 0) + sign * u
            sums = prepared.signed_sums(b)
            assert sums.dtype == prepared.units.dtype == dtype
            assert {
                edge: total << shift for part in scheme.parts
                for edge, total in zip(part.edges, sums[part.rows].tolist())
            } == signed
            for params in (RefuteParams(), RefuteParams(split_weights=True)):
                got = [c.to_json() for c in prepared.refute(b, params)]
                assert got == [c.to_json() for c in reference_prepared_refute(prepared, b, params)]
        copies: dict[int, int] = {}
        for edge, u in zip(edges, units):
            if u:
                copies[edge_mask(edge)] = copies.get(edge_mask(edge), 0) + abs(u)
        (unit_scheme,) = prepared.unit_schemes[1]
        assert {
            edge: count << shift for part in unit_scheme.parts
            for edge, count in zip(part.edges, part.copies)
        } == copies


class TestOneEngine:
    """``auto`` is the spectral engine, and trace runs only when asked for."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, None], ids=["2", "3", "4", "5", "mixed"])
    def test_auto_equals_spectral(self, k):
        rng = random.Random(200 + (k or 0))
        for trial in range(10):
            n, m = rng.randint(6, 9), rng.randint(1, 30)
            if k is None:
                inst = _mixed_instance(rng, n, m)
            else:
                inst = random_instance(rng, n, k, m, weighted=bool(trial % 2))
            for params in _AUTO_PARAMS:
                expected = refute(inst, replace(params, mode="spectral")).to_json()
                assert refute(inst, params).to_json() == expected, (trial, params)

    def test_prepared_auto_equals_spectral(self):
        rng = random.Random(210)
        tree = group_characters(to_layered(random_tree_circuit(rng, 6, 2, 2, 120, leaf_prob=0.4)))
        split = nonadaptive_split(random_other_circuit(rng, 6, 3, 60))
        for prepared in (tree.prepared, split.prepared):
            for _ in range(3):
                b = signs(rng, prepared.m)
                for params in _AUTO_PARAMS:
                    expected = [c.to_json() for c in prepared.refute(b, replace(params, mode="spectral"))]
                    assert [c.to_json() for c in prepared.refute(b, params)] == expected

    def test_trace_runs_only_on_request(self, monkeypatch):
        calls = Counter()

        def counting(name):
            real = getattr(refuter, name)

            def counted(*args, **kwargs):
                # the spectral engine takes a batch: count its operators
                calls[name] += len(args[0]) if name == "spectral_certificate" else 1
                return real(*args, **kwargs)

            monkeypatch.setattr(refuter, name, counted)

        for name in ("build_kikuchi", "trace_certificate", "spectral_certificate"):
            counting(name)
        rng = random.Random(220)
        insts = [random_instance(rng, 8, k, 20) for k in (2, 3, 4, 5)] + [_mixed_instance(rng, 8, 30)]
        for mode in ("auto", "spectral", "trace"):
            calls.clear()
            for inst in insts:
                assert refute(inst, RefuteParams(mode=mode)).certified
            engine = "trace_certificate" if mode == "trace" else "spectral_certificate"
            assert calls[engine] == calls["build_kikuchi"] > 0
            assert sum(calls.values()) == 2 * calls["build_kikuchi"]


class TestSoundnessSweep:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bounds_dominate_brute_value(self, k):
        rng = random.Random(100 + k)
        for trial in range(20):
            n = rng.randint(max(k + 1, 4), 10)
            m = rng.randint(1, 30)
            inst = random_instance(rng, n, k, m, weighted=bool(trial % 2))
            val = brute_val(inst)
            for mode in ("trace", "spectral", "auto"):
                cert = refute(inst, RefuteParams(mode=mode))
                if cert.certified:
                    assert Fraction(cert.bound) >= val, (k, mode, trial)


def _pinned_instance(n, k, stride, log_den=None):
    """Every stride-th k-subset of range(n), with fixed signs and, given
    log_den, weights at the scale 2^-log_den running over [-1, 1]."""
    edges = list(combinations(range(n), k))[::stride]
    rhs = [1 if (i * i + 3 * i) % 7 < 4 else -1 for i in range(len(edges))]
    weights = None
    if log_den is not None:
        top = 1 << log_den
        weights = [Dyadic((5 * i) % (2 * top + 1) - top, log_den) for i in range(len(edges))]
    return make_instance(n, edges, rhs, weights=weights)


# Certificates recorded from the per-copy odd-arity split and subset ranking
# by colex_rank; the ROADMAP asks perf changes to keep certificates
# bit-identical, so every later version must reproduce them byte for byte.
# The spectral bounds were re-recorded once, when the spectral engine became
# a Cholesky proof: each moved by under 3e-11 relative (see CHANGES.md).
# The two complete 3-uniform shapes on 16 vertices, whose groups hold up to
# 105 edges, were recorded from the split that paired group-mates one at a
# time, before it became array arithmetic.
# Shapes are (n, k, stride, log_den) of _pinned_instance.
PINNED = [
    ((8, 2, 1, None), RefuteParams(),
     '{"mode": "spectral", "r": 1, "ell": null, "bound": 0.6557536763928116, "status": "certified", "breakdown": []}'),
    ((8, 2, 1, 2), RefuteParams(mode="trace", ell=4),
     '{"mode": "trace", "r": 1, "ell": 4, "bound": 0.49644817169455907, "status": "certified", "breakdown": []}'),
    ((7, 2, 1, 3), RefuteParams(split_weights=True),
     '{"mode": "spectral", "r": 1, "ell": null, "bound": 0.3936753510528414, "status": "certified", "breakdown": []}'),
    ((9, 3, 2, None), RefuteParams(),
     '{"mode": "spectral", "r": null, "ell": null, "bound": 0.8963174393538808, "status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 0.551683478978924, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 2, "ell": null, "bound": 0.5232595435359311, "status": "certified", "breakdown": []}]}'),
    ((9, 3, 2, 2), RefuteParams(mode="spectral"),
     '{"mode": "spectral", "r": null, "ell": null, "bound": 0.5435332680940392, "status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 0.19080256463584033, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 2, "ell": null, "bound": 0.2742952912420068, "status": "certified", "breakdown": []}]}'),
    ((8, 3, 2, 1), RefuteParams(split_weights=True),
     '{"mode": "spectral", "r": null, "ell": null, "bound": 1.0, "status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 0.856325808292518, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 2, "ell": null, "bound": 0.7749970436232482, "status": "certified", "breakdown": []}]}'),
    ((9, 3, 1, None), RefuteParams(r=2, mode="trace"),
     '{"mode": "trace", "r": null, "ell": null, "bound": 0.8575379753213617, "status": "certified", "breakdown": [{"mode": "trace", "r": 2, "ell": 10, "bound": 0.40540913866972067, "status": "certified", "breakdown": []}, {"mode": "trace", "r": 2, "ell": 10, "bound": 0.463974922376848, "status": "certified", "breakdown": []}]}'),
    ((9, 4, 2, None), RefuteParams(r=3),
     '{"mode": "spectral", "r": 3, "ell": null, "bound": 0.5501628080983433, "status": "certified", "breakdown": []}'),
    ((8, 4, 1, 3), RefuteParams(mode="trace"),
     '{"mode": "trace", "r": 2, "ell": 10, "bound": 0.3159152983808259, "status": "certified", "breakdown": []}'),
    ((9, 5, 2, None), RefuteParams(),
     '{"mode": "spectral", "r": null, "ell": null, "bound": 0.8063391794719083, "status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 0.467571347749005, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 2, "ell": null, "bound": 0.34165725966715027, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 3, "ell": null, "bound": 0.3490417515177254, "status": "certified", "breakdown": []}]}'),
    ((9, 5, 3, 2), RefuteParams(mode="spectral"),
     '{"mode": "spectral", "r": null, "ell": null, "bound": 0.5267988103821812, "status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 0.18730782312183442, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 2, "ell": null, "bound": 0.18794804593196948, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 3, "ell": null, "bound": 0.20007878726533698, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 4, "ell": null, "bound": 0.03214285714379263, "status": "certified", "breakdown": []}]}'),
    ((16, 3, 1, None), RefuteParams(),
     '{"mode": "spectral", "r": null, "ell": null, "bound": 0.7091999532382753, "status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 0.25671974324305136, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 2, "ell": null, "bound": 0.30155016995058465, "status": "certified", "breakdown": []}]}'),
    ((16, 3, 1, 40), RefuteParams(),
     '{"mode": "spectral", "r": null, "ell": null, "bound": 0.7091999526494366, "status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 0.25671974262750713, "status": "certified", "breakdown": []}, {"mode": "spectral", "r": 2, "ell": null, "bound": 0.3015501695475247, "status": "certified", "breakdown": []}]}'),
]


class TestPinnedCertificates:
    @pytest.mark.parametrize(
        "shape, params, expected", PINNED, ids=[str(shape) for shape, _, _ in PINNED]
    )
    def test_certificate_bytes(self, shape, params, expected):
        assert refute(_pinned_instance(*shape), params).to_json() == expected

    def test_clamped_bucket(self):
        # the bucket's own bound, about 1.43, is clamped to 1.0
        inst = make_instance(5, [(0, 1, 2), (0, 1, 3)], [1, 1])
        assert refute(inst).to_json() == (
            '{"mode": "spectral", "r": null, "ell": null, "bound": 1.0, "status": "certified", '
            '"breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 1.0, '
            '"status": "certified", "breakdown": []}]}'
        )


def _copies_instance(n, copies):
    """Instance from (edge, (num, log_den), rhs) triples."""
    return make_instance(
        n,
        [e for e, _, _ in copies],
        [b for _, _, b in copies],
        weights=[Dyadic(num, log_den) for _, (num, log_den), _ in copies],
    )


# 3-XOR copies, parallel ones among them, some of zero weight
_ODD_PARALLEL = [
    ((0, 1, 2), (1, 1), 1), ((0, 1, 2), (0, 0), -1), ((0, 1, 2), (-1, 2), 1),
    ((0, 1, 3), (0, 0), 1), ((0, 1, 3), (3, 2), -1), ((0, 2, 4), (1, 0), 1),
    ((1, 3, 4), (0, 0), -1), ((1, 3, 4), (1, 1), 1), ((0, 3, 4), (0, 0), 1),
]


class TestCoalescedShapes:
    """Certificates recorded before refute read each instance in one
    coalescing pass, for shapes where the copies, the live copies and the
    signed sums of an edge part ways; the spectral bounds re-recorded with
    the Cholesky proof."""

    def test_zero_weight_part_is_direct_but_a_cancelling_part_is_not(self):
        # the arity-2 part has only zero weights: direct 0; the arity-4 part
        # has live copies whose sums cancel: the engines certify 0
        inst = _copies_instance(6, [
            ((0, 1), (0, 0), 1), ((2, 3), (0, 0), -1), ((0, 1), (0, 0), 1),
            ((0, 1, 2), (3, 2), 1), ((0, 1, 3), (-1, 1), 1), ((1, 2, 4), (1, 0), -1),
            ((0, 2, 3, 5), (1, 1), 1), ((0, 2, 3, 5), (1, 1), -1),
        ])
        assert refute(inst).to_json() == (
            '{"mode": "spectral", "r": null, "ell": null, "bound": 0.30297999108852725, '
            '"status": "certified", "breakdown": [{"mode": "direct", "r": null, "ell": null, '
            '"bound": 0.0, "status": "certified", "breakdown": []}, {"mode": "spectral", '
            '"r": null, "ell": null, "bound": 0.8079466429027393, "status": "certified", '
            '"breakdown": [{"mode": "spectral", "r": 1, "ell": null, "bound": 0.5625000000000641, '
            '"status": "certified", "breakdown": []}]}, {"mode": "spectral", "r": 2, "ell": null, '
            '"bound": 0.0, "status": "certified", "breakdown": []}]}'
        )

    def test_split_drops_a_zero_weight_part_and_its_wrapper(self):
        inst = _copies_instance(6, [
            ((0,), (0, 0), 1), ((3,), (0, 2), -1),
            ((0, 1, 2), (3, 2), 1), ((0, 1, 3), (-1, 1), -1),
            ((0, 2, 4), (1, 0), 1), ((1, 2, 5), (-3, 2), 1),
        ])
        assert refute(inst, RefuteParams(split_weights=True)).to_json() == (
            '{"mode": "spectral", "r": null, "ell": null, "bound": 0.6147976825560182, '
            '"status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, '
            '"bound": 0.08333333333334282, "status": "certified", "breakdown": []}, '
            '{"mode": "spectral", "r": 2, "ell": null, "bound": 0.08928571428576013, '
            '"status": "certified", "breakdown": []}]}'
        )

    def test_odd_split_pairs_only_live_copies(self):
        odd = (
            '{"mode": "spectral", "r": null, "ell": null, "bound": 0.34644975803464484, '
            '"status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, '
            '"bound": 0.138888888888901, "status": "certified", "breakdown": []}, '
            '{"mode": "spectral", "r": 2, "ell": null, "bound": 0.9375000000002399, '
            '"status": "certified", "breakdown": []}]}'
        )
        assert refute(_copies_instance(5, _ODD_PARALLEL)).to_json() == odd
        # an arity-2 part with parallel zero-weight copies counts every copy
        mixed = _copies_instance(5, _ODD_PARALLEL + [
            ((0, 1), (0, 0), 1), ((0, 1), (1, 1), -1), ((0, 1), (0, 0), 1), ((2, 3), (1, 2), 1),
        ])
        assert refute(mixed).to_json() == (
            '{"mode": "spectral", "r": null, "ell": null, "bound": 0.30673946459255264, '
            '"status": "certified", "breakdown": [{"mode": "spectral", "r": 1, "ell": null, '
            '"bound": 0.21739130434784507, "status": "certified", "breakdown": []}, '
            + odd + ']}'
        )
