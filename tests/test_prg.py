import random
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest

from xorcert import prg
from xorcert.core import ValidationError
from xorcert.gf2 import IRREDUCIBLE, gf_mul
from xorcert.oracle import brute_bias, brute_independence
from xorcert.prg import (
    GeneratorSpec,
    format_spec,
    parse_spec,
    sample,
    sample_int,
    sample_output_bits,
    seed_count,
    seed_order,
    seed_to_str,
)


class TestSpecs:
    def test_seed_bits(self):
        assert GeneratorSpec.uniform(5).seed_bits == 5
        assert GeneratorSpec.eps_biased(4, 4).seed_bits == 8
        assert GeneratorSpec.kwise(2, 4, 2).seed_bits == 4
        comp = GeneratorSpec.kwise_eps_biased(2, 4, Fraction(1, 4))
        assert comp.seed_bits == 2 * comp.outer_degree

    def test_eps_value(self):
        assert GeneratorSpec.eps_biased(4, 4).eps == Fraction(3, 16)
        spec = GeneratorSpec.eps_biased_for(9, Fraction(1, 16))
        assert spec.eps <= Fraction(1, 16)

    def test_kwise_needs_enough_points(self):
        with pytest.raises(ValidationError):
            GeneratorSpec.kwise(2, 5, 2)

    def test_seed_count(self):
        assert seed_count(GeneratorSpec.eps_biased(4, 4)) == 256
        assert seed_count(GeneratorSpec.uniform(1)) == 2
        assert seed_count(GeneratorSpec.kwise(2, 4, 2)) == 16

    def test_parse_format_roundtrip(self):
        for text in (
            "uniform:m=8",
            "biased:m=12,s=8",
            "kwise:k=3,m=8,s=3",
            "kwise_biased:k=2,m=4,s=2,so=6",
        ):
            spec = parse_spec(text)
            assert parse_spec(format_spec(spec)) == spec

    def test_parse_eps_forms(self):
        spec = parse_spec("biased:eps=2^-6,m=9")
        assert spec.eps <= Fraction(1, 64)
        spec2 = parse_spec("kwise_biased:k=2,m=4,eps=1/8")
        assert spec2.eps <= Fraction(1, 8)

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_spec("nope:m=4")
        with pytest.raises(ValidationError):
            parse_spec("kwise:m=4")

    @pytest.mark.parametrize("text, message", [
        ("biased:m=4,s=3,x=1", "unknown key 'x'; biased takes eps, m, s"),
        ("biased:m=4,m=8,s=3", "repeated key 'm'"),
        ("biased:m=4,s=3,eps=1/2", "give s or eps, not both"),
        ("kwise:k=2,m=4,s=2,so=5", "unknown key 'so'; kwise takes k, m, s"),
        ("kwise_biased:k=2,m=4,so=6,eps=1/8", "give so or eps, not both"),
        ("uniform:m=4,", "unknown key ''"),
    ])
    def test_parse_rejects_bad_keys(self, text, message):
        with pytest.raises(ValidationError, match=message):
            parse_spec(text)


class TestSampling:
    def test_zero_seed_all_plus_one(self):
        spec = GeneratorSpec.eps_biased(4, 4)
        assert sample_int(spec, 0) == (1, 1, 1, 1)

    def test_seed_string_interface(self):
        spec = GeneratorSpec.kwise(2, 4, 2)
        for seed in range(seed_count(spec)):
            text = seed_to_str(spec, seed)
            assert len(text) == spec.seed_bits
            assert sample(spec, text) == sample_int(spec, seed)
        with pytest.raises(ValidationError):
            sample(spec, "01")
        with pytest.raises(ValidationError):
            sample(spec, "01x1")

    def test_deterministic(self):
        spec = GeneratorSpec.eps_biased(8, 6)
        assert sample_int(spec, 37) == sample_int(spec, 37)

    @pytest.mark.parametrize("spec", [
        GeneratorSpec.eps_biased(300, 9),
        GeneratorSpec.kwise(3, 300, 9),
        GeneratorSpec.kwise_eps_biased(2, 40, Fraction(1, 4)),
    ])
    def test_matches_per_bit_reference(self, spec):
        """Output bit i by its definition, one field product at a time."""
        def bits(spec, seed):
            s = spec.field_degree
            if spec.kind == "eps_biased":
                a, x, pw = seed % (1 << s), seed >> s, 1
                out = []
                for _ in range(spec.m):
                    out.append((pw & x).bit_count() & 1)
                    pw = gf_mul(pw, a, s)
                return out
            if spec.kind == "kwise":
                out = []
                for point in range(spec.m):
                    parity, pw = 0, 1
                    for j in range(spec.k):  # coefficient j is seed bits [j s, (j + 1) s)
                        parity += (pw & (seed >> (j * s))).bit_count()
                        pw = gf_mul(pw, point, s)
                    out.append(parity & 1)
                return out
            inner = GeneratorSpec.kwise(spec.k, spec.m, spec.field_degree)
            outer = GeneratorSpec.eps_biased(inner.seed_bits, spec.outer_degree)
            return bits(inner, sum(b << i for i, b in enumerate(bits(outer, seed))))

        rng = random.Random(0)
        for seed in [0, 1, 2, (1 << spec.seed_bits) - 1] + [rng.randrange(1 << spec.seed_bits) for _ in range(20)]:
            assert sample_int(spec, seed) == tuple(1 - 2 * b for b in bits(spec, seed))


@pytest.fixture()
def wide_fields(monkeypatch):
    """Field degrees 62 and 63 added to the field table, by the primitive
    polynomials x^62 + x^10 + x^9 + x^2 + 1 and x^63 + x + 1, with the
    power cache cleared on both sides."""
    monkeypatch.setitem(IRREDUCIBLE, 62, (1 << 62) | 0b11000000101)
    monkeypatch.setitem(IRREDUCIBLE, 63, (1 << 63) | 0b11)
    prg._power_reps.cache_clear()
    yield
    prg._power_reps.cache_clear()


def string_path(spec: GeneratorSpec, seed: int) -> tuple[int, ...]:
    """The signs read one by one from the packed output bits."""
    bits = sample_output_bits(spec, seed)
    return tuple(1 - 2 * (bits >> i & 1) for i in range(spec.m))


_EVERY_KIND = [
    GeneratorSpec.uniform(9),
    GeneratorSpec.eps_biased(50, 7),
    GeneratorSpec.kwise(3, 50, 6),
    GeneratorSpec.kwise_eps_biased(2, 20, Fraction(1, 4)),
]


class TestIntegerSampling:
    @pytest.mark.parametrize("s", [1, 10, 62, 63])
    def test_small_bias_matches_the_string_path(self, wide_fields, s):
        """The int64 path gives the string path's signs and each bit's
        definition up to degree 63, on random seeds and on the degenerate
        ones: x = 0, and a in {0, 1}."""
        spec = GeneratorSpec.eps_biased(40, s)
        q = 1 << s
        rng = random.Random(s)
        xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(4)]
        seeds = [a + x * q for x in xs for a in [0, 1, q - 1] + [rng.randrange(q) for _ in range(3)]]
        for seed in seeds:
            a, x, power = seed % q, seed >> s, 1
            definition = []
            for _ in range(spec.m):
                definition.append(1 - 2 * ((power & x).bit_count() & 1))
                power = gf_mul(power, a, s)
            assert sample_int(spec, seed) == string_path(spec, seed) == tuple(definition)
        assert prg._power_reps(2, spec.m, s).dtype == np.int64

    @pytest.mark.parametrize("spec", _EVERY_KIND)
    def test_every_kind_matches_the_string_path(self, spec):
        rng = random.Random(7)
        for seed in [0, 1, (1 << spec.seed_bits) - 1] + [rng.randrange(1 << spec.seed_bits) for _ in range(20)]:
            assert sample_int(spec, seed) == string_path(spec, seed)

    @pytest.mark.parametrize("spec", _EVERY_KIND)
    def test_out_of_range_seeds(self, spec):
        for seed in (-1, 1 << spec.seed_bits):
            with pytest.raises(ValidationError, match="outside"):
                sample_int(spec, seed)
            with pytest.raises(ValidationError, match="outside"):
                sample_output_bits(spec, seed)


class TestSeedOrder:
    @pytest.mark.parametrize("spec", [
        GeneratorSpec.uniform(3),
        GeneratorSpec.eps_biased(5, 1),
        GeneratorSpec.eps_biased(5, 3),
        GeneratorSpec.kwise(2, 4, 2),
        GeneratorSpec.kwise_eps_biased(2, 4, Fraction(1, 2)),
    ])
    def test_every_seed_once(self, spec):
        assert sorted(seed_order(spec)) == list(range(seed_count(spec)))

    def test_plain_kinds_ascend(self):
        # uniform is the one kind without degenerate seeds
        spec = GeneratorSpec.uniform(3)
        assert list(seed_order(spec)) == list(range(seed_count(spec)))

    def test_kwise_constant_seeds_last(self):
        # seeds below 2^s are constant polynomials: all +1 or all -1; the
        # others come digit-reversed, the highest coefficient changing first
        spec = GeneratorSpec.kwise(2, 4, 2)
        assert list(seed_order(spec)) == [4, 8, 12, 5, 9, 13, 6, 10, 14, 7, 11, 15] + list(range(4))
        assert all(len(set(sample_int(spec, seed))) == 1 for seed in range(4))

    def test_kwise_budget_samples_distinct_strings(self):
        # the constant coefficient adds one bit to every output, so seeds that
        # differ only there sample two strings between them
        spec = parse_spec("kwise:k=6,m=64,s=6")
        assert len({sample_int(spec, seed) for seed in islice(seed_order(spec), 256)}) >= 200

    def test_kwise_budget_samples_no_constant_string(self):
        spec = GeneratorSpec.kwise(6, 64)
        first = list(islice(seed_order(spec), 256))
        assert all(len(set(sample_int(spec, seed))) == 2 for seed in first)
        assert len(set(first)) == 256

    @pytest.mark.parametrize("spec", [
        GeneratorSpec.eps_biased(5, 3),
        GeneratorSpec.kwise_eps_biased(2, 4, Fraction(1, 2)),  # outer degree 3
    ])
    def test_degenerate_seeds_last(self, spec):
        s, q = 3, 8
        assert spec.seed_bits == 2 * s
        order = list(seed_order(spec))
        good = (q - 1) * (q - 2)  # x != 0 and a not in {0, 1}, for seed a + x 2^s
        assert all(seed >> s and seed % q >= 2 for seed in order[:good])
        assert order[:good] == sorted(order[:good])
        assert order[good:] == sorted(order[good:])

    def test_first_sample_of_a_large_field_is_not_constant(self):
        spec = GeneratorSpec.eps_biased(200, 9)
        first = next(seed_order(spec))
        assert first == (1 << 9) + 2
        assert len(set(sample_int(spec, first))) == 2

    def test_lazy(self):
        spec = GeneratorSpec.eps_biased(64, max(IRREDUCIBLE))
        assert next(seed_order(spec)) == (1 << spec.field_degree) + 2


class TestGuarantees:
    def test_eps_biased_exhaustive(self):
        spec = GeneratorSpec.eps_biased(4, 4)
        assert brute_bias(spec) <= spec.eps

    def test_kwise_pairs_exactly_uniform(self):
        spec = GeneratorSpec.kwise(2, 4, 2)
        assert brute_independence(spec, 2) == 0

    def test_kwise_triples(self):
        spec = GeneratorSpec.kwise(3, 8, 3)
        assert brute_independence(spec, 3) == 0

    def test_kwise_eps_biased_small_parities(self):
        spec = GeneratorSpec.kwise_eps_biased(2, 4, Fraction(1, 4), 2)
        counts = {}
        total = seed_count(spec)
        for seed in range(total):
            out = sample_int(spec, seed)
            for size in (1, 2):
                for subset in combinations(range(spec.m), size):
                    sign = 1
                    for i in subset:
                        sign *= out[i]
                    counts[subset] = counts.get(subset, 0) + sign
        worst = max(Fraction(abs(v), total) for v in counts.values())
        assert worst <= spec.eps
