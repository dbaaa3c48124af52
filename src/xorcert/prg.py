"""Explicit pseudorandom sign-string generators with enumerable seed spaces.

Three constructions over GF(2^s):

* ``eps_biased``  -- powering construction: seed (a, x); output bit i is the
  binary inner product of the representations of a^i and x. Every nonempty
  parity has bias at most (m - 1) / 2^s.
* ``kwise``       -- Vandermonde parity check: seed is k field elements; bit i
  is the inner product of the seed with (1, p_i, p_i^2, ..., p_i^{k-1}) for
  distinct field points p_i, so any k output coordinates are exactly uniform.
* ``kwise_eps_biased`` -- the kwise generator seeded by an eps-biased string,
  giving bias at most the outer generator's bound on every parity of size <= k.

``uniform`` (seed = output) is included as the trivial baseline for audits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .core import ValidationError
from .gf2 import IRREDUCIBLE, gf_mul

@dataclass(frozen=True)
class GeneratorSpec:
    kind: str  # uniform | eps_biased | kwise | kwise_eps_biased
    m: int
    k: int | None = None
    eps: Fraction | None = None
    field_degree: int = 0
    outer_degree: int = 0  # eps_biased stage degree for the composed kind

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "eps_biased", "kwise", "kwise_eps_biased"):
            raise ValidationError([f"unknown generator kind {self.kind!r}"])
        if self.m < 1:
            raise ValidationError([f"output length {self.m} < 1"])
        if self.kind != "uniform" and self.field_degree not in IRREDUCIBLE:
            raise ValidationError(
                [f"field degree {self.field_degree} outside the shipped table"]
            )
        if self.kind in ("kwise", "kwise_eps_biased"):
            if self.k is None or self.k < 1:
                raise ValidationError(["kwise generator needs k >= 1"])
            if self.m > 1 << self.field_degree:
                raise ValidationError(
                    [f"kwise needs 2^s >= m, got s={self.field_degree}, m={self.m}"]
                )
        if self.kind == "kwise_eps_biased" and self.outer_degree not in IRREDUCIBLE:
            raise ValidationError(
                [f"outer degree {self.outer_degree} outside the shipped table"]
            )

    @property
    def seed_bits(self) -> int:
        if self.kind == "uniform":
            return self.m
        if self.kind == "eps_biased":
            return 2 * self.field_degree
        if self.kind == "kwise":
            return self.k * self.field_degree
        return 2 * self.outer_degree

    @staticmethod
    def uniform(m: int) -> "GeneratorSpec":
        return GeneratorSpec("uniform", m, eps=Fraction(0))

    @staticmethod
    def eps_biased(m: int, field_degree: int) -> "GeneratorSpec":
        eps = Fraction(m - 1, 1 << field_degree)
        return GeneratorSpec("eps_biased", m, eps=eps, field_degree=field_degree)

    @staticmethod
    def eps_biased_for(m: int, eps_target: Fraction) -> "GeneratorSpec":
        if m == 1:
            return GeneratorSpec.eps_biased(1, 1)
        s = 1
        while Fraction(m - 1, 1 << s) > eps_target:
            s += 1
            if s > max(IRREDUCIBLE):
                raise ValidationError(
                    [f"bias target {eps_target} needs field degree > {max(IRREDUCIBLE)}"]
                )
        return GeneratorSpec.eps_biased(m, s)

    @staticmethod
    def kwise(k: int, m: int, field_degree: int | None = None) -> "GeneratorSpec":
        if field_degree is None:
            field_degree = max(1, (m - 1).bit_length())
        return GeneratorSpec("kwise", m, k=k, field_degree=field_degree)

    @staticmethod
    def kwise_eps_biased(
        k: int,
        m: int,
        eps_target: Fraction,
        field_degree: int | None = None,
    ) -> "GeneratorSpec":
        inner = GeneratorSpec.kwise(k, m, field_degree)
        inner_bits = inner.seed_bits
        outer = GeneratorSpec.eps_biased_for(inner_bits, eps_target)
        return GeneratorSpec(
            "kwise_eps_biased",
            m,
            k=k,
            eps=outer.eps,
            field_degree=inner.field_degree,
            outer_degree=outer.field_degree,
        )


@functools.lru_cache(maxsize=4096)
def _power_reps(a: int, m: int, s: int) -> np.ndarray:
    """Representations of a^0, a^1, ..., a^(m-1) in GF(2^s); 0^0 = 1, as an
    int64 array, which holds every element up to degree 63; read-only, since
    the cache shares it."""
    reps = [1]
    acc = 1
    for _ in range(m - 1):
        acc = gf_mul(acc, a, s)
        reps.append(acc)
    out = np.array(reps, dtype=np.int64)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _vandermonde_columns(k: int, m: int, s: int) -> tuple[int, ...]:
    """Column masks: bits of (1, p_i, ..., p_i^{k-1}) packed k*s wide."""
    cols = []
    for i in range(m):
        mask = 0
        acc = 1
        for j in range(k):
            mask |= acc << (j * s)
            if j + 1 < k:
                acc = gf_mul(acc, i, s)
        cols.append(mask)
    return tuple(cols)


def _pack(bits: Iterable[int]) -> int:
    """The int whose bit i is the parity of the i-th value, built through one
    binary string: OR-ing in shifted bits costs time quadratic in m."""
    return int("".join("1" if b & 1 else "0" for b in bits)[::-1], 2)


def _check_seed(spec: GeneratorSpec, seed: int) -> None:
    if not 0 <= seed < 1 << spec.seed_bits:
        raise ValidationError([f"seed {seed} outside [0, 2^{spec.seed_bits})"])


def sample_output_bits(spec: GeneratorSpec, seed: int) -> int:
    """Output as an int whose bit i is output bit i."""
    _check_seed(spec, seed)
    if spec.kind == "uniform":
        return seed
    if spec.kind == "eps_biased":
        s = spec.field_degree
        a = seed & ((1 << s) - 1)
        x = seed >> s
        return _pack((rep & x).bit_count() for rep in _power_reps(a, spec.m, s).tolist())
    if spec.kind == "kwise":
        cols = _vandermonde_columns(spec.k, spec.m, spec.field_degree)
        return _pack((col & seed).bit_count() for col in cols)
    # kwise_eps_biased: eps-biased string drives the kwise seed.
    inner = GeneratorSpec.kwise(spec.k, spec.m, spec.field_degree)
    outer = GeneratorSpec.eps_biased(inner.seed_bits, spec.outer_degree)
    return sample_output_bits(inner, sample_output_bits(outer, seed))


def sample_int(spec: GeneratorSpec, seed: int) -> tuple[int, ...]:
    """Sign string for an integer seed in [0, 2^seed_bits).

    An ``eps_biased`` output is taken in int64 arrays, which hold a and x
    for every field degree up to 63: bit i is the parity of a^i & x. Other
    outputs are read from :func:`sample_output_bits`."""
    if spec.kind == "eps_biased":
        s = spec.field_degree
        _check_seed(spec, seed)
        bits = np.bitwise_count(_power_reps(seed & ((1 << s) - 1), spec.m, s) & (seed >> s))
        return tuple((1 - 2 * (bits & 1).astype(np.int64)).tolist())
    bits = f"{sample_output_bits(spec, seed):0{spec.m}b}"
    return tuple(-1 if ch == "1" else 1 for ch in reversed(bits))


def sample(spec: GeneratorSpec, seed: str) -> tuple[int, ...]:
    """Sign string for a seed given as a 0/1 string; seed[i] is seed bit i."""
    if len(seed) != spec.seed_bits or any(ch not in "01" for ch in seed):
        raise ValidationError(
            [f"seed must be a 0/1 string of length {spec.seed_bits}"]
        )
    value = 0
    for i, ch in enumerate(seed):
        value |= (ch == "1") << i
    return sample_int(spec, value)


def seed_to_str(spec: GeneratorSpec, seed: int) -> str:
    return "".join("1" if (seed >> i) & 1 else "0" for i in range(spec.seed_bits))


def seed_count(spec: GeneratorSpec) -> int:
    return 1 << spec.seed_bits


def seed_order(spec: GeneratorSpec) -> Iterator[int]:
    """Every seed once, lazily, degenerate seeds last.

    An ``eps_biased`` seed a + x 2^s (and the outer stage's seed of
    ``kwise_eps_biased``) with x = 0 gives the all-+1 string, and a in {0, 1}
    a nearly constant one. Seeds with x != 0 and a not in {0, 1} come first,
    ascending; the rest follow, ascending. A ``kwise`` seed is k
    coefficients of s bits, the lowest first. Its constant coefficient adds
    only its low bit to every output, so the seeds come in digit-reversed
    order: consecutive seeds differ first in their highest coefficient. The
    seeds below 2^s are constant polynomials, whose string is all +1 or all
    -1: those come after every other seed, ascending. ``uniform`` ascends.
    """
    if spec.kind == "uniform":
        yield from range(seed_count(spec))
        return
    if spec.kind == "kwise":
        q = 1 << spec.field_degree
        top = q ** (spec.k - 1)  # counters of a constant polynomial are its multiples
        for counter in range(seed_count(spec)):
            if counter % top:
                seed, rest = 0, counter
                for _ in range(spec.k):
                    rest, digit = divmod(rest, q)
                    seed = seed * q + digit
                yield seed
        yield from range(q)
        return
    q = 1 << (spec.field_degree if spec.kind == "eps_biased" else spec.outer_degree)
    for x in range(1, q):
        yield from range(x * q + 2, (x + 1) * q)
    yield from range(q)
    for x in range(1, q):
        yield from (x * q, x * q + 1)


def format_spec(spec: GeneratorSpec) -> str:
    if spec.kind == "uniform":
        return f"uniform:m={spec.m}"
    if spec.kind == "eps_biased":
        return f"biased:m={spec.m},s={spec.field_degree}"
    if spec.kind == "kwise":
        return f"kwise:k={spec.k},m={spec.m},s={spec.field_degree}"
    return (
        f"kwise_biased:k={spec.k},m={spec.m},s={spec.field_degree},"
        f"so={spec.outer_degree}"
    )


def _parse_eps(text: str) -> Fraction:
    if "^" in text:
        base, exp = text.split("^")
        return Fraction(int(base)) ** int(exp)
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(text)


# The keys each spec kind takes, and the pairs of keys that exclude each other.
_SPEC_KEYS = {
    "uniform": {"m"},
    "biased": {"m", "s", "eps"},
    "kwise": {"k", "m", "s"},
    "kwise_biased": {"k", "m", "s", "so", "eps"},
}
_EXCLUSIVE = {"biased": ("s", "eps"), "kwise_biased": ("so", "eps")}


def _spec_keys(text: str) -> tuple[str, dict[str, str]]:
    """The kind and the key=value pairs of a spec; ValidationError for an
    unknown kind, an unknown or repeated key, or two keys that exclude each
    other."""
    kind, _, rest = text.partition(":")
    if kind not in _SPEC_KEYS:
        raise ValidationError([f"bad generator spec {text!r}: unknown kind {kind!r}"])
    kv: dict[str, str] = {}
    errors = []
    for part in rest.split(",") if rest else ():
        key, _, val = part.partition("=")
        key = key.strip()
        if key in kv:
            errors.append(f"repeated key {key!r}")
        elif key not in _SPEC_KEYS[kind]:
            errors.append(f"unknown key {key!r}; {kind} takes {', '.join(sorted(_SPEC_KEYS[kind]))}")
        kv[key] = val.strip()
    pair = _EXCLUSIVE.get(kind)
    if pair and set(pair) <= set(kv):
        errors.append(f"give {pair[0]} or {pair[1]}, not both")
    if errors:
        raise ValidationError([f"bad generator spec {text!r}: {e}" for e in errors])
    return kind, kv


def parse_spec(text: str) -> GeneratorSpec:
    """Parse CLI spec strings such as kwise:k=8,m=1024,s=10 or biased:eps=2^-20,m=4096."""
    kind, kv = _spec_keys(text)
    try:
        if kind == "uniform":
            return GeneratorSpec.uniform(int(kv["m"]))
        if kind == "biased":
            m = int(kv["m"])
            if "s" in kv:
                return GeneratorSpec.eps_biased(m, int(kv["s"]))
            return GeneratorSpec.eps_biased_for(m, _parse_eps(kv["eps"]))
        if kind == "kwise":
            s = int(kv["s"]) if "s" in kv else None
            return GeneratorSpec.kwise(int(kv["k"]), int(kv["m"]), s)
        k, m = int(kv["k"]), int(kv["m"])
        s = int(kv["s"]) if "s" in kv else None
        if "so" in kv:
            inner = GeneratorSpec.kwise(k, m, s)
            outer = GeneratorSpec.eps_biased(inner.seed_bits, int(kv["so"]))
            return GeneratorSpec(
                "kwise_eps_biased",
                m,
                k=k,
                eps=outer.eps,
                field_degree=inner.field_degree,
                outer_degree=outer.field_degree,
            )
        return GeneratorSpec.kwise_eps_biased(k, m, _parse_eps(kv["eps"]), s)
    except ValidationError:
        raise
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError([f"bad generator spec {text!r}: {exc}"]) from exc
