"""Certified upper bounds on the value of weighted XOR systems.

A scheme (edges and weights, the right-hand side left open) is prepared
once (``prepare_rows``, ``PreparedSchemes``) from integer rows of copies:
it is put at its finest weight scale 2^-L, each edge size gets its
distinct edges as vertex bitmasks, each with its number of copies and its
live copies (those of nonzero weight), and every live copy an integer
incidence (distinct edge, rhs position, w * 2^L): each edge size is a
``PreparedPart``. For a right-hand side b, one scatter-add of b * w * 2^L
in the units' own integer type gives the exact signed sum of every distinct
edge, and each part reads its rows of them. ``refute`` validates an
instance and prepares it; schemes that serve many right-hand sides, such as
a circuit's ensemble, are prepared once for all of them. Every path reads a part and the signed sums, and sums stay
integers at one scale up to the Kikuchi entries:

* arity 0 and 1 are certified directly, by the sum of |signed sum| over m;
* even arity goes through the level-r Kikuchi matrix: rows and columns are
  r-subsets of the variables, an edge contributes its signed sum to every
  pair (S, T) with S xor T equal to the edge and its copies to the degree of
  S, and the instance value is bounded by twice the spectral norm of the
  degree-reweighted matrix. Where the entries sit, which edge each reads
  and the degrees depend on the edges and the level alone: this pattern is
  computed by index arithmetic over all pairs at once, from arrays sized by
  each edge's own k vertices (and, above r = k/2, the vertices outside it),
  and kept by the prepared part for every later right-hand side, and each
  target only gathers its signed sums into it;
* odd arity is reduced to even buckets by grouping edges on their lowest
  vertex and applying Cauchy-Schwarz to the group sums: each pair of
  distinct group-mates, all of them formed at once by index arithmetic,
  adds the product of their live copies and of their signed sums to its
  symmetric difference. The pairs, and so every bucket as a part of its
  own, depend on the edges alone: the odd part keeps them, and a target
  pays only the products of its signed sums;
* mixed arity averages the per-size bounds with weights m_k / m;
* ``split_weights`` counts a copy of weight num * 2^-L as |num| unit copies
  and rescales the bound by m' / m, with m' the unit copies in total: another
  bound, not a check, tighter than the default on some instances, looser on
  others. The unit-copy parts are prepared once, as the scheme's own are.

Two certificate engines bound the reweighted norm:

* spectral -- a float estimate lam of the top eigenvalue (from side 180 up
              by Lanczos steps over the stored entries), raised a little
              and proved by two shifted float Choleskys that lam Gamma - A
              and lam Gamma + A are positive semidefinite; the default mode
              ``auto`` runs it, as does ``spectral``. It takes a batch:
              every operator of a right-hand side is proved in one call,
              stacked by side length below 180, and the bounds are folded
              into the certificates by the plan that ``PreparedSchemes``
              keeps for each set of knobs. The batch's shape, which the
              plan keeps, lays out each of its stacks once: what the proof
              reads of the degrees. Every target takes one path: signed
              sums, odd splits, one gather of every operator's values, one
              proof and the fold;
* trace    -- trace((Gamma^-1 A)^ell)^(1/ell) for even ell, rigorous because
              trace(B^ell) dominates the top eigenvalue power; looser, and run
              only when mode ``trace`` asks for it.

Both factor or multiply the dense matrix: a level whose matrix side exceeds
``dense_cap`` is not built and its certificate is uncertain.

All floating-point steps round their result upward before they enter a
certificate, no step rests on an assumed error constant of a library, and no
certified bound exceeds the trivial bound 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from operator import attrgetter, mul
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    ValidationError, XorInstance, int_array, is_int, sign_array, sign_violations, validate_instance,
)

_EPS = 2.0 ** -53
_MIN_NORMAL = 2.0 ** -1022


class ResourceCap(Exception):
    """A certificate could not be attempted within the configured caps."""


@dataclass(frozen=True)
class RefuteParams:
    """Knobs for the certification pipeline; None means the documented default."""

    r: int | None = None
    ell: int | None = None
    mode: str = "auto"  # trace | spectral | auto (= spectral)
    dense_cap: int = 4096  # matrix side length above which no matrix is built
    work_flops: float = 4e9  # budget that truncates the trace power
    split_weights: bool = False  # bound |num| unit copies per weight: another bound

    def __post_init__(self) -> None:
        errors = []
        if self.r is not None and self.r < 0:
            errors.append(f"level r must be at least 0, got {self.r}")
        if self.mode not in ("trace", "spectral", "auto"):
            errors.append(f"mode must be one of trace, spectral, auto, got {self.mode!r}")
        if self.dense_cap < 1:
            errors.append(f"dense cap must be at least 1, got {self.dense_cap}")
        if not 0 < self.work_flops < math.inf:  # NaN fails too
            errors.append(f"work flops must be a finite number > 0, got {self.work_flops}")
        if errors:
            raise ValidationError(errors)

    @staticmethod
    def from_obj(obj: dict) -> "RefuteParams":
        if not isinstance(obj, dict):
            raise ValidationError(["certification knobs must be a JSON object"])
        bad = sorted(set(obj) - set(_KNOBS))
        if bad:
            raise ValidationError([f"unknown certification knobs: {bad}"])
        wrong = [
            f"knob {name!r} must be {_KNOBS[name][0]}, got {value!r}"
            for name, value in obj.items()
            if not _KNOBS[name][1](value)
        ]
        if wrong:
            raise ValidationError(wrong)
        return RefuteParams(**obj)


# knob -> (what it must be, check), for knobs read from JSON
_KNOBS = {
    "r": ("an integer or null", lambda v: v is None or is_int(v)),
    "ell": ("an integer or null", lambda v: v is None or is_int(v)),
    "mode": ("one of trace, spectral, auto", lambda v: v in ("trace", "spectral", "auto")),
    "dense_cap": ("an integer", is_int),
    "work_flops": ("a number", lambda v: is_int(v) or isinstance(v, float)),
    "split_weights": ("true or false", lambda v: isinstance(v, bool)),
}


def default_ell(r: int, n: int) -> int:
    """2 * ceil(r * ln n), floored at 2."""
    if n < 2:
        return 2
    return max(2, 2 * math.ceil(r * math.log(n)))


@dataclass(frozen=True, slots=True)
class Certificate:
    mode: str  # trace | spectral | direct | parity
    bound: float
    status: str  # certified | uncertain
    r: int | None = None
    ell: int | None = None
    breakdown: tuple = ()

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_obj(self) -> dict:
        return {
            "mode": self.mode,
            "r": self.r,
            "ell": self.ell,
            "bound": self.bound,
            "status": self.status,
            "breakdown": [c.to_obj() for c in self.breakdown],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj())


def _uncertain(mode: str, r: int | None = None, ell: int | None = None) -> Certificate:
    # val <= 1 holds unconditionally, so 1.0 is the honest trivial bound.
    return Certificate(mode=mode, bound=1.0, status="uncertain", r=r, ell=ell)


# Upward-rounded float helpers; soundness is checked by exact comparison.


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _ratio_up(num: int, den: int) -> float:
    """The least float >= num / den, for den > 0: Python's int / int rounds
    to nearest, so one step up at most."""
    f = num / den
    p, q = f.as_integer_ratio()
    return f if p * den >= num * q else _up(f)


def _float_up(value: Fraction) -> float:
    return _ratio_up(value.numerator, value.denominator)


def _exact_sum(values: Sequence[float], weights: Sequence[int] | None = None) -> Fraction:
    """The exact sum of finite floats, each times its integer weight if
    ``weights`` is given: each float is p / 2^e, so shifting every p to the
    largest e makes the sum one sum of integers."""
    ratios = [v.as_integer_ratio() for v in values]
    top = max([q.bit_length() for _, q in ratios], default=1)
    terms = [p << (top - q.bit_length()) for p, q in ratios]
    if weights is not None:
        terms = map(mul, weights, terms)
    return Fraction(sum(terms), 1 << (top - 1))


def _sqrt_up(x: float) -> float:
    if x <= 0.0:
        return 0.0
    root = math.sqrt(x)
    while Fraction(root) ** 2 < Fraction(x):
        root = _up(root)
    return root


def _root_up(x: float, power: int) -> float:
    if x <= 0.0:
        return 0.0
    root = x ** (1.0 / power)
    # float error is a few ulps; walking upward terminates immediately after
    while Fraction(root) ** power < Fraction(x):
        root = _up(root)
    return root


@dataclass(eq=False)
class KikuchiOperator:
    """Level-r signed subset matrix of an even-arity instance: a
    ``KikuchiPattern`` and the signed sum at each of its positions.

    ``values[i]`` is the integer numerator, at the scale 2^-log_den, of the
    entry at position i of the pattern, zero where the edge's signed sum is
    zero. ``rows``, ``cols`` and ``entries`` are the nonzero ones, in
    increasing (row, column) order, so ``len(entries)`` counts the stored
    entries; they are taken out of the positions at their first use.
    ``degrees[S]`` counts the copies of the (edge, T) pairs incident to row
    S, independent of the edge weights: the pattern's, read-only, since
    every target of the pattern shares them. Numerators and degrees are
    exact integers: int64 arrays when every value fits, else object arrays
    of Python ints. Not frozen: a plan's record builds one for every even
    part and bucket, every target one per part under mode ``trace``, and a
    frozen dataclass takes several times as long to make.
    """

    n: int
    k: int
    r: int
    m: int
    pattern: KikuchiPattern
    values: np.ndarray
    log_den: int
    edge_multiplier: int

    @property
    def dim(self) -> int:
        return len(self.pattern.degrees)

    @property
    def trace_degree(self) -> int:
        return self.m * self.edge_multiplier

    @property
    def degrees(self) -> np.ndarray:
        return self.pattern.degrees

    @property
    def empty(self) -> bool:
        """True if every entry is zero."""
        return not np.count_nonzero(self.values)

    @cached_property
    def _nonzero(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    @cached_property
    def rows(self) -> np.ndarray:
        return self.pattern.rows[self._nonzero]

    @cached_property
    def cols(self) -> np.ndarray:
        return self.pattern.cols[self._nonzero]

    @cached_property
    def entries(self) -> np.ndarray:
        return self.values[self._nonzero]

    def dense_matrix(self) -> np.ndarray:
        """The symmetric matrix as a new float array of num * 2^-log_den, each
        entry correctly rounded."""
        values, _ = _entries_at(self.entries, self.log_den, _top_bits(self.entries))
        a = np.zeros((self.dim, self.dim))
        a[self.rows, self.cols] = values
        a[self.cols, self.rows] = values
        return a


def _rhs_signs(b: Sequence[int]) -> np.ndarray:
    """b as one int64 array by ``sign_array``, or a ValidationError that
    names every entry other than +1 and -1 by its index."""
    signs = sign_array(b)
    if signs is None:
        raise ValidationError(sign_violations(b))
    return signs


def _top_bits(nums: np.ndarray) -> int:
    """Bit length of the largest |numerator|."""
    if not len(nums):
        return 0
    # no abs: it overflows on -2^63 in int64
    return max(int(nums.max()), -int(nums.min())).bit_length()


def _entries_at(nums: np.ndarray, log_scales, top: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(values, errors) of integer numerators, each at its own scale: value
    i is nums[i] * 2^-log_scales[i] correctly rounded (an int scales them
    all), and errors bounds each value's rounding error, or is None when
    every value is exact. ``top`` is ``_top_bits(nums)``.

    Numerators below 2^53 at scales of 2^-1074 or coarser convert exactly
    through one float and ``ldexp``; otherwise every value is an int / int
    division, which Python rounds correctly at any size.
    """
    if top <= 53 and np.max(log_scales) <= 1074:
        return np.ldexp(nums.astype(np.float64), np.negative(log_scales)), None
    nums = nums.tolist()
    scales = np.broadcast_to(log_scales, len(nums)).tolist()
    rounded = [num / (1 << scale) for num, scale in zip(nums, scales)]
    # below 2^53 a normal value, and zero, is exact; anything else is off by < 1 ulp
    errors = [
        0.0 if num == 0 or (-(1 << 53) < num < 1 << 53 and abs(v) >= _MIN_NORMAL) else math.ulp(v)
        for num, v in zip(nums, rounded)
    ]
    return np.array(rounded), np.array(errors)


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays one after the other along their last axis; a single one is
    not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=-1)


def _gamma_of(degrees: np.ndarray, trace_degree: int) -> np.ndarray:
    """deg_S + d of every row S, with d = trace_degree / dim, each correctly
    rounded as Python's int / int is: by one float division while every
    deg_S * dim + d * dim stays below 2^53, where both operands are exact
    floats and IEEE division rounds their quotient correctly too."""
    dim = len(degrees)
    if degrees.dtype != object and int(degrees.max()) * dim + trace_degree < 1 << 53:
        return (degrees * dim + trace_degree) / dim
    return np.array([(deg * dim + trace_degree) / dim for deg in degrees.tolist()])


def _gamma(op: KikuchiOperator) -> np.ndarray:
    """deg_S + d of every row S of one operator."""
    return _gamma_of(op.degrees, op.trace_degree)


def _kikuchi_dim(n: int, k: int, r: int, dense_cap: int) -> int:
    """Side length C(n, r) of the level-r matrix for arity k; ResourceCap if
    the level does not exist or the side exceeds ``dense_cap``."""
    if r < k // 2:
        raise ResourceCap(f"level r={r} below k/2={k // 2}")
    if r - k // 2 > n - k:
        raise ResourceCap(f"level r={r} too large for n={n}, k={k}")
    dim = comb(n, r)
    if dim > dense_cap:
        raise ResourceCap(f"dimension C({n},{r})={dim} exceeds cap {dense_cap}")
    return dim


class _Layout(NamedTuple):
    """What the spectral proof reads of the patterns of a stack of operators
    of one side length, whatever the signed sums (its steps 1-2). G is
    Gamma rounded down, and D the powers of two that put D^-2 G in
    [1/2, 2). A batch's shape lays out each of its stacks once."""

    starts: np.ndarray  # where each operator's positions start, then where the last ends
    which: np.ndarray  # the operator of each position
    pair: np.ndarray  # D^-1_S D^-1_T at each position (S, T)
    at: np.ndarray  # each position's place in the flattened stack; its mirror's below
    scale: np.ndarray  # (D^-2 G)^-1/2, the estimate's scale, a row per operator
    diag: np.ndarray  # D^-2 G, a row per operator
    diag_sum: np.ndarray  # tr(D^-2 G) summed upward, per operator


@dataclass(frozen=True, eq=False)
class KikuchiPattern:
    """Where the level-r matrix of a list of distinct edges can be nonzero,
    and its degrees.

    Position i of the strict upper triangle, at (rows[i], cols[i]) in
    increasing (row, column) order, holds the signed sum of distinct edge
    ``edge[i]``: S xor T determines the edge, so no position holds two.
    ``degrees`` are those of ``KikuchiOperator``; they sum to the trace
    degree, d times the side. Only the edges, their copies and the level fix
    a pattern, not the signed sums. Its arrays are read-only: every later
    target reads them.
    """

    rows: np.ndarray
    cols: np.ndarray
    edge: np.ndarray
    degrees: np.ndarray


@dataclass(frozen=True)
class PreparedPart:
    """One edge size of a scheme as its distinct edges, the right-hand side
    left open.

    Distinct edge j is the vertex bitmask ``edges[j]`` over n vertices, with
    ``copies[j]`` copies and ``live[j]`` live ones (of nonzero weight, the
    ones the odd split pairs). Its signed sum of b * w, an integer at the
    scale 2^-log_den, is row ``rows.start + j`` of the signed sums that the
    part is read with: an int64 array, or an object array of Python ints.
    ``m`` counts copies, so the degrees, d and the trace degree of the
    Kikuchi matrix are those of the per-copy instance.

    A scheme's parts come from ``prepare_rows``, those under
    ``split_weights`` from ``PreparedSchemes.unit_schemes`` and an odd
    part's buckets from its ``pairing``. What depends on the edges alone is
    kept for every target: ``patterns`` maps a level to its
    ``KikuchiPattern``, and ``pairing``; each is built at its first target.
    """

    n: int
    k: int
    log_den: int
    rows: slice
    m: int
    edges: tuple[int, ...]
    copies: tuple[int, ...]
    live: tuple[int, ...]
    patterns: dict[int, KikuchiPattern] = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def pairing(self) -> tuple:
        """What ``odd_to_even`` reads of an odd part whatever its signed
        sums: (kept, a, b, heads, by_size, n_groups, buckets). ``kept`` are
        the live edges, by lowest vertex, so that each of the n_groups groups
        is a run; pair p is (kept[a[p]], kept[b[p]]), and the pairs of each
        bucket edge form a run from ``heads``. ``buckets`` maps a size to a
        part whose rows are those of the runs taken in ``by_size`` order.

        By array arithmetic: a stable sort by lowest bit makes the groups,
        every in-group pair comes from one prefix of the pairs of the
        largest group, a sort by symmetric difference makes the runs, and a
        stable sort of the bucket edges by size orders the buckets. A bucket
        holds its edges in increasing bitmask order, and both orderings of
        each pair: its copies are twice the sum of live_a * live_b. Masks
        are int64 up to 63 vertices, Python ints past them; live copies are
        multiplied in int64 while twice their largest square times the
        number of pairs stays below 2^63."""
        live = int_array(self.live)
        kept = np.flatnonzero(live)
        masks = np.array(self.edges, dtype=np.int64 if self.n <= 63 else object)[kept]
        low = masks & -masks
        order = np.argsort(low, kind="stable")
        kept, masks, live = kept[order], masks[order], live[kept][order]
        starts = np.flatnonzero(_run_heads(low[order]))
        sizes = np.diff(starts, append=len(masks))
        # pair p of a group of g edges is (col[p], row[p]) for p below C(g, 2)
        row, col = np.tril_indices(int(sizes.max(initial=0)), -1)
        counts = sizes * (sizes - 1) // 2
        n_pairs = int(counts.sum())
        first = np.repeat(starts, counts)
        p = np.arange(n_pairs) - np.repeat(np.cumsum(counts) - counts, counts)
        a, b = first + col[p], first + row[p]
        sym = masks[a] ^ masks[b]
        by_sym = np.argsort(sym)
        a, b, sym = a[by_sym], b[by_sym], sym[by_sym]
        heads = np.flatnonzero(_run_heads(sym))
        edges = sym[heads]
        if edges.dtype == object:
            bits = np.array([e.bit_count() for e in edges.tolist()], dtype=np.int64)
        else:
            bits = np.bitwise_count(edges)
        by_size = np.argsort(bits, kind="stable")
        live = _for_products(live, n_pairs)
        copies = (2 * np.add.reduceat(live[a] * live[b], heads))[by_size].tolist()
        edges, bits = edges[by_size].tolist(), bits[by_size]
        buckets = {}
        ends = np.flatnonzero(_run_heads(bits)).tolist() + [len(heads)]
        for lo, hi in zip(ends, ends[1:]):
            size, bucket_copies = int(bits[lo]), tuple(copies[lo:hi])
            buckets[size] = PreparedPart(
                self.n, size, 2 * self.log_den, slice(lo, hi), sum(bucket_copies),
                tuple(edges[lo:hi]), bucket_copies, bucket_copies,
            )
        return kept, a, b, heads, by_size, len(starts), buckets


@dataclass(frozen=True)
class PreparedScheme:
    """What refutation reads of a weighted scheme that does not depend on its
    right-hand side: per edge size, in increasing size, the distinct edges.

    ``log_den`` is the scheme's finest weight scale. Its live copies are the
    slots ``span`` of the incidence of the ``PreparedSchemes`` that holds
    it, whose ``m`` is its number of edges.
    """

    n: int
    log_den: int
    parts: tuple[PreparedPart, ...]
    span: tuple[int, int]

    @property
    def zero(self) -> bool:
        """True if the scheme has no edges or every weight is zero."""
        return self.span[0] == self.span[1]


@dataclass(frozen=True)
class PreparedSchemes:
    """Weighted schemes over one right-hand side of length m, each read once.

    Every live copy (one of nonzero weight) of every scheme has an integer
    incidence: the row of its distinct edge, its position in the rhs, and
    its units w * 2^L at its scheme's scale. For a target b, the signed sum
    of an edge is the sum of b * w * 2^L over its live copies, so one
    scatter-add gives the sums of all schemes at once; its unit copies are
    the same row sum with the sign of w in place of b. The units' dtype is
    the one rule for every sum: an int64 array whose absolute values sum
    below 2^63 (``prepare_rows``'s precondition) keeps every signed sum,
    and every sum of |signed sum|, exact in int64; an object array of
    Python ints keeps them exact at any size.

    What depends on the schemes alone is kept for every target: each part's
    Kikuchi patterns and an odd part's pairing, built at the part's first
    target, the parts under ``split_weights`` (``unit_schemes``), and in
    ``plans`` one ``_Plan`` per set of knobs, whose batch shape lays out
    each stack of the proof once. Every target computes its signed sums,
    splits its odd parts, gathers the values of every operator at once,
    proves them in one call and folds the bounds by the plan of its knobs.
    """

    m: int
    schemes: tuple[PreparedScheme, ...]
    n_rows: int
    rows: np.ndarray
    outputs: np.ndarray
    units: np.ndarray
    plans: dict = field(default_factory=dict, compare=False, repr=False)

    def _row_sums(self, signs: np.ndarray) -> np.ndarray:
        """Exact sum of signs[i] * units[i] over the live copies i of every
        distinct edge, by row, for an int64 array of one +-1 per live copy:
        one scatter-add into an array of the units' dtype, which no sum
        leaves while ``prepare_rows``'s precondition holds."""
        sums = np.zeros(self.n_rows, dtype=self.units.dtype)
        np.add.at(sums, self.rows, signs * self.units)
        return sums

    def signed_sums(self, b: Sequence[int] | np.ndarray) -> np.ndarray:
        """Signed sum of b * w * 2^L of every distinct edge, by row; an int64
        array b is read as it is."""
        return self._row_sums(np.asarray(b, dtype=np.int64)[self.outputs])

    @cached_property
    def unit_schemes(self) -> tuple[np.ndarray, tuple[PreparedScheme, ...]]:
        """(rows, schemes): every scheme again with its parts under
        ``split_weights``, and the rows of the signed sums that those parts
        read, in their order.

        A copy of weight num * 2^-L counts as |num| live copies of weight
        2^-L with the sign of num moved into their rhs: an edge's copies are
        the sum of |w| * 2^L over its live copies, and its signed sum is
        unchanged. Zero weights leave no copy, so edges and sizes with no
        weight drop out. Built at the first target that asks for it, and
        kept with the parts' patterns for every later one."""
        units = self._row_sums(np.where(self.units < 0, -1, 1))
        rows, schemes, at = [], [], 0
        for scheme in self.schemes:
            parts = []
            for part in scheme.parts:
                own = units[part.rows]
                kept = np.flatnonzero(own)
                if len(kept):
                    copies = tuple(own[kept].tolist())
                    parts.append(PreparedPart(
                        part.n, part.k, part.log_den, slice(at, at + len(kept)), sum(copies),
                        tuple(part.edges[j] for j in kept.tolist()), copies, copies,
                    ))
                    rows.append(kept + part.rows.start)
                    at += len(kept)
            schemes.append(replace(scheme, parts=tuple(parts)))
        return np.concatenate(rows or [np.zeros(0, dtype=np.intp)]), tuple(schemes)

    def refute(self, b: Sequence[int], params: RefuteParams | None = None) -> list[Certificate]:
        """``refute`` of every scheme with right-hand side b, in order."""
        if len(b) != self.m:
            raise ValidationError([f"{len(b)} rhs signs for {self.m} edges"])
        return self._refute(_rhs_signs(b), params or RefuteParams())

    @cached_property
    def nonzero(self) -> tuple[int, ...]:
        """The indices of the schemes with a live copy. Every other scheme
        has no edge or no weight, and its certificate is the shared
        ``_ZERO``, bound 0."""
        return tuple(j for j, scheme in enumerate(self.schemes) if not scheme.zero)

    def _refute(self, b: Sequence[int] | np.ndarray, params: RefuteParams) -> list[Certificate]:
        """The certificates of the plan of ``params`` for right-hand side b,
        one +-1 per edge that is not checked here, recorded at the first
        target with these knobs. Every target computes its signed sums,
        splits the plan's odd parts (the first target takes the splits the
        record made), gathers every operator's values from both at once and
        hands them to the plan's proof and fold."""
        certs = [_ZERO] * len(self.schemes)
        if not self.nonzero:  # every scheme is zero and reads no sum
            return certs
        sums = self.signed_sums(b)
        if params.split_weights:
            sums = sums[self.unit_schemes[0]]
        plan = self.plans.get(params)
        if plan is None:
            plan, splits = _Plan.record(self, sums, params)
            self.plans[params] = plan
        else:
            splits = [odd_to_even(part, sums) for part in plan.odd]
        values = _joined([sums] + [split.sums for split in splits])[plan.gather]
        for j, cert in zip(self.nonzero, plan.certificates(sums, splits, values)):
            certs[j] = cert
        return certs


# Distinct rows are found through a table over the code space while it holds
# at most this many entries per row, and by sorting the codes past that.
_DENSE_CODES = 4


def _number_rows(
    scheme: np.ndarray, edges: np.ndarray, n_schemes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(number of each row's distinct key, the distinct keys in number order)
    for the keys (scheme, size, vertices) of rows whose vertices are padded
    with -1 at their end, the size counting the others: numbered by scheme,
    then size, then first row.

    Each row gets one int64 code, its scheme and its vertices + 1 as
    mixed-radix digits, the radix one past the largest digit. The first row
    of every distinct code, and the distinct code of every row, come from a
    table over the code space while that space is at most ``_DENSE_CODES``
    times the rows, else from one stable sort of the codes. Where a code
    would not fit in int64, the rows' columns are sorted instead. Only the
    distinct keys are reduced along their rows.
    """
    count, width = edges.shape
    radix = int(edges.max(initial=-1)) + 2
    space = n_schemes * radix**width
    if space > 1 << 63:
        keys = np.column_stack((scheme, edges))
        by_key = np.lexsort(keys.T[::-1])
        ordered = keys[by_key]
        first, inverse = _runs(by_key, ordered)
    else:
        code = scheme.astype(np.int64)
        for column in edges.T:
            code *= radix
            code += column + 1
        if space <= _DENSE_CODES * count:
            first = np.full(space, count, dtype=np.intp)
            np.minimum.at(first, code, np.arange(count))
            codes = np.flatnonzero(first < count)
            first = first[codes]
            index = np.empty(space, dtype=np.intp)
            index[codes] = np.arange(len(codes))
            inverse = index[code]
        else:
            by_key = np.argsort(code, kind="stable")
            ordered = code[by_key]
            first, inverse = _runs(by_key, ordered)
    vertices = edges[first]
    schemes = scheme[first]
    sizes = (vertices >= 0).sum(axis=1)
    order = np.lexsort((first, sizes, schemes))
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.arange(len(order))
    return number[inverse], np.column_stack((schemes, sizes, vertices))[order]


def _run_heads(ordered: np.ndarray) -> np.ndarray:
    """Whether each row of a sorted array, of values or of keys, starts a
    run of equal rows."""
    head = np.ones(len(ordered), dtype=bool)
    change = ordered[1:] != ordered[:-1]
    head[1:] = change.any(axis=1) if change.ndim > 1 else change
    return head


def _runs(by_key: np.ndarray, ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct key, each row's distinct key), given a
    stable sort ``by_key`` of the rows and the keys in that order: the first
    row of each key heads its run."""
    head = _run_heads(ordered)
    inverse = np.empty(len(by_key), dtype=np.intp)
    inverse[by_key] = np.cumsum(head) - 1
    return by_key[head], inverse


def _bitmasks(vertices: np.ndarray) -> list[int]:
    """The vertex bitmask of each row of vertices, padded with -1 at its
    end: one shift and sum in int64 while every vertex is below 63, a
    Python int per row past that."""
    if vertices.max(initial=-1) < 63:
        return np.left_shift(vertices >= 0, vertices.clip(0)).sum(axis=1).tolist()
    return [sum(1 << x for x in v if x >= 0) for v in vertices.tolist()]


def prepare_rows(
    m: int,
    schemes: Sequence[tuple[int, int]],
    scheme: np.ndarray,
    edges: np.ndarray,
    outputs: np.ndarray,
    units: np.ndarray,
    counts: np.ndarray,
) -> PreparedSchemes:
    """Prepare schemes over a rhs of length m from rows of copies, unchecked.

    ``schemes`` gives each scheme's vertex count n and the scale 2^-L of its
    units. Row i, in scheme ``scheme[i]``, stands for ``counts[i]`` copies of
    the edge whose vertices are ``edges[i]``, padded with -1 to the array's
    width, each of weight ``units[i]`` * 2^-L. A row of nonzero weight is one
    copy, at rhs position ``outputs[i]``. Rows come in scheme order. ``units``
    is an int64 array whose absolute values sum below 2^63, or an object
    array of Python ints: the dtype of every sum the prepared schemes take,
    which that bound keeps exact.

    Each scheme is put at its finest weight scale in lowest terms: L drops by
    the powers of two that all its units share, but never below 0, so a
    scheme with no weight is at the scale 2^0. Its distinct edges are found
    as vertex bitmasks, with their copies and live copies, grouped by size
    in increasing order and, within a size, ordered by their first row; they
    are numbered consecutively across the schemes. The live copies keep
    their row order in the incidence.
    """
    row, distinct = _number_rows(scheme, edges, len(schemes))
    n_rows = len(distinct)
    live = np.flatnonzero(units != 0)
    live_row = row[live]
    live_scheme = scheme[live]
    live_units = units[live]
    sizes = np.bincount(live_scheme, minlength=len(schemes))
    ends = np.cumsum(sizes)
    log_dens = np.array([log_den for _, log_den in schemes], dtype=np.int64)
    shift = log_dens.copy()  # a scheme with no live copy goes to the scale 2^0
    used = np.flatnonzero(sizes)
    if len(used):
        shared = np.bitwise_or.reduceat(np.abs(live_units), (ends - sizes)[used]).tolist()
        shift[used] = np.minimum(shift[used], [(s & -s).bit_length() - 1 for s in shared])
        live_units = live_units >> shift[live_scheme].astype(live_units.dtype)
    log_dens -= shift
    copies = np.bincount(row, counts, n_rows).astype(np.int64).tolist()
    live_copies = np.bincount(live_row, minlength=n_rows).tolist()

    parts: list[list[PreparedPart]] = [[] for _ in schemes]
    heads = distinct[:, :2].tolist()
    masks = _bitmasks(distinct[:, 2:])
    log_dens = log_dens.tolist()
    starts = np.flatnonzero(_run_heads(distinct[:, :2])).tolist()  # where a (scheme, size) starts
    for lo, hi in zip(starts, starts[1:] + [n_rows]):
        j, k = heads[lo]
        parts[j].append(PreparedPart(
            schemes[j][0],
            k,
            log_dens[j],
            slice(lo, hi),
            sum(copies[lo:hi]),
            tuple(masks[lo:hi]),
            tuple(copies[lo:hi]),
            tuple(live_copies[lo:hi]),
        ))
    ends = ends.tolist()
    prepared = tuple(
        PreparedScheme(n, log_den, tuple(scheme_parts), (start, end))
        for (n, _), log_den, scheme_parts, start, end in zip(
            schemes, log_dens, parts, [0] + ends, ends
        )
    )
    return PreparedSchemes(
        m,
        prepared,
        n_rows,
        live_row,
        outputs[live].astype(np.intp),
        live_units,
    )


def _prepare_instance(inst: XorInstance) -> PreparedSchemes:
    """The scheme of a validated instance, prepared from its packed edges
    and weight arrays: a row per edge, at its rhs position, with units at
    the scale of its finest weight. Units are shifted in int64 while the
    largest numerator, shift and edge count leave every unit and their sum
    below 2^63, and as Python ints past that; no shift exceeds
    ``MAX_LOG_DEN``."""
    vertices, sizes, _ = inst.scheme.hypergraph.packed
    nums, log_dens = inst.scheme.weight_arrays
    m = inst.m
    log_den = int(log_dens.max(initial=0))
    shifts = log_den - log_dens
    if nums.dtype == object or _top_bits(nums) + int(shifts.max(initial=0)) + m.bit_length() > 63:
        nums = nums.astype(object)
    units = nums << shifts.astype(nums.dtype)
    padded = np.full((m, int(sizes.max(initial=0))), -1, dtype=np.int64)
    padded[np.arange(padded.shape[1]) < sizes[:, None]] = vertices
    return prepare_rows(
        m,
        [(inst.n, log_den)],
        np.zeros(m, dtype=np.int64),
        padded,
        np.arange(m),
        units,
        np.ones(m, dtype=np.int64),
    )


def _colex_table(n: int, r: int) -> np.ndarray:
    """C(v, p + 1) at v * r + p wherever vertex v can sit at position p of
    an r-subset of range(n), else 0; every value is below C(n, r), so int64
    holds it. A subset's colex rank is the sum of its vertices' values."""
    values = [comb(v, p + 1) if p <= v <= n - r + p else 0 for v in range(n) for p in range(r)]
    return np.array(values, dtype=np.int64)


def _colex_ranks(chosen: np.ndarray, added: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Colex ranks, by ``_colex_table``, of the subsets chosen | added: the
    last axes hold each subset's two disjoint parts in increasing order,
    the other axes broadcast. A vertex's position counts the vertices of
    the other part below it."""
    below = added[..., None, :] < chosen[..., :, None]
    half, r = chosen.shape[-1], chosen.shape[-1] + added.shape[-1]
    at_chosen = chosen * r + np.arange(half) + below.sum(axis=-1)
    at_added = added * r + np.arange(half, r) - below.sum(axis=-2)
    return table[at_chosen].sum(axis=-1) + table[at_added].sum(axis=-1)


def _kikuchi_pattern(
    n: int, k: int, r: int, edges: Sequence[int], copies: Sequence[int]
) -> KikuchiPattern:
    """The level-r pattern of distinct edges (vertex bitmasks) with their
    copies, by index arithmetic over every (edge, S, T) at once.

    A pair (S, T) with S xor T equal to an edge splits the edge into two
    halves of k/2 vertices, S's and T's, and adds the same r - k/2 vertices
    outside the edge to both. Each unordered pair is made once, with S's
    half holding the edge's lowest vertex; it gives the entry at
    (min, max) of the two ranks, and the edge's copies to the degree of
    both rows. Arrays are sized by each edge's k vertices, taken off its mask
    lowest bit first, and above r = k/2 by the vertices outside it. Degrees
    are float sums, exact below a trace degree of 2^53, then int64 sums, and
    Python ints past 2^63."""
    half, dim = k // 2, comb(n, r)
    masks = np.array(edges, dtype=np.int64 if n <= 63 else object)
    verts = np.empty((len(edges), k), dtype=np.intp)
    for p in range(k):
        low = masks & -masks
        verts[:, p] = np.bitwise_count(low - 1) if n <= 63 else [x.bit_length() - 1 for x in low]
        masks ^= low
    firsts = [c for c in combinations(range(k), half) if c[0] == 0]
    seconds = [[p for p in range(k) if p not in c] for c in firsts]
    table = _colex_table(n, r)
    if r == half:
        s, t = (table[verts[:, h] * r + np.arange(half)].sum(axis=-1).ravel() for h in (firsts, seconds))
    else:
        member = np.zeros((len(edges), n), dtype=bool)
        member[np.arange(len(edges))[:, None], verts] = True
        outside = np.nonzero(~member)[1].reshape(-1, n - k)
        picks = np.array(list(combinations(range(n - k), r - half)), dtype=np.intp)
        added = outside[:, picks][:, None]  # edge, 1, pick, vertex
        s, t = (_colex_ranks(verts[:, h][:, :, None], added, table).ravel() for h in (firsts, seconds))
    per_edge = len(firsts) * comb(n - k, r - half)  # the pairs of each edge, one run of s and t
    rows, cols = np.minimum(s, t), np.maximum(s, t)
    order = np.argsort(rows * dim + cols)

    total = 2 * per_edge * sum(copies)
    dtype = float if total < 1 << 53 else np.int64 if total < 1 << 63 else object
    weight = np.repeat(np.array(copies, dtype=dtype), per_edge)
    if dtype is float:
        degrees = (np.bincount(s, weight, dim) + np.bincount(t, weight, dim)).astype(np.int64)
    else:
        degrees = np.zeros(dim, dtype=dtype)
        np.add.at(degrees, s, weight)
        np.add.at(degrees, t, weight)
    assert degrees.sum() == total
    pattern = KikuchiPattern(rows[order], cols[order], order // per_edge, degrees)
    # every later target's operator shares these, its degrees as they are
    for array in (pattern.rows, pattern.cols, pattern.edge, pattern.degrees):
        array.flags.writeable = False
    return pattern


def build_kikuchi(
    part: PreparedPart, sums: np.ndarray, r: int, dense_cap: int = RefuteParams.dense_cap
) -> KikuchiOperator:
    """The level-r matrix of an even part with the signed sums it reads its
    rows of: a scheme's part, one under ``split_weights``, or a bucket of
    ``odd_to_even`` with that split's sums.

    The level's ``KikuchiPattern`` comes from ``part.patterns``, or is built
    there by ``_kikuchi_pattern`` if it is the first for these edges. The
    operator then gathers each position's signed sum, zeros included: exact
    integers at the part's scale, of the dtype of ``sums``. A level that
    does not exist, whose side exceeds ``dense_cap``, or whose trace degree
    reaches 2^1022, which would put Gamma past the float range, raises
    ResourceCap before anything is built.
    """
    if part.m == 0:
        # d = 0 would make the reweighting singular; the caller certifies 0
        raise ValidationError(["kikuchi build needs at least one edge"])
    n, k = part.n, part.k
    if k % 2 != 0 or k < 2:
        raise ValidationError([f"kikuchi build needs an even arity >= 2, got {k}"])
    _kikuchi_dim(n, k, r, dense_cap)
    multiplier = comb(k, k // 2) * comb(n - k, r - k // 2)
    trace_degree = part.m * multiplier
    if trace_degree >= 1 << 1022:
        raise ResourceCap(f"trace degree of {trace_degree.bit_length()} bits past the float range")
    pattern = part.patterns.get(r)
    if pattern is None:
        pattern = part.patterns[r] = _kikuchi_pattern(n, k, r, part.edges, part.copies)
    return KikuchiOperator(
        n, k, r, part.m, pattern, sums[part.rows][pattern.edge], part.log_den, multiplier
    )


# Interval matrices: (mid, rad) with the true matrix within mid +- rad.
#
# Rounding to a float maps x to x (1 + delta) + eta with |delta| <= u = 2^-53
# and |eta| <= 2^-1075, half the smallest subnormal _TINY; eta is nonzero only
# where the result is subnormal, and a sum that comes out subnormal is exact.
# The relative terms below cover delta, and an absolute term covers eta.

_TINY = 2.0**-1074


def _reweighted_interval(op: KikuchiOperator) -> tuple[np.ndarray, np.ndarray]:
    """Gamma^-1 A as an interval matrix.

    mid_ij = fl(a_ij / g_i), with a_ij = fl(A_ij) and g_i = fl(Gamma_i)
    correctly rounded; g_i is normal, so its eta is 0. Then
    mid_ij - A_ij / Gamma_i = (A_ij / Gamma_i) ((1 + d1)(1 + d3) / (1 + d2) - 1)
    + eta1 (1 + d3) / g_i + eta3. The first term is at most
    3.01 u |A_ij / Gamma_i|: 4 u |mid_ij| covers it while mid_ij is normal,
    and below 2^-1022 it is under 4 * 2^-1075. The other two are under
    2^-1075 (1 + 1.01 / g_i). The radius adds 4 _TINY (1 + 1 / g_i) =
    8 * 2^-1075 (1 + 1 / g_i), which covers these absolute parts together
    with the rounding of the radius itself, at most 2^-1075 per operation
    where it is subnormal.
    """
    gamma = _gamma(op)
    mid = op.dense_matrix() / gamma[:, None]
    rad = 4.0 * _EPS * np.abs(mid) + (4.0 * _TINY * (1.0 + 1.0 / gamma))[:, None]
    return mid, rad


def _interval_matmul(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The product of two interval matrices.

    A float product P of dim x dim matrices X and Y satisfies
    |P - XY| <= gamma |X||Y| + dim 2^-1075 (1 + gamma) entrywise: each of
    the dim terms of an entry carries its own eta, and the sums after it
    grow it by at most the factor 1 + gamma. Of the five products here,
    mid's etas go into the radius as they are, each of the three terms of
    the radius can fall short by its own, and absprod's enter multiplied by
    gamma: under 5 dim 2^-1075 in all. The absolute term 4 dim _TINY =
    8 dim 2^-1075 covers them with room for the last roundings.
    """
    amid, arad = a
    bmid, brad = b
    dim = amid.shape[0]
    gamma = (dim + 4) * _EPS / (1 - (dim + 4) * _EPS)
    mid = amid @ bmid
    absprod = np.abs(amid) @ np.abs(bmid)
    rad = np.abs(amid) @ brad + arad @ np.abs(bmid) + arad @ brad
    rad += gamma * absprod
    rad *= 1.0 + 8.0 * gamma  # slack for the float evaluation of rad itself
    rad += 4.0 * _EPS * np.abs(mid)
    rad += 4.0 * dim * _TINY
    return mid, rad


def _interval_power(
    base: tuple[np.ndarray, np.ndarray], exponent: int
) -> tuple[np.ndarray, np.ndarray]:
    result = None
    square = base
    e = exponent
    while e:
        if e & 1:
            result = square if result is None else _interval_matmul(result, square)
        e >>= 1
        if e:
            square = _interval_matmul(square, square)
    assert result is not None
    return result


def _powering_matmuls(q: int) -> int:
    if q <= 1:
        return 0
    return (q.bit_length() - 1) + (q.bit_count() - 1)


# Largest trace power used. The exact check of the ell-th root costs about
# ell^2 and takes under 1 ms at this ell. Against any larger ell the bound
# loosens by at most a factor dim^(1/ELL_CAP), 1.0082 at the default dense_cap.
ELL_CAP = 1024


def truncate_ell(ell: int, dim: int, work_flops: float) -> int:
    """Largest even power <= min(ell, ELL_CAP) whose dense powering fits the
    flop budget."""
    ell = min(ell, ELL_CAP)
    ell = max(2, ell - (ell % 2))
    per_matmul = 10.0 * float(dim) ** 3  # one interval matmul ~ 5 real products
    while ell > 2 and _powering_matmuls(ell // 2) * per_matmul > work_flops:
        ell -= 2
    return ell


def _check_ell(ell: int) -> None:
    if ell < 2 or ell % 2 != 0:
        raise ValidationError([f"trace certificate needs even ell >= 2, got {ell}"])


def trace_certificate(
    op: KikuchiOperator, ell: int, work_flops: float = RefuteParams.work_flops
) -> tuple[float, int]:
    """Upper bound trace((Gamma^-1 A)^ell)^(1/ell) on the reweighted spectral
    norm, with all rounding error pushed upward. Returns (bound, ell used)."""
    _check_ell(ell)
    dim = op.dim
    ell = truncate_ell(ell, dim, work_flops)
    if op.empty:
        return 0.0, ell
    pmid, prad = _interval_power(_reweighted_interval(op), ell // 2)
    raw = float(np.sum(pmid * pmid.T))
    slack = float(
        2.0 * np.sum(np.abs(pmid) * prad.T)
        + np.sum(prad * prad.T)
        + 4.0 * dim * dim * _EPS * np.sum(np.abs(pmid * pmid.T))
        # underflow: a sum of dim^2 products loses under
        # dim^2 2^-1075 (1 + gamma) to their etas. raw, the doubled first
        # sum of slack and its second lose (1 + 2 + 1) times that; the
        # third's loss enters scaled by 4 dim^2 eps < 1. Under
        # 8 dim^2 2^-1075 in all
        + 4.0 * dim * dim * _TINY
    )
    trace_up = max(raw + slack, 0.0)
    return _root_up(_up(trace_up), ell), ell


# From this matrix side up the top eigenvalue is estimated by _LANCZOS_STEPS
# Lanczos steps instead of np.linalg.eigvalsh. Measured with one BLAS thread
# on random 2-XOR and 4-XOR operators: the whole certificate by Lanczos beat
# the one by eigvalsh from side 190 up (by 3-34%), tied at 180 and lost at
# 170 and below (by 7-140%).
_LANCZOS_FROM = 180
_LANCZOS_STEPS = 64
# Relative error of the 64-step estimate, above the largest seen (1e-8) on
# the benchmark's dim-1140 operators; the first rung of the ladder covers it.
_LANCZOS_ERROR = 2.0**-26
# Rungs of the ladder: multiples of the first raise delta of the estimate.
_LADDER = (1, 16, 256, 4096, 65536)


def _lanczos_top(upper: tuple[np.ndarray, np.ndarray, np.ndarray], scale: np.ndarray) -> float:
    """Largest |Ritz value| of diag(scale) A diag(scale), for the symmetric A
    with zero diagonal whose strict upper triangle ``upper`` gives as
    (rows, columns, values) in increasing row order, after _LANCZOS_STEPS
    Lanczos steps from a fixed pseudorandom start, each new vector
    orthogonalised twice against all earlier ones. Each step multiplies by
    the stored entries only: the upper triangle row by row, the lower one
    by a bincount over the columns."""
    rows, cols, values = upper
    dim = len(scale)
    values = values * scale[rows] * scale[cols]
    # the first entry of each row that has one: reduceat would give an
    # empty row the entry at its index, not 0, so such rows are skipped
    heads = np.flatnonzero(np.diff(rows, prepend=-1))
    filled = rows[heads]

    def times(x: np.ndarray) -> np.ndarray:
        y = np.bincount(cols, values * x[rows], dim)
        y[filled] += np.add.reduceat(values * x[cols], heads)
        return y

    basis = np.empty((_LANCZOS_STEPS, dim))
    q = np.random.default_rng(0).standard_normal(dim)  # its own generator: calls repeat bitwise
    q /= np.linalg.norm(q)
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(_LANCZOS_STEPS):
        basis[j] = q
        w = times(q)
        size = np.linalg.norm(w)
        known = basis[: j + 1]
        h = known @ w
        alpha.append(h[j])
        w -= h @ known
        w -= (known @ w) @ known
        norm = np.linalg.norm(w)
        if j + 1 == _LANCZOS_STEPS or norm <= dim * _EPS * size:
            break  # the steps are spent, or the Krylov space is invariant
        beta.append(norm)
        q = w / norm
    ritz = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    return float(max(-ritz[0], ritz[-1]))


def _estimate_top(
    a: np.ndarray, upper: tuple[np.ndarray, np.ndarray, np.ndarray] | None, scale: np.ndarray
) -> np.ndarray:
    """Largest |eigenvalue| of each diag(scale_i) a_i diag(scale_i), not
    certified, for a stack a of symmetric matrices with zero diagonal and a
    row of ``scale`` per matrix. From ``_LANCZOS_FROM`` up the stack holds
    one matrix, whose strict upper triangle ``upper`` gives as (rows,
    columns, values)."""
    if a.shape[-1] >= _LANCZOS_FROM:
        return np.array([_lanczos_top(upper, scale[0])])
    eigvals = np.linalg.eigvalsh(a * scale[:, :, None] * scale[:, None, :])
    return np.maximum(-eigvals[:, 0], eigvals[:, -1])


def _sides(a: np.ndarray, stacked: bool):
    """-a, then +a, for a stack a of shape (count, n, n): both in one stack
    of 2 count matrices for small ones, so one LAPACK call serves them all;
    else a itself, negated in place between the two, so no second stack is
    made."""
    if stacked:
        both = np.empty((2, *a.shape))
        np.negative(a, out=both[0])
        both[1] = a
        yield both.reshape(-1, *a.shape[1:])
        return
    a *= -1.0
    yield a
    a *= -1.0
    yield a


def _up_each(x):
    """Each value one float upward: ``_up`` of arrays as of scalars."""
    return np.nextafter(x, np.inf)


def _shift(n: int, lam, diag_sum, tail):
    """The shift c of ``spectral_certificate``, evaluated upward:
    gamma_{n+2} / (1 - gamma_{n+2}) times tr(M) <= lam * diag_sum, plus
    ``tail``, plus a generous bound on what underflow adds. The last three
    are arrays with a value per operator, or floats."""
    ku = (n + 2) * _EPS  # exact
    growth = _up(ku / (1.0 - 2.0 * ku))  # gamma_{n+2} / (1 - gamma_{n+2})
    underflow = 2.0**-1019 * n * (n + 3 + 2.0 * lam)  # diagonal entries < 2 lam
    return _up_each(_up_each(_up_each(growth * _up_each(lam * diag_sum)) + tail) + underflow)


def _cholesky_proves(
    stack: np.ndarray, diag: np.ndarray, lam: np.ndarray, shift: np.ndarray
) -> bool:
    """Whether the float Cholesky of every matrix in ``stack`` runs to
    completion once its diagonal is set to lam_i * diag_i rounded down,
    minus shift_i rounded down. ``diag`` has a row per operator and
    ``lam`` and ``shift`` a value; the stack holds one matrix of each
    operator, in their order, once or more. Overwrites the stack's
    diagonals."""
    count, n = diag.shape
    m_diag = np.nextafter(lam[:, None] * diag, 0.0)
    # written through the C-order stack: a reshape of its transpose is a copy
    stack.reshape(-1, count, n * n)[..., :: n + 1] = np.nextafter(m_diag - shift[:, None], -np.inf)
    try:
        # the transpose, equal to the symmetric stack, is in LAPACK's
        # column-major order, so numpy copies it in contiguously
        np.linalg.cholesky(stack.transpose(0, 2, 1))  # LinAlgError at the first pivot <= 0
    except np.linalg.LinAlgError:
        return False
    return True


def _layout(patterns: Sequence[KikuchiPattern]) -> _Layout:
    """The layout of a stack of operators with these patterns, of one side
    length, from their degrees: every position placed in its operator's
    matrix of the stack."""
    dim = len(patterns[0].degrees)
    gamma = np.nextafter([_gamma_of(p.degrees, int(p.degrees.sum())) for p in patterns], 0.0)
    inv = np.ldexp(1.0, -(np.frexp(gamma)[1] >> 1))  # D^-1
    diag = gamma * inv * inv  # D^-2 G, in [1/2, 2), exact
    sizes = [len(p.rows) for p in patterns]
    which = np.repeat(np.arange(len(patterns)), sizes)
    rows, cols = _joined([p.rows for p in patterns]), _joined([p.cols for p in patterns])
    places = np.array((rows, cols))
    return _Layout(
        np.cumsum([0] + sizes),
        which,
        inv[which, rows] * inv[which, cols],
        places * dim + places[::-1] + which * (dim * dim),
        1.0 / np.sqrt(diag),
        diag,
        np.array([_up(math.fsum(row)) for row in diag.tolist()]),
    )


# Most entries of one stack of small matrices: a copy of the stack takes
# 2 MB whatever the side, so memory stays bounded on any batch.
_STACK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class _BatchShape:
    """What ``spectral_certificate`` reads of a batch of operators whatever
    their values: each operator's pattern and scale 2^-log_den, where its
    values start among the batch's (``offsets``, with their end last;
    ``starts`` without it), and the stacks of the proof, each as (its
    operators, where their values are among the batch's, its ``_Layout``).
    The operators of each side length form stacks in batch order, of at
    most ``_STACK_ENTRIES`` entries below ``_LANCZOS_FROM`` and of one
    from there up, each laid out once, when the shape is made. A plan keeps
    one shape for all its targets."""

    patterns: tuple[KikuchiPattern, ...]
    log_dens: list[int]
    offsets: list[int]
    starts: np.ndarray
    stacks: list[tuple[list[int], np.ndarray, _Layout]]

    @staticmethod
    def of(ops: Sequence[KikuchiOperator]) -> "_BatchShape":
        offsets = np.cumsum([0] + [len(op.values) for op in ops]).tolist()
        by_side: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            by_side.setdefault(op.dim, []).append(i)
        stacks = []
        for dim, members in by_side.items():
            size = max(1, _STACK_ENTRIES // (dim * dim)) if dim < _LANCZOS_FROM else 1
            for lo in range(0, len(members), size):
                stack = members[lo : lo + size]
                take = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in stack])
                stacks.append((stack, take, _layout([ops[i].pattern for i in stack])))
        return _BatchShape(
            tuple(op.pattern for op in ops),
            [op.log_den for op in ops],
            offsets,
            np.array(offsets[:-1], dtype=np.intp),
            stacks,
        )


@dataclass(frozen=True, eq=False)
class _Batch:
    """Operators to prove in one ``spectral_certificate`` call: their
    ``shape`` and the values of every position of each, zeros included, one
    operator after the other."""

    shape: _BatchShape
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.shape.patterns)

    @staticmethod
    def of(ops: Sequence[KikuchiOperator]) -> "_Batch":
        values = _joined([op.values for op in ops]) if ops else np.zeros(0, dtype=np.int64)
        return _Batch(_BatchShape.of(ops), values)


def _scaled_stack(
    nums: np.ndarray, tops: list[int], layout: _Layout
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps 1 and 2 of ``spectral_certificate`` over a stack of nonempty
    operators of one side length, laid out by ``layout``, given the values
    of their positions one after the other, zeros included, and the top
    bits of each: (the matrices D^-1 A' D^-1 as one new (count, dim, dim)
    array, the tails, the estimates).

    Everything that depends on the degrees alone comes from the layout. One
    ``_entries_at`` call, with each operator's top bits as the scale of its
    entries, converts the values, and one scatter writes the stack. A zero
    writes the zero that is already there and adds nothing to the tails, so
    the stack is that of the nonzero entries alone. Only an operator with
    a numerator past 2^53 has a tail. Every array the size of the entries
    is dropped on return, before any Cholesky."""
    count, dim = layout.diag.shape
    top_bits = np.array(tops)
    values, errors = _entries_at(nums, top_bits[layout.which], max(tops))
    upper = values * layout.pair
    buf = np.zeros((count, dim, dim))  # D^-1 A' D^-1, owned
    buf.reshape(-1)[layout.at] = upper
    triangle = None
    if dim >= _LANCZOS_FROM:  # a stack of one; Lanczos reads its nonzero entries
        nonzero = np.flatnonzero(nums)
        triangle = (*np.divmod(layout.at[0, nonzero], dim), upper[nonzero])
    lam_hat = _estimate_top(buf, triangle, layout.scale)

    tail = np.zeros(count)  # ||D^-1 F D^-1||_2, bounded by its largest row sum, upward
    if errors is not None:
        scaled = errors * layout.pair
        size = count * dim
        # at // dim is the row of each position, and of its mirror, in the stack
        rows, cols = layout.at // dim
        row_sums = np.bincount(rows, scaled, size) + np.bincount(cols, scaled, size)
        largest = row_sums.reshape(count, dim).max(axis=1)
        tail = np.where(top_bits > 53, _up_each(largest * (1.0 + 2.0 * dim * _EPS)), 0.0)
    return buf, tail, lam_hat


def _prove_stack(
    nums: np.ndarray, tops: list[int], log_dens: list[int], layout: _Layout
) -> list[float | None]:
    """``spectral_certificate`` of operators of one side length, all below
    ``_LANCZOS_FROM`` or a single one, given as for ``_scaled_stack`` with
    each one's scale: one estimate and one Cholesky of both sides of every
    matrix at the first rung. A stack with an operator without entries, or
    whose first Cholesky fails, proves its operators alone
    (``_prove_each``); a stack of one climbs the ladder."""
    count, dim = layout.diag.shape
    if not all(tops):
        return _prove_each(nums, tops, log_dens, layout)
    buf, tail, lam_hat = _scaled_stack(nums, tops, layout)
    diag, diag_sum = layout.diag, layout.diag_sum

    # With an exact estimate this leaves H a smallest eigenvalue of at least
    # three times the shift.
    delta = 16.0 * (dim + 2) ** 2 * _EPS
    if dim >= _LANCZOS_FROM:
        delta = max(delta, _LANCZOS_ERROR)
    rung = 0
    lam = lam_hat * (1.0 + delta)
    shift = _shift(dim, lam, diag_sum, tail)
    for stack in _sides(buf, stacked=dim < _LANCZOS_FROM):
        while not _cholesky_proves(stack, diag, lam, shift):
            if count > 1:  # some matrix needs a higher rung than the others
                return _prove_each(nums, tops, log_dens, layout)
            rung += 1
            if rung == len(_LADDER):
                return [None]
            lam = lam_hat * (1.0 + delta * _LADDER[rung])
            shift = _shift(dim, lam, diag_sum, tail)
    bounds = [math.ldexp(x, top - log_den) for x, top, log_den in zip(lam.tolist(), tops, log_dens)]
    return [bound if bound >= _MIN_NORMAL else _up(bound) for bound in bounds]


def _prove_each(
    nums: np.ndarray, tops: list[int], log_dens: list[int], layout: _Layout
) -> list[float | None]:
    """``_prove_stack`` of each operator of a stack as a stack of its own,
    laid out by its part of the stack's layout: 0 for one without entries."""
    at, dim = layout.starts.tolist(), layout.diag.shape[1]
    bounds: list[float | None] = []
    for i, (top, log_den) in enumerate(zip(tops, log_dens)):
        lo, hi, one = at[i], at[i + 1], slice(i, i + 1)
        own = _Layout(
            np.array([0, hi - lo]), np.zeros(hi - lo, dtype=np.intp), layout.pair[lo:hi],
            layout.at[:, lo:hi] - i * dim * dim, layout.scale[one], layout.diag[one], layout.diag_sum[one],
        )
        bounds += _prove_stack(nums[lo:hi], [top], [log_den], own) if top else [0.0]
    return bounds


def spectral_certificate(ops: Sequence[KikuchiOperator] | _Batch) -> list[float | None]:
    """Proved upper bound lam on the norm of B = Gamma^-1/2 A Gamma^-1/2 of
    each operator, in order: 0 for an operator without entries, None where
    no rung of the ladder proves one, which makes its certificate uncertain.
    The operators come as a list, or as a ``_Batch``, whose shape a plan
    keeps, with its stacks laid out, for every target.

    The norm is at most lam exactly when lam Gamma - A and lam Gamma + A are
    both positive semidefinite. lam is an estimate of B's largest
    |eigenvalue| (``_estimate_top``: eigvalsh below ``_LANCZOS_FROM``, else
    Lanczos) raised by a factor 1 + delta. The estimate is not trusted: the
    bound rests only on the proof below.

    Theorem (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3). If the float Cholesky factorization of a symmetric n x n
    matrix H runs to completion, its computed factor R satisfies
    R^T R = H + dH with |dH| <= gamma_{n+1} |R^T| |R|, where
    gamma_k = k u / (1 - k u) and u = 2^-53, whatever the order of the sums.
    The proof uses only that every pivot is positive (Rump, "Verification
    of positive definiteness", BIT 46, 2006), and it ignores underflow.
    LAPACK scales a column by the reciprocal of its pivot, one rounding more
    than a division, so gamma_{n+2} is used here.

    Proof of the bound, with s = -1 for lam Gamma - A and s = +1 for
    lam Gamma + A.

    1. Scaling. A' = 2^t A, with t = log_den - (bit length of the largest
       |numerator|), has its largest |entry| in [1/2, 1). Its entries are
       rounded correctly: exactly by one ``ldexp`` while every numerator
       is below 2^53, else by ``_entries_at``; F, the float A' minus the
       exact one, has |F_ij| <= err_ij. G = Gamma rounded down:
       ``_gamma_of`` rounds correctly, so one nextafter toward 0 gives
       G <= Gamma. D is the diagonal of powers of two with D^-2 G in
       [1/2, 2); scaling by D^-1 is exact and keeps semidefiniteness. G, D,
       D^-2 G and its trace depend on the degrees alone: the batch's shape
       computes them once for each stack (``_layout``), and a target
       computes only t and A'.
    2. The matrix. M has off-diagonal s D^-1 A' D^-1, in floats: each
       entry A'_ij times D^-1_i D^-1_j, a product the layout keeps for
       every position. Its diagonal is m_i = lam (D^-2 G)_i rounded down. Then
       D^-1 (lam Gamma + s A') D^-1 = M + N - s D^-1 F D^-1, with N a
       diagonal >= 0.
    3. The shift. H is M with diagonal m_i - c rounded down, so
       H + cI <= M on the diagonal. If the Cholesky of H completes, then
       H >= -dH, since R^T R >= 0. For the columns r_i of R,
       (|R^T| |R|)_ij <= |r_i| |r_j| and |r_i|^2 = h_ii + dh_ii
       <= h_ii / (1 - gamma), so ||dH||_2 <= gamma / (1 - gamma) tr(H)
       <= gamma / (1 - gamma) tr(M).
    4. Hence D^-1 (lam Gamma + s A') D^-1 >= (c - gamma / (1 - gamma) tr(M)
       - ||D^-1 F D^-1||_2 - underflow) I. This is >= 0 when c, evaluated
       upward (``_shift``), is at least the three terms.
       ||D^-1 F D^-1||_2 is at most its largest Gershgorin row sum. The
       underflow term bounds generously what gradual underflow adds to dH
       and to the scaling of A' by D^-1.
    5. If a Cholesky fails, delta climbs the rungs of ``_LADDER``, for that
       matrix alone: a stack that fails at the first rung is proved again
       one operator at a time, each laid out as its part of the stack's
       layout, and only an operator whose own Cholesky fails climbs. A side proved at one lam stays proved at any larger
       lam, since Gamma > 0. If the last rung fails, the bound is None.
       The bound for A is lam 2^-t, rounded up.

    The batch's shape stacks the operators of each side length in batch
    order, at most ``_STACK_ENTRIES`` entries a stack below
    ``_LANCZOS_FROM``: one stacked eigvalsh for the estimates, and one
    stacked Cholesky for both sides of every matrix. numpy hands each
    matrix of a stack to the same LAPACK routine with the same inputs as a
    stack of one, and every array step is taken entry by entry, so each
    bound is bit-identical to the operator's own proof. From
    ``_LANCZOS_FROM`` up each operator is proved alone, its two sides one
    after the other in one buffer. One reduceat of max and one of min over
    the batch's values give every operator's top bits; a stack with an
    operator without entries proves its other operators alone.
    """
    batch = ops if isinstance(ops, _Batch) else _Batch.of(ops)
    shape, values = batch.shape, batch.values
    bounds: list[float | None] = [0.0] * len(batch)
    if not len(batch):
        return bounds
    highs = np.maximum.reduceat(values, shape.starts).tolist()
    lows = np.minimum.reduceat(values, shape.starts).tolist()
    tops = [max(high, -low).bit_length() for high, low in zip(highs, lows)]
    for members, take, layout in shape.stacks:
        log_dens = [shape.log_dens[i] for i in members]
        proved = _prove_stack(values[take], [tops[i] for i in members], log_dens, layout)
        for i, bound in zip(members, proved):
            bounds[i] = bound
    return bounds


@dataclass(frozen=True, eq=False)
class OddSplit:
    """The Cauchy-Schwarz split of an odd part for one right-hand side:
    group sums over lowest vertices yield a constant part plus even-arity
    cross instances, one bucket per symmetric-difference size. A bucket is
    a ``PreparedPart`` that the odd part's pairing keeps, and ``sums`` holds
    the signed sums it reads its rows of."""

    n_groups: int
    diag_term: Fraction
    buckets: dict[int, PreparedPart]
    sums: np.ndarray


def _for_products(values: np.ndarray, terms: int) -> np.ndarray:
    """Integers ``values`` as an int64 array if twice any sum of ``terms``
    products of two of them stays below 2^63, else as Python ints; at least
    one term is counted, so that every value fits int64 even where none is
    multiplied."""
    top = max(int(values.max()), -int(values.min())) if len(values) else 0
    if 2 * top * top * max(terms, 1) < 1 << 63:
        return values.astype(np.int64, copy=False)
    return values.astype(object)


def odd_to_even(part: PreparedPart, sums: np.ndarray) -> OddSplit:
    """Group one odd part's distinct edges by lowest vertex and square the
    group sums, given the signed sums the part reads its rows of.

    Only live copies enter a group. The copies of one edge pair among
    themselves into the constant part, which gets the square of the edge's
    signed sum. Two distinct group-mates a and b pair live_a * live_b
    copies, whose products sum to sum_a * sum_b, into the edge a xor b of
    the even bucket of its size. Both orderings of a pair count, so that
    edge's copies grow by 2 * live_a * live_b and its signed sum by
    2 * sum_a * sum_b. All products are integers at the one scale 2^-2L,
    where 2^-L is the scale of the signed sums.

    The groups, pairs and buckets are the part's ``pairing``. A target
    squares the signed sums of the live edges into the constant part and
    sums the pair products of each bucket edge in one ``reduceat``: in int64
    while twice their largest square times the number of terms stays below
    2^63, else as Python ints, so every sum is exact. A part of 2^511
    copies or more raises ResourceCap: its bound squares them, which would
    pass the float range."""
    if part.k % 2 == 0 or part.k < 3:
        raise ValidationError([f"odd-arity split needs odd arity >= 3, got {part.k}"])
    if part.m >= 1 << 511:
        raise ResourceCap(f"{part.m.bit_length()}-bit copies square past the float range")
    kept, a, b, heads, by_size, n_groups, buckets = part.pairing
    own = _for_products(sums[part.rows][kept], len(a) + len(kept))
    diag = Fraction(int(np.dot(own, own)), 1 << (2 * part.log_den))
    totals = 2 * np.add.reduceat(own[a] * own[b], heads)
    return OddSplit(n_groups, diag, buckets, totals[by_size])


def _combine_mode(parts: Sequence[Certificate]) -> str:
    modes = set(map(attrgetter("mode"), parts))
    for mode in ("trace", "spectral", "parity", "direct"):
        if mode in modes:
            return mode
    return "direct"


def _combine(parts: list[Certificate], bound: float) -> Certificate:
    """The certificate made of ``parts``: ``bound`` if every part is
    certified, else uncertain at the trivial bound 1."""
    certified = set(map(attrgetter("status"), parts)) <= {"certified"}
    return Certificate(
        mode=_combine_mode(parts),
        bound=bound if certified else 1.0,
        status="certified" if certified else "uncertain",
        breakdown=tuple(parts),
    )


_ZERO = Certificate(mode="direct", bound=0.0, status="certified")


def _clamp(cert: Certificate) -> Certificate:
    return replace(cert, bound=1.0) if cert.bound > 1.0 else cert


def _proved(mode: str, norm_bound: float | None, r: int, ell: int | None = None) -> Certificate:
    """The certificate of one operator from its engine's bound on the
    reweighted norm, clamped at 1."""
    if norm_bound is None:
        return _uncertain(mode, r=r)
    # doubling is exact in binary floating point
    bound = min(2.0 * norm_bound, 1.0)
    return Certificate(mode=mode, bound=bound, status="certified", r=r, ell=ell)


@dataclass(eq=False)
class _Plan:
    """How the nonzero schemes of a ``PreparedSchemes`` are refuted under
    one set of knobs, whatever the target: recorded at the first target
    with those knobs (``record``) and read by every target.

    Every part of a nonzero scheme is one of four kinds:

    * zero: it has no weight, so its value is 0;
    * direct: of arity 0 or 1, whose value is at most the sum of |signed
      sum| over m, and exactly that for arity 1; its rows of the signed
      sums are run i of ``direct``, at the scale 1 / ``dens[i]``;
    * even: the operator in slot i of the batch, at level ``heads[i][2]``,
      or where its level is capped an uncertain certificate;
    * odd: part i of ``odd``, whose buckets are even parts of their own.

    The source is the signed sums that the parts read, then the bucket
    sums of each odd part in turn; ``gather`` holds where the values of
    every slot are in it, slot after slot. A target's certificates of the
    parts are one list: the slots in order, ``constants`` (``_ZERO`` and
    every capped level's), the direct parts, then the odd parts, each of
    which reads the copies and places of its buckets in ``odd_rows``.
    ``pick`` gives the place of each nonzero scheme's first part, whose
    certificate is the scheme's, except for the schemes in ``mixed``:
    those of several parts or under ``split_weights``, as (their place
    among the nonzero schemes, the copies of each part, the factor of the
    rescale or None, the places of the parts).
    """

    params: RefuteParams
    shape: _BatchShape
    heads: list[tuple[int, int, int, int, int]]  # (n, k, r, m, edge multiplier) of each slot
    ells: list[int | None]  # the trace power asked for at each slot
    gather: np.ndarray
    constants: list[Certificate]
    direct: np.ndarray
    direct_starts: np.ndarray
    dens: list[int]
    odd: list[PreparedPart]
    odd_rows: list[tuple[int, list[int], list[int]]]  # (copies, bucket copies, bucket places)
    pick: list[int]
    mixed: list[tuple[int, list[int], Fraction | None, list[int]]]

    @staticmethod
    def record(
        prepared: PreparedSchemes, sums: np.ndarray, params: RefuteParams
    ) -> tuple[_Plan, list[OddSplit]]:
        """The plan of ``params``, from the first target's signed sums (under
        ``split_weights`` those of the unit parts): every even part and
        bucket builds its operator through ``build_kikuchi``, and every odd
        part splits through ``odd_to_even``. Returns the plan and the
        splits, which that target reads as every later one reads its own."""
        schemes = prepared.unit_schemes[1] if params.split_weights else prepared.schemes
        mode = "trace" if params.mode == "trace" else "spectral"  # auto is the spectral engine
        ops: list[KikuchiOperator] = []
        ells: list[int | None] = []
        gather: list[np.ndarray] = []
        constants = [_ZERO]
        direct: list[range] = []
        dens: list[int] = []
        odd: list[PreparedPart] = []
        odd_rows: list[tuple[int, list[int], list]] = []
        splits: list[OddSplit] = []
        source = len(sums)  # where the next odd part's bucket sums start

        # until every kind is counted, a part is (kind, its index among its
        # kind): an even part or a bucket is ("slot", i) or ("constant", c),
        # and a part past a cap an uncertain constant
        def capped(r: int | None = None, ell: int | None = None) -> tuple[str, int]:
            constants.append(_uncertain(mode, r=r, ell=ell))
            return "constant", len(constants) - 1

        def leaf(part: PreparedPart, part_sums: np.ndarray, r: int, at: int) -> tuple[str, int]:
            ell = None
            if mode == "trace":
                ell = params.ell if params.ell is not None else default_ell(r, part.n)
                _check_ell(ell)
            try:
                op = build_kikuchi(part, part_sums, r, params.dense_cap)
            except ResourceCap:
                return capped(r, ell)
            ops.append(op)
            ells.append(ell)
            gather.append(at + part.rows.start + op.pattern.edge)
            return "slot", len(ops) - 1

        planned = []
        for j in prepared.nonzero:
            scheme = schemes[j]
            refs = []
            for part in scheme.parts:
                k = part.k
                if not any(part.live):
                    refs.append(("constant", 0))
                elif k < 2:
                    refs.append(("direct", len(direct)))
                    direct.append(range(part.rows.start, part.rows.stop))
                    dens.append(part.m << part.log_den)
                elif k % 2 == 0:
                    # the construction does not exist below k/2
                    r = max(params.r if params.r is not None else k // 2, k // 2)
                    refs.append(leaf(part, sums, r, 0))
                else:
                    try:
                        split = odd_to_even(part, sums)
                    except ResourceCap:
                        refs.append(capped())
                        continue
                    leaves = []
                    for size, bucket in split.buckets.items():
                        r = params.r
                        if r is None or r < size // 2 or r - size // 2 > part.n - size:
                            r = size // 2
                        leaves.append(leaf(bucket, split.sums, r, source))
                    refs.append(("odd", len(odd)))
                    odd.append(part)
                    odd_rows.append((part.m, [b.m for b in split.buckets.values()], leaves))
                    splits.append(split)
                    source += len(split.sums)
            planned.append((scheme, refs))

        # a target's certificates of the parts: slots, constants, direct, odd
        first = {"slot": 0, "constant": len(ops)}
        first["direct"] = first["constant"] + len(constants)
        first["odd"] = first["direct"] + len(direct)

        def place(ref: tuple[str, int]) -> int:
            kind, i = ref
            return first[kind] + i

        pick, mixed = [], []
        for at, (scheme, refs) in enumerate(planned):
            places = list(map(place, refs))
            pick.append(places[0])
            if len(places) > 1 or params.split_weights:
                copies = [part.m for part in scheme.parts]
                # the m' unit copies have the term sums of the scheme's m original copies
                scale = Fraction(sum(copies), prepared.m) if params.split_weights else None
                mixed.append((at, copies, scale, places))
        lengths = [len(rows) for rows in direct]
        plan = _Plan(
            params,
            _BatchShape.of(ops),
            [(op.n, op.k, op.r, op.m, op.edge_multiplier) for op in ops],
            ells,
            _joined(gather or [np.zeros(0, dtype=np.intp)]),
            constants,
            np.array([i for rows in direct for i in rows], dtype=np.intp),
            np.cumsum([0] + lengths[:-1], dtype=np.intp),
            dens,
            odd,
            [(m, copies, list(map(place, leaves))) for m, copies, leaves in odd_rows],
            pick,
            mixed,
        )
        return plan, splits

    def certificates(
        self, sums: np.ndarray, splits: list[OddSplit], values: np.ndarray
    ) -> list[Certificate]:
        """The certificate of every nonzero scheme for one target, given its
        signed sums, the splits of ``odd`` and the values of every slot,
        gathered by ``gather``: every slot is proved, in one
        ``spectral_certificate`` call or under mode ``trace`` by
        ``trace_certificate`` each, of an operator made of its values, then
        the direct parts' sums of |signed sum| are taken in one reduceat,
        and each part's certificate, clamped at 1, is folded into its
        scheme's."""
        params = self.params
        if params.mode == "trace":
            at = self.shape.offsets
            parts = []
            for i, ((n, k, r, m, mult), pattern, log_den, ell) in enumerate(
                zip(self.heads, self.shape.patterns, self.shape.log_dens, self.ells)
            ):
                op = KikuchiOperator(n, k, r, m, pattern, values[at[i] : at[i + 1]], log_den, mult)
                norm_bound, used = trace_certificate(op, ell, params.work_flops)
                parts.append(_proved("trace", norm_bound, r, used))
        else:
            bounds = spectral_certificate(_Batch(self.shape, values)) if self.heads else []
            parts = [_proved("spectral", bound, head[2]) for bound, head in zip(bounds, self.heads)]
        parts += self.constants
        if self.dens:
            totals = np.add.reduceat(np.abs(sums[self.direct]), self.direct_starts).tolist()
            parts += [
                _clamp(Certificate(mode="direct", bound=_ratio_up(total, den), status="certified"))
                for total, den in zip(totals, self.dens)
            ]
        for split, (m, copies, places) in zip(splits, self.odd_rows):
            subs = [parts[at] for at in places]
            inner = split.diag_term + _exact_sum([sub.bound for sub in subs], copies)
            # from m^2 up the bound is at least 1, which the clamp gives
            bound = _sqrt_up(_float_up(min(split.n_groups * max(inner, Fraction(0)), m * m))) / m
            # division rounds to nearest; one ulp up restores the upper bound
            parts.append(_clamp(_combine(subs, _up(bound))))

        certs = [parts[at] for at in self.pick]
        for at, copies, scale, places in self.mixed:
            subs = [parts[i] for i in places]
            if len(subs) == 1:
                cert = subs[0]
            else:
                # each part's bound is at most 1, so their average is too
                mean = _exact_sum([c.bound for c in subs], copies) / sum(copies)
                cert = _combine(subs, _float_up(mean))
            if scale is not None and cert.certified:
                # from 1 up the clamp gives 1, and the product may pass the float range
                cert = replace(cert, bound=_float_up(min(Fraction(cert.bound) * scale, Fraction(1))))
            certs[at] = _clamp(cert)
        return certs


def refute(inst: XorInstance, params: RefuteParams | None = None) -> Certificate:
    """Certified upper bound on the instance value; dispatches on arity.

    The instance is validated once, then prepared and refuted with its
    right-hand side. Mixed-arity instances are bucketed by edge size and the
    per-bucket bounds are averaged with weights m_k / m. The returned bound
    is always sound and at most the trivial bound 1, which every instance
    value obeys; resource-cap failures surface as status "uncertain" with
    that bound.
    """
    params = params or RefuteParams()
    validate_instance(inst)
    return _prepare_instance(inst)._refute(inst.signs, params)[0]
