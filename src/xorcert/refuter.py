"""Certified upper bounds on the value of weighted XOR systems.

Even arity goes through the level-r Kikuchi matrix: rows and columns are
r-subsets of the variables, an edge contributes its signed weight to every
pair (S, T) with S xor T equal to the edge, and the instance value is bounded
by twice the spectral norm of the degree-reweighted matrix. The matrix is
built from the distinct edges (``CoalescedEdges``): parallel copies are
coalesced first into a multiplicity, which enters the degrees, and a summed
signed weight, which is the entry. Two certificate engines are provided:

* trace    -- trace((Gamma^-1 A)^ell)^(1/ell) for even ell, rigorous because
              trace(B^ell) dominates the top eigenvalue power;
* spectral -- dense symmetric eigensolve plus a residual margin, tighter.

Odd arity is reduced to even instances by grouping edges on their minimum
vertex and applying Cauchy-Schwarz to the group sums. The split coalesces as
it pairs: each pair of group-mates adds to the multiplicity and signed sum of
its symmetric difference, so every even bucket arrives in the distinct-edge
form the build reads. Arity 0 and 1 are certified by direct exact
computation. All floating-point steps round their result upward before it
enters a certificate, and no certified bound exceeds the trivial bound 1.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from .core import (
    Dyadic,
    Hypergraph,
    ValidationError,
    XorInstance,
    XorScheme,
    is_int,
    subset_rank,
    validate_instance,
)

_EPS = 2.0 ** -53


class ResourceCap(Exception):
    """A certificate could not be attempted within the configured caps."""


@dataclass(frozen=True)
class RefuteParams:
    """Knobs for the certification pipeline; None means the documented default."""

    r: int | None = None
    ell: int | None = None
    mode: str = "auto"  # trace | spectral | auto
    dim_cap: int = 20000  # matrix side length for the sparse build
    dense_cap: int = 4096  # side length for dense powering / eigensolve
    work_flops: float = 4e9  # budget that truncates the trace power
    split_weights: bool = False  # cross-check path over unit-granule edges

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
    "dim_cap": ("an integer", is_int),
    "dense_cap": ("an integer", is_int),
    "work_flops": ("a number", lambda v: is_int(v) or isinstance(v, float)),
    "split_weights": ("true or false", lambda v: isinstance(v, bool)),
}


def default_ell(r: int, n: int) -> int:
    """2 * ceil(r * ln n), floored at 2."""
    if n < 2:
        return 2
    return max(2, 2 * math.ceil(r * math.log(n)))


@dataclass(frozen=True)
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


def certificate_from_obj(obj: dict) -> Certificate:
    return Certificate(
        mode=obj["mode"],
        bound=obj["bound"],
        status=obj["status"],
        r=obj.get("r"),
        ell=obj.get("ell"),
        breakdown=tuple(certificate_from_obj(c) for c in obj.get("breakdown", ())),
    )


def _uncertain(mode: str, r: int | None = None, ell: int | None = None) -> Certificate:
    # val <= 1 holds unconditionally, so 1.0 is the honest trivial bound.
    return Certificate(mode=mode, bound=1.0, status="uncertain", r=r, ell=ell)


# Upward-rounded float helpers; soundness is checked by exact comparison.


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _float_up(value: Fraction) -> float:
    f = float(value)
    while Fraction(f) < value:
        f = _up(f)
    return f


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


@dataclass(frozen=True)
class KikuchiOperator:
    """Level-r signed subset matrix of an even-arity instance.

    ``entries`` stores the strict upper triangle; ``degrees[S]`` counts the
    (edge, T) pairs incident to row S, independent of the edge weights.
    """

    n: int
    k: int
    r: int
    m: int
    entries: dict[tuple[int, int], Dyadic]
    degrees: tuple[int, ...]
    edge_multiplier: int

    @property
    def dim(self) -> int:
        return comb(self.n, self.r)

    @property
    def d(self) -> Fraction:
        return Fraction(self.m * self.edge_multiplier, self.dim)

    @property
    def trace_degree(self) -> int:
        return self.m * self.edge_multiplier

    def gamma(self) -> list[Fraction]:
        d = self.d
        return [deg + d for deg in self.degrees]

    def quadratic_form(self, x: Sequence[int]) -> Dyadic:
        """Exact (x^r)^T A (x^r) for a +-1 assignment x."""
        signs = [0] * self.dim
        for s in combinations(range(self.n), self.r):
            sign = 1
            for v in s:
                sign *= x[v]
            signs[subset_rank(s, self.n, self.r)] = sign
        total = Dyadic(0)
        for (i, j), val in self.entries.items():
            total = total + Dyadic(2 * signs[i] * signs[j] * val.num, val.log_den)
        return total

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for (i, j), val in self.entries.items():
            f = float(val)
            a[i, j] = f
            a[j, i] = f
        return a


def _kikuchi_dim(n: int, k: int, r: int, dim_cap: int) -> int:
    """Side length C(n, r) of the level-r matrix for arity k; ResourceCap if
    the level does not exist or the side exceeds ``dim_cap``."""
    if r < k // 2:
        raise ResourceCap(f"level r={r} below k/2={k // 2}")
    if r - k // 2 > n - k:
        raise ResourceCap(f"level r={r} too large for n={n}, k={k}")
    dim = comb(n, r)
    if dim > dim_cap:
        raise ResourceCap(f"dimension C({n},{r})={dim} exceeds cap {dim_cap}")
    return dim


@dataclass(frozen=True)
class CoalescedEdges:
    """A uniform even-arity instance as its distinct edges.

    ``edges`` maps each distinct edge, a sorted vertex tuple, to (number of
    copies, signed sum of b * w over the copies as an integer at the scale
    2^-log_den). ``m`` counts copies, so the degrees, d and the trace degree
    of the Kikuchi matrix are those of the per-copy instance.
    """

    n: int
    k: int
    m: int
    log_den: int
    edges: dict[tuple[int, ...], tuple[int, int]]


def _coalesce(inst: XorInstance, k: int) -> CoalescedEdges:
    """Unchecked: the caller has validated ``inst`` and all its edges have k
    vertices."""
    hyper_edges = inst.scheme.hypergraph.edges
    counts = Counter(hyper_edges)
    sums = dict.fromkeys(counts, 0)
    log_den = max((w.log_den for w in inst.scheme.weights), default=0)
    for edge, w, b in zip(hyper_edges, inst.scheme.weights, inst.rhs):
        sums[edge] += (b * w.num) << (log_den - w.log_den)
    return CoalescedEdges(
        inst.n, k, inst.m, log_den, {e: (c, sums[e]) for e, c in counts.items()}
    )


def build_kikuchi(
    inst: XorInstance | CoalescedEdges, r: int, dim_cap: int = RefuteParams.dim_cap
) -> KikuchiOperator:
    """Populate the level-r matrix from the instance's distinct edges.

    An ``XorInstance`` is validated and its parallel copies are coalesced
    into a multiplicity and an exact signed sum of b * w; a
    ``CoalescedEdges`` is taken as it is. Each distinct edge then enumerates
    its ordered pairs (S, T) with S xor T equal to the edge once: the row
    degree of S grows by the multiplicity, and the entry is the signed sum.
    Since S xor T determines the edge, no entry collects more than one edge.
    Rows are ranked through one table from each r-subset's vertex bitmask to
    its colex rank, built once per call.
    """
    if isinstance(inst, XorInstance):
        validate_instance(inst)
        sizes = inst.scheme.hypergraph.arities()
        if len(sizes) > 1:
            raise ValidationError([f"kikuchi build needs a uniform arity, got {sorted(sizes)}"])
        inst = _coalesce(inst, sizes.pop() if sizes else 0)
    if inst.m == 0:
        # d = 0 would make the reweighting singular; the caller certifies 0
        raise ValidationError(["kikuchi build needs at least one edge"])
    n, k = inst.n, inst.k
    if k % 2 != 0 or k < 2:
        raise ValidationError([f"kikuchi build needs an even arity >= 2, got {k}"])
    dim = _kikuchi_dim(n, k, r, dim_cap)

    half = k // 2
    bit = [1 << v for v in range(n)]
    # colex order of r-subsets is the numeric order of their bitmasks
    rank = {mask: i for i, mask in enumerate(sorted(map(sum, combinations(bit, r))))}
    multiplier = comb(k, half) * comb(n - k, r - half)
    entries: dict[tuple[int, int], Dyadic] = {}
    degrees = [0] * dim
    for edge, (count, total) in inst.edges.items():
        value = Dyadic(total, inst.log_den) if total else None  # zero sums stay out
        edge_bits = [bit[v] for v in edge]
        edge_mask = sum(edge_bits)
        # the r - k/2 vertices a pair adds outside its edge, as bitmasks
        outs = [0]
        if r > half:
            outside = [b for b in bit if not b & edge_mask]
            outs = list(map(sum, combinations(outside, r - half)))
        for inner in combinations(edge_bits, half):
            inner_mask = sum(inner)
            comp_mask = edge_mask ^ inner_mask
            for out in outs:
                si = rank[inner_mask | out]
                degrees[si] += count
                if value is not None:
                    ti = rank[comp_mask | out]
                    if si < ti:
                        entries[(si, ti)] = value
    op = KikuchiOperator(
        n=n,
        k=k,
        r=r,
        m=inst.m,
        entries=entries,
        degrees=tuple(degrees),
        edge_multiplier=multiplier,
    )
    assert sum(op.degrees) == op.trace_degree
    return op


# Interval matrices: (mid, rad) with the true matrix within mid +- rad.


def _gamma_floats(op: KikuchiOperator) -> np.ndarray:
    return np.array([float(g) for g in op.gamma()])


def _interval_matmul(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
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


def truncate_ell(ell: int, dim: int, work_flops: float) -> int:
    """Largest even power <= ell whose dense powering fits the flop budget."""
    ell = max(2, ell - (ell % 2))
    per_matmul = 10.0 * float(dim) ** 3  # one interval matmul ~ 5 real products
    while ell > 2 and _powering_matmuls(ell // 2) * per_matmul > work_flops:
        ell -= 2
    return ell


def _check_ell(ell: int) -> None:
    if ell < 2 or ell % 2 != 0:
        raise ValidationError([f"trace certificate needs even ell >= 2, got {ell}"])


def trace_certificate(
    op: KikuchiOperator,
    ell: int,
    work_flops: float = RefuteParams.work_flops,
    dense_cap: int = RefuteParams.dense_cap,
) -> tuple[float, int]:
    """Upper bound trace((Gamma^-1 A)^ell)^(1/ell) on the reweighted spectral
    norm, with all rounding error pushed upward. Returns (bound, ell used)."""
    _check_ell(ell)
    dim = op.dim
    if dim > dense_cap:
        raise ResourceCap(f"dimension {dim} exceeds dense cap {dense_cap}")
    ell = truncate_ell(ell, dim, work_flops)
    if not op.entries:
        return 0.0, ell
    gam = _gamma_floats(op)
    amid = op.dense_matrix()
    mid = amid / gam[:, None]
    rad = 4.0 * _EPS * np.abs(mid)
    power = _interval_power((mid, rad), ell // 2)
    pmid, prad = power
    raw = float(np.sum(pmid * pmid.T))
    slack = float(
        2.0 * np.sum(np.abs(pmid) * prad.T)
        + np.sum(prad * prad.T)
        + 4.0 * dim * dim * _EPS * np.sum(np.abs(pmid * pmid.T))
    )
    trace_up = max(raw + slack, 0.0)
    return _root_up(_up(trace_up), ell), ell


def spectral_certificate(
    op: KikuchiOperator, dense_cap: int = RefuteParams.dense_cap
) -> float:
    """Largest |eigenvalue| of the reweighted matrix plus a residual margin."""
    dim = op.dim
    if dim > dense_cap:
        raise ResourceCap(f"dimension {dim} exceeds dense cap {dense_cap}")
    if not op.entries:
        return 0.0
    gam = _gamma_floats(op)
    scale = 1.0 / np.sqrt(gam)
    b = op.dense_matrix() * scale[:, None] * scale[None, :]
    b = 0.5 * (b + b.T)
    try:
        eigvals, eigvecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise ResourceCap(f"eigensolver failed: {exc}") from exc
    idx = int(np.argmax(np.abs(eigvals)))
    lam = eigvals[idx]
    vec = eigvecs[:, idx]
    residual = float(np.linalg.norm(b @ vec - lam * vec))
    fro = float(np.linalg.norm(b))
    margin = residual + 64.0 * _EPS * dim * max(1.0, fro)
    return _up(abs(lam) + margin)


@dataclass(frozen=True)
class OddSplit:
    """Cauchy-Schwarz pairing data for an odd-arity instance: group sums over
    minimum vertices yield a constant part plus even-arity cross instances,
    one ``CoalescedEdges`` bucket per symmetric-difference size."""

    n_groups: int
    diag_term: Fraction
    buckets: dict[int, CoalescedEdges] = field(default_factory=dict)


def odd_to_even(inst: XorInstance) -> OddSplit:
    """Group edges by minimum vertex; square the group sums.

    The constant part collects per-edge squared weights and parallel-edge
    pairs; every ordered pair of distinct group-mates with nonempty symmetric
    difference is a copy of that difference in the even bucket of its size.
    Both orderings of a pair count, so each unordered pair adds 2 to the
    difference's multiplicity and twice its product to the signed sum. All
    products are integers at the one scale 2^-2L, where 2^-L is the finest
    weight scale of the instance, and edges are paired as vertex bitmasks.
    """
    validate_instance(inst)
    sizes = inst.scheme.hypergraph.arities()
    if len(sizes) != 1:
        raise ValidationError([f"odd-arity split needs a uniform arity, got {sorted(sizes)}"])
    k = sizes.pop()
    if k % 2 == 0 or k < 3:
        raise ValidationError([f"odd-arity split needs odd arity >= 3, got {k}"])
    log_den = max(w.log_den for w in inst.scheme.weights)
    # minimum vertex -> (edge bitmask, b * w at 2^-L) of its nonzero edges
    groups: dict[int, list[tuple[int, int]]] = {}
    diag = 0
    for edge, w, b in zip(inst.scheme.hypergraph.edges, inst.scheme.weights, inst.rhs):
        if w.num:
            value = (b * w.num) << (log_den - w.log_den)
            diag += value * value
            groups.setdefault(edge[0], []).append((sum(1 << v for v in edge), value))

    # symmetric difference -> number of pairs, and -> sum of their products
    pairs: Counter = Counter()
    sums: dict[int, int] = {}
    for members in groups.values():
        masks = [mask for mask, _ in members]
        values = [value for _, value in members]
        for pos, (mask_a, value_a) in enumerate(members):
            syms = [mask_a ^ mask_b for mask_b in masks[pos + 1:]]
            pairs.update(syms)
            for sym, value_b in zip(syms, values[pos + 1:]):
                sums[sym] = sums.get(sym, 0) + value_a * value_b
    # each pair counts in both orders; parallel pairs (difference 0) are constant
    diag += 2 * sums.pop(0, 0)
    pairs.pop(0, None)

    n = inst.n
    bucket_edges: dict[int, dict[tuple[int, ...], tuple[int, int]]] = {}
    for sym, count in pairs.items():
        edge = tuple(v for v in range(n) if sym >> v & 1)
        bucket_edges.setdefault(len(edge), {})[edge] = (2 * count, 2 * sums[sym])
    buckets = {
        size: CoalescedEdges(
            n, size, sum(c for c, _ in edges.values()), 2 * log_den, edges
        )
        for size, edges in sorted(bucket_edges.items())
    }
    return OddSplit(
        n_groups=len(groups), diag_term=Fraction(diag, 1 << 2 * log_den), buckets=buckets
    )


def split_to_unit_weights(inst: XorInstance) -> tuple[XorInstance, Fraction]:
    """Replace every edge of weight num * 2^-L by |num| parallel copies of
    weight 2^-L, absorbing the sign into the copied right-hand sides.

    The per-assignment term sums agree, so with m' copies in total,
    val(original) = (m' / m) * val(split). Returns (split instance, m'/m).
    """
    validate_instance(inst)
    log_scale = max((w.log_den for w in inst.scheme.weights), default=0)
    granule = Dyadic(1, log_scale)
    edges = []
    weights = []
    rhs = []
    for edge, w, b in zip(
        inst.scheme.hypergraph.edges, inst.scheme.weights, inst.rhs
    ):
        scaled = w.scaled(log_scale)
        sign = 1 if scaled >= 0 else -1
        for _ in range(abs(scaled)):
            edges.append(edge)
            weights.append(granule)
            rhs.append(sign * b)
    arity = inst.arity
    split = XorInstance(
        XorScheme(Hypergraph(inst.n, tuple(edges)), tuple(weights), arity),
        tuple(rhs),
    )
    if inst.m == 0:
        return split, Fraction(1)
    return split, Fraction(len(edges), inst.m)


def _combine_mode(parts: Sequence[Certificate]) -> str:
    modes = {c.mode for c in parts}
    for mode in ("trace", "spectral", "parity", "direct"):
        if mode in modes:
            return mode
    return "direct"


def _refute_direct_k0(inst: XorInstance) -> Certificate:
    total = Dyadic(0)
    for w, b in zip(inst.scheme.weights, inst.rhs):
        total = total + Dyadic(b * w.num, w.log_den)
    bound = _float_up(abs(total.as_fraction()) / inst.m)
    return Certificate(mode="direct", bound=bound, status="certified")


def _refute_direct_k1(inst: XorInstance) -> Certificate:
    per_vertex: dict[int, Dyadic] = {}
    for edge, w, b in zip(
        inst.scheme.hypergraph.edges, inst.scheme.weights, inst.rhs
    ):
        v = edge[0]
        cur = per_vertex.get(v, Dyadic(0))
        per_vertex[v] = cur + Dyadic(b * w.num, w.log_den)
    total = Fraction(0)
    for val in per_vertex.values():
        total += abs(val.as_fraction())
    bound = _float_up(total / inst.m)
    return Certificate(mode="direct", bound=bound, status="certified")


def _refute_even(edges: CoalescedEdges, params: RefuteParams) -> Certificate:
    k = edges.k
    r = params.r if params.r is not None else k // 2
    r = max(r, k // 2)  # the construction does not exist below k/2
    ell = params.ell if params.ell is not None else default_ell(r, edges.n)
    uncertain_mode = params.mode if params.mode != "auto" else "trace"
    try:
        dim = _kikuchi_dim(edges.n, k, r, params.dim_cap)
    except ResourceCap:
        return _uncertain(uncertain_mode, r=r)
    if params.mode in ("trace", "auto"):
        _check_ell(ell)
    if dim > params.dense_cap or params.mode not in ("trace", "spectral", "auto"):
        # no engine can run, so the matrix is not worth building
        return _uncertain(uncertain_mode, r=r, ell=ell)
    op = build_kikuchi(edges, r, params.dim_cap)
    candidates: list[tuple[float, str, int | None]] = []
    if params.mode in ("trace", "auto"):
        try:
            tb, used = trace_certificate(op, ell, params.work_flops, params.dense_cap)
            candidates.append((tb, "trace", used))
        except ResourceCap:
            pass
    if params.mode in ("spectral", "auto"):
        try:
            candidates.append((spectral_certificate(op, params.dense_cap), "spectral", None))
        except ResourceCap:
            pass
    if not candidates:
        return _uncertain(uncertain_mode, r=r, ell=ell)
    norm_bound, mode, used_ell = min(candidates, key=lambda c: c[0])
    return Certificate(
        mode=mode,
        bound=2.0 * norm_bound,  # doubling is exact in binary floating point
        status="certified",
        r=r,
        ell=used_ell,
    )


def _refute_odd(inst: XorInstance, params: RefuteParams) -> Certificate:
    split = odd_to_even(inst)
    parts = []
    inner = split.diag_term
    certified = True
    for size, bucket in sorted(split.buckets.items()):
        bucket_r = params.r
        if bucket_r is None or bucket_r < size // 2 or bucket_r - size // 2 > inst.n - size:
            bucket_r = size // 2
        # a bucket is valid, uniform and free of zero weights, and the odd
        # instance was split into unit weights already if asked; of refute's
        # steps only the clamp is left
        sub = _clamp(_refute_even(bucket, replace(params, r=bucket_r)))
        parts.append(sub)
        certified = certified and sub.certified
        inner += bucket.m * Fraction(sub.bound)
    if not certified:
        return Certificate(
            mode=_combine_mode(parts) if parts else "direct",
            bound=1.0,
            status="uncertain",
            breakdown=tuple(parts),
        )
    inner = max(inner, Fraction(0))
    bound = _float_up(split.n_groups * inner)
    bound = _sqrt_up(bound) / inst.m
    # division rounds to nearest; one ulp up restores the upper bound
    bound = _up(bound)
    return Certificate(
        mode=_combine_mode(parts) if parts else "direct",
        bound=bound,
        status="certified",
        breakdown=tuple(parts),
    )


def refute(inst: XorInstance, params: RefuteParams | None = None) -> Certificate:
    """Certified upper bound on the instance value; dispatches on arity.

    Mixed-arity instances are bucketed by edge size and the per-bucket bounds
    are averaged with weights m_k / m. The returned bound is always sound and
    at most the trivial bound 1, which every instance value obeys;
    resource-cap failures surface as status "uncertain" with that bound.
    """
    return _clamp(_refute(inst, params or RefuteParams()))


def _clamp(cert: Certificate) -> Certificate:
    return replace(cert, bound=1.0) if cert.bound > 1.0 else cert


def _refute(inst: XorInstance, params: RefuteParams) -> Certificate:
    validate_instance(inst)
    if inst.m == 0:
        return Certificate(mode="direct", bound=0.0, status="certified")
    if all(w.is_zero() for w in inst.scheme.weights):
        return Certificate(mode="direct", bound=0.0, status="certified")
    if params.split_weights:
        split, scale = split_to_unit_weights(inst)
        inner = refute(split, replace(params, split_weights=False))
        if not inner.certified:
            return inner
        return replace(inner, bound=_float_up(Fraction(inner.bound) * scale))

    sizes = sorted({len(e) for e in inst.scheme.hypergraph.edges})
    if len(sizes) > 1:
        parts = []
        total = Fraction(0)
        certified = True
        for size in sizes:
            picks = [
                i
                for i, e in enumerate(inst.scheme.hypergraph.edges)
                if len(e) == size
            ]
            sub_inst = XorInstance(
                XorScheme(
                    Hypergraph(
                        inst.n,
                        tuple(inst.scheme.hypergraph.edges[i] for i in picks),
                    ),
                    tuple(inst.scheme.weights[i] for i in picks),
                    size,
                ),
                tuple(inst.rhs[i] for i in picks),
            )
            sub = refute(sub_inst, params)
            parts.append(sub)
            certified = certified and sub.certified
            total += Fraction(len(picks), inst.m) * Fraction(sub.bound)
        bound = _float_up(total) if certified else 1.0
        return Certificate(
            mode=_combine_mode(parts),
            bound=bound,
            status="certified" if certified else "uncertain",
            breakdown=tuple(parts),
        )

    k = sizes[0]
    if k == 0:
        return _refute_direct_k0(inst)
    if k == 1:
        return _refute_direct_k1(inst)
    if k % 2 == 0:
        return _refute_even(_coalesce(inst, k), params)
    return _refute_odd(inst, params)
