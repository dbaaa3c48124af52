"""Exact-arithmetic substrate: dyadic rationals, hypergraphs and weighted XOR
systems.

The bit convention is fixed once for the whole package: bit 0 maps to the
sign +1 and bit 1 maps to -1, i.e. sign(a) = (-1)**a.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import attrgetter, index
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np


def sign_of_bit(a: int) -> int:
    """(-1)**a for a in {0, 1}."""
    return 1 - 2 * (a & 1)


def bit_of_sign(s: int) -> int:
    """Inverse of :func:`sign_of_bit`."""
    if s == 1:
        return 0
    if s == -1:
        return 1
    raise ValueError(f"not a sign: {s!r}")


class ValidationError(ValueError):
    """Raised when a value violates a structural invariant."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Dyadic:
    """Exact binary rational num * 2**(-log_den).

    Canonical form: ``num`` is odd or zero, and zero carries ``log_den == 0``.
    Addition, subtraction and multiplication are always exact.
    """

    num: int
    log_den: int = 0

    def __post_init__(self) -> None:
        num, log_den = self.num, self.log_den
        if log_den < 0:
            num <<= -log_den
            log_den = 0
        if num == 0:
            log_den = 0
        elif log_den > 0:
            shift = min(log_den, (num & -num).bit_length() - 1)
            num >>= shift
            log_den -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log_den", log_den)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.log_den)

    def scaled(self, log_scale: int) -> int:
        """Integer num * 2**(log_scale - log_den); requires log_scale >= log_den."""
        if log_scale < self.log_den:
            raise ValueError("scale too small for exact integer representation")
        return self.num << (log_scale - self.log_den)

    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other: "Dyadic") -> "Dyadic":
        hi = max(self.log_den, other.log_den)
        return Dyadic(self.scaled(hi) + other.scaled(hi), hi)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        hi = max(self.log_den, other.log_den)
        return Dyadic(self.scaled(hi) - other.scaled(hi), hi)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.log_den + other.log_den)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.log_den)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.log_den)

    def _cmp_key(self, other: "Dyadic") -> tuple[int, int]:
        hi = max(self.log_den, other.log_den)
        return self.scaled(hi), other.scaled(hi)

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __float__(self) -> float:
        return self.num * 2.0 ** (-self.log_den)

    def __repr__(self) -> str:
        if self.log_den == 0:
            return f"Dyadic({self.num})"
        return f"Dyadic({self.num}/2^{self.log_den})"


MAX_LOG_DEN = 1 << 16
"""The largest log_den of a weight: a prepared instance shifts each weight
to the scale of its finest one, so no shift exceeds this many bits."""


def is_index(value) -> bool:
    """An integer as ``operator.index`` reads it: an int, a bool or a numpy
    integer."""
    return hasattr(type(value), "__index__")


def packed_rows(rows: Sequence[Sequence]) -> tuple[np.ndarray, dict[int, tuple]]:
    """(the entries of all rows in order as one int64 array, each row that
    is not all ints that fit int64, as given, by row). Unless every entry is
    such an int, the rows are packed one at a time, and a row with an entry
    that is not an integer that fits int64 packs as zeros."""
    flat = list(chain.from_iterable(rows))
    if set(map(type, flat)) <= {int}:
        try:
            return np.array(flat, dtype=np.int64), {}
        except OverflowError:
            pass
    packed, unpacked = [np.zeros(0, dtype=np.int64)], {}
    for g, row in enumerate(rows):
        try:
            packed.append(np.fromiter(map(index, row), np.int64, len(row)))
            ints = set(map(type, row)) <= {int}
        except (TypeError, OverflowError):
            ints = False
            packed.append(np.zeros(len(row), dtype=np.int64))
        if not ints:
            unpacked[g] = tuple(row)
    return np.concatenate(packed), unpacked


def int_array(values: Sequence[int]) -> np.ndarray:
    """Integers as an int64 array when every one fits, else as an object
    array of Python ints; numpy's integer operations then serve both."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def sign_array(values: Sequence) -> np.ndarray | None:
    """values as an int64 array when every entry is +1 or -1 (True and 1.0
    are), else None: by one array comparison where the values convert to
    an integer array, and by one pass over the entries otherwise, since
    converting alone would read "1" and 1.5 as 1."""
    try:
        signs = np.asarray(values)
    except ValueError:  # rows of unequal lengths
        signs = None
    if signs is not None and signs.ndim == 1 and signs.dtype.kind in "biu":
        if ((signs == 1) | (signs == -1)).all():
            return signs.astype(np.int64, copy=False)
    elif all(v in (1, -1) for v in values):
        return np.array([1 if v == 1 else -1 for v in values], dtype=np.int64)
    return None


def sign_violations(values: Sequence) -> list[str]:
    """A message for each entry of values other than +1 and -1, by index."""
    return [f"edge {i}: rhs {v} not in {{+1, -1}}" for i, v in enumerate(values) if v not in (1, -1)]


class PackedEdges(NamedTuple):
    """A hypergraph's edges packed: ``vertices`` holds every edge's vertices
    in order, one int64 each, and ``sizes`` each edge's size. ``unpacked``
    holds each edge that is not all ints that fit int64, as given, by edge;
    such an edge packs as zeros where one of its vertices is not an integer
    that fits int64."""

    vertices: np.ndarray
    sizes: np.ndarray
    unpacked: dict[int, tuple]

    @staticmethod
    def of(edges: Sequence[Sequence]) -> "PackedEdges":
        vertices, unpacked = packed_rows(edges)
        return PackedEdges(vertices, np.fromiter(map(len, edges), np.int64, len(edges)), unpacked)


def flagged(checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> list[tuple[int, str]]:
    """(index, message) for every raised flag of ``checks``, each a boolean
    array over the indices with the message of an index: by index, and each
    index's in the order of the checks."""
    flags = np.stack([flag for flag, _ in checks], axis=1)
    return [
        (idx, message(idx))
        for idx in np.flatnonzero(flags.any(axis=1)).tolist()
        for hit, (_, message) in zip(flags[idx].tolist(), checks) if hit
    ]


@dataclass(frozen=True)
class Hypergraph:
    """Ordered edge list over vertex set range(n); parallel edges allowed.

    Edge identity is list position, so repeated edges are distinct constraints.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def packed(self) -> PackedEdges:
        """The edges packed once, for validation and preparation."""
        return PackedEdges.of(self.edges)

    def violations(self) -> list[str]:
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """Each violated invariant, an edge's in the order of its checks: one
        array pass over the packed edges, and an edge that did not pack as
        ints checked as given; an edge with a vertex that is not an integer
        gets no range or order check."""
        n, edges, (vertices, sizes, unpacked) = self.n, self.edges, self.packed
        owner = np.repeat(np.arange(len(edges)), sizes)
        outside = np.zeros(len(edges), dtype=bool)
        outside[owner[(vertices < 0) | (vertices >= n)]] = True
        unsorted = np.zeros(len(edges), dtype=bool)
        unsorted[owner[1:][(vertices[1:] <= vertices[:-1]) & (owner[1:] == owner[:-1])]] = True
        untyped = np.zeros(len(edges), dtype=bool)
        for idx, e in unpacked.items():
            integers = all(map(is_index, e))
            untyped[idx] = not integers
            outside[idx] = integers and any(not 0 <= v < n for v in e)
            unsorted[idx] = integers and any(a >= b for a, b in zip(e, e[1:]))
        found = flagged([
            (untyped, lambda idx: f"edge {idx}: non-integer vertex in {edges[idx]}"),
            (outside, lambda idx: f"edge {idx}: vertex out of range in {edges[idx]}"),
            (unsorted, lambda idx: f"edge {idx}: vertices not strictly increasing in {edges[idx]}"),
        ])
        out = [f"negative vertex count {n}"] if n < 0 else []
        return tuple(out + [message for _, message in found])


def _above_one(num: int, log_den: int) -> bool:
    """|num * 2^-log_den| > 1, by bit lengths first: no shift is longer than
    num itself."""
    size = abs(num)
    return size.bit_length() > log_den and size > 1 << log_den


@dataclass(frozen=True)
class XorScheme:
    """Weighted constraint topology with the right-hand side left open.

    ``arity`` is the declared uniform edge size; ``None`` flags a mixed-arity
    scheme whose edges may differ in size (including empty edges).
    """

    hypergraph: Hypergraph
    weights: tuple[Dyadic, ...]
    arity: int | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def n(self) -> int:
        return self.hypergraph.n

    @property
    def m(self) -> int:
        return self.hypergraph.m

    @cached_property
    def weight_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(numerators, log_dens) of the weights, each by ``int_array``."""
        return (
            int_array(list(map(attrgetter("num"), self.weights))),
            int_array(list(map(attrgetter("log_den"), self.weights))),
        )

    def violations(self) -> list[str]:
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """The hypergraph's violations, then the weights' and the edge
        sizes', each edge's in the order of its checks. A weight's bound
        compares bit lengths before it shifts, so no shift is longer than
        the numerator."""
        out = self.hypergraph.violations()
        m, weights = self.hypergraph.m, self.weights
        if len(weights) != m:
            out.append(f"{len(weights)} weights for {m} edges")
        nums, log_dens = self.weight_arrays
        if nums.dtype == object or log_dens.dtype == object:
            outside = np.fromiter(map(_above_one, nums.tolist(), log_dens.tolist()), bool, len(weights))
        else:
            # an int64 numerator is at most 2^63 in size, within 2^log_den past 62
            limit = np.left_shift(1, np.minimum(log_dens, 62))
            outside = (log_dens < 63) & ((nums > limit) | (nums < -limit))
        found = flagged([
            (outside, lambda idx: f"edge {idx}: weight {weights[idx]} outside [-1, 1]"),
            (
                log_dens > MAX_LOG_DEN,
                lambda idx: f"edge {idx}: weight {weights[idx]} log_den above {MAX_LOG_DEN}",
            ),
        ])
        out += [message for _, message in found]
        if self.arity is not None:
            sizes = self.hypergraph.packed.sizes
            out += [
                f"edge {idx}: arity {sizes[idx]} != declared {self.arity}"
                for idx in np.flatnonzero(sizes != self.arity).tolist()
            ]
        return tuple(out)


_ONE = Dyadic(1)


def unit_weights(m: int) -> tuple[Dyadic, ...]:
    """m unit weights, one shared object: a Dyadic is immutable."""
    return (_ONE,) * m


@dataclass(frozen=True)
class XorInstance:
    """XOR scheme plus a +-1 right-hand side, one sign per edge."""

    scheme: XorScheme
    rhs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rhs", tuple(self.rhs))

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def m(self) -> int:
        return self.scheme.m

    @property
    def arity(self) -> int | None:
        return self.scheme.arity

    @cached_property
    def signs(self) -> np.ndarray | None:
        """The right-hand side by ``sign_array``: None unless every entry is
        a sign."""
        return sign_array(self.rhs)

    def violations(self) -> list[str]:
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        out = self.scheme.violations()
        if len(self.rhs) != self.scheme.m:
            out.append(f"{len(self.rhs)} rhs signs for {self.scheme.m} edges")
        if self.signs is None:
            out += sign_violations(self.rhs)
        return tuple(out)

    def term_sum(self, x: Sequence[int]) -> Dyadic:
        """Unnormalized sum of w_C * b_C * prod_{v in e_C} x_v, exactly."""
        total = Dyadic(0)
        for e, w, b in zip(self.scheme.hypergraph.edges, self.scheme.weights, self.rhs):
            if w.num == 0:
                continue
            sign = b
            for v in e:
                sign *= x[v]
            total = total + Dyadic(sign * w.num, w.log_den)
        return total

    def value(self, x: Sequence[int]) -> Fraction:
        """Average signed agreement of assignment x, an exact rational."""
        if self.m == 0:
            return Fraction(0)
        return self.term_sum(x).as_fraction() / self.m


def validate_instance(inst: XorInstance) -> None:
    """Raise ValidationError listing every violated invariant."""
    out = inst.violations()
    if out:
        raise ValidationError(out)


def make_instance(
    n: int,
    edges: Iterable[Sequence[int]],
    rhs: Iterable[int],
    weights: Iterable[Dyadic] | None = None,
    arity: int | None = ...,  # type: ignore[assignment]
) -> XorInstance:
    """Convenience constructor; infers a uniform arity unless told otherwise."""
    hypergraph = Hypergraph(n, edges)
    if arity is ...:
        sizes = set(map(len, hypergraph.edges))
        arity = sizes.pop() if len(sizes) == 1 else None
    if weights is not None:
        return XorInstance(XorScheme(hypergraph, tuple(weights), arity), tuple(rhs))
    m = hypergraph.m
    scheme = XorScheme(hypergraph, unit_weights(m), arity)
    # the shared unit weight's arrays, known without reading m weights
    vars(scheme)["weight_arrays"] = (np.ones(m, dtype=np.int64), np.zeros(m, dtype=np.int64))
    return XorInstance(scheme, tuple(rhs))


def instance_to_json(inst: XorInstance) -> str:
    """Serialize in the fixed field order k, n, edges, weights, rhs."""
    payload = {
        "k": inst.arity,
        "n": inst.n,
        "edges": [list(e) for e in inst.scheme.hypergraph.edges],
        "weights": [
            {"num": w.num, "log_den": w.log_den} for w in inst.scheme.weights
        ],
        "rhs": list(inst.rhs),
    }
    return json.dumps(payload)


def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return type(value) is int


def is_int_list(value) -> bool:
    # type() over the whole list in C: the loaders run this on every edge
    return type(value) is list and set(map(type, value)) <= {int}


def parse_json(text: str, what: str):
    """``json.loads`` of a ``what`` file, with JSON nested too deeply for
    the decoder reported as a ValidationError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValidationError([f"{what} JSON is nested too deeply to decode"]) from None


def check_fields(data, what: str, fields: Mapping[str, Callable], optional=()) -> None:
    """Raise ValidationError unless ``data`` is a JSON object whose fields
    pass their checks; fields named in ``optional`` may be absent or null."""
    if not isinstance(data, dict):
        raise ValidationError([f"{what} is not a JSON object"])
    bad = [
        f"{what}: field {name!r} is missing or mistyped"
        for name, ok in fields.items()
        if not (ok(data[name]) if data.get(name) is not None else name in optional)
    ]
    if bad:
        raise ValidationError(bad)


def _int_edges(edges) -> PackedEdges | None:
    """JSON edges packed if they are lists of ints, else None: the field
    check and the hypergraph read one flatten and type scan. Only an edge
    that did not pack as ints of int64 can hold another type."""
    if type(edges) is list and set(map(type, edges)) <= {list}:
        packed = PackedEdges.of(edges)
        if all(set(map(type, edge)) <= {int} for edge in packed.unpacked.values()):
            return packed
    return None


def instance_from_json(text: str) -> XorInstance:
    data = parse_json(text, "instance")
    packed = _int_edges(data.get("edges")) if isinstance(data, dict) else None
    fields = {
        "n": is_int,
        "edges": lambda v: packed is not None,
        "k": is_int,
        "weights": lambda v: isinstance(v, list)
        and all(isinstance(w, dict) and is_int_list([w.get("num"), w.get("log_den")]) for w in v),
        "rhs": is_int_list,
    }
    check_fields(data, "instance", fields, optional=("k", "weights", "rhs"))
    edges = data["edges"]
    n = data["n"]
    weights = data.get("weights")
    if weights is not None:
        # checked before any weight is built: a negative log_den shifts num by its size
        bad = [
            f"edge {idx}: weight log_den {w['log_den']} outside [-{MAX_LOG_DEN}, {MAX_LOG_DEN}]"
            for idx, w in enumerate(weights) if not -MAX_LOG_DEN <= w["log_den"] <= MAX_LOG_DEN
        ]
        if bad:
            raise ValidationError(bad)
        weights = tuple(Dyadic(w["num"], w["log_den"]) for w in weights)
    rhs = data.get("rhs")
    if rhs is None:
        rhs = [1] * len(edges)
    inst = make_instance(n, edges, rhs, weights=weights, arity=data.get("k"))
    vars(inst.scheme.hypergraph)["packed"] = packed  # the edges as packed above
    validate_instance(inst)
    return inst
