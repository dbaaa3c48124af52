"""Exact-arithmetic substrate: dyadic rationals, hypergraphs and weighted XOR
systems.

The bit convention is fixed once for the whole package: bit 0 maps to the
sign +1 and bit 1 maps to -1, i.e. sign(a) = (-1)**a.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence


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


@dataclass(frozen=True)
class Hypergraph:
    """Ordered edge list over vertex set range(n); parallel edges allowed.

    Edge identity is list position, so repeated edges are distinct constraints.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def violations(self) -> list[str]:
        cached = self.__dict__.get("_violations")
        if cached is not None:
            return list(cached)
        out = []
        if self.n < 0:
            out.append(f"negative vertex count {self.n}")
        for idx, e in enumerate(self.edges):
            if any(not 0 <= v < self.n for v in e):
                out.append(f"edge {idx}: vertex out of range in {e}")
            if any(e[i - 1] >= e[i] for i in range(1, len(e))):
                out.append(f"edge {idx}: vertices not strictly increasing in {e}")
        object.__setattr__(self, "_violations", tuple(out))
        return out


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

    def violations(self) -> list[str]:
        out = self.hypergraph.violations()
        if len(self.weights) != self.hypergraph.m:
            out.append(
                f"{len(self.weights)} weights for {self.hypergraph.m} edges"
            )
        for idx, w in enumerate(self.weights):
            # |num / 2^log_den| <= 1 as a pure integer comparison
            if abs(w.num) > 1 << w.log_den:
                out.append(f"edge {idx}: weight {w} outside [-1, 1]")
        if self.arity is not None:
            for idx, e in enumerate(self.hypergraph.edges):
                if len(e) != self.arity:
                    out.append(
                        f"edge {idx}: arity {len(e)} != declared {self.arity}"
                    )
        return out


def unit_weights(m: int) -> tuple[Dyadic, ...]:
    return tuple(Dyadic(1) for _ in range(m))


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

    def violations(self) -> list[str]:
        out = self.scheme.violations()
        if len(self.rhs) != self.scheme.m:
            out.append(f"{len(self.rhs)} rhs signs for {self.scheme.m} edges")
        for idx, b in enumerate(self.rhs):
            if b not in (1, -1):
                out.append(f"edge {idx}: rhs {b} not in {{+1, -1}}")
        return out

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
    edge_tuple = tuple(tuple(e) for e in edges)
    if arity is ...:
        sizes = {len(e) for e in edge_tuple}
        arity = sizes.pop() if len(sizes) == 1 else None
    w = tuple(weights) if weights is not None else unit_weights(len(edge_tuple))
    scheme = XorScheme(Hypergraph(n, edge_tuple), w, arity)
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


_INSTANCE_FIELDS = {
    "n": is_int,
    "edges": lambda v: type(v) is list
    and set(map(type, v)) <= {list}
    and is_int_list(list(chain.from_iterable(v))),
    "k": is_int,
    "weights": lambda v: isinstance(v, list)
    and all(isinstance(w, dict) and is_int_list([w.get("num"), w.get("log_den")]) for w in v),
    "rhs": is_int_list,
}


def instance_from_json(text: str) -> XorInstance:
    data = parse_json(text, "instance")
    check_fields(data, "instance", _INSTANCE_FIELDS, optional=("k", "weights", "rhs"))
    edges = data["edges"]
    n = data["n"]
    weights = None
    if data.get("weights") is not None:
        weights = tuple(
            Dyadic(w["num"], w["log_den"]) for w in data["weights"]
        )
    rhs = data.get("rhs")
    if rhs is None:
        rhs = [1] * len(edges)
    inst = make_instance(n, edges, rhs, weights=weights, arity=data.get("k"))
    validate_instance(inst)
    return inst
