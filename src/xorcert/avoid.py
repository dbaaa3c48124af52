"""Range avoidance and remote-point certification for low-depth circuits.

Fast path: one batched transform per fan-in gives every junta gate's exact
spectrum and parity class (``fourier.junta_spectra``), and enough parity
outputs force a GF(2) dependency whose violation is a range gap. Otherwise
parity outputs are pruned and candidate targets drawn from an explicit
generator are certified one seed at a time, as ``certify_not_in_range`` does:

* junta circuits split into per-pattern XOR schemes; their refutation
  bounds plus the non-parity ceiling must sum below 1;
* decision-tree circuits go through the layered character grouping and refute
  every ensemble key; the sum must be below 1 and at most 2 eps.

The split or ensemble is prepared once per circuit, so a target pays one
scatter-add of its signed sums and the engines, with no per-key instance built
or validated. A prepared ensemble passed in by the caller must have been
grouped from the circuit being certified.

Both certificates are sound upper bounds on the best output/target agreement,
so a certified target is guaranteed to sit outside the range.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Sequence

import numpy as np

from .circuits import Circuit, to_layered
from .core import ValidationError
from .fourier import GateSpectra, junta_spectra
from .gf2 import find_xor_dependency
from .prg import GeneratorSpec, sample_int, seed_order, seed_to_str
from .reduction import JuntaSplit, SchemeEnsemble, group_characters
from .refuter import Certificate, RefuteParams, _combine, _exact_sum, _float_up, _rhs_signs


@dataclass(frozen=True)
class CertifyParams:
    eps: Fraction | None = None  # defaults to 2^(-2t)
    refute: RefuteParams = field(default_factory=RefuteParams)

    def __post_init__(self) -> None:
        if self.eps is not None and self.eps < 0:
            raise ValidationError([f"eps must be at least 0, got {self.eps}"])

    def eps_for(self, t: int) -> Fraction:
        return self.eps if self.eps is not None else Fraction(1, 1 << (2 * t))


@dataclass(frozen=True)
class RemoteCertificate:
    """Certified upper bound on max over inputs of <C(x), b>.

    ``min_distance`` is the implied lower bound on the fractional Hamming
    distance from b to the range, already scaled back to all m outputs when
    parity outputs were pruned.
    """

    status: str  # certified | uncertain
    path: str  # junta | tree
    correlation_bound: float
    min_distance: Fraction
    kept_outputs: int
    certificate: Certificate

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _uncertain_remote(path: str, kept: int) -> RemoteCertificate:
    return RemoteCertificate(
        status="uncertain",
        path=path,
        correlation_bound=1.0,
        min_distance=Fraction(0),
        kept_outputs=kept,
        certificate=Certificate(mode="direct", bound=1.0, status="uncertain"),
    )


def _parity_dependency(gates: Sequence[GateSpectra]) -> tuple[list[int], int] | None:
    """Outputs multiplying to a forced constant, found by GF(2) elimination.

    Collects XOR/NXOR outputs as support vectors; any subset XOR-ing to zero
    multiplies to a fixed sign. With at least n + 1 parity outputs a
    dependency always exists.
    """
    parities = []  # (output, sign, support as a bitmask of variables)
    for g in gates:
        rows = np.flatnonzero(g.parity)
        for pos, sign, inputs, support in zip(
            g.positions[rows].tolist(), g.parity[rows].tolist(),
            g.inputs[rows].tolist(), g.support[rows].tolist(),
        ):
            mask = sum(1 << v for j, v in enumerate(inputs) if (support >> j) & 1)
            parities.append((pos, sign, mask))
    parities.sort()
    dep = find_xor_dependency([mask for _, _, mask in parities])
    if dep is None:
        return None
    outputs = [parities[j][0] for j in dep]
    forced = 1
    for j in dep:
        forced *= parities[j][1]
    return outputs, forced


def _prune_parities(
    c: Circuit, gates: Sequence[GateSpectra]
) -> tuple[np.ndarray, JuntaSplit | None]:
    """Positions of the non-parity outputs, increasing, and the split of
    those outputs, renumbered in order."""
    others = [(g, np.flatnonzero(g.parity == 0)) for g in gates]
    kept = np.sort(np.concatenate([np.empty(0, np.intp)] + [g.positions[rows] for g, rows in others]))
    if not len(kept):
        return kept, None
    kept_gates = tuple(
        g.take(rows, np.searchsorted(kept, g.positions[rows])) for g, rows in others if len(rows)
    )
    return kept, JuntaSplit(c.t, len(kept), c.n, kept_gates)


def _certify_prepared(
    prepared: JuntaSplit | SchemeEnsemble,
    kept: np.ndarray,
    b: np.ndarray,
    params: CertifyParams,
) -> RemoteCertificate:
    """The one certification decision on the ``kept`` outputs of target b,
    an int64 array of +-1 that is not checked again: a junta split needs
    its summed bound, non-parity ceiling included, below 1; an ensemble its
    sum below 1 and at most 2 eps (a sum of 1 or more excludes nothing,
    whatever eps is). Bound and distance are scaled to all of b's outputs,
    every pruned output counted as agreeing."""
    m_kept, m_full = len(kept), len(b)
    # kept is increasing, so as long as b it is every output
    b_kept = b if m_kept == m_full else b[kept]
    schemes = prepared.prepared
    parts = schemes._refute(b_kept, params.refute or RefuteParams())
    # the zero schemes share one certificate, certified at bound 0
    live = [parts[j] for j in schemes.nonzero]
    total = _exact_sum([cert.bound for cert in live])
    if isinstance(prepared, JuntaSplit):
        t = prepared.t
        total += Fraction((1 << (t - 1)) - 1, 1 << (t - 1)) if t >= 1 else 0
        path, limit = "junta", Fraction(1)
    else:
        path, limit = "tree", 2 * params.eps_for(prepared.t)
    if not (total < 1 and total <= limit and all(cert.certified for cert in live)):
        return _uncertain_remote(path, m_kept)
    share = Fraction(m_kept, m_full)
    return RemoteCertificate(
        status="certified",
        path=path,
        correlation_bound=_float_up(share * total + (1 - share)),
        min_distance=share * (1 - total) / 2,
        kept_outputs=m_kept,
        certificate=_combine(parts, _float_up(total)),
    )


def _prepare(
    c: Circuit, prepared: SchemeEnsemble | None = None, gates: Sequence[GateSpectra] | None = None
) -> tuple[np.ndarray, JuntaSplit | SchemeEnsemble | None]:
    """What certification reads of a valid circuit, whatever the target:
    the kept outputs in increasing order and their split or ensemble. A
    junta circuit's parity outputs are pruned from ``gates``, its spectra
    by ``junta_spectra``, expanded here unless given; where none is kept
    the split is None. A tree circuit keeps every output and reads
    ``prepared``, which must have been grouped from it, or groups its
    characters."""
    if c.is_junta_circuit():
        return _prune_parities(c, junta_spectra(c.junta_table) if gates is None else gates)
    if prepared is None:
        prepared = group_characters(to_layered(c.with_tree_gates()))
    else:
        _check_grouped_from(prepared, c)
    return np.arange(c.m), prepared


def _check_grouped_from(ens: SchemeEnsemble, c: Circuit) -> None:
    """Raise unless ``ens`` was grouped from c with its gates as trees: the
    ensemble of another circuit bounds that circuit's agreement, not c's.
    The ensemble of the very same circuit is known by identity, so neither
    circuit's gates are read, nor built if it was loaded from JSON."""
    src = ens.circuit
    same = (
        src is not None
        and ens.prepared is not None
        and (ens.n, ens.w, ens.t, ens.m) == (src.n, src.w, src.t, src.m) == (c.n, c.w, c.t, c.m)
        and (src is c or src.gates == c.gates or src.gates == c.with_tree_gates().gates)
    )
    if not same:
        raise ValidationError(["prepared ensemble was not grouped from this circuit"])


def certify_not_in_range(
    c: Circuit,
    b: Sequence[int],
    params: CertifyParams | None = None,
    *,
    prepared: SchemeEnsemble | None = None,
) -> RemoteCertificate:
    """Certify that b is far from (in particular outside) the range of c.

    Junta circuits: parity outputs are pruned (sound, since non-membership on
    a coordinate subset implies non-membership overall) and the certificate
    checks that the summed refutation bounds stay below 1. Decision-tree
    circuits: every ensemble key is refuted and the certificate claims
    fractional distance at least 1/2 - eps; ``prepared`` may pass the
    circuit's ensemble from ``group_characters`` so that repeated targets
    share it (junta circuits ignore it). An ensemble grouped from any other
    circuit raises ValidationError. Never certifies falsely.
    """
    params = params or CertifyParams()
    c.ensure_valid()
    if len(b) != c.m:
        raise ValidationError([f"target length {len(b)} != m = {c.m}"])
    signs = _rhs_signs(b)  # every output's sign, named by its own index

    kept, prepared = _prepare(c, prepared)
    if prepared is None:
        return _uncertain_remote("junta", 0)
    return _certify_prepared(prepared, kept, signs, params)


@dataclass(frozen=True)
class AvoidParams:
    """Knobs of ``avoid``.

    Seeds are certified one at a time in one process. With ``wall_clock_s``
    set, no seed starts after that many seconds; a seed already started is
    certified to the end. ``workers`` is kept for callers that pass it and
    accepts only 1.
    """

    budget: int = 256  # maximum number of seeds to try
    certify: CertifyParams = field(default_factory=CertifyParams)
    workers: int = 1
    wall_clock_s: float | None = None

    def __post_init__(self) -> None:
        errors = []
        if self.budget < 0:
            errors.append(f"budget must be at least 0, got {self.budget}")
        if self.workers != 1:
            errors.append(f"workers must be 1, got {self.workers}")
        if self.wall_clock_s is not None and not self.wall_clock_s >= 0:  # NaN fails too
            errors.append(f"wall clock must be a number of seconds >= 0, got {self.wall_clock_s}")
        if errors:
            raise ValidationError(errors)


@dataclass(frozen=True)
class AvoidResult:
    y: tuple[int, ...] | None
    justification: dict
    certificates: tuple[Certificate, ...]
    seeds_tried: int
    stats: dict

    @property
    def succeeded(self) -> bool:
        return self.y is not None

    def to_obj(self, wall_time: float | None = None) -> dict:
        return {
            "y": list(self.y) if self.y is not None else None,
            "justification": self.justification,
            "certificates": [c.to_obj() for c in self.certificates],
            "seeds_tried": self.seeds_tried,
            "wall_time": wall_time,
            "stats": self.stats,
        }

    def to_json(self, wall_time: float | None = None) -> str:
        return json.dumps(self.to_obj(wall_time))


def _parity_avoid_result(c: Circuit, outputs: list[int], forced: int) -> AvoidResult:
    y = [1] * c.m
    if forced == 1:
        y[outputs[0]] = -1  # break the forced product
    return AvoidResult(
        y=tuple(y),
        justification={
            "kind": "parity_dependency",
            "outputs": outputs,
            "forced_sign": forced,
        },
        certificates=(
            Certificate(mode="parity", bound=_float_up(Fraction(c.m - 1, c.m)), status="certified"),
        ),
        seeds_tried=0,
        stats={"parity_outputs": len(outputs)},
    )


def avoid(
    c: Circuit, gen: GeneratorSpec, params: AvoidParams | None = None
) -> AvoidResult:
    """Deterministically exhibit a string outside the range of c.

    Junta circuits first look for a parity dependency; otherwise parity
    outputs are pruned and seeds of the generator are tried in
    ``prg.seed_order``, degenerate seeds last, until one sample certifies or
    the budget or the wall clock runs out. Pruned coordinates of the
    answer are filled with +1, which is sound because the certificate
    already excludes every extension of the kept coordinates from the range.
    """
    params = params or AvoidParams()
    c.ensure_valid()
    if gen.m != c.m:
        raise ValidationError([f"generator length {gen.m} != circuit outputs {c.m}"])

    stats: dict = {"budget": params.budget}
    gates = junta_spectra(c.junta_table) if c.is_junta_circuit() else None
    dep = None if gates is None else _parity_dependency(gates)
    if dep is not None:
        return _parity_avoid_result(c, *dep)
    kept, prepared = _prepare(c, gates=gates)
    stats["kept_outputs"] = len(kept)
    stats["parity_outputs"] = c.m - len(kept)

    end = None if params.wall_clock_s is None else time.monotonic() + params.wall_clock_s
    hit = None
    seeds_tried = 0
    for seed in islice(seed_order(gen), params.budget if prepared is not None else 0):
        if end is not None and time.monotonic() >= end:
            stats["aborted"] = "wall clock"
            break
        seeds_tried += 1
        # sample_int gives +-1, so the signs are not checked again
        b_full = np.array(sample_int(gen, seed), dtype=np.int64)
        rc = _certify_prepared(prepared, kept, b_full, params.certify)
        if rc.certified:
            hit = seed, b_full, rc
            break

    if hit is None:
        stats["seeds_tried"] = seeds_tried
        return AvoidResult(
            y=None,
            justification={"kind": "failed", "budget": stats},
            certificates=(),
            seeds_tried=seeds_tried,
            stats=stats,
        )

    seed, b_full, rc = hit
    y = np.ones(c.m, dtype=np.int64)
    y[kept] = b_full[kept]
    return AvoidResult(
        y=tuple(y.tolist()),
        justification={
            "kind": "refutation",
            "seed": seed_to_str(gen, seed),
            "path": rc.path,
            "min_distance": [rc.min_distance.numerator, rc.min_distance.denominator],
        },
        certificates=(rc.certificate,),
        seeds_tried=seeds_tried,
        stats=stats,
    )
