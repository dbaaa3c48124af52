"""The benchmark's four workloads: seeded inputs, set-up, ops and checks.

A workload turns ``--seed`` into inputs (JSON texts in the program's public
formats plus the benchmark's own copy of the raw data), prepares them with
the program's public loaders during set-up, and yields one op per input for
each pass. Checks read only the raw data and the op's output, never the
program's parsed objects.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks
from xorcert.avoid import AvoidParams, CertifyParams
from xorcert.circuits import circuit_from_json, to_layered
from xorcert.core import instance_from_json
from xorcert.prg import parse_spec, sample_int
from xorcert.refuter import RefuteParams

# Calls into the traced layers go through the module at call time, so the
# tracer's wrappers see them. (``xorcert.avoid`` as a package attribute is the
# function, hence import_module.)
avoid_mod = importlib.import_module("xorcert.avoid")
reduction = importlib.import_module("xorcert.reduction")
refuter = importlib.import_module("xorcert.refuter")


@dataclass
class Workload:
    """One workload. ``make_inputs`` is seeded input generation, ``setup`` is
    the program's own one-time preparation (timed as ``setup_s``), ``ops``
    returns one zero-argument call per input, in pass order."""

    name: str
    make_inputs: Callable[[random.Random], Any]
    setup: Callable[[Any], Any]
    ops: Callable[[Any, Any], list[Callable[[], Any]]]
    bound: Callable[[Any], float]
    canonical: Callable[[Any], str]
    check: Callable[[Any, int, Any], list[str]]
    setup_reps: int


# ---------------------------------------------------------------- refute


def _random_edges(rng: random.Random, k: int, n: int, m: int) -> list[list[int]]:
    return [sorted(rng.sample(range(n), k)) for _ in range(m)]


def _complete_edges(rng: random.Random, k: int, n: int, m: int) -> list[list[int]]:
    # semi-random model: a fixed hypergraph (all k-subsets), random signs
    return [list(e) for e in itertools.combinations(range(n), k)]


def _refute_workload(name: str, edges, k: int, n: int, m: int | None, r: int | None,
                     count: int) -> Workload:
    params = RefuteParams(r=r)

    def make_inputs(rng):
        raw = []
        for _ in range(count):
            e = edges(rng, k, n, m)
            rhs = [rng.choice((1, -1)) for _ in e]
            raw.append({"k": k, "n": n, "edges": e, "weights": None, "rhs": rhs})
        return raw, [json.dumps(d) for d in raw]

    def check(inputs, i, cert):
        d = inputs[0][i]
        value = checks.xor_value(d["n"], d["edges"], [(1, 0)] * len(d["edges"]), d["rhs"])
        return checks.check_refute(cert, value)

    return Workload(
        name=name,
        make_inputs=make_inputs,
        setup=lambda inputs: [instance_from_json(t) for t in inputs[1]],
        ops=lambda inputs, insts: [lambda inst=inst: refuter.refute(inst, params) for inst in insts],
        bound=lambda cert: cert.bound,
        canonical=lambda cert: cert.to_json(),
        check=check,
        setup_reps=9,
    )


# ---------------------------------------------------------------- remote-tree

TREE_N, TREE_W, TREE_T, TREE_M = 6, 2, 2, 800
TREE_LEAF_PROB = 0.4
TREE_EPS = Fraction(2, 5)
TREE_GEN = "biased:m=800,s=11"


def _random_tree(rng: random.Random, n: int, w: int, t: int, leaf_prob: float):
    """Node = leaf sign, or (query, children); no symbol is queried twice on
    a path, and only non-root nodes may stop early."""

    def build(depth: int, used: frozenset):
        if depth >= t or len(used) == n or (depth >= 1 and rng.random() < leaf_prob):
            return rng.choice((1, -1))
        j = rng.choice([v for v in range(n) if v not in used])
        return (j, [build(depth + 1, used | {j}) for _ in range(1 << w)])

    return build(0, frozenset())


def _tree_obj(node):
    if isinstance(node, int):
        return {"leaf": 0 if node == 1 else 1}
    query, children = node
    return {"query": query, "children": [_tree_obj(c) for c in children]}


def _remote_tree_workload(count: int) -> Workload:
    params = CertifyParams(eps=TREE_EPS)

    def make_inputs(rng):
        roots = [_random_tree(rng, TREE_N, TREE_W, TREE_T, TREE_LEAF_PROB) for _ in range(TREE_M)]
        text = json.dumps({
            "n": TREE_N, "w": TREE_W, "t": TREE_T, "m": TREE_M,
            "gates": [{"kind": "tree", "root": _tree_obj(r)} for r in roots],
        })
        gen = parse_spec(TREE_GEN)
        targets = [sample_int(gen, rng.getrandbits(gen.seed_bits)) for _ in range(count)]
        return {"roots": roots, "text": text, "targets": targets, "outputs": None}

    def setup(inputs):
        c = circuit_from_json(inputs["text"])
        return c, reduction.group_characters(to_layered(c))

    def ops(inputs, state):
        c, ens = state
        return [
            lambda b=b: avoid_mod.certify_not_in_range(c, b, params, prepared=ens)
            for b in inputs["targets"]
        ]

    def check(inputs, i, rc):
        if inputs["outputs"] is None:
            inputs["outputs"] = checks.tree_outputs(TREE_N, TREE_W, inputs["roots"])
        dist = checks.min_distance(inputs["outputs"], inputs["targets"][i])
        return checks.check_remote(rc, dist, TREE_EPS)

    return Workload(
        name="remote-tree",
        make_inputs=make_inputs,
        setup=setup,
        ops=ops,
        bound=lambda rc: rc.correlation_bound,
        canonical=lambda rc: json.dumps(
            [rc.status, rc.correlation_bound, str(rc.min_distance), rc.certificate.to_obj()]
        ),
        check=check,
        setup_reps=7,
    )


# ---------------------------------------------------------------- avoid-junta

JUNTA_N, JUNTA_T, JUNTA_M, JUNTA_SINGLES = 14, 3, 4000, 4
JUNTA_GEN = "biased:m=4000,s=10"

# Constant and parity tables on three inputs: (-1)^(|a & S| + neg).
_PARITY_TABLES = {
    tuple(((a & s).bit_count() + neg) & 1 for a in range(8))
    for s in range(8)
    for neg in (0, 1)
}


def _junta_gates(rng: random.Random) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A few single-input gates on distinct inputs (pruned as parities, but
    independent, so no parity dependency exists) and non-parity 3-input
    gates for the rest."""
    gates = [((v,), rng.choice(((0, 1), (1, 0)))) for v in rng.sample(range(JUNTA_N), JUNTA_SINGLES)]
    while len(gates) < JUNTA_M:
        table = tuple(rng.randrange(2) for _ in range(8))
        if table not in _PARITY_TABLES:
            gates.append((tuple(sorted(rng.sample(range(JUNTA_N), JUNTA_T))), table))
    rng.shuffle(gates)
    return gates


def _avoid_junta_workload(count: int) -> Workload:
    params = AvoidParams(workers=1)

    def make_inputs(rng):
        circuits = [_junta_gates(rng) for _ in range(count)]
        texts = [
            json.dumps({
                "n": JUNTA_N, "w": 1, "t": JUNTA_T, "m": JUNTA_M,
                "gates": [
                    {"kind": "junta", "inputs": list(inp), "table": "".join(map(str, tab))}
                    for inp, tab in gates
                ],
            })
            for gates in circuits
        ]
        return circuits, texts

    def setup(inputs):
        return [circuit_from_json(t) for t in inputs[1]], parse_spec(JUNTA_GEN)

    def ops(inputs, state):
        circuits, gen = state
        return [lambda c=c: avoid_mod.avoid(c, gen, params) for c in circuits]

    def check(inputs, i, res):
        if res.y is None:
            return []  # budget exhausted: an honest negative, not a wrong answer
        return checks.check_avoid(res, checks.junta_distance(JUNTA_N, inputs[0][i], res.y))

    return Workload(
        name="avoid-junta",
        make_inputs=make_inputs,
        setup=setup,
        ops=ops,
        bound=lambda res: res.certificates[0].bound if res.succeeded else 1.0,
        canonical=lambda res: res.to_json(),
        check=check,
        setup_reps=9,
    )


WORKLOADS = {
    w.name: w
    for w in (
        _refute_workload("refute-even", _random_edges, k=4, n=20, m=800, r=3, count=4),
        _refute_workload("refute-odd", _complete_edges, k=3, n=16, m=None, r=None, count=3),
        _remote_tree_workload(count=8),
        _avoid_junta_workload(count=5),
    )
}
