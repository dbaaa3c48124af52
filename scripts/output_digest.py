#!/usr/bin/env python3
"""SHA-256 of the benchmark workloads' outputs, one line per workload and seed.

Builds each workload's inputs for a seed as ``bench/run.py`` does, runs one
pass of its ops and hashes their canonical outputs in op order. Two
checkouts whose lines are equal give byte-identical certificates on those
seeds:

    PYTHONPATH=src python scripts/output_digest.py --seeds 1 2 3

With ``--passes N`` each workload runs N passes over the same set-up and
every pass is hashed: the state kept across targets (patterns, their
reweighting, stack layouts) must leave later, warm passes byte-identical
to the first, cold one. The line shows the first pass's digest, and the
script exits 1 if a later pass differs from it.

After the benchmark's workloads come the lines of ``remote-tree-odd``, which
no benchmark workload covers: a prepared ensemble of a t=3 tree circuit
(n=8, w=1, leaf probability 0.4, m=600), whose arity-3 keys take the odd
split, and 8 uniform targets, each certified with the default knobs and
with ``split_weights``. Its later passes read the odd parts' kept pairings
and the kept parts of ``split_weights``.

Then come the lines of ``remote-tree-trace``: the inputs and set-up of
``remote-tree`` at each seed, its 8 targets certified under mode ``trace``,
which no benchmark workload runs on a prepared ensemble. Its later passes
read the plan that the first pass recorded for those knobs.

Then come the lines of ``refute-wide``, whose weights no benchmark workload
reaches: four mixed-arity instances (n=8, m=40, edge sizes 0 to 4) with
weights of 50 bits, whose units sum past 2^53 in int64, of 62 and 70 bits,
which are Python ints, and of +-1 beside 62-bit ones, which puts units of
+-2^62 among them. Each is written as JSON and loaded again, then certified
by ``refute`` and, prepared once, on 3 more right-hand sides, with the
default knobs and with ``split_weights``.

Then come the lines of ``shared-stack``, whose batches no benchmark workload
makes: six 2-XOR schemes (n = 8, 6, 8, 8, 6, 8, ten edges each but the
third's) prepared over one right-hand side of 64 positions, so that the
operators of each side length share a stack. The third scheme is two
copies of one edge at positions 0 and 1, and its 8 targets alternate
between leaving that operator without entries and not, each certified with
the default knobs and with ``split_weights``.

Last come the lines of ``kikuchi-shapes``, whose Kikuchi patterns no
benchmark workload builds: a 6-XOR instance on 10 vertices refuted at the
levels r = 3 and r = 5 (sides 120 and 252, the second above the Lanczos
threshold), and a 2-XOR instance on 70 vertices, whose edge bitmasks are
Python ints, with the default knobs and with ``split_weights``. Each has 40
edges, 10 of them parallel copies of others, with weights in [-1, 1] at the
scale 2^-2, and is certified by ``refute`` and, prepared once, on 2 more
right-hand sides.

``bench/workloads.py`` is imported by path and only read.
"""

import os

# one BLAS thread, as the benchmark runs, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from xorcert.avoid import CertifyParams, certify_not_in_range
from xorcert.circuits import random_tree_circuit, to_layered
from xorcert.core import Dyadic, instance_from_json, instance_to_json, make_instance
from xorcert.reduction import group_characters
from xorcert.refuter import RefuteParams, _prepare_instance, prepare_rows, refute

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(BENCH))  # workloads.py imports its neighbour checks.py
    return importlib.import_module("workloads").WORKLOADS


def _odd_tree_workload() -> SimpleNamespace:
    """The ``remote-tree-odd`` lines, in the form of a benchmark workload."""
    knobs = [
        CertifyParams(eps=Fraction(2, 5), refute=RefuteParams(split_weights=split))
        for split in (False, True)
    ]

    def make_inputs(rng):
        circuit = random_tree_circuit(rng, 8, 1, 3, 600, leaf_prob=0.4)
        targets = [[rng.choice((1, -1)) for _ in range(circuit.m)] for _ in range(8)]
        return circuit, targets

    def ops(inputs, ens):
        circuit, targets = inputs
        return [
            lambda b=b, p=p: certify_not_in_range(circuit, b, p, prepared=ens)
            for b in targets for p in knobs
        ]

    return SimpleNamespace(
        name="remote-tree-odd",
        make_inputs=make_inputs,
        setup=lambda inputs: group_characters(to_layered(inputs[0])),
        ops=ops,
        canonical=lambda rc: json.dumps(
            [rc.status, rc.correlation_bound, str(rc.min_distance), rc.certificate.to_obj()]
        ),
    )


def _trace_tree_workload(tree) -> SimpleNamespace:
    """The ``remote-tree-trace`` lines: the inputs and set-up of the
    ``remote-tree`` workload ``tree``, each target certified under mode
    trace."""
    params = CertifyParams(eps=Fraction(2, 5), refute=RefuteParams(mode="trace"))

    def ops(inputs, state):
        circuit, ens = state
        return [
            lambda b=b: certify_not_in_range(circuit, b, params, prepared=ens)
            for b in inputs["targets"]
        ]

    return SimpleNamespace(
        name="remote-tree-trace",
        inputs_of=tree.name,
        make_inputs=tree.make_inputs,
        setup=tree.setup,
        ops=ops,
        canonical=tree.canonical,
    )


def _wide_weight(rng: random.Random, bits: int | None) -> Dyadic:
    """A weight of ``bits`` bits at the scale 2^-bits; None gives +-1, or one
    of 62 bits a third of the time."""
    if bits is None:
        if rng.random() < 2 / 3:
            return Dyadic(rng.choice((1, -1)), 0)
        bits = 62
    return Dyadic(rng.randint(-(1 << bits), 1 << bits), bits)


def _refute_ops(cases, prepared) -> list:
    """For each (instance, targets, knobs) and its prepared scheme: under each
    knob, ``refute`` on the instance, then the prepared scheme on each target."""
    calls = []
    for (inst, targets, knobs), schemes in zip(cases, prepared):
        for p in knobs:
            calls.append(lambda inst=inst, p=p: refute(inst, p))
            calls += [lambda s=schemes, b=b, p=p: s.refute(b, p)[0] for b in targets]
    return calls


def _wide_refute_workload() -> SimpleNamespace:
    """The ``refute-wide`` lines, in the form of a benchmark workload."""
    knobs = [RefuteParams(), RefuteParams(split_weights=True)]

    def make_inputs(rng):
        inputs = []
        for bits in (50, 62, 70, None):
            edges = [tuple(sorted(rng.sample(range(8), rng.randint(0, 4)))) for _ in range(40)]
            weights = [_wide_weight(rng, bits) for _ in edges]
            rhs = [rng.choice((1, -1)) for _ in edges]
            # through the JSON loader, which then reads weights of 50 to 70 bits
            inst = instance_from_json(instance_to_json(make_instance(8, edges, rhs, weights=weights)))
            inputs.append((inst, [[rng.choice((1, -1)) for _ in edges] for _ in range(3)]))
        return inputs

    return SimpleNamespace(
        name="refute-wide",
        make_inputs=make_inputs,
        setup=lambda inputs: [_prepare_instance(inst) for inst, _ in inputs],
        ops=lambda inputs, prepared: _refute_ops(
            [(inst, targets, knobs) for inst, targets in inputs], prepared
        ),
        canonical=lambda cert: cert.to_json(),
    )


def _shared_stack_workload() -> SimpleNamespace:
    """The ``shared-stack`` lines, in the form of a benchmark workload."""
    knobs = [RefuteParams(), RefuteParams(split_weights=True)]
    sides = (8, 6, 8, 8, 6, 8)  # each scheme's vertex count, its side at level 1
    m = 64

    def make_inputs(rng):
        rows = []  # (scheme, edge, rhs position, units at the scale 2^-3)
        for j, n in enumerate(sides):
            if j == 2:
                rows += [(j, (0, 1), 0, 1), (j, (0, 1), 1, 1)]
                continue
            for _ in range(10):
                edge = tuple(sorted(rng.sample(range(n), 2)))
                rows.append((j, edge, rng.randrange(2, m), rng.randint(-8, 8)))
        targets = []
        for i in range(8):
            b = [rng.choice((1, -1)) for _ in range(m)]
            b[1] = -b[0] if i % 2 == 0 else b[0]  # the third scheme's sum is zero, then not
            targets.append(b)
        return rows, targets

    def setup(inputs):
        scheme, edges, outputs, units = (np.array(column) for column in zip(*inputs[0]))
        counts = np.ones(len(scheme), dtype=np.int64)
        return prepare_rows(m, [(n, 3) for n in sides], scheme, edges, outputs, units, counts)

    return SimpleNamespace(
        name="shared-stack",
        make_inputs=make_inputs,
        setup=setup,
        ops=lambda inputs, prepared: [
            lambda b=b, p=p: prepared.refute(b, p) for b in inputs[1] for p in knobs
        ],
        canonical=lambda certs: json.dumps([cert.to_obj() for cert in certs]),
    )


def _kikuchi_shapes_workload() -> SimpleNamespace:
    """The ``kikuchi-shapes`` lines, in the form of a benchmark workload."""
    shapes = [
        (10, 6, [RefuteParams(r=3), RefuteParams(r=5)]),
        (70, 2, [RefuteParams(), RefuteParams(split_weights=True)]),
    ]

    def make_inputs(rng):
        cases = []
        for n, k, knobs in shapes:
            edges = [tuple(sorted(rng.sample(range(n), k))) for _ in range(30)]
            edges += [rng.choice(edges) for _ in range(10)]  # parallel copies
            weights = [Dyadic(rng.randint(-4, 4), 2) for _ in edges]
            rhs = [rng.choice((1, -1)) for _ in edges]
            targets = [[rng.choice((1, -1)) for _ in edges] for _ in range(2)]
            cases.append((make_instance(n, edges, rhs, weights=weights), targets, knobs))
        return cases

    return SimpleNamespace(
        name="kikuchi-shapes",
        make_inputs=make_inputs,
        setup=lambda cases: [_prepare_instance(inst) for inst, _, _ in cases],
        ops=_refute_ops,
        canonical=lambda cert: cert.to_json(),
    )


def digests(workload, seed: int, passes: int) -> list[str]:
    """The digest of each of ``passes`` passes over one set-up. A workload
    that reads another's inputs names it in ``inputs_of``."""
    name = getattr(workload, "inputs_of", workload.name)
    inputs = workload.make_inputs(random.Random(f"{name}:{seed}"))
    calls = workload.ops(inputs, workload.setup(inputs))
    out = []
    for _ in range(passes):
        h = hashlib.sha256()
        for call in calls:
            h.update(workload.canonical(call()).encode())
            h.update(b"\n")
        out.append(h.hexdigest())
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--passes", type=int, default=1,
                    help="passes over each set-up; exit 1 if a later one differs from the first")
    args = ap.parse_args()
    if args.passes < 1:
        ap.error(f"--passes must be at least 1, got {args.passes}")

    status = 0
    workloads = _load_workloads()
    workloads["remote-tree-odd"] = _odd_tree_workload()
    workloads["remote-tree-trace"] = _trace_tree_workload(workloads["remote-tree"])
    workloads["refute-wide"] = _wide_refute_workload()
    workloads["shared-stack"] = _shared_stack_workload()
    workloads["kikuchi-shapes"] = _kikuchi_shapes_workload()
    for name, workload in workloads.items():
        for seed in args.seeds:
            first, *later = digests(workload, seed, args.passes)
            print(f"{name}\tseed {seed}\t{first}", flush=True)
            for i, other in enumerate(later, 2):
                if other != first:
                    print(f"{name}\tseed {seed}\tpass {i} differs: {other}", file=sys.stderr)
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
