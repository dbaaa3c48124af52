"""The benchmark's tracer (``bench/tracing.py``) against the program: every
entry point it wraps resolves, its observers read what the program returns,
and it leaves every binding as it found it. The tracer is imported by path;
the benchmark's own files are not changed."""

import importlib
import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from xorcert.avoid import AvoidParams, CertifyParams
from xorcert.circuits import random_tree_circuit, to_layered
from xorcert.prg import GeneratorSpec
from xorcert.refuter import RefuteParams

from helpers import random_instance, random_pruned_circuit, signs


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

# Calls go through the modules at call time, as the benchmark's workloads
# make them, so that the tracer's wrappers see them.
avoid_mod = importlib.import_module("xorcert.avoid")
reduction = importlib.import_module("xorcert.reduction")
refuter = importlib.import_module("xorcert.refuter")


def _bindings() -> dict:
    """Every attribute of every xorcert module, and of every class in one."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "xorcert" and not name.startswith("xorcert."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                out.update(((name, attr, a), v) for a, v in vars(value).items())
    return out


def test_every_entry_point_resolves():
    for module_name, attr, name in tracing.ENTRY_POINTS:
        owner, last = tracing._resolve(module_name, attr)
        assert callable(owner.__dict__[last]), name


def test_a_traced_batch_counts_every_layer_and_restores_every_binding():
    rng = random.Random(5)
    even = random_instance(rng, 8, 4, 30)
    odd = random_instance(rng, 8, 3, 30)
    tree = random_tree_circuit(rng, 5, 2, 2, 80, leaf_prob=0.4)
    ensemble = reduction.group_characters(to_layered(tree))
    target = signs(rng, tree.m)
    # three pruned outputs and no parity dependency: avoid reaches the seed loop
    junta = random_pruned_circuit(random.Random(11), 8, 2, 120)
    gen = GeneratorSpec.eps_biased(junta.m, 10)
    ops = [
        lambda: refuter.refute(even, RefuteParams(r=2)),
        lambda: refuter.refute(odd),
        lambda: avoid_mod.certify_not_in_range(
            tree, target, CertifyParams(eps=Fraction(2, 5)), prepared=ensemble
        ),
        lambda: avoid_mod.avoid(junta, gen, AvoidParams(budget=16)),
    ]

    before = _bindings()
    tracer = tracing.Tracer()
    dyadics = Counter()
    with tracing.traced(tracer), tracing.counting_dyadics(dyadics):
        assert refuter.build_kikuchi is not before[("xorcert.refuter", "build_kikuchi")]
        for op, call in enumerate(ops):
            tracer.op = op
            call()
    changed = [key for key, value in before.items() if _bindings().get(key) is not value]
    assert changed == []

    for counter in (
        "refuter.kikuchi.pairs",
        "refuter.kikuchi.nnz",
        "refuter.odd_to_even.bucket_edges",
        "avoid.seeds_tried",
    ):
        assert tracer.counts[counter] > 0, counter
    # the values of the per-pair build loop this batch was first traced with:
    # one build per target and even part or bucket, the same pairs and the
    # same stored entries, however the operator is laid out
    builds = [calls for (_, name), (calls, _) in tracer.self_times().items()
              if name == "refuter.build_kikuchi"]
    assert sum(builds) == 30
    assert tracer.counts["refuter.kikuchi.pairs"] == 5176
    assert tracer.counts["refuter.kikuchi.nnz"] == 357
    # the copies of the odd instance's buckets, as the per-pair split made them
    assert tracer.counts["refuter.odd_to_even.bucket_edges"] == 190
    spans = {name for _, name in tracer.self_times()}
    assert {
        "refuter.refute", "refuter.build_kikuchi", "refuter.odd_to_even", "refuter.spectral",
        "avoid.certify_not_in_range", "avoid.avoid",
    } <= spans
    # refutation from prepared integers makes no Dyadic
    assert dyadics["core.dyadic.created"] == 0
