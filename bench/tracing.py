"""Spans around xorcert's layer entry points, installed from outside the
program.

Each entry point is wrapped in place: the wrapper replaces the function in
every ``xorcert`` module that holds it by value (``avoid.py`` imports its own
``refute``, ``attach_rhs``, ``expand_junta`` and ``sample_int``), and methods
are replaced on their class. Spans are kept in memory as
``[id, parent, op, name, start_ns, end_ns, hidden_ns]``; ``hidden_ns`` is the
time the tracer spent after the span ended and before control returned to the
parent, which is not charged to the parent's self time.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

# (module, attribute, span name); a dotted attribute is a method.
ENTRY_POINTS = [
    ("xorcert.core", "validate_instance", "core.validate_instance"),
    ("xorcert.fourier", "expand_junta", "fourier.expand_junta"),
    ("xorcert.fourier", "classify_parity", "fourier.classify_parity"),
    ("xorcert.fourier", "expand_layered_output", "fourier.expand_layered_output"),
    ("xorcert.reduction", "attach_rhs", "reduction.attach_rhs"),
    ("xorcert.reduction", "group_characters", "reduction.group_characters"),
    ("xorcert.reduction", "nonadaptive_split", "reduction.nonadaptive_split"),
    ("xorcert.reduction", "JuntaSplit.instance", "reduction.junta_instance"),
    ("xorcert.refuter", "refute", "refuter.refute"),
    ("xorcert.refuter", "build_kikuchi", "refuter.build_kikuchi"),
    ("xorcert.refuter", "odd_to_even", "refuter.odd_to_even"),
    ("xorcert.refuter", "trace_certificate", "refuter.trace"),
    ("xorcert.refuter", "spectral_certificate", "refuter.spectral"),
    ("xorcert.prg", "sample_int", "prg.sample_int"),
    ("xorcert.gf2", "find_xor_dependency", "gf2.find_xor_dependency"),
    ("xorcert.avoid", "certify_not_in_range", "avoid.certify_not_in_range"),
    ("xorcert.avoid", "avoid", "avoid.avoid"),
]

# Spans that run in set-up on the benchmark's workloads; their metrics are
# per set-up rather than per op.
SETUP_SPANS = ("reduction.group_characters", "fourier.expand_layered_output")

# Counts the observers below take from the entry points' arguments and results.
COUNTERS = (
    "refuter.kikuchi.pairs",
    "refuter.kikuchi.nnz",
    "refuter.odd_to_even.bucket_edges",
    "refuter.trace.wins",
    "reduction.keys_refuted",
    "reduction.keys_nonzero",
    "avoid.seeds_tried",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op: Any = None
        self.counts: Counter = Counter()
        self.trace_parents: set[int] = set()
        self._key_counts: dict[int, tuple[int, int]] = {}

    def wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            rec = [len(spans), parent, self.op, name, 0, 0, 0]
            spans.append(rec)
            stack.append(rec)
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if observe is not None:
                observe(self, rec, args, result)
                rec[6] = clock() - rec[5]
            return result

        return wrapper

    # Observers run outside the span; their time goes to hidden_ns.

    def _on_build(self, rec, args, op) -> None:
        self.counts["refuter.kikuchi.pairs"] += op.trace_degree
        self.counts["refuter.kikuchi.nnz"] += len(op.entries)

    def _on_odd(self, rec, args, split) -> None:
        self.counts["refuter.odd_to_even.bucket_edges"] += sum(
            b.m for b in split.buckets.values()
        )

    def _on_trace(self, rec, args, result) -> None:
        if rec[1] is not None:
            self.trace_parents.add(rec[1])

    def _on_refute(self, rec, args, cert) -> None:
        if rec[0] in self.trace_parents and cert.certified and cert.mode == "trace":
            self.counts["refuter.trace.wins"] += 1

    def _on_attach(self, rec, args, out) -> None:
        # whether a key's weights are all zero depends on the scheme only
        key = id(args[0])
        if key not in self._key_counts:
            nonzero = sum(
                any(w.num for w in inst.scheme.weights) for inst in out.values()
            )
            self._key_counts[key] = (len(out), nonzero)
        refuted, nonzero = self._key_counts[key]
        self.counts["reduction.keys_refuted"] += refuted
        self.counts["reduction.keys_nonzero"] += nonzero

    def _on_avoid(self, rec, args, res) -> None:
        self.counts["avoid.seeds_tried"] += res.seeds_tried

    OBSERVERS = {
        "refuter.build_kikuchi": _on_build,
        "refuter.odd_to_even": _on_odd,
        "refuter.trace": _on_trace,
        "refuter.refute": _on_refute,
        "reduction.attach_rhs": _on_attach,
        "avoid.avoid": _on_avoid,
    }

    def self_times(self) -> dict[tuple[Any, str], tuple[int, int]]:
        """(op, span name) -> (calls, self ns)."""
        covered = defaultdict(int)
        for rec in self.spans:
            if rec[1] is not None:
                covered[rec[1]] += rec[5] - rec[4] + rec[6]
        out: dict[tuple[Any, str], list[int]] = defaultdict(lambda: [0, 0])
        for rec in self.spans:
            agg = out[(rec[2], rec[3])]
            agg[0] += 1
            agg[1] += rec[5] - rec[4] - covered[rec[0]]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str) -> None:
        """One tab-separated span per line: id, parent, op, name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for rec in self.spans:
                fh.write("\t".join(map(str, rec[:6])) + "\n")


def _resolve(module_name: str, attr: str):
    # importlib, not attribute access: xorcert.avoid on the package is the
    # function avoid, not the module
    module = importlib.import_module(module_name)
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _swap(old: Callable, new: Callable, owner, last: str) -> list[tuple[Any, str, Callable]]:
    """Replace ``old`` by ``new`` everywhere it is bound; returns undo steps."""
    undo = []
    if isinstance(owner, type):
        setattr(owner, last, new)
        undo.append((owner, last, old))
        return undo
    for name, module in list(sys.modules.items()):
        if name != "xorcert" and not name.startswith("xorcert."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                undo.append((module, attr, old))
    return undo


@contextmanager
def traced(tracer: Tracer):
    """Install a span wrapper on every entry point for the duration."""
    undo: list = []
    try:
        for module_name, attr, name in ENTRY_POINTS:
            owner, last = _resolve(module_name, attr)
            fn = owner.__dict__[last]
            observe = Tracer.OBSERVERS.get(name)
            undo += _swap(fn, tracer.wrap(name, fn, observe), owner, last)
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


@contextmanager
def counting_dyadics(counter: Counter):
    """Count Dyadic constructions by wrapping ``Dyadic.__post_init__``."""
    core = importlib.import_module("xorcert.core")
    original = core.Dyadic.__post_init__

    def counted(self):
        counter["core.dyadic.created"] += 1
        original(self)

    core.Dyadic.__post_init__ = counted
    try:
        yield counter
    finally:
        core.Dyadic.__post_init__ = original
