"""Run one workload of the xorcert benchmark and print its metrics.

    python3 bench/run.py --workload refute-even --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory. ``--trace 0`` reports the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` reports the per-layer
metrics from a traced run and writes its spans under ``bench/out/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress and problems go to
standard error.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, so the whole run stays on one
# core and its times do not depend on how busy a second core is.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and refuse any other copy
    of the program."""
    if not os.path.isfile(os.path.join(SRC, "xorcert", "__init__.py")):
        sys.exit(f"bench: no program source at {SRC}/xorcert; run from a checkout")
    sys.path.insert(0, SRC)
    import xorcert

    if os.path.dirname(os.path.dirname(os.path.abspath(xorcert.__file__))) != SRC:
        sys.exit(f"bench: imported xorcert from {xorcert.__file__}, not from {SRC}")


class Run:
    """Outputs and failures of the ops of one run, with whole passes."""

    def __init__(self, workload, inputs, calls) -> None:
        self.workload = workload
        self.inputs = inputs
        self.calls = calls
        self.attempted = 0
        self.raised = 0
        self.latencies: list[float] = []  # wall seconds
        self.refs: list[float] = []  # reference time right after each op
        self.bounds: list[float] = []
        # input index -> canonical output -> (output, number of ops)
        self.outputs: dict[int, dict[str, list]] = {}

    def op(self, i: int, before=None) -> None:
        self.attempted += 1
        if before is not None:
            before()
        t0 = time.perf_counter()
        try:
            result = self.calls[i]()
        except Exception as exc:  # one failed op must not end the run
            print(f"bench: op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.raised += 1
            return
        wall = time.perf_counter() - t0
        self.latencies.append(wall)
        self.refs.append(calibrate.reference_time())
        self.bounds.append(self.workload.bound(result))
        seen = self.outputs.setdefault(i, {})
        seen.setdefault(self.workload.canonical(result), [result, 0])[1] += 1

    def scaled(self) -> list[float]:
        """Op times in seconds at the reference speed. Op i is scaled by the
        median reference time after ops i-1, i and i+1: a single 35 ms timing
        is easily caught by a stall of the machine."""
        refs = self.refs
        return [
            wall * calibrate.REFERENCE_S / statistics.median(refs[max(i - 1, 0):i + 2])
            for i, wall in enumerate(self.latencies)
        ]

    def passes(self, count: int | None = None, seconds: float = 0.0, before=None) -> int:
        """Whole passes over the inputs: ``count`` of them, or as many as it
        takes to reach ``seconds``. Returns the number run."""
        done = 0
        start = time.perf_counter()
        while True:
            for i in range(len(self.calls)):
                self.op(i, before)
            done += 1
            if done == count or (count is None and time.perf_counter() - start >= seconds):
                return done

    def check(self) -> tuple[bool, int]:
        """Check every distinct output; returns (all correct, ops failed)."""
        correct = True
        failed = self.raised
        for i, seen in sorted(self.outputs.items()):
            for result, ops in seen.values():
                problems = self.workload.check(self.inputs, i, result)
                if problems:
                    correct = False
                    failed += ops
                    for p in problems:
                        print(f"bench: input {i}: {p}", file=sys.stderr)
        return correct, failed


def _warm_up(calls) -> None:
    try:
        calls[0]()
    except Exception:
        pass  # the same op fails again, and is counted, in the timed passes


# Reference timings before the first set-up and after each. A set-up is
# scaled by the median of the timings on both sides of it, not by a single
# one: one stall of the machine in a single 35 ms timing moved a remote-tree
# set-up by 30% or more.
SETUP_REFERENCE_SAMPLES = 3


def _reference_times() -> list[float]:
    return [calibrate.reference_time() for _ in range(SETUP_REFERENCE_SAMPLES)]


def timed_run(workload, inputs, seconds: float) -> tuple[Run, dict]:
    setup_wall, refs = [], [_reference_times()]
    state = None
    for _ in range(workload.setup_reps):
        state = None  # free the previous preparation before making the next
        t0 = time.perf_counter()
        state = workload.setup(inputs)
        setup_wall.append(time.perf_counter() - t0)
        refs.append(_reference_times())
    setup_scaled = [
        wall * calibrate.REFERENCE_S / statistics.median(before + after)
        for wall, before, after in zip(setup_wall, refs, refs[1:])
    ]
    run = Run(workload, inputs, workload.ops(inputs, state))
    _warm_up(run.calls)
    start = time.perf_counter()
    run.passes(seconds=seconds)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    completed = len(run.latencies)
    scaled = run.scaled()
    nan = float("nan")
    print(
        f"bench: wall clock: {completed} ops in {wall:.1f} s, "
        f"{completed / sum(run.latencies) if completed else nan:.4g} op/s, "
        f"p50 {statistics.median(run.latencies) if completed else nan:.4g} s, "
        f"set-up {statistics.median(setup_wall):.4g} s",
        file=sys.stderr,
    )
    metrics = {
        "ops_per_s": completed / sum(scaled) if completed else nan,
        "op_p50_s": statistics.median(scaled) if completed else nan,
        "mean_bound": statistics.fmean(run.bounds) if completed else nan,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    return run, metrics


def traced_run(workload, inputs, seconds: float, trace_path: str) -> tuple[Run, dict]:
    import tracing

    tracer = tracing.Tracer()
    tracer.op = "setup"
    with tracing.traced(tracer):
        state = workload.setup(inputs)
    run = Run(workload, inputs, workload.ops(inputs, state))
    _warm_up(run.calls)

    # Untraced and traced passes alternate, so drift in machine speed falls
    # on both sides of the overhead estimate alike.
    def tag() -> None:
        tracer.op = run.attempted

    untraced: list[float] = []
    traced_lat: list[float] = []
    n_traced = 0
    start = time.perf_counter()
    while n_traced == 0 or time.perf_counter() - start < seconds:
        mark = len(run.latencies)
        run.passes(count=1)
        untraced += run.latencies[mark:]
        mark, first = len(run.latencies), run.attempted
        with tracing.traced(tracer):
            run.passes(count=1, before=tag)
        traced_lat += run.latencies[mark:]
        n_traced += run.attempted - first

    dyadics: Counter = Counter()
    before = run.attempted
    with tracing.counting_dyadics(dyadics):
        run.passes(count=1)
    n_counted = run.attempted - before
    print(f"bench: traced phases took {time.perf_counter() - start:.1f} s", file=sys.stderr)

    per_name: dict[str, list[int]] = {}
    setup_self: dict[str, int] = {}
    for (op, name), (calls, self_ns) in tracer.self_times().items():
        if op == "setup":
            setup_self[name] = setup_self.get(name, 0) + self_ns
        else:
            agg = per_name.setdefault(name, [0, 0])
            agg[0] += calls
            agg[1] += self_ns
    values: dict[str, float] = {}
    for _, _, name in tracing.ENTRY_POINTS:
        calls, self_ns = per_name.get(name, (0, 0))
        values[f"{name}.calls"] = calls / n_traced
        if name in tracing.SETUP_SPANS:
            values[f"{name}.self_s"] = setup_self.get(name, 0) / 1e9
        else:
            values[f"{name}.self_s"] = self_ns / 1e9 / n_traced
    for name in tracing.COUNTERS:
        values[name] = tracer.counts[name] / n_traced
    trace_calls = values["refuter.trace.calls"]
    values["refuter.trace.win_ratio"] = values["refuter.trace.wins"] / trace_calls if trace_calls else 0.0
    keys = values["reduction.keys_refuted"]
    values["reduction.key_useful_ratio"] = values["reduction.keys_nonzero"] / keys if keys else 0.0
    values["core.dyadic.created"] = dyadics["core.dyadic.created"] / n_counted
    values["trace.untraced_op_s"] = statistics.fmean(untraced)
    values["trace.overhead_s"] = statistics.fmean(traced_lat) - values["trace.untraced_op_s"]
    values["trace.self_sum_s"] = sum(
        v[1] for name, v in per_name.items() if name not in tracing.SETUP_SPANS
    ) / 1e9 / n_traced

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    return run, values


def _machine() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas_name = "unknown BLAS"
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, {blas_name}, "
        f"BLAS threads {BLAS_THREADS}, nproc {os.cpu_count()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _import_program()
    import selftest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"bench: {args.workload} seed {args.seed}: {_machine()}", file=sys.stderr)

    selftest_failures = selftest.run()
    for line in selftest_failures:
        print(f"bench: self-test: {line}", file=sys.stderr)

    inputs = workload.make_inputs(random.Random(f"{args.workload}:{args.seed}"))
    if args.trace:
        path = os.path.join(BENCH_DIR, "out", f"trace_{args.workload}_seed{args.seed}.tsv.gz")
        run, values = traced_run(workload, inputs, args.seconds, path)
        wanted = spec["per_layer"]
    else:
        run, values = timed_run(workload, inputs, args.seconds)
        wanted = spec["end_to_end"]
    t0 = time.perf_counter()
    correct, failed = run.check()
    print(f"bench: {run.attempted} ops; checks took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"bench: metrics not measured: {missing}")
    result = {
        "correct": correct and not selftest_failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
