#!/usr/bin/env python3
"""SHA-256 of the benchmark workloads' outputs, one line per workload and seed.

Builds each workload's inputs for a seed as ``bench/run.py`` does, runs one
pass of its ops and hashes their canonical outputs in op order. Two
checkouts whose lines are equal give byte-identical certificates on those
seeds:

    PYTHONPATH=src python scripts/output_digest.py --seeds 1 2 3

``bench/workloads.py`` is imported by path and only read.
"""

import os

# one BLAS thread, as the benchmark runs, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(BENCH))  # workloads.py imports its neighbour checks.py
    return importlib.import_module("workloads").WORKLOADS


def digest(workload, seed: int) -> str:
    inputs = workload.make_inputs(random.Random(f"{workload.name}:{seed}"))
    calls = workload.ops(inputs, workload.setup(inputs))
    h = hashlib.sha256()
    for call in calls:
        h.update(workload.canonical(call()).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()

    for name, workload in _load_workloads().items():
        for seed in args.seeds:
            print(f"{name}\tseed {seed}\t{digest(workload, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
