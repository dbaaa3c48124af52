"""Check that the benchmark repeats: run two sets of seeded runs and compare them.

    python3 bench/steady.py
    python3 bench/steady.py --workloads remote-tree --runs 5

Each set runs every chosen workload once per seed (the first set uses seeds
1..runs, the second runs+1..2*runs), each time as its own process with the
run length from BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles and the spread (q3 - q1) / median of each set next to
the metric's bound, and how far the second median moved in the worse
direction. It also compares the share of failed ops between the sets. Raw
results go to bench/out/steady_<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def report(spec: dict, results: dict) -> bool:
    """Print the comparison; returns False if a spread or shift breaks a bound
    or the failed shares differ."""
    ok = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"  run wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  correct in every run: {correct}; failed share per set: {shares}")
        ok = ok and correct and len(set(shares)) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:12s} bound {bound:.2f}"
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = "" if spread < bound / 3 else (" (above a third of the bound)" if spread < bound else " (ABOVE BOUND)")
                if spread >= bound:
                    ok = False
                line += f" | median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}{flag}"
            sign = 1 if metric["better"] == "lower" else -1
            shift = sign * (medians[1] - medians[0]) / medians[0]
            line += f" | second set worse by {shift:+.3f}"
            if shift > bound:
                ok = False
                line += " (ABOVE BOUND)"
            print(line)
    return ok


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(2):
        for w in workloads:
            runs = []
            for k in range(args.runs):
                seed = 1 + s * args.runs + k
                runs.append(run_once(w, seed, spec["run_seconds"], 0))
                r = runs[-1]
                print(f"set {s + 1} {w} seed {seed}: {r['wall_s']:.1f} s, "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
            results[w].append(runs)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", time.strftime("steady_%Y%m%dT%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    ok = report(spec, results)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
