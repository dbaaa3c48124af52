#!/usr/bin/env python3
"""Range-avoidance success rate as a function of stretch.

Runs the full avoid pipeline on random bounded-fan-in circuits at several
output counts and reports which path produced the answer. Every answer is
verified against the brute-force range oracle.
"""

import argparse
import random
import sys
import time

from xorcert.avoid import AvoidParams, avoid
from xorcert.circuits import Circuit, JuntaGate, JuntaTable, random_junta_circuit
from xorcert.fourier import junta_spectra
from xorcert.oracle import brute_range_member
from xorcert.prg import GeneratorSpec


def random_non_parity_circuit(rng: random.Random, n: int, t: int, m: int) -> Circuit:
    gates = []
    while len(gates) < m:
        inputs = tuple(sorted(rng.sample(range(n), t)))
        table = tuple(rng.randrange(2) for _ in range(1 << t))
        gate = JuntaGate(inputs, table)
        if junta_spectra(JuntaTable.of([gate]))[0].parity[0] == 0:  # neither XOR nor NXOR
            gates.append(gate)
    return Circuit(n, 1, t, tuple(gates))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--t", type=int, default=3)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--budget", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pure", action="store_true",
                    help="filter out parity gates to force the refutation path")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    print(f"n={args.n} t={args.t}, {args.trials} trials per m, budget {args.budget}")
    print(f"{'m':>6} {'ok':>4} {'parity':>7} {'refute':>7} {'verified':>9} {'sec':>6}")
    for m in (300, 600, 1200, 2400):
        ok = parity = refuted = verified = 0
        start = time.monotonic()
        for _ in range(args.trials):
            if args.pure:
                c = random_non_parity_circuit(rng, args.n, args.t, m)
            else:
                c = random_junta_circuit(rng, args.n, args.t, m)
            gen = GeneratorSpec.eps_biased(m, max(8, (m - 1).bit_length()))
            res = avoid(c, gen, AvoidParams(budget=args.budget))
            if not res.succeeded:
                continue
            ok += 1
            kind = res.justification["kind"]
            parity += kind == "parity_dependency"
            refuted += kind == "refutation"
            if not brute_range_member(c, res.y):
                verified += 1
        took = time.monotonic() - start
        print(f"{m:>6} {ok:>4} {parity:>7} {refuted:>7} {verified:>9} {took:>6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
