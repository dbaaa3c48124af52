"""Self-test of the benchmark's correctness checks.

Each exhaustive oracle in ``checks`` is compared with a plain loop on small
inputs, and each check is handed a right answer (it must pass) and a
deliberately wrong one (it must fail). The benchmark runs this before every
measurement; run it alone with ``python3 bench/selftest.py``.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import checks


def _naive_xor_value(n, edges, weights, rhs) -> Fraction:
    best = Fraction(0)
    for x in itertools.product((1, -1), repeat=n):
        total = Fraction(0)
        for edge, (num, log_den), b in zip(edges, weights, rhs):
            sign = b
            for v in edge:
                sign *= x[v]
            total += sign * Fraction(num, 1 << log_den)
        best = max(best, abs(total))
    return best / len(edges)


def _naive_tree_eval(node, x) -> int:
    while not isinstance(node, int):
        query, children = node
        node = children[x[query]]
    return node


def _naive_junta_eval(gate, x) -> int:
    inputs, table = gate
    idx = sum(x[v] << j for j, v in enumerate(inputs))
    return 1 - 2 * table[idx]


def _distance_to_rows(rows, y) -> Fraction:
    m = len(y)
    return Fraction(min(sum(a != b for a, b in zip(row, y)) for row in rows), m)


def _expect(problems: list[str], label: str, fails: bool, out: list[str]) -> None:
    if bool(problems) != fails:
        want = "reject" if fails else "accept"
        out.append(f"{label}: the check did not {want} ({problems})")


def run(seed: int = 7) -> list[str]:
    """Return the self-test failures; empty when every check behaves."""
    rng = random.Random(seed)
    out: list[str] = []

    # XOR value: Hadamard transform against a plain loop, mixed arities and
    # dyadic weights of either sign.
    for _ in range(4):
        n = rng.randint(3, 7)
        m = rng.randint(1, 12)
        edges = [sorted(rng.sample(range(n), rng.randint(0, min(4, n)))) for _ in range(m)]
        weights = [(rng.randint(-4, 4), rng.randint(0, 3)) for _ in range(m)]
        rhs = [rng.choice((1, -1)) for _ in range(m)]
        fast = checks.xor_value(n, edges, weights, rhs)
        slow = _naive_xor_value(n, edges, weights, rhs)
        if fast != slow:
            out.append(f"xor_value {fast} != enumeration {slow}")
        cert = SimpleNamespace(status="certified", bound=float(slow) + 1e-12)
        _expect(checks.check_refute(cert, slow), "refute bound above value", False, out)
        if slow > 0:
            low = SimpleNamespace(status="certified", bound=float(slow) * (1 - 1e-9))
            _expect(checks.check_refute(low, slow), "refute bound below value", True, out)

    # Word trees: vectorised outputs against a plain loop.
    n, w, t = 3, 2, 2
    roots = []
    for _ in range(9):
        q0 = rng.randrange(n)
        q1 = rng.choice([v for v in range(n) if v != q0])
        kids = [rng.choice((1, -1)) if rng.random() < 0.3 else (q1, [rng.choice((1, -1)) for _ in range(4)])
                for _ in range(4)]
        roots.append((q0, kids))
    outputs = checks.tree_outputs(n, w, roots)
    rows = []
    for x in itertools.product(range(1 << w), repeat=n):
        row_idx = sum(sym << (w * j) for j, sym in enumerate(x))
        row = tuple(_naive_tree_eval(r, x) for r in roots)
        rows.append(row)
        if tuple(int(v) for v in outputs[row_idx]) != row:
            out.append(f"tree_outputs differs from evaluation at {x}")
            break
    b = tuple(rng.choice((1, -1)) for _ in roots)
    true = checks.min_distance(outputs, b)
    if true != _distance_to_rows(rows, b):
        out.append("min_distance differs from enumeration")
    eps = Fraction(1, 2) - true  # the largest eps the true distance meets
    right = SimpleNamespace(status="certified", certified=True, min_distance=true)
    _expect(checks.check_remote(right, true, eps), "remote claim = truth", False, out)
    over = SimpleNamespace(status="certified", certified=True, min_distance=true + Fraction(1, 1000))
    _expect(checks.check_remote(over, true, eps), "remote claim above truth", True, out)
    _expect(checks.check_remote(right, true, eps - Fraction(1, 1000)), "remote below 1/2 - eps", True, out)

    # Junta circuits: range distance against a plain loop.
    n = 5
    gates = [((v,), (0, 1)) for v in range(2)]
    gates += [(tuple(sorted(rng.sample(range(n), 3))), tuple(rng.randrange(2) for _ in range(8)))
              for _ in range(7)]
    rows = [tuple(_naive_junta_eval(g, x) for g in gates)
            for x in itertools.product((0, 1), repeat=n)]
    y = tuple(rng.choice((1, -1)) for _ in gates)
    true = checks.junta_distance(n, gates, y)
    if true != _distance_to_rows(rows, y):
        out.append("junta_distance differs from enumeration")
    in_range = rows[rng.randrange(len(rows))]
    if checks.junta_distance(n, gates, in_range) != 0:
        out.append("junta_distance of a range point is not 0")
    res = SimpleNamespace(y=y, justification={"min_distance": [true.numerator, true.denominator]})
    if true > 0:
        _expect(checks.check_avoid(res, true), "avoid claim = truth", False, out)
        over = true + Fraction(1, 1000)
        res_over = SimpleNamespace(y=y, justification={"min_distance": [over.numerator, over.denominator]})
        _expect(checks.check_avoid(res_over, true), "avoid claim above truth", True, out)
    res_in = SimpleNamespace(y=in_range, justification={"min_distance": [0, 1]})
    _expect(checks.check_avoid(res_in, Fraction(0)), "avoid answer inside range", True, out)
    return out


if __name__ == "__main__":
    failures = run()
    for line in failures:
        print(line, file=sys.stderr)
    print("self-test", "failed" if failures else "passed")
    sys.exit(1 if failures else 0)
