"""Exhaustive ground truth for the benchmark's correctness checks.

Everything here enumerates all 2^n (or (2^w)^n) inputs with numpy and exact
integer arithmetic. None of it calls the certifier or xorcert's own oracle
module, so a check never compares the program against itself. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np


def walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """Unnormalised Hadamard transform: out[a] = sum_s vec[s] * (-1)^|a & s|."""
    size = vec.shape[0]
    out = vec.copy()
    half = 1
    while half < size:
        blocks = out.reshape(-1, 2, half)
        lo = blocks[:, 0, :].copy()
        hi = blocks[:, 1, :]
        blocks[:, 0, :] += hi
        blocks[:, 1, :] = lo - hi
        half *= 2
    return out


def xor_value(n: int, edges, weights, rhs) -> Fraction:
    """Exact max over x in {+-1}^n of |sum_C w_C b_C prod_{v in C} x_v| / m.

    ``weights`` are (num, log_den) pairs. The term sum of every assignment is
    one entry of the Hadamard transform of the coefficient vector indexed by
    edge masks, so all 2^n assignments cost O(n 2^n) integer operations.
    """
    m = len(edges)
    if m == 0:
        return Fraction(0)
    scale = max(log_den for _, log_den in weights)
    coeffs = np.zeros(1 << n, dtype=np.int64)
    for edge, (num, log_den), b in zip(edges, weights, rhs):
        mask = 0
        for v in edge:
            mask ^= 1 << v
        coeffs[mask] += b * (num << (scale - log_den))
    totals = walsh_hadamard(coeffs)
    return Fraction(int(np.abs(totals).max()), m << scale)


def check_refute(cert, value: Fraction) -> list[str]:
    """A certificate must be well formed and its bound at least the value."""
    problems = []
    if cert.status not in ("certified", "uncertain"):
        problems.append(f"unknown status {cert.status!r}")
    if not np.isfinite(cert.bound):
        problems.append(f"bound {cert.bound} is not finite")
    elif Fraction(cert.bound) < value:
        problems.append(f"bound {cert.bound} below the exact value {float(value)}")
    return problems


def tree_outputs(n: int, w: int, roots) -> np.ndarray:
    """Sign matrix of a word-tree circuit: one row per symbol string in
    [2^w]^n (symbol j in bits w*j.. of the row index), one column per output.
    A node is a leaf sign, or a pair (queried symbol, children by value)."""
    count = (1 << w) ** n
    idx = np.arange(count)
    symbols = (idx[:, None] >> (w * np.arange(n))) & ((1 << w) - 1)
    out = np.empty((count, len(roots)), dtype=np.int8)

    def go(node, rows: np.ndarray, col: np.ndarray) -> None:
        if isinstance(node, int):
            col[rows] = node
            return
        query, children = node
        sym = symbols[rows, query]
        for v, child in enumerate(children):
            go(child, rows[sym == v], col)

    for i, root in enumerate(roots):
        go(root, idx, out[:, i])
    return out


def min_distance(outputs: np.ndarray, b: Sequence[int]) -> Fraction:
    """Exact minimum fractional Hamming distance from b to the rows."""
    m = outputs.shape[1]
    dots = outputs.astype(np.int32) @ np.asarray(b, dtype=np.int32)
    return Fraction(m - int(dots.max()), 2 * m)


def check_remote(rc, true_distance: Fraction, eps: Fraction) -> list[str]:
    """A certified remote point must be at least as far as it claims, and at
    least 1/2 - eps from the range."""
    problems = []
    if rc.status not in ("certified", "uncertain"):
        problems.append(f"unknown status {rc.status!r}")
    if rc.certified:
        if true_distance < rc.min_distance:
            problems.append(
                f"claimed distance {float(rc.min_distance)} above the true "
                f"{float(true_distance)}"
            )
        if true_distance < Fraction(1, 2) - eps:
            problems.append(
                f"true distance {float(true_distance)} below 1/2 - eps"
            )
    return problems


def junta_distance(n: int, gates, y: Sequence[int]) -> Fraction:
    """Exact minimum fractional distance from y to the range of a junta
    circuit given as (inputs, table) pairs, enumerating all 2^n inputs.

    Gates reading the same inputs are summed into one table of y_i * output
    sign first, so the enumeration costs one lookup per distinct input tuple.
    """
    sums: dict[tuple[int, ...], np.ndarray] = {}
    for (inputs, table), yi in zip(gates, y):
        acc = sums.setdefault(tuple(inputs), np.zeros(1 << len(inputs), dtype=np.int64))
        acc += yi * (1 - 2 * np.asarray(table, dtype=np.int64))
    xs = np.arange(1 << n, dtype=np.int64)
    dots = np.zeros(1 << n, dtype=np.int64)
    for inputs, acc in sums.items():
        idx = np.zeros(1 << n, dtype=np.int64)
        for j, v in enumerate(inputs):
            idx |= ((xs >> v) & 1) << j
        dots += acc[idx]
    m = len(gates)
    return Fraction(m - int(dots.max()), 2 * m)


def check_avoid(res, true_distance: Fraction) -> list[str]:
    """An answer y must lie outside the range (``true_distance`` is its exact
    distance to it), and no closer than the justification claims."""
    if true_distance <= 0:
        return ["answer lies inside the range"]
    claimed = res.justification.get("min_distance")
    if claimed is not None and Fraction(claimed[0], claimed[1]) > true_distance:
        return [
            f"claimed distance {claimed[0] / claimed[1]} above the true "
            f"{float(true_distance)}"
        ]
    return []
