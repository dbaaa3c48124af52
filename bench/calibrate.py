"""Fixed reference work that measures how fast the machine runs right now.

On a shared 2-core virtual machine the same op took from 0.42 s to 0.72 s
within one minute, and a pure-Python loop drifted by up to 60% within
30 seconds, so raw wall times of separate runs differ by far more than any
change worth catching. The benchmark therefore times this reference work
right after every op and on both sides of every set-up, and scales each wall
time by ``REFERENCE_S / reference time``, taking the median of the nearby
reference times: a time is reported in seconds at the reference speed. The
reference work never calls xorcert, so a change to the program moves only
the op's own time.

The work resembles the program's hot paths: it creates small frozen
dataclass objects normalised in ``__post_init__`` (as ``Dyadic`` is) and looks
tuple keys up in a dict. It runs with the garbage collector off, so a
collection of the heap the program left behind is not timed as reference
work, and its dict has 4,096 entries, so it adds well under 1 MB to the
peak RSS of a run.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# Median time of ``reference_time()`` on the machine described in README.md.
REFERENCE_S = 0.035


@dataclass(frozen=True)
class _Cell:
    num: int
    log_den: int = 0

    def __post_init__(self) -> None:
        num, log_den = self.num, self.log_den
        if num and log_den > 0:
            shift = min(log_den, (num & -num).bit_length() - 1)
            num >>= shift
            log_den -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log_den", log_den)


_TABLE = {(i, i * 7 % 1009): i for i in range(1 << 12)}


def _work() -> int:
    keep = []
    total = 0
    for i in range(10000):
        cell = _Cell(i * 12, 3)
        keep.append(cell)
        key = i * 37 % 4096
        total += _TABLE.get((key, key * 7 % 1009), 0) + cell.num
    return total


def reference_time() -> float:
    """Wall time of two rounds of the reference work, in seconds."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        _work()
        return time.perf_counter() - t0
    finally:
        gc.enable()
