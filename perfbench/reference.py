"""A fixed reference task that times the host, not the program.

The benchmark runs on shared machines whose speed drifts: the same Python
loop runs up to twice as slowly in some spells as in others, in CPU time as
well as wall time, and a spell can last longer than a whole run.  A timed
call alone cannot tell a slower program from a slower host, so the
benchmark times this task next to every call it measures and scales each
call by how fast the host ran just then:

    scaled = raw * NOMINAL_S / local

where ``local`` is the median task time around the call.  A scaled time is
the call's time on a nominal host, one on which the task takes exactly
``NOMINAL_S`` (1 ms, about its median between calls on a shared 2-CPU
x86-64 machine running Python 3.11).  The raw figures are kept in the
result file as well.

The task is breadth-first search from every vertex of a fixed 40-vertex
graph held as bit masks, written here and not taken from ``oddhole``: it
does the kind of work the detector does (small-integer bit operations,
dict and loop overhead), about 1 ms of it, and no change to the program can
change its cost.  A slower program still shows in full; a slower host does
not, as far as it slows this task and the program alike.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Sequence

_N = 40
NOMINAL_S = 0.001


def _adjacency() -> list[int]:
    rng = random.Random(20190301)
    adj = [0] * _N
    for a in range(_N):
        for b in range(a + 1, _N):
            if rng.random() < 0.15:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


_ADJ = _adjacency()


def task() -> int:
    """Sum of all BFS distances in the fixed graph."""
    total = 0
    for source in range(_N):
        dist = {source: 0}
        seen = frontier = 1 << source
        depth = 0
        while frontier:
            depth += 1
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= _ADJ[low.bit_length() - 1]
                f ^= low
            frontier = reach & ~seen
            seen |= frontier
            m = frontier
            while m:
                low = m & -m
                dist[low.bit_length() - 1] = depth
                m ^= low
        total += sum(dist.values())
    return total


_EXPECTED = task()


def timed(count: int = 1) -> float:
    """Seconds for one run of the task, the median of ``count`` runs."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        out = task()
        samples.append(time.perf_counter() - t0)
        if out != _EXPECTED:
            raise RuntimeError("reference task gave a different answer")
    return statistics.median(samples)


def factors(refs: Sequence[float], window: int = 2) -> list[float]:
    """The scale factor of each of ``len(refs) - 1`` measurements.

    ``refs[j]`` is the task time taken just before measurement ``j`` and
    ``refs[j + 1]`` the one just after it.  The local task time is the median
    of those within ``window`` measurements either side.
    """
    return [
        NOMINAL_S / statistics.median(refs[max(0, j - window):j + window + 2])
        for j in range(len(refs) - 1)
    ]


def scaled(raw: Sequence[float], refs: Sequence[float], window: int = 2) -> list[float]:
    """``raw[j]`` scaled to the nominal host; see :func:`factors`."""
    if len(refs) != len(raw) + 1:
        raise ValueError("need one reference time before each measurement and one after the last")
    return [value * f for value, f in zip(raw, factors(refs, window))]
