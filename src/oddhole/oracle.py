"""Brute-force odd-hole search: the CLI's ``probe`` command runs it.

It enumerates every induced odd cycle of length five or more, so it is
exponential-time and meant for small graphs; ``probe`` refuses graphs with
more than ``cli.PROBE_MAX_VERTICES`` vertices.  The search explores
candidates in increasing vertex order, so the first hole found is
reproducible.  The tests use it as ground truth for the detectors.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graph import Graph, bits


def _extend(
    g: Graph,
    path: list[int],
    onpath: int,
    blocked: int,
    allowed: int,
) -> Iterator[tuple[int, ...]]:
    """Grow an induced path anchored at path[0]; yield odd chordless closures.

    ``blocked`` holds vertices adjacent to some interior vertex of the path;
    adding one would create a chord.  Candidates adjacent to the anchor close
    a cycle and are never extended through (the anchor-edge would become a
    chord later).
    """
    adj = g.adj
    anchor = path[0]
    tail = path[-1]
    for w in bits(adj[tail] & allowed & ~onpath & ~blocked):
        if adj[w] >> anchor & 1:
            if len(path) >= 4 and len(path) % 2 == 0:
                yield tuple(path) + (w,)
        else:
            path.append(w)
            yield from _extend(
                g, path, onpath | (1 << w), blocked | (adj[tail] & ~(1 << w)), allowed
            )
            path.pop()


def oracle_odd_holes(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every induced odd cycle of length >= 5, each exactly once.

    Cycles are anchored at their minimum vertex; the orientation with the
    smaller second vertex is the one reported.
    """
    adj = g.adj
    full = g.full_mask
    for v0 in range(g.n):
        allowed = full >> (v0 + 1) << (v0 + 1)
        for first in bits(adj[v0] & allowed):
            for cyc in _extend(
                g, [v0, first], (1 << v0) | (1 << first), 0, allowed
            ):
                if cyc[1] < cyc[-1]:
                    yield cyc


def oracle_find_odd_hole(g: Graph) -> Optional[tuple[int, ...]]:
    """First odd hole in the deterministic enumeration, or None."""
    for cycle in oracle_odd_holes(g):
        return cycle
    return None
