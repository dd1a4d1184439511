"""Shortest-odd-hole tests for graphs whose holes are already clean.

A hole is clean when no vertex outside it has neighbors spread around it
(see :mod:`oddhole.probes`).  For a clean shortest odd hole, three roughly
equally spaced hole vertices are pairwise joined by shortest paths that
reassemble a shortest odd hole, so scanning all vertex triples and gluing
their pairwise shortest paths finds one.  The sweep over induced four-paths
then extends the test to holes that merely have one edge dominating all the
spread-out vertices ("heavy-cleanable" holes).

Both tests only ever report verified holes, so a wrong answer can only be a
missed hole, never a bogus witness; the completeness side is covered by the
oracle-backed suites in the tests.
"""

from __future__ import annotations

from typing import Optional

from .configs import (
    find_jewel,
    find_pyramid,
    odd_hole_from_jewel,
    odd_hole_from_pyramid,
)
from .graph import (
    Graph,
    Mask,
    bits,
    bfs_distances,
    induced_four_paths,
    is_odd_hole,
)

Hole = tuple[int, ...]


def _walk_down(g: Graph, dist: list[int], frm: int, within: Mask) -> list[int]:
    """Follow distances from ``frm`` down to the BFS source, lowest id first."""
    path = [frm]
    d = dist[frm]
    cur = frm
    adj = g.adj
    while d > 0:
        d -= 1
        for w in bits(adj[cur] & within):
            if dist[w] == d:
                cur = w
                break
        path.append(cur)
    return path


def test_clean(g: Graph, within: Optional[Mask] = None) -> Optional[Hole]:
    """Find an odd hole assuming some shortest odd hole of the mask is clean.

    Every unordered vertex triple is tried: if the three pairwise distances
    are finite with an odd sum of at least five, the three deterministic
    shortest paths are glued and the result kept when it verifies as an odd
    hole.  Callers must ensure the masked graph has no pyramid and no jewel;
    a violation can only suppress detection, never corrupt a witness.
    """
    allowed = g.full_mask if within is None else within
    verts = list(bits(allowed))
    k = len(verts)
    if k < 5:
        return None
    dist = {v: bfs_distances(g, v, allowed) for v in verts}
    for i in range(k):
        y1 = verts[i]
        d1 = dist[y1]
        for j in range(i + 1, k):
            y2 = verts[j]
            d12 = d1[y2]
            if d12 < 0:
                continue
            d2 = dist[y2]
            for l in range(j + 1, k):
                y3 = verts[l]
                d13 = d1[y3]
                d23 = d2[y3]
                if d13 < 0 or d23 < 0:
                    continue
                total = d12 + d23 + d13
                if total < 5 or total % 2 == 0:
                    continue
                hole = _reassemble(g, allowed, dist, y1, y2, y3, total)
                if hole is not None:
                    return hole
    return None


def _reassemble(
    g: Graph,
    allowed: Mask,
    dist: dict[int, list[int]],
    y1: int,
    y2: int,
    y3: int,
    total: int,
) -> Optional[Hole]:
    p12 = _walk_down(g, dist[y1], y2, allowed)  # y2 .. y1
    p12.reverse()
    p23 = _walk_down(g, dist[y2], y3, allowed)  # y3 .. y2
    p23.reverse()
    p31 = _walk_down(g, dist[y3], y1, allowed)  # y1 .. y3
    p31.reverse()
    cycle = tuple(p12) + tuple(p23[1:]) + tuple(p31[1:-1])
    if len(cycle) != total:
        return None
    if is_odd_hole(g, cycle):
        return cycle
    return None


def test_heavy_cleanable(g: Graph) -> Optional[Hole]:
    """Find an odd hole assuming some shortest odd hole has a dominating edge.

    For every induced four-path p1-p2-p3-p4, delete every other vertex
    adjacent to p2 or p3 and run the clean test on what remains.  If a
    shortest odd hole has an edge whose ends together dominate all its
    spread-out outside vertices, one of these deletions makes it clean.
    Requires a pyramid- and jewel-free input graph.
    """
    full = g.full_mask
    adj = g.adj
    seen: set[int] = set()
    for (p1, p2, p3, p4) in induced_four_paths(g):
        four = (1 << p1) | (1 << p2) | (1 << p3) | (1 << p4)
        banned = (adj[p2] | adj[p3]) & ~four
        within = full & ~banned
        if within in seen:
            continue
        seen.add(within)
        hole = test_clean(g, within)
        if hole is not None:
            return hole
    return None


# these are library entry points, not pytest cases
test_clean.__test__ = False  # type: ignore[attr-defined]
test_heavy_cleanable.__test__ = False  # type: ignore[attr-defined]


def classify_candidate(g: Graph) -> Optional[Hole]:
    """Return a verified odd hole, or None meaning "candidate".

    A candidate has no jewel, no pyramid, and no heavy-cleanable shortest
    odd hole; such a graph may still contain odd holes, which the staged
    detectors handle.  The checks run cheapest-first: jewel, pyramid, then
    the dominating-edge sweep.
    """
    if g.n < 5:
        return None
    jewel = find_jewel(g)
    if jewel is not None:
        return odd_hole_from_jewel(g, jewel)
    pyramid = find_pyramid(g)
    if pyramid is not None:
        return odd_hole_from_pyramid(g, pyramid)
    return test_heavy_cleanable(g)
