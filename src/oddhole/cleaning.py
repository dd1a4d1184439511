"""Shortest-odd-hole tests for graphs whose holes are already clean.

A hole is clean when no vertex outside it has neighbors spread around it
(see :mod:`oddhole.probes`).  For a clean shortest odd hole, three roughly
equally spaced hole vertices are pairwise joined by shortest paths that
reassemble a shortest odd hole, so scanning all vertex triples and gluing
their pairwise shortest paths finds one.  The sweep over induced four-paths
then extends the test to holes that merely have one edge dominating all the
spread-out vertices ("heavy-cleanable" holes).

The sweep scans only the triples through the second vertex ``p2`` of its
four-path.  If ``p2p3`` is an edge of a shortest odd hole ``C`` whose ends
dominate every major vertex of ``C``, then deleting ``N(p2) | N(p3)`` off the
four-path keeps ``C`` as a clean shortest odd hole that contains ``p2``.  On
an odd hole of length ``2k + 1`` every vertex is one of three vertices whose
arcs are ``k``, ``k`` and ``1``, all shorter than half the hole, which is the
condition the triple scan of :func:`test_clean` relies on; so the triples
through ``p2`` already include one that reassembles a hole.

Both tests only ever report verified holes, so a wrong answer can only be a
missed hole, never a bogus witness; the completeness side is covered by the
oracle-backed suites in the tests.
"""

from __future__ import annotations

from typing import Optional

from .configs import _jewel, _pyramid, odd_hole_from_jewel, odd_hole_from_pyramid
from .graph import Graph, Mask, _Search, bits, bfs_distances, is_odd_hole, walk_down

Hole = tuple[int, ...]


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
                hole = _reassemble(g, allowed, d1, d2, dist[y3], y1, y2, y3)
                if hole is not None:
                    return hole
    return None


def _clean_through(search: _Search, allowed: Mask, y1: int) -> Optional[Hole]:
    """The triple scan of :func:`test_clean` over the triples that contain ``y1``.

    ``y1`` is fixed and the pairs ``(y2, y3)`` of the other vertices that it
    reaches are scanned in increasing order; the distance lists come from
    the search context.
    """
    g = search.g
    d1 = search.dist(y1, allowed)
    verts = [v for v in bits(allowed) if d1[v] > 0]
    k = len(verts)
    for j in range(k - 1):
        y2 = verts[j]
        d12 = d1[y2]
        d2 = search.dist(y2, allowed)
        for l in range(j + 1, k):
            y3 = verts[l]
            total = d12 + d2[y3] + d1[y3]
            if total < 5 or total % 2 == 0:
                continue
            hole = _reassemble(g, allowed, d1, d2, search.dist(y3, allowed), y1, y2, y3)
            if hole is not None:
                return hole
    return None


def _reassemble(
    g: Graph,
    allowed: Mask,
    d1: list[int],
    d2: list[int],
    d3: list[int],
    y1: int,
    y2: int,
    y3: int,
) -> Optional[Hole]:
    """Glue the shortest paths y1 .. y2 .. y3 .. y1 read off the BFS from each."""
    p12 = walk_down(g, d1, y2, allowed)  # y2 .. y1
    p12.reverse()
    p23 = walk_down(g, d2, y3, allowed)  # y3 .. y2
    p23.reverse()
    p31 = walk_down(g, d3, y1, allowed)  # y1 .. y3
    p31.reverse()
    cycle = tuple(p12) + tuple(p23[1:]) + tuple(p31[1:-1])
    if is_odd_hole(g, cycle):
        return cycle
    return None


def test_heavy_cleanable(g: Graph) -> Optional[Hole]:
    """Find an odd hole assuming some shortest odd hole has a dominating edge.

    For every induced four-path p1-p2-p3-p4, delete every other vertex
    adjacent to p2 or p3 and scan what remains for an odd hole through
    ``p2``.  If a shortest odd hole has an edge whose ends together dominate
    all its spread-out outside vertices, the deletion made at that edge
    leaves it clean and shortest, and it passes through ``p2``; since any
    vertex of an odd hole can be one of the three equally spaced vertices the
    clean test needs, scanning the triples through ``p2`` is enough.
    Requires a pyramid- and jewel-free input graph.
    """
    return _sweep(_Search(g))


def _sweep(search: _Search) -> Optional[Hole]:
    g = search.g
    full = g.full_mask
    adj = g.adj
    seen: set[tuple[Mask, int]] = set()
    for (p1, p2, p3, p4) in search.four_paths:
        four = (1 << p1) | (1 << p2) | (1 << p3) | (1 << p4)
        within = full & ~((adj[p2] | adj[p3]) & ~four)
        # most masks of dense graphs keep only the four-path: skip them before any BFS
        if within.bit_count() < 5 or (within, p2) in seen:
            continue
        seen.add((within, p2))
        hole = _clean_through(search, within, p2)
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
    return _classify(_Search(g))


def _classify(search: _Search) -> Optional[Hole]:
    g = search.g
    if g.n < 5:
        return None
    jewel = _jewel(search)
    if jewel is not None:
        return odd_hole_from_jewel(g, jewel)
    pyramid = _pyramid(search)
    if pyramid is not None:
        return odd_hole_from_pyramid(g, pyramid)
    return _sweep(search)
