"""Shortest-odd-hole tests for graphs whose holes are already clean.

A hole is clean when no vertex outside it has neighbors spread around it
(see :mod:`oddhole.probes`).  The cleaning lemma (Chudnovsky, Cornuéjols,
Liu, Seymour, Vušković, "Recognizing Berge graphs", as used by Chudnovsky,
Scott, Seymour, Spirkl, "Detecting an odd hole"): if ``C`` is a clean
shortest odd hole of a graph with no pyramid and no jewel, then any three
vertices of ``C`` pairwise closer than ``|C| / 2``, joined by any shortest
paths, give a shortest odd hole.  On a hole of length ``2k + 1`` a vertex
and the edge opposite it are such a triple: their arcs are ``k``, ``k`` and
``1``.  The shortest paths from the vertex, read off one BFS by
``graph.walk_down``, therefore close a shortest odd hole through one of the
edges whose ends are both at distance ``k``, and :func:`test_clean` tries
every vertex that way.  The sweep over induced four-paths then extends the
test to holes that merely have one edge dominating all the spread-out
vertices ("heavy-cleanable" holes).

The sweep scans from the second vertex ``p2`` of its four-path alone.  If
``p2p3`` is an edge of a shortest odd hole ``C`` whose ends dominate every
major vertex of ``C``, then deleting ``N(p2) | N(p3)`` off the four-path
keeps ``C`` as a clean shortest odd hole that contains ``p2``; every vertex
of ``C`` is opposite one edge of ``C``, so the scan from ``p2`` finds a hole.

Both tests only ever report verified holes, so a wrong answer can only be a
missed hole, never a bogus witness; the completeness side is covered by the
oracle-backed suites in the tests.
"""

from __future__ import annotations

from typing import Optional

from .configs import _jewel, _pyramid, odd_hole_from_jewel, odd_hole_from_pyramid
from .graph import (
    Distances,
    Graph,
    Mask,
    _Search,
    bits,
    bfs_distances,
    is_odd_hole,
    peels_to_bipartite,
    walk_down,
)

Hole = tuple[int, ...]


def test_clean(g: Graph, within: Optional[Mask] = None) -> Optional[Hole]:
    """Find an odd hole assuming some shortest odd hole of the mask is clean.

    Every vertex ``y1`` of the mask is tried in increasing order, with one
    BFS each, by the scan of :func:`_opposite_hole`.  That is complete by the
    lemma in the module docstring: each vertex of a clean shortest odd hole
    ``C`` is opposite one edge of ``C``, the vertex and the ends of that edge
    are pairwise closer than half of ``C``, and ``graph.walk_down`` follows
    shortest paths, so the paths read off the BFS from the vertex close a
    shortest odd hole.  Callers must ensure the masked graph has no pyramid
    and no jewel; a violation can only suppress detection, never corrupt a
    witness.

    A mask of fewer than five vertices, or one that peels to bipartite
    (``graph.peels_to_bipartite``), holds no odd hole, and every hole the
    scan returns lies inside the mask, so the answer is None without a
    BFS.  The stage-3 fallbacks hand it many such masks: on seed-1
    ``sparse-negative`` 1,316 of the 1,407 masks that reach the scan peel.
    """
    allowed = g.full_mask if within is None else within
    if allowed.bit_count() < 5 or peels_to_bipartite(g, allowed):
        return None
    for y1 in bits(allowed):
        hole = _opposite_hole(g, bfs_distances(g, y1, allowed))
        if hole is not None:
            return hole
    return None


def _clean_through(search: _Search, allowed: Mask, y1: int) -> Optional[Hole]:
    """The scan of :func:`test_clean` from ``y1`` alone, on the context's BFS."""
    return _opposite_hole(search.g, search.dist(y1, allowed))


def _opposite_hole(g: Graph, d1: Distances) -> Optional[Hole]:
    """An odd hole through the source ``y1`` of ``d1`` and an edge opposite it.

    ``d1`` is a BFS from ``y1``.  Each edge ``y2y3`` inside one of its layers
    from the second on is tried, in increasing ``y2`` and then increasing
    ``y3 > y2``: the path ``y1 .. y2`` and the path ``y3 .. y1`` without
    ``y1``, both read off ``d1`` by ``graph.walk_down``, form a cycle of
    length ``2 * d1[y2] + 1``, returned if it verifies as an odd hole.
    """
    adj = g.adj
    layers = d1.layers
    far = 0
    for layer in layers[2:]:
        far |= layer
    for y2 in bits(far):
        ends = adj[y2] & layers[d1[y2]] >> (y2 + 1) << (y2 + 1)
        if not ends:
            continue
        head = walk_down(g, d1, y2)
        head.reverse()
        for y3 in bits(ends):
            cycle = tuple(head) + tuple(walk_down(g, d1, y3)[:-1])
            if is_odd_hole(g, cycle):
                return cycle
    return None


def test_heavy_cleanable(g: Graph) -> Optional[Hole]:
    """Find an odd hole assuming some shortest odd hole has a dominating edge.

    For every induced four-path p1-p2-p3-p4, delete every other vertex
    adjacent to p2 or p3 and scan what remains for an odd hole through
    ``p2`` and an edge opposite it.  If a shortest odd hole has an edge whose
    ends together dominate all its spread-out outside vertices, the deletion
    made at that edge leaves it clean and shortest, and it passes through
    ``p2``; as every vertex of an odd hole is opposite one of its edges, the
    one scan from ``p2`` is enough.  A four-path whose deletion leaves only
    the path itself is not listed (``_Search.four_paths``).  Requires a
    pyramid- and jewel-free input graph.
    """
    search = _Search(g)
    return _sweep(search, search.four_paths)


def _sweep(search: _Search, paths: list[tuple[int, int, int, int]]) -> Optional[Hole]:
    """The sweep over ``paths``, a path table of ``search``.

    The scan of a four-path returns only a hole inside its mask, so a table
    may leave out the four-paths whose mask cannot hold one: ``four_paths``
    leaves out those whose mask is the path alone, and ``live_paths`` also
    those whose mask peels to bipartite.
    """
    g = search.g
    full = g.full_mask
    adj = g.adj
    for (p1, p2, p3, p4) in paths:
        four = (1 << p1) | (1 << p2) | (1 << p3) | (1 << p4)
        within = full & ~((adj[p2] | adj[p3]) & ~four)
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
    jewel = _jewel(search)
    if jewel is not None:
        return odd_hole_from_jewel(g, jewel)
    pyramid = _pyramid(search)
    if pyramid is not None:
        return odd_hole_from_pyramid(g, pyramid)
    # the sweep decides most positives early, so it pays no peel per four-path
    return _sweep(search, search.four_paths)
