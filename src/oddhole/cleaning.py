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

The scan decides each edge ``y2y3`` by bitmasks before it walks a path:
one pass over the BFS layers gives each vertex the mask of its walk and the
union of the rows along it, and three mask tests say exactly whether the
two walks close an odd hole (the proof is in :func:`_opposite_hole`).  So
it builds and verifies only the cycle it returns.

The sweep scans from the second vertex ``p2`` of its four-path alone.  If
``p2p3`` is an edge of a shortest odd hole ``C`` whose ends dominate every
major vertex of ``C``, then deleting ``N(p2) | N(p3)`` off the four-path
keeps ``C`` as a clean shortest odd hole that contains ``p2``; every vertex
of ``C`` is opposite one edge of ``C``, so the scan from ``p2`` finds a hole.
In that mask ``p2`` and ``p3`` keep only their path neighbours, so a hole
through ``p2`` holds the whole path and leaves both of its ends into
``V - (N[p2] | N[p3])``; a four-path with an end that has no neighbour
there is skipped before its BFS (:func:`_sweep`).

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
    certifies_berge,
    is_odd_hole,
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
    shortest odd hole.  The scan's mask tests pass exactly the edges whose
    two walks close an odd hole, so it misses none of them (the proof is in
    :func:`_opposite_hole`).  Callers must ensure the masked graph has no
    pyramid and no jewel; a violation can only suppress detection, never
    corrupt a witness.

    A mask of fewer than five vertices, or one that ``graph.certifies_berge``
    certifies, holds no odd hole, and every hole the scan returns lies
    inside the mask, so the answer is None without a BFS.  The stage-3
    fallbacks hand it many such masks: on the glued graph named in
    :func:`_clean`, ``detect`` hands it 7,466 masks, and 6,611 of them
    are certified or smaller than five.  A mask with a bit outside
    ``g.full_mask`` (a negative one included) raises ``ValueError``.
    """
    allowed = g.full_mask if within is None else within
    if allowed & ~g.full_mask:
        raise ValueError(f"mask {within:#x} has vertices outside the graph")
    if allowed.bit_count() < 5 or certifies_berge(g, allowed):
        return None
    for y1 in bits(allowed):
        hole = _opposite_hole(g, bfs_distances(g, y1, allowed))
        if hole is not None:
            return hole
    return None


def _clean(search: _Search, mask: Mask) -> Optional[Hole]:
    """``test_clean(search.g, mask)``, run once per mask of the context.

    This is the clean-test fallback of the staged shapes and of the
    reference search; the results are kept in ``search.cleaned``.
    ``test_clean`` is looked up in this module at call time, so rebinding
    it here (as an outside tracer does) counts every fallback.  Its BFS
    stay out of the context's BFS table: before stage 0 certified line
    graphs of bipartite graphs, routing them through
    ``search.dist`` on the line graph of 20 random edges of K6,6
    (``perfbench.corpora.line_graph_of_bipartite(6, 6, 20,
    random.Random(0))``) with a 6-cycle glued at vertex 0 (n = 25) took a
    ``detect`` context from 80,188 to 121,754 entries and peak RSS from 67
    to 92 MB, and saved 161 of the 111,463 BFS calls of traced seed-1
    ``sparse-negative``.
    """
    cleaned = search.cleaned
    if mask not in cleaned:
        cleaned[mask] = test_clean(search.g, mask)
    return cleaned[mask]


def _opposite_hole(g: Graph, d1: Distances) -> Optional[Hole]:
    """An odd hole through the source ``y1`` of ``d1`` and an edge opposite it.

    ``d1`` is a BFS from ``y1``.  Each edge ``y2y3`` inside one of its layers
    from the second on is tried, in increasing ``y2`` and then increasing
    ``y3 > y2``: the path ``y1 .. y2`` and the path ``y3 .. y1`` without
    ``y1``, both read off ``d1`` by ``graph.walk_down``, form a cycle of
    length ``2 * d1[y2] + 1``, returned if it verifies as an odd hole.

    Each pair is decided by masks before any walk.  One pass over the
    layers gives each vertex ``v`` the mask ``pm[v]`` of its walk without
    ``y1`` (its own bit and its parent's: the parent is the lowest-id
    neighbour one layer closer, the step ``walk_down`` takes) and the
    union ``above[v]`` of the rows of that walk without ``v``'s own.  The
    cycle is an odd hole iff ``pm[y2] & pm[y3] == 0``, ``adj[y2] & pm[y3]
    == 1 << y3`` and ``above[y2] & pm[y3] == 0``.  Proof: its consecutive
    vertices are adjacent, and it has ``2 * d1[y2] + 1 >= 5`` places, so it
    is an odd hole iff its vertices are distinct and it has no chord.  The
    walks meet at ``y1``, so the vertices are distinct iff the first test
    holds.  Each walk is a shortest path in the masked graph, so it has no
    chord of its own.  BFS edges join only equal or adjacent layers, so
    ``y1`` sees only the first layer, which holds one vertex of each walk:
    its neighbour on the cycle.  So every other chord joins the walk of
    ``y2`` to that of ``y3`` off the edge ``y2y3``; the second test finds
    those at ``y2`` and the third those at the rest of its walk.  A cycle
    that passes is still checked by ``is_odd_hole`` before it is returned.
    """
    layers = d1.layers
    if len(layers) < 3:
        return None
    adj = g.adj
    pm = [0] * g.n
    above = [0] * g.n
    rest = layers[1]
    while rest:  # bits() inlined in every loop of the scan
        low = rest & -rest
        rest ^= low
        pm[low.bit_length() - 1] = low
    starts = 0
    for d in range(2, len(layers)):
        prev = layers[d - 1]
        rest = layers[d]
        while rest:  # bits(layers[d]), inlined: one step per vertex of every scan
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            step = adj[v] & prev
            p = (step & -step).bit_length() - 1
            pm[v] = pm[p] | low
            above[v] = above[p] | adj[p]
            if adj[v] & rest:
                starts |= low
    while starts:
        low = starts & -starts
        starts ^= low
        y2 = low.bit_length() - 1
        row = adj[y2]
        block = pm[y2] | above[y2]
        threes = row & layers[d1[y2]] >> (y2 + 1) << (y2 + 1)
        while threes:
            low = threes & -threes
            threes ^= low
            y3 = low.bit_length() - 1
            p3 = pm[y3]
            if block & p3 or row & p3 != low:
                continue
            head = walk_down(g, d1, y2)
            head.reverse()
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
    the path itself is not listed (``_Search.four_paths``), and one with an
    end that cannot step off it is not scanned (:func:`_sweep`).  Requires a
    pyramid- and jewel-free input graph.
    """
    return _sweep(_Search(g))


def _sweep(search: _Search) -> Optional[Hole]:
    """The sweep over ``search.four_paths``, walked as it is listed.

    The scan of a four-path returns only a hole inside its mask, so the
    table leaves out the four-paths whose mask is the path alone.  The
    sweep reads the table through ``_Search.walk_four_paths``, so it stops
    listing at its first hole; a context that goes on to stage 3 lists the
    rest once, when ``live_paths`` reads the table.  It does not read
    ``live_paths``, as shapes 3-6 do: the sweep decides most positives
    early, and would pay for a ``certifies_berge`` test per four-path
    first.

    A four-path ``p1-p2-p3-p4`` is scanned only if both its ends can step
    off it, into ``R = V - (N[p2] | N[p3])``.  Proof that the skip loses
    nothing: the mask ``W`` is the path and ``R``, so in it ``p2`` sees only
    ``p1`` and ``p3``, and ``p3`` only ``p2`` and ``p4``.  A hole of ``W``
    through ``p2`` therefore holds the whole path, and leaves ``p1`` and
    ``p4`` for neighbours off it; as the path is induced, those lie in
    ``R``.  The scan from ``p2`` returns only holes through ``p2``, so on a
    skipped path it would return None.  The test is made here and not in
    ``four_paths``: ``live_paths`` is built from that table, and a stage-3
    fallback can return a hole of the mask that misses the path.
    """
    g = search.g
    adj = g.adj
    for (p1, p2, p3, p4, rest) in search.walk_four_paths():
        if not (adj[p1] & rest and adj[p4] & rest):
            continue
        within = rest | (1 << p1) | (1 << p2) | (1 << p3) | (1 << p4)
        hole = _opposite_hole(g, search.dist(p2, within))
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
    return _sweep(search)
