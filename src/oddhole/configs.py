"""Detection of the two quickly-checkable configurations: pyramids and jewels.

Either configuration forces an odd hole, and both admit polynomial search.
The finders here are sound by construction (every returned witness passes its
verifier); their completeness is exercised against the exhaustive searches in
the oracle module by the test suite.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graph import (
    Graph,
    _Search,
    _chordless,
    bits,
    is_induced_path,
    is_odd_hole,
    mask_of,
    neighbourhood,
    through,
    walk_down,
)

Path = tuple[int, ...]
# (path from the apex, mask of path[1:], neighborhoods of path[1:-1])
Leg = tuple[Path, int, int]


class PyramidWitness(NamedTuple):
    """Apex joined to a triangle by three internally disjoint induced paths.

    ``paths[i]`` runs from the apex to ``base[i]``.  At least two paths must
    have length two or more, and between any two paths the only edge avoiding
    the apex is the base edge.
    """

    apex: int
    base: tuple[int, int, int]
    paths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class JewelWitness(NamedTuple):
    """Five vertices in a cyclic pattern plus a connecting path.

    ``ring`` lists v1..v5 with edges v1v2, v2v3, v3v4, v4v5, v5v1 and
    non-edges v1v3, v2v4, v1v4.  ``path`` is an induced path from v1 to v4
    whose interior has no neighbor among v2, v3, v5.  Whether v5 is adjacent
    to v2 or v3 is deliberately left unconstrained.
    """

    ring: tuple[int, int, int, int, int]
    path: tuple[int, ...]


def verify_pyramid(g: Graph, w: PyramidWitness) -> bool:
    """Check every pyramid condition against the graph, by masks.

    The base is a triangle, a closed chordless chain of three vertices.
    Each path is an induced path from the apex to its base vertex, and at
    least two have length two or more.  A leg's body is its path past the
    apex: the bodies are pairwise disjoint, and a vertex of one body sees
    a vertex of another only as the base edge between their ends.  Ids
    outside the graph give False.
    """
    a, b, paths = w.apex, w.base, w.paths
    if len(b) != 3 or len(paths) != 3 or a in b or not _chordless(g, b, True):
        return False
    for p, end in zip(paths, b):
        if len(p) < 2 or p[0] != a or p[-1] != end or not is_induced_path(g, p):
            return False
    if sum(len(p) >= 3 for p in paths) < 2:
        return False
    bodies = [mask_of(p[1:]) for p in paths]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if bodies[i] & bodies[j]:
            return False
        for u in paths[i][1:]:
            if g.adj[u] & bodies[j] != (1 << b[j] if u == b[i] else 0):
                return False
    return True


def verify_jewel(g: Graph, w: JewelWitness) -> bool:
    """Check every jewel condition against the graph, by masks.

    The ring is two induced paths, ``v1-v2-v3-v4`` and ``v4-v5-v1``, which
    give all its edges and non-edges.  They also make the five vertices
    distinct: ``v5`` sees ``v4``, which ``v2`` misses, and ``v1``, which
    ``v3`` misses.  The path is an induced ``v1-v4`` path whose interior
    misses ``v2``, ``v3``, ``v5`` and their neighbours.  Ids outside the
    graph, and a ring of other than five vertices, give False.
    """
    if len(w.ring) != 5:
        return False
    v1, v2, v3, v4, v5 = w.ring
    p = w.path
    if not (is_induced_path(g, (v1, v2, v3, v4)) and is_induced_path(g, (v4, v5, v1))):
        return False
    if len(p) < 3 or p[0] != v1 or p[-1] != v4 or not is_induced_path(g, p):
        return False
    spoke = mask_of((v2, v3, v5))
    return not mask_of(p[1:-1]) & (spoke | neighbourhood(g, spoke))


def find_jewel(g: Graph) -> Optional[JewelWitness]:
    """Polynomial jewel search.

    Enumerates labelled 5-tuples matching the edge pattern; for each, deletes
    everything adjacent to v2, v3 or v5 (sparing v1, v4) and asks for any
    v1-v4 path in what remains.  A shortest such path is automatically
    induced and its interior avoids the forbidden neighborhoods, so it
    completes the witness.

    The path is read off a BFS from v1 inside that set.  The set depends
    only on v1, v2, v3 and v5, so many 5-tuples share one BFS, which the
    search context keeps for the rest of the call.

    Most tuples are dropped by mask tests before their BFS, and only tuples
    with no path are dropped, so the witness is the one the full loop gives.
    The path is induced and v1v4 is a non-edge, so its second vertex is a
    neighbour of v1, and its second-to-last one of v4, outside
    N[v2] | N[v3] | N[v5].  A (v1, v2, v3) prefix is dropped when v1 has no
    neighbour outside N[v2] | N[v3], a v4 likewise, and a tuple unless both
    v1 and v4 have one outside N[v5] too.  On the seed-1 benchmark corpora,
    in the jewel searches of ``detect`` that find nothing, this leaves 2 of
    8,092 tuples for a BFS on ``perfect-mixed`` (both sides); the
    ``stream-batch`` searches have no tuple, and stage 0 decides every
    ``sparse-negative`` graph.  On a
    co-bipartite graph no tuple is left: a neighbour of v4 outside N[v3] is
    on v1's side, so v1 sees it and a tuple that passed would have a path of
    length two, a jewel in a perfect graph.
    """
    return _jewel(_Search(g))


def _jewel(search: _Search) -> Optional[JewelWitness]:
    g = search.g
    adj = g.adj
    closed = search.closed
    # Lowest-bit loops stand for bits() at every level, in the same order:
    # a generator made anew for each prefix cost more than the tests.
    for v1 in range(g.n):
        row1 = adj[v1]
        twos = row1
        while twos:
            low = twos & -twos
            twos ^= low
            v2 = low.bit_length() - 1
            threes = adj[v2] & ~closed[v1]
            while threes:
                low = threes & -threes
                threes ^= low
                v3 = low.bit_length() - 1
                near = closed[v2] | closed[v3]
                # the path's second vertex: a neighbour of v1 that is allowed
                free1 = row1 & ~near
                if not free1:
                    continue
                fours = adj[v3] & ~(closed[v1] | closed[v2])
                while fours:
                    low = fours & -fours
                    fours ^= low
                    v4 = low.bit_length() - 1
                    # and its second-to-last: a neighbour of v4 that is allowed
                    free4 = adj[v4] & ~near
                    if not free4:
                        continue
                    # v5 sees v4 and v1, so it is not v2 (misses v4) or v3 (misses v1)
                    fives = adj[v4] & row1
                    while fives:
                        low = fives & -fives
                        fives ^= low
                        v5 = low.bit_length() - 1
                        c5 = closed[v5]
                        if not (free1 & ~c5 and free4 & ~c5):
                            continue
                        allowed = g.full_mask & ~(near | c5) | 1 << v1 | 1 << v4
                        dist = search.dist(v1, allowed)
                        if dist[v4] < 0:
                            continue
                        path = walk_down(g, dist, v4)  # v4 .. v1
                        w = JewelWitness((v1, v2, v3, v4, v5), tuple(path[::-1]))
                        if verify_jewel(g, w):
                            return w
    return None


def odd_hole_from_jewel(g: Graph, w: JewelWitness) -> tuple[int, ...]:
    """Extract an odd hole from a verified jewel.

    An even connecting path closes through v4-v3-v2-v1; an odd one closes
    through v4-v5-v1.
    """
    if not verify_jewel(g, w):
        raise ValueError("invalid jewel witness")
    v1, v2, v3, v4, v5 = w.ring
    if len(w.path) % 2 == 1:  # even edge count
        cycle = w.path + (v3, v2)
    else:
        cycle = w.path + (v5,)
    if not is_odd_hole(g, cycle):
        raise ValueError("jewel extraction produced a non-hole")
    return cycle


def odd_hole_from_pyramid(g: Graph, w: PyramidWitness) -> tuple[int, ...]:
    """Extract an odd hole from a verified pyramid.

    Two of the three paths have equal length parity; together with the base
    edge between their endpoints they close an odd chordless cycle.
    """
    if not verify_pyramid(g, w):
        raise ValueError("invalid pyramid witness")
    for i in range(3):
        for j in range(i + 1, 3):
            if (len(w.paths[i]) - len(w.paths[j])) % 2 == 0:
                cycle = w.paths[i] + tuple(reversed(w.paths[j]))[:-1]
                if not is_odd_hole(g, cycle):
                    raise ValueError("pyramid extraction produced a non-hole")
                return cycle
    raise ValueError("no equal-parity path pair")  # unreachable for valid input


def find_pyramid(g: Graph) -> Optional[PyramidWitness]:
    """Polynomial pyramid search via anchored shortest-path halves.

    For every base triangle, apex, and choice of apex-neighbors s1, s2, s3
    (one per leg), each leg is rebuilt from a guessed midpoint as two
    restricted shortest halves; the halves avoid the closed neighborhoods of
    the apex, the other two base vertices and the other two anchors.  Every
    compatible triple of legs is fully verified, so a returned witness is
    always genuine.

    Only live anchor triples are enumerated, by bitmask tests made before
    any leg is built.  Per triangle, the apexes are the vertices that see at
    most one base vertex (two length-1 legs can never be repaired).  The
    anchors of leg i are base[i] alone when the apex sees it, and otherwise
    the apex's neighbors outside the closed neighborhoods of the other two
    base vertices.  s2 avoids the closed neighborhood of s1 and s3 those of
    s1 and s2, so the triples are the distinct, pairwise non-adjacent ones,
    in the order of the full product.  The triple is dropped at its first
    empty leg set.

    So an apex must be a claw centre: three of its neighbours are pairwise
    non-adjacent.  The mask of claw centres (``_Search.claw_centres``) is
    built once per search context, and each triangle's apexes are cut down
    to it; a claw-free graph, such as a line graph or a co-bipartite graph,
    returns at once.  Only apexes with no anchor triple are dropped, so the
    leg sets built and the witness stay the same.  On the seed-1 benchmark
    corpora, in the pyramid searches of ``detect``, the apexes tried fall
    from 3,138 to 20 on ``perfect-mixed`` (both sides).

    A leg set is built from two BFS that the search context keeps for the
    rest of the call.  Leg sets recur across the triangles of an apex, and
    one asked for again costs no further BFS; an empty one, the common
    case, then costs one dict lookup.  Each leg carries two masks, and one
    nested loop tests them pair by pair in lexicographic order, the third
    leg against the union of the first two.  Pair tables would not pay: on
    the graph sides of the benchmark's seed-1 corpora and their complements
    that the peeling leaves, 21,375 of 21,636 distinct leg sets are empty,
    259 hold one leg and 2 hold two (the same with or without the
    claw-centre test).
    """
    return _pyramid(_Search(g))


def _pyramid(search: _Search) -> Optional[PyramidWitness]:
    g = search.g
    adj = g.adj
    closed = search.closed
    centres = search.claw_centres
    if not centres:
        return None
    for b1 in range(g.n):
        twos = adj[b1] >> b1 << b1
        while twos:  # lowest-bit loops for bits() over the triangles, as in _jewel
            low = twos & -twos
            twos ^= low
            b2 = low.bit_length() - 1
            threes = adj[b1] & adj[b2] >> b2 << b2
            while threes:
                low = threes & -threes
                threes ^= low
                b3 = low.bit_length() - 1
                apexes = centres & ~((1 << b1) | (1 << b2) | low | adj[b1] & adj[b2]
                                     | adj[b1] & adj[b3] | adj[b2] & adj[b3])
                if not apexes:
                    continue
                base = (b1, b2, b3)
                blocks = (closed[b2] | closed[b3], closed[b1] | closed[b3],
                          closed[b1] | closed[b2])
                for a in bits(apexes):
                    row = adj[a]
                    choices = [row & 1 << b or row & ~block for b, block in zip(base, blocks)]
                    if all(choices):
                        w = _pyramid_at(search, a, base, blocks, choices)
                        if w is not None:
                            return w
    return None


def _build_legs(search: _Search, a: int, si: int, bi: int, allowed: int) -> list[Leg]:
    """The induced legs ``a, si .. m .. bi`` over every midpoint ``m``.

    Each half is a shortest path inside ``allowed``, joined by
    ``graph.through`` from two BFS of the search context: first halves off
    the BFS from ``si``, second halves off the BFS from ``bi``; when the
    first does not reach ``bi`` there is no leg and the second is skipped.
    Each leg comes with ``body``, the mask of ``path[1:]``, and ``near``,
    the union of the neighborhoods of ``path[1:-1]``.
    """
    g = search.g
    dist = search.dist(si, allowed)
    if dist[bi] < 0:
        return []
    back = search.dist(bi, allowed)
    reach = 0  # the component of si and bi
    for layer in dist.layers:
        reach |= layer
    paths: dict[Path, None] = {}
    for m in bits(reach):
        cand = (a, *through(g, dist, back, m))  # a, si .. m .. bi
        if is_induced_path(g, cand):
            paths.setdefault(cand, None)
    return [_leg(g, path) for path in paths]


def _leg(g: Graph, path: Path) -> Leg:
    body = mask_of(path[1:])
    return path, body, neighbourhood(g, body & ~(1 << path[-1]))


def _apart(body_p: int, near_p: int, body_q: int, near_q: int) -> bool:
    """No shared vertex past the apex; no edge between the legs but the base edge."""
    return not (body_p & body_q or near_p & body_q or near_q & body_p)


def _pyramid_at(
    search: _Search, a: int, base: tuple[int, int, int], blocks: tuple[int, int, int],
    choices: list[int],
) -> Optional[PyramidWitness]:
    g = search.g
    closed = search.closed
    c0, c1, c2 = choices
    outside = g.full_mask & ~closed[a]
    triples = ((s1, s2, s3) for s1 in bits(c0) for s2 in bits(c1 & ~closed[s1])
               for s3 in bits(c2 & ~(closed[s1] | closed[s2])))
    for s in triples:
        legs: list[list[Leg]] = []
        for i, (si, bi) in enumerate(zip(s, base)):
            if si == bi:
                legs.append([_leg(g, (a, bi))])
                continue
            allowed = (outside & ~(blocks[i] | closed[s[i - 1]] | closed[s[i - 2]])
                       | 1 << si | 1 << bi)
            legs.append(_build_legs(search, a, si, bi, allowed))
            if not legs[i]:
                break
        if not legs[-1]:
            continue
        for p0, body0, near0 in legs[0]:
            for p1, body1, near1 in legs[1]:
                if not _apart(body0, near0, body1, near1):
                    continue
                for p2, body2, near2 in legs[2]:
                    if not _apart(body0 | body1, near0 | near1, body2, near2):
                        continue
                    w = PyramidWitness(a, base, (p0, p1, p2))
                    if verify_pyramid(g, w):
                        return w
    return None
