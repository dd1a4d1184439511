"""Detection of the two quickly-checkable configurations: pyramids and jewels.

Either configuration forces an odd hole, and both admit polynomial search.
The finders here are sound by construction (every returned witness passes its
verifier); their completeness is exercised against the exhaustive searches in
the oracle module by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    Graph,
    _Search,
    bits,
    is_induced_path,
    is_odd_hole,
    mask_of,
    through,
    walk_down,
)

Path = tuple[int, ...]
# (path from the apex, mask of path[1:], neighborhoods of path[1:-1])
Leg = tuple[Path, int, int]


@dataclass(frozen=True)
class PyramidWitness:
    """Apex joined to a triangle by three internally disjoint induced paths.

    ``paths[i]`` runs from the apex to ``base[i]``.  At least two paths must
    have length two or more, and between any two paths the only edge avoiding
    the apex is the base edge.
    """

    apex: int
    base: tuple[int, int, int]
    paths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class JewelWitness:
    """Five vertices in a cyclic pattern plus a connecting path.

    ``ring`` lists v1..v5 with edges v1v2, v2v3, v3v4, v4v5, v5v1 and
    non-edges v1v3, v2v4, v1v4.  ``path`` is an induced path from v1 to v4
    whose interior has no neighbor among v2, v3, v5.  Whether v5 is adjacent
    to v2 or v3 is deliberately left unconstrained.
    """

    ring: tuple[int, int, int, int, int]
    path: tuple[int, ...]


def verify_pyramid(g: Graph, w: PyramidWitness) -> bool:
    """Check every pyramid condition directly against the graph."""
    b = w.base
    if len(set(b)) != 3 or w.apex in b:
        return False
    if not (g.has_edge(b[0], b[1]) and g.has_edge(b[0], b[2]) and g.has_edge(b[1], b[2])):
        return False
    if len(w.paths) != 3:
        return False
    for i, p in enumerate(w.paths):
        if len(p) < 2 or p[0] != w.apex or p[-1] != b[i]:
            return False
        if not is_induced_path(g, p):
            return False
    if sum(len(p) >= 3 for p in w.paths) < 2:
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            pi = [v for v in w.paths[i] if v != w.apex]
            pj = [v for v in w.paths[j] if v != w.apex]
            if set(pi) & set(pj):
                return False
            for u in pi:
                for v in pj:
                    if g.has_edge(u, v) and (u, v) != (b[i], b[j]):
                        return False
    return True


def verify_jewel(g: Graph, w: JewelWitness) -> bool:
    """Check every jewel condition directly against the graph."""
    v1, v2, v3, v4, v5 = w.ring
    if len(set(w.ring)) != 5:
        return False
    for u, v in ((v1, v2), (v2, v3), (v3, v4), (v4, v5), (v5, v1)):
        if not g.has_edge(u, v):
            return False
    for u, v in ((v1, v3), (v2, v4), (v1, v4)):
        if g.has_edge(u, v):
            return False
    p = w.path
    if len(p) < 3 or p[0] != v1 or p[-1] != v4:
        return False
    if not is_induced_path(g, p):
        return False
    interior = p[1:-1]
    if set(interior) & {v2, v3, v5}:
        return False
    for x in (v2, v3, v5):
        row = g.adj[x]
        if any(row >> u & 1 for u in interior):
            return False
    return True


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
    """
    return _jewel(_Search(g))


def _jewel(search: _Search) -> Optional[JewelWitness]:
    g = search.g
    adj = g.adj
    closed = search.closed
    for v1 in range(g.n):
        for v2 in g.neighbors_of[v1]:
            for v3 in bits(adj[v2] & ~adj[v1] & ~(1 << v1)):
                for v4 in bits(
                    adj[v3] & ~adj[v1] & ~adj[v2] & ~(1 << v1) & ~(1 << v2)
                ):
                    for v5 in bits(adj[v4] & adj[v1]):
                        if v5 in (v2, v3):
                            continue
                        allowed = (g.full_mask & ~(closed[v2] | closed[v3] | closed[v5])
                                   | 1 << v1 | 1 << v4)
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

    A leg set is built from two BFS that the search context keeps for the
    rest of the call.  Leg sets recur across the triangles of an apex, and
    one asked for again costs no further BFS; an empty one, the common
    case, then costs one dict lookup.  Each leg carries two masks, and one
    nested loop tests them pair by pair in lexicographic order, the third
    leg against the union of the first two.  Pair tables would not pay: on the graph sides of the benchmark's
    seed-1 corpora and their complements that the peeling leaves, 21,375 of
    21,636 leg sets are empty, 259 hold one leg and 2 hold two.
    """
    return _pyramid(_Search(g))


def _pyramid(search: _Search) -> Optional[PyramidWitness]:
    g = search.g
    adj = g.adj
    closed = search.closed
    for b1 in range(g.n):
        for b2 in g.neighbors_of[b1]:
            if b2 < b1:
                continue
            for b3 in bits(adj[b1] & adj[b2]):
                if b3 < b2:
                    continue
                base = (b1, b2, b3)
                blocks = (closed[b2] | closed[b3], closed[b1] | closed[b3],
                          closed[b1] | closed[b2])
                apexes = g.full_mask & ~((1 << b1) | (1 << b2) | (1 << b3) | adj[b1] & adj[b2]
                                         | adj[b1] & adj[b3] | adj[b2] & adj[b3])
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
        joined = through(g, dist, back, m)  # si .. m .. bi
        if len(set(joined)) != len(joined):
            continue
        cand = (a, *joined)
        if is_induced_path(g, cand):
            paths.setdefault(cand, None)
    return [_leg(g, path) for path in paths]


def _leg(g: Graph, path: Path) -> Leg:
    near = 0
    for v in path[1:-1]:
        near |= g.adj[v]
    return path, mask_of(path[1:]), near


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
