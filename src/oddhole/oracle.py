"""Brute-force reference searches used as ground truth in tests.

Everything here is exponential-time and meant for small graphs (roughly
n <= 16 sparse, n <= 12 dense for the odd-hole search; n <= 11 for the
configuration searches).  Nothing guards against larger inputs; callers
accept the cost.  All searches explore candidates in increasing vertex
order, so the first witness found is reproducible.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .configs import JewelWitness, PyramidWitness, verify_jewel, verify_pyramid
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


def shortest_odd_holes(g: Graph) -> list[tuple[int, ...]]:
    """All odd holes of minimum length (empty when there is none)."""
    best: list[tuple[int, ...]] = []
    for cyc in oracle_odd_holes(g):
        if not best or len(cyc) < len(best[0]):
            best = [cyc]
        elif len(cyc) == len(best[0]):
            best.append(cyc)
    return best


def _induced_paths_between(
    g: Graph, a: int, b: int, interior_allowed: int
) -> Iterator[tuple[int, ...]]:
    """All induced a-b paths whose interior lies inside ``interior_allowed``."""
    adj = g.adj

    def rec(path: list[int], onpath: int, blocked: int) -> Iterator[tuple[int, ...]]:
        tail = path[-1]
        if tail == b:
            yield tuple(path)
            return
        for w in bits(adj[tail] & (interior_allowed | (1 << b)) & ~onpath & ~blocked):
            path.append(w)
            yield from rec(path, onpath | (1 << w), blocked | (adj[tail] & ~(1 << w)))
            path.pop()

    if a == b:
        yield (a,)
        return
    yield from rec([a], 1 << a, 0)


def oracle_find_pyramid(g: Graph):
    """Exhaustive pyramid search; returns a PyramidWitness or None.

    Enumerates the apex, the base triangle and all compatible induced-path
    triples.
    """
    for b1 in range(g.n):
        for b2 in bits(g.adj[b1] >> b1 << b1):
            for b3 in bits(g.adj[b1] & g.adj[b2] >> b2 << b2):
                base = (b1, b2, b3)
                basemask = (1 << b1) | (1 << b2) | (1 << b3)
                for apex in range(g.n):
                    if 1 << apex & basemask:
                        continue
                    legs = _pyramid_legs(g, apex, base)
                    if legs is not None:
                        w = PyramidWitness(apex, base, legs)
                        if verify_pyramid(g, w):
                            return w
    return None


def _pyramid_legs(g: Graph, apex: int, base: tuple[int, int, int]):
    """Search for three induced apex->base paths forming a pyramid."""
    per_leg: list[list[tuple[int, ...]]] = []
    for i, bi in enumerate(base):
        others = 0
        for j, bj in enumerate(base):
            if j != i:
                others |= g.adj[bj] | (1 << bj)
        interior_ok = g.full_mask & ~others & ~(1 << apex) & ~(1 << bi)
        per_leg.append(list(_induced_paths_between(g, apex, bi, interior_ok)))
    apexbit = 1 << apex
    for p1 in per_leg[0]:
        m1 = sum(1 << v for v in p1)
        for p2 in per_leg[1]:
            m2 = sum(1 << v for v in p2)
            if m1 & m2 != apexbit:
                continue
            if not _legs_compatible(g, p1, p2, apex, base[0], base[1]):
                continue
            for p3 in per_leg[2]:
                m3 = sum(1 << v for v in p3)
                if m1 & m3 != apexbit or m2 & m3 != apexbit:
                    continue
                if sum(len(p) > 2 for p in (p1, p2, p3)) < 2:
                    continue
                if _legs_compatible(g, p1, p3, apex, base[0], base[2]) and _legs_compatible(
                    g, p2, p3, apex, base[1], base[2]
                ):
                    return (p1, p2, p3)
    return None


def _legs_compatible(g, p, q, apex: int, bp: int, bq: int) -> bool:
    """Only edge between the two legs (apex removed) may be the base edge."""
    for u in p:
        if u == apex:
            continue
        for v in q:
            if v == apex:
                continue
            if g.has_edge(u, v) and not (u == bp and v == bq):
                return False
    return True


def oracle_find_jewel(g: Graph):
    """Exhaustive jewel search; returns a JewelWitness or None.

    Tries every labelled 5-tuple matching the edge/non-edge pattern and every
    induced hub-to-hub path, checking the interior-avoidance condition per
    path instead of pre-deleting neighborhoods (the polynomial detector does
    the latter, so the two routes stay independent).
    """
    adj = g.adj
    for v1 in range(g.n):
        for v2 in bits(adj[v1]):
            for v3 in bits(adj[v2] & ~adj[v1] & ~(1 << v1)):
                for v4 in bits(
                    adj[v3] & ~adj[v1] & ~adj[v2] & ~(1 << v1) & ~(1 << v2)
                ):
                    for v5 in bits(adj[v4] & adj[v1]):
                        if v5 in (v2, v3):
                            continue
                        used = sum(1 << x for x in (v1, v2, v3, v4, v5))
                        forbidden = adj[v2] | adj[v3] | adj[v5]
                        for path in _induced_paths_between(
                            g, v1, v4, g.full_mask & ~used
                        ):
                            if any(forbidden >> w & 1 for w in path[1:-1]):
                                continue
                            w = JewelWitness((v1, v2, v3, v4, v5), path)
                            if verify_jewel(g, w):
                                return w
    return None
