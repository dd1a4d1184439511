"""Detection of the two quickly-checkable configurations: pyramids and jewels.

Either configuration forces an odd hole, and both admit polynomial search.
The finders here are sound by construction (every returned witness passes its
verifier); their completeness is exercised against the exhaustive searches in
the oracle module by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from . import graph
from .graph import (
    Graph,
    bits,
    is_induced_path,
    is_odd_hole,
    shortest_path,
    walk_down,
)

Leg = tuple[int, ...]
# (apex, anchor, base vertex, allowed mask) -> the candidate legs it gives
LegMemo = dict[tuple[int, int, int, int], list[Leg]]


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
    """
    adj = g.adj
    for v1 in range(g.n):
        for v2 in g.neighbors_of[v1]:
            for v3 in bits(adj[v2] & ~adj[v1] & ~(1 << v1)):
                for v4 in bits(
                    adj[v3] & ~adj[v1] & ~adj[v2] & ~(1 << v1) & ~(1 << v2)
                ):
                    for v5 in bits(adj[v4] & adj[v1]):
                        if v5 in (v2, v3):
                            continue
                        spare = (1 << v1) | (1 << v4)
                        banned = (adj[v2] | adj[v3] | adj[v5]) & ~spare
                        banned |= (1 << v2) | (1 << v3) | (1 << v5)
                        allowed = g.full_mask & ~banned
                        path = shortest_path(g, v1, v4, allowed)
                        if path is None:
                            continue
                        w = JewelWitness((v1, v2, v3, v4, v5), path)
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
    assembled triple is checked pairwise and then fully verified, so a
    returned witness is always genuine.

    The legs are a function of the apex, the anchor, the base vertex and the
    allowed set alone, so each such leg set is built once per call, from one
    BFS out of the anchor plus one per midpoint, and kept in a memo that is
    freed on return.  The memo spans the whole call rather than one
    (apex, base) pair because leg sets recur across the base triangles of
    one apex: on the benchmark's seed-1 corpora and their complements,
    22-48% of memo hits (by workload) come from an earlier (apex, base)
    pair, and a call holds at most 1,350 leg sets.
    """
    adj = g.adj
    legs: LegMemo = {}
    for b1 in range(g.n):
        for b2 in g.neighbors_of[b1]:
            if b2 < b1:
                continue
            for b3 in bits(adj[b1] & adj[b2]):
                if b3 < b2:
                    continue
                base = (b1, b2, b3)
                basemask = (1 << b1) | (1 << b2) | (1 << b3)
                for a in range(g.n):
                    abit = 1 << a
                    if abit & basemask:
                        continue
                    touched = adj[a] & basemask
                    if touched.bit_count() > 1:
                        continue  # two length-1 legs can never be repaired
                    w = _pyramid_at(g, a, base, legs)
                    if w is not None:
                        return w
    return None


def _anchor_choices(g: Graph, a: int, base: tuple[int, int, int], i: int) -> list[int]:
    bi = base[i]
    if g.has_edge(a, bi):
        return [bi]
    block = 0
    for j in range(3):
        if j != i:
            bj = base[j]
            block |= g.adj[bj] | (1 << bj)
    return list(bits(g.adj[a] & ~block))


def _leg_candidates(
    g: Graph, a: int, base: tuple[int, int, int], s: tuple[int, int, int], i: int,
    memo: LegMemo,
) -> list[Leg]:
    """All midpoint-assembled candidate legs from the apex to base[i].

    The list is shared through ``memo`` and must not be modified.
    """
    bi, si = base[i], s[i]
    if si == bi:
        return [(a, bi)]
    block = g.adj[a] | (1 << a)
    for j in range(3):
        if j != i:
            block |= g.adj[base[j]] | (1 << base[j])
            block |= g.adj[s[j]] | (1 << s[j])
    allowed = (g.full_mask & ~block) | (1 << si) | (1 << bi)
    key = (a, si, bi, allowed)
    legs = memo.get(key)
    if legs is None:
        legs = memo[key] = _build_legs(g, a, si, bi, allowed)
    return legs


def _build_legs(g: Graph, a: int, si: int, bi: int, allowed: int) -> list[Leg]:
    """The induced legs ``a, si .. m .. bi`` over every midpoint ``m``.

    Each half is a shortest path inside ``allowed``; every first half is read
    off one BFS from ``si``, the path ``shortest_path(g, si, m, allowed)``
    would give.  The BFS is looked up in ``graph`` at call time, so a tracer
    that rebinds it there counts it.
    """
    dist = graph.bfs_distances(g, si, allowed)
    seen: dict[Leg, None] = {}
    for m in bits(allowed):
        if dist[m] < 0:
            continue
        first = walk_down(g, dist, m, allowed)  # m .. si
        second = shortest_path(g, m, bi, allowed)
        if second is None:
            continue
        joined = tuple(reversed(first)) + second[1:]
        if len(set(joined)) != len(joined):
            continue
        cand = (a,) + joined
        if is_induced_path(g, cand):
            seen.setdefault(cand, None)
    return list(seen)


def _pair_ok(g: Graph, p: tuple[int, ...], q: tuple[int, ...], bp: int, bq: int) -> bool:
    if set(p[1:]) & set(q[1:]):
        return False
    for u in p[1:]:
        ru = g.adj[u]
        for v in q[1:]:
            if ru >> v & 1 and (u, v) != (bp, bq):
                return False
    return True


def _pyramid_at(
    g: Graph, a: int, base: tuple[int, int, int], memo: LegMemo
) -> Optional[PyramidWitness]:
    choices = [_anchor_choices(g, a, base, i) for i in range(3)]
    if not all(choices):
        return None
    for s in product(*choices):
        if len(set(s)) != 3:
            continue
        if g.has_edge(s[0], s[1]) or g.has_edge(s[0], s[2]) or g.has_edge(s[1], s[2]):
            continue
        legs = [_leg_candidates(g, a, base, s, i, memo) for i in range(3)]
        if not all(legs):
            continue
        good01 = _pair_table(g, legs[0], legs[1], base[0], base[1])
        if not any(good01):
            continue
        good02 = _pair_table(g, legs[0], legs[2], base[0], base[2])
        if not any(good02):
            continue
        good12 = _pair_table(g, legs[1], legs[2], base[1], base[2])
        if not any(good12):
            continue
        for i0, p0 in enumerate(legs[0]):
            row01 = good01[i0]
            row02 = good02[i0]
            if not row01 or not row02:
                continue
            for i1 in bits(row01):
                both = row02 & good12[i1]
                for i2 in bits(both):
                    w = PyramidWitness(a, base, (p0, legs[1][i1], legs[2][i2]))
                    if verify_pyramid(g, w):
                        return w
    return None


def _pair_table(g, pa, pb, ba, bb) -> list[int]:
    """Bitset rows: row[i] has bit j set iff legs pa[i], pb[j] are compatible."""
    table = []
    for p in pa:
        row = 0
        for j, q in enumerate(pb):
            if _pair_ok(g, p, q, ba, bb):
                row |= 1 << j
        table.append(row)
    return table
