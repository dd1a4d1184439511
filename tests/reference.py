"""Reference implementations that the tests compare the package against.

Everything here is exponential-time or brute force and meant for small
graphs: the configuration searches for n <= 11, the enumeration of all
graphs on up to seven vertices (one per isomorphism class).  None of it is
part of the installed package: ``oddhole.oracle`` keeps only the odd-hole
search that the CLI's ``probe`` runs, which the searches below build on.
All searches explore candidates in increasing vertex order, so the first
witness found is reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Optional, Sequence

from oddhole.configs import JewelWitness, PyramidWitness, verify_jewel, verify_pyramid
from oddhole.graph import Graph, bfs_distances, bits, mask_of
from oddhole.oracle import oracle_odd_holes
from oddhole.probes import Hole, set_gaps


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


def _refined_labels(g: Graph) -> list[int]:
    labels = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        sig = [
            (labels[v], tuple(sorted(labels[u] for u in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sig)))}
        nxt = [remap[s] for s in sig]
        if nxt == labels:
            break
        labels = nxt
    return labels


def canonical_code(g: Graph) -> tuple:
    """Isomorphism-invariant key: refinement profile plus minimum bit code."""
    n = g.n
    labels = _refined_labels(g)
    classes: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        classes.setdefault(lab, []).append(v)
    ordered = [classes[lab] for lab in sorted(classes)]
    profile = tuple(sorted((lab, len(classes[lab])) for lab in classes))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    best: Optional[int] = None
    for combo in product(*(permutations(cl) for cl in ordered)):
        position = [0] * n
        slot = 0
        for group in combo:
            for v in group:
                position[v] = slot
                slot += 1
        inv = [0] * n
        for v, s in enumerate(position):
            inv[s] = v
        code = 0
        for (i, j) in pairs:
            code = (code << 1) | (g.adj[inv[i]] >> inv[j] & 1)
        if best is None or code < best:
            best = code
    return (n, profile, best)


@lru_cache(maxsize=None)
def small_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class.

    Each graph on ``n - 1`` vertices gets a new vertex with every possible
    neighbourhood, and ``canonical_code`` (degree refinement, then the
    minimum code over the orders that keep the refined classes) keeps one
    graph of each class; that is cheap at these sizes.
    """
    if n == 0:
        return (Graph(0),)
    if n == 1:
        return (Graph(1),)
    out: dict[tuple, Graph] = {}
    for base in small_graphs(n - 1):
        for subset in range(1 << (n - 1)):
            rows = list(base.adj) + [subset]
            for u in bits(subset):
                rows[u] |= 1 << (n - 1)
            g = Graph.from_rows(n, rows)
            key = canonical_code(g)
            if key not in out:
                out[key] = g
    return tuple(out.values())


@lru_cache(maxsize=None)
def connected_small_graphs(n: int) -> tuple[Graph, ...]:
    """The connected graphs of ``small_graphs(n)``."""
    return tuple(g for g in small_graphs(n)
                 if not g.n or all(d >= 0 for d in bfs_distances(g, 0)))


def is_normal_set(hole: Hole, members: Iterable[int]) -> bool:
    """True iff every gap has even length (odd holes need a nonempty set)."""
    member_list = list(members)
    if len(hole) % 2 == 1 and not member_list:
        return False
    return all((len(gap) - 1) % 2 == 0 for gap in set_gaps(hole, member_list))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """The graph ``g`` with vertex ``v`` renamed to ``perm[v]``."""
    rows = [0] * g.n
    for u, row in enumerate(g.adj):
        rows[perm[u]] = mask_of(perm[v] for v in bits(row))
    return Graph.from_rows(g.n, rows)


def encode_edgelist(g: Graph) -> str:
    """The edge-list text of ``g``, which ``oddhole.formats.parse_edgelist`` reads."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for (u, v) in g.edges()]
    return "\n".join(lines) + "\n"
