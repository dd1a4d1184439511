"""Executable forms of the structural notions used around a fixed hole.

Given a hole (as an ordered vertex cycle), these helpers classify outside
vertices by how their neighbors sit on the hole and cut the hole into gaps
relative to a vertex subset or an outside vertex.  They power the property
suites that pin down the structural facts the detectors rely on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph import Graph, Mask, bits, mask_of

Hole = Sequence[int]


def major_vertices(g: Graph, hole: Hole) -> Mask:
    """Vertices outside the hole whose hole-neighbors fit no three-vertex arc.

    Neighbors inside three consecutive hole vertices leave a gap of length at
    least ``len(hole) - 2``; a vertex is major iff it has a hole-neighbor and
    every gap between its hole-neighbors is shorter.
    """
    k = len(hole)
    out = 0
    for v in bits(g.full_mask & ~mask_of(hole)):
        nbrs = [h for h in hole if g.adj[v] >> h & 1]
        if nbrs and all(len(gap) - 1 < k - 2 for gap in set_gaps(hole, nbrs)):
            out |= 1 << v
    return out


def is_clean(g: Graph, hole: Hole) -> bool:
    """True iff no vertex of the graph is major for this hole."""
    return major_vertices(g, hole) == 0


def set_gaps(hole: Hole, members: Iterable[int]) -> list[tuple[int, ...]]:
    """Cut the hole at a subset of its vertices.

    Each gap is a path of the hole between two consecutive members, given as
    (member, excluded-run..., member).  Degenerate shapes follow the literal
    component reading: an empty subset yields one closed gap spanning the
    whole cycle, and a single member yields a closed gap that starts and ends
    at it.  The gap's length is always ``len(gap) - 1``.
    """
    k = len(hole)
    member_set = set(members)
    unknown = member_set - set(hole)
    if unknown:
        raise ValueError(f"members not on hole: {sorted(unknown)}")
    flags = [hole[i] in member_set for i in range(k)]
    if not member_set:
        return [tuple(hole) + (hole[0],)]
    if all(flags):
        return []
    gaps = []
    for i in range(k):
        if flags[i] and not flags[(i + 1) % k]:
            run = [hole[i]]
            j = (i + 1) % k
            while not flags[j]:
                run.append(hole[j])
                j = (j + 1) % k
            run.append(hole[j])
            gaps.append(tuple(run))
    return gaps


def is_normal_set(hole: Hole, members: Iterable[int]) -> bool:
    """True iff every gap has even length (odd holes need a nonempty set)."""
    member_list = list(members)
    if len(hole) % 2 == 1 and not member_list:
        return False
    return all((len(gap) - 1) % 2 == 0 for gap in set_gaps(hole, member_list))


def vertex_gaps(g: Graph, hole: Hole, x: int) -> list[tuple[int, ...]]:
    """Hole paths of length >= 2 between consecutive neighbors of ``x``.

    The ends of each gap are adjacent to ``x`` and the interior is not.
    With fewer than two neighbors on the hole there are no gaps.
    """
    if x in hole:
        raise ValueError("gap vertex must lie outside the hole")
    nbrs = [h for h in hole if g.adj[x] >> h & 1]
    return set_gaps(hole, nbrs) if len(nbrs) >= 2 else []


def heavy_edges(g: Graph, hole: Hole, members: Iterable[int]) -> list[tuple[int, int]]:
    """Hole edges outside ``members`` whose ends jointly dominate ``members``."""
    mset = list(set(members))
    k = len(hole)
    out = []
    for i in range(k):
        u, v = hole[i], hole[(i + 1) % k]
        if u in mset or v in mset:
            continue
        ru, rv = g.adj[u], g.adj[v]
        if all((ru >> m & 1) or (rv >> m & 1) for m in mset):
            out.append((u, v))
    return out
