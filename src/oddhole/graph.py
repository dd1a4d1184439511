"""Immutable simple graphs with bitmask vertex sets and deterministic BFS.

Vertices are the integers ``0..n-1``.  Subsets of vertices are passed around
as Python int bitmasks (bit ``v`` set means vertex ``v`` is in the set), which
keeps the inner loops of the detectors cheap: unions, intersections and
complements of vertex sets are single big-int operations.

Deleting vertices never renumbers anything.  Every traversal accepts a
``within`` mask and simply refuses to leave it, so witnesses found in a
masked subgraph are valid vertex sequences of the original graph.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

Vertex = int
Mask = int

UNREACHABLE = -1


def bits(mask: Mask) -> Iterator[int]:
    """Iterate the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> Mask:
    """Build a bitmask from an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """A finite simple graph: no loops, no parallel edges, no direction.

    Adjacency is stored both as bitmask rows (``adj[v]`` has bit ``u`` set
    iff ``uv`` is an edge) and as sorted neighbor tuples.  Instances are
    immutable and hashable.
    """

    __slots__ = ("n", "adj", "neighbors_of", "full_mask", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._init_from_rows(n, rows)

    def _init_from_rows(self, n: int, rows: list[int]) -> None:
        self.n = n
        self.adj = tuple(rows)
        self.neighbors_of = tuple(tuple(bits(r)) for r in rows)
        self.full_mask = (1 << n) - 1
        self._hash = hash((n, self.adj))

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[int]) -> "Graph":
        """Build from adjacency bitmask rows (must already be symmetric)."""
        g = object.__new__(cls)
        g._init_from_rows(n, list(rows))
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def complement(self) -> "Graph":
        full = self.full_mask
        rows = [(~self.adj[v] & full) & ~(1 << v) for v in range(self.n)]
        return Graph.from_rows(self.n, rows)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Return the graph with vertex ``v`` renamed to ``perm[v]``."""
        rows = [0] * self.n
        for u in range(self.n):
            row = 0
            for v in self.neighbors_of[u]:
                row |= 1 << perm[v]
            rows[perm[u]] = row
        return Graph.from_rows(self.n, rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


class Distances(list):
    """A BFS distance list that also holds the BFS layers.

    ``dist[v]`` is the distance of ``v`` from the source, or ``UNREACHABLE``;
    ``dist.layers[k]`` is the bitmask of the vertices at distance ``k``, so
    ``len(dist.layers)`` is one more than the largest distance.  Point queries
    index the list; set queries are mask algebra on the layers.
    """

    __slots__ = ("layers",)

    layers: tuple[Mask, ...]


def bfs_distances(g: Graph, source: int, within: Optional[Mask] = None) -> Distances:
    """Unweighted distances from ``source`` inside the masked subgraph.

    Returns a list indexed by vertex; unreachable (or out-of-mask) vertices
    get ``UNREACHABLE``.  Its ``layers`` attribute holds the vertices at each
    distance as bitmasks (see :class:`Distances`).  ``source`` must belong to
    the mask.
    """
    allowed = g.full_mask if within is None else within
    src_bit = 1 << source
    if not allowed & src_bit:
        raise ValueError(f"source {source} not in mask")
    dist = [UNREACHABLE] * g.n
    layers = []
    adj = g.adj
    seen = frontier = src_bit
    d = 0
    while frontier:
        layers.append(frontier)
        nxt = 0
        rest = frontier
        while rest:  # bits(frontier), inlined: this loop is the hottest of the program
            low = rest & -rest
            v = low.bit_length() - 1
            dist[v] = d
            nxt |= adj[v]
            rest ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
        d += 1
    out = Distances(dist)
    out.layers = tuple(layers)
    return out


def shortest_path(
    g: Graph, u: int, v: int, within: Optional[Mask] = None
) -> Optional[tuple[int, ...]]:
    """A deterministic shortest u-v path in the masked subgraph.

    Ties are broken by always stepping to the lowest-id predecessor, so the
    result depends only on the graph, the mask and the endpoints.  Any
    returned path is induced (a chord would yield a shorter path).
    """
    allowed = g.full_mask if within is None else within
    if not allowed >> v & 1:
        raise ValueError(f"target {v} not in mask")
    dist = bfs_distances(g, u, within)
    if dist[v] == UNREACHABLE:
        return None
    path = walk_down(g, dist, v)
    path.reverse()
    return tuple(path)


def walk_down(g: Graph, dist: Distances, frm: int) -> list[int]:
    """The path from ``frm`` down to the source of the BFS that gave ``dist``.

    Each step goes to the lowest-id neighbour one layer closer, so the path
    is deterministic and induced; the layers already keep it inside the mask
    of the BFS.  ``dist`` must have reached ``frm``.
    """
    path = [frm]
    layers = dist.layers
    adj = g.adj
    cur = frm
    for d in range(dist[frm] - 1, -1, -1):
        step = adj[cur] & layers[d]
        cur = (step & -step).bit_length() - 1
        path.append(cur)
    return path


def through(g: Graph, da: Distances, db: Distances, mid: int) -> tuple[int, ...]:
    """A shortest path from the source of ``da`` to ``mid``, then on to that of ``db``.

    Both halves are read off by :func:`walk_down`, so both follow the
    lowest-id rule; ``da`` and ``db`` must both have reached ``mid``.  The
    halves may meet again before ``mid``; callers that need a path check it.
    """
    head = walk_down(g, da, mid)
    head.reverse()
    return tuple(head) + tuple(walk_down(g, db, mid)[1:])


def geodesic_mask(du: Distances, dv: Distances, total: int, scope: Mask) -> Mask:
    """The vertices ``w`` of ``scope`` with ``du[w] + dv[w] == total``.

    Only vertices with both distances finite count: the union over ``k`` of
    ``du.layers[k] & dv.layers[total - k]``.  With ``du``, ``dv`` the
    distances from ``u`` and ``v`` and ``total`` their distance, these are
    the vertices on some shortest u-v path.
    """
    lu = du.layers
    lv = dv.layers
    out = 0
    for k in range(max(0, total - len(lv) + 1), min(total, len(lu) - 1) + 1):
        out |= lu[k] & lv[total - k]
    return out & scope


def is_induced_path(g: Graph, seq: Sequence[int], within: Optional[Mask] = None) -> bool:
    """True iff ``seq`` is an induced path of the masked subgraph.

    Consecutive vertices must be adjacent; every non-consecutive pair must be
    non-adjacent; repeated vertices are rejected.  A single vertex is a
    (trivial) induced path.
    """
    allowed = g.full_mask if within is None else within
    k = len(seq)
    if k == 0:
        return False
    if len(set(seq)) != k:
        return False
    for v in seq:
        if not allowed >> v & 1:
            return False
    for i in range(k - 1):
        if not g.has_edge(seq[i], seq[i + 1]):
            return False
    for i in range(k):
        for j in range(i + 2, k):
            if g.has_edge(seq[i], seq[j]):
                return False
    return True


def is_hole(g: Graph, cycle: Sequence[int]) -> bool:
    """True iff ``cycle`` is a chordless cycle of length at least four."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        if not g.has_edge(cycle[i], cycle[(i + 1) % k]):
            return False
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if g.has_edge(cycle[i], cycle[j]):
                return False
    return True


def is_odd_hole(g: Graph, cycle: Sequence[int]) -> bool:
    """True iff ``cycle`` is a chordless cycle of odd length (hence >= 5)."""
    return len(cycle) % 2 == 1 and is_hole(g, cycle)


def peels_to_bipartite(g: Graph) -> bool:
    """True if deleting simplicial vertices, as long as any is left, leaves a
    bipartite graph; then ``g`` has no odd hole.

    A simplicial vertex (its neighbours form a clique) lies on no hole, since
    its two neighbours on the hole would be adjacent, so deleting it keeps
    every hole; and a bipartite graph has no odd cycle.  Chordal graphs peel
    away entirely.  Deleting vertices keeps the others simplicial, so the
    worklist order does not change what is left.
    """
    adj = g.adj
    alive = g.full_mask
    todo = list(range(g.n))
    while todo:
        v = todo.pop()
        if not alive >> v & 1:
            continue
        nbrs = adj[v] & alive
        for u in bits(nbrs):
            if nbrs & ~adj[u] != 1 << u:
                break
        else:
            alive ^= 1 << v
            todo.extend(bits(nbrs))
    # Two-colour the rest by BFS layers: a breadth-first search puts no edge
    # between layers two apart, so an odd cycle shows as an edge inside a layer.
    while alive:
        layer = alive & -alive
        while layer:
            alive &= ~layer
            nxt = 0
            for v in bits(layer):
                if adj[v] & layer:
                    return False
                nxt |= adj[v]
            layer = nxt & alive
    return True


def induced_three_paths(g: Graph) -> list[tuple[int, int, int]]:
    """All induced paths a-x-b with a < b (each returned once)."""
    out = []
    for x in range(g.n):
        nbrs = g.neighbors_of[x]
        for i in range(len(nbrs)):
            a = nbrs[i]
            row = g.adj[a]
            for j in range(i + 1, len(nbrs)):
                b = nbrs[j]
                if not row >> b & 1:
                    out.append((a, x, b))
    return out


def induced_four_paths(g: Graph) -> list[tuple[int, int, int, int]]:
    """All induced paths a-b-c-d, one orientation per path (a < d)."""
    out = []
    adj = g.adj
    for b in range(g.n):
        for c in g.neighbors_of[b]:
            for a in bits(adj[b] & ~adj[c] & ~(1 << c)):
                block = adj[a] | adj[b] | (1 << a) | (1 << b)
                for d in bits(adj[c] & ~block):
                    if a < d:
                        out.append((a, b, c, d))
    return out


class _Search:
    """The search state of one detector call on one graph.

    ``detect`` creates one per call and hands it to every stage: the jewel
    and pyramid searches, the heavy-cleanable sweep and the six staged
    shapes; each public stage called alone creates its own.  It is passed
    explicitly, never kept in module state, so concurrent calls share
    nothing.

    It holds every masked BFS the call runs, keyed by (source, mask), every
    clean-test fallback result, keyed by mask, and two tables built at most
    once: ``closed`` and ``four_paths``.  So it keeps at most one
    :class:`Distances` per BFS the call runs, until the call returns: a list
    of ``n`` integers and the tuple of its layer masks, with its key.  At
    n = 16 that entry is 460 bytes by ``sys.getsizeof``, of which the layers
    are 184.  On the seed-1 benchmark corpora the largest context of a
    ``detect`` call holds 2,179 entries (0.91 MB); on the line graph of 40
    random edges of K10,10 ``classify_candidate`` keeps up to 3,303
    (2.4 MB), the jewel search up to 1,948 of them, and stage 3 far more
    (``docs/derived-types.md``).

    ``bfs_distances`` is looked up in this module at call time, so rebinding
    it here (as an outside tracer does) is honoured.  The entries are shared
    by every caller of the same (source, mask) pair and must not be
    modified.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self._dist: dict[tuple[int, Mask], Distances] = {}
        self._clean: dict[Mask, Optional[tuple[int, ...]]] = {}

    def dist(self, source: int, mask: Mask) -> Distances:
        key = (source, mask)
        d = self._dist.get(key)
        if d is None:
            d = self._dist[key] = bfs_distances(self.g, source, mask)
        return d

    def clean(
        self, mask: Mask, test: Callable[[Graph, Mask], Optional[tuple[int, ...]]]
    ) -> Optional[tuple[int, ...]]:
        """``test(g, mask)``, run once per mask.

        ``test`` is ``cleaning.test_clean`` as the caller looks it up in its
        own module, so that a tracer rebinding it there counts the call; only
        its full results are stored here.
        """
        if mask not in self._clean:
            self._clean[mask] = test(self.g, mask)
        return self._clean[mask]

    @cached_property
    def closed(self) -> list[Mask]:
        """The closed neighbourhood of each vertex, as a bitmask."""
        return [row | 1 << v for v, row in enumerate(self.g.adj)]

    @cached_property
    def four_paths(self) -> list[tuple[int, int, int, int]]:
        """``induced_four_paths(g)``."""
        return induced_four_paths(self.g)
