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

from typing import Iterable, Iterator, Optional, Sequence

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


def bfs_distances(g: Graph, source: int, within: Optional[Mask] = None) -> list[int]:
    """Unweighted distances from ``source`` inside the masked subgraph.

    Returns a list indexed by vertex; unreachable (or out-of-mask) vertices
    get ``UNREACHABLE``.  ``source`` must belong to the mask.
    """
    allowed = g.full_mask if within is None else within
    src_bit = 1 << source
    if not allowed & src_bit:
        raise ValueError(f"source {source} not in mask")
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    adj = g.adj
    seen = src_bit
    frontier = src_bit
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
        for v in bits(frontier):
            dist[v] = d
    return dist


def distance(g: Graph, u: int, v: int, within: Optional[Mask] = None) -> int:
    """Distance between two vertices in the masked subgraph (-1 if none)."""
    return bfs_distances(g, u, within)[v]


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
    rev = [v]
    cur = v
    d = dist[v]
    adj = g.adj
    while d > 0:
        d -= 1
        for w in bits(adj[cur] & allowed):
            if dist[w] == d:
                cur = w
                break
        rev.append(cur)
    rev.reverse()
    return tuple(rev)


def geodesic_mask(du: Sequence[int], dv: Sequence[int], total: int, scope: Mask) -> Mask:
    """The vertices ``w`` of ``scope`` with ``du[w] + dv[w] == total``.

    Only vertices with both distances finite count.  With ``du``, ``dv`` the
    distances from ``u`` and ``v`` and ``total`` their distance, these are
    the vertices on some shortest u-v path.
    """
    out = 0
    for w in bits(scope):
        a = du[w]
        b = dv[w]
        if a != UNREACHABLE and b != UNREACHABLE and a + b == total:
            out |= 1 << w
    return out


def shortest_path_interior_union(
    g: Graph, u: int, v: int, within: Optional[Mask] = None
) -> Mask:
    """Union of the interiors of all shortest u-v paths, as a bitmask.

    This is exactly ``{w != u,v : dist(u,w) + dist(w,v) = dist(u,v)}``;
    empty when u,v are adjacent, equal, or disconnected.
    """
    du = bfs_distances(g, u, within)
    if du[v] == UNREACHABLE:
        return 0
    dv = bfs_distances(g, v, within)
    allowed = g.full_mask if within is None else within
    return geodesic_mask(du, dv, du[v], allowed & ~(1 << u) & ~(1 << v))


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
