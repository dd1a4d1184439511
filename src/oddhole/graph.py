"""Immutable simple graphs with bitmask vertex sets and deterministic BFS.

Vertices are the integers ``0..n-1``.  Subsets of vertices are passed around
as Python int bitmasks (bit ``v`` set means vertex ``v`` is in the set), which
keeps the inner loops of the detectors cheap: unions, intersections and
complements of vertex sets are single big-int operations.

Deleting vertices never renumbers anything.  The BFS accepts a
``within`` mask and simply refuses to leave it, so witnesses found in a
masked subgraph are valid vertex sequences of the original graph.  The one
renumbering is :meth:`Graph.induced`, which returns the map back to the
original ids; ``fast.detect`` takes it for the leaves of :func:`split_leaves`
and the atoms of :func:`clique_cutset_atoms`.
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

    Adjacency is one bitmask row per vertex: ``adj[v]`` has bit ``u`` set
    iff ``uv`` is an edge, and :func:`bits` walks a row.  Instances are
    immutable and hashable; the hash is computed on demand.
    """

    __slots__ = ("n", "adj", "full_mask")

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

    def _init_from_rows(self, n: int, rows: Sequence[int]) -> None:
        self.n = n
        self.adj = tuple(rows)
        self.full_mask = (1 << n) - 1

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[int]) -> "Graph":
        """Build from adjacency bitmask rows (must already be symmetric)."""
        g = object.__new__(cls)
        g._init_from_rows(n, rows)
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
        for u, row in enumerate(self.adj):
            rows[perm[u]] = mask_of(perm[v] for v in bits(row))
        return Graph.from_rows(self.n, rows)

    def induced(self, mask: Mask) -> tuple["Graph", tuple[int, ...]]:
        """The subgraph induced on ``mask``, and its back map.

        The vertices of ``mask`` are renumbered ``0..k-1`` in increasing id
        order, so every lowest-id tie-break keeps its order; vertex ``i`` of
        the subgraph is vertex ``back[i]`` of this graph.
        """
        back = tuple(bits(mask))
        pos = {v: i for i, v in enumerate(back)}
        rows = [mask_of(pos[u] for u in bits(self.adj[v] & mask)) for v in back]
        return Graph.from_rows(len(back), rows), back

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def neighbourhood(g: Graph, mask: Mask) -> Mask:
    """Every vertex with a neighbour in ``mask``: the union of its rows."""
    adj = g.adj
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


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


def shortest_path(g: Graph, u: int, v: int) -> Optional[tuple[int, ...]]:
    """A deterministic shortest u-v path.

    Ties are broken by always stepping to the lowest-id predecessor, so the
    result depends only on the graph and the endpoints.  Any returned path
    is induced (a chord would yield a shorter path).
    """
    if not g.full_mask >> v & 1:
        raise ValueError(f"target {v} not in the graph")
    dist = bfs_distances(g, u)
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


def is_induced_path(g: Graph, seq: Sequence[int]) -> bool:
    """True iff ``seq`` is an induced path of ``g``.

    Consecutive vertices must be adjacent; every non-consecutive pair must be
    non-adjacent; repeated vertices and vertices outside the graph are
    rejected.  A single vertex is a (trivial) induced path.
    """
    k = len(seq)
    if k == 0 or len(set(seq)) != k or mask_of(seq) & ~g.full_mask:
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


def peels_to_bipartite(g: Graph, within: Optional[Mask] = None) -> bool:
    """True if deleting simplicial vertices, as long as any is left, leaves a
    bipartite graph; then ``g`` (or the graph it induces on ``within``) has
    no odd hole.

    A simplicial vertex (its neighbours form a clique) lies on no hole, since
    its two neighbours on the hole would be adjacent, so deleting it keeps
    every hole; and a bipartite graph has no odd cycle.  Chordal graphs peel
    away entirely.  Deleting vertices keeps the others simplicial, so the
    worklist order does not change what is left.  The test is hereditary:
    a vertex simplicial in a graph stays simplicial in every induced
    subgraph that keeps it, and a subgraph of a bipartite graph is
    bipartite, so every sub-mask of a mask that peels peels too.
    """
    adj = g.adj
    alive = g.full_mask if within is None else within
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


def _is_clique(g: Graph, mask: Mask) -> bool:
    adj = g.adj
    for v in bits(mask):
        if mask & ~adj[v] != 1 << v:
            return False
    return True


def _component(g: Graph, v: int, within: Mask, co: bool = False) -> Mask:
    """The vertices that ``v`` reaches inside ``within`` (``v`` included).

    With ``co`` it is the component of ``v`` in the complement of ``g``:
    each step reaches the vertices of ``within`` that miss some frontier
    vertex, ``within & ~AND(rows)``, so the complement is never built.
    """
    adj = g.adj
    comp = frontier = 1 << v
    while frontier:
        if co:
            common = within
            rest = frontier
            while rest:  # bits(frontier), inlined as in neighbourhood
                low = rest & -rest
                common &= adj[low.bit_length() - 1]
                rest ^= low
            frontier = within & ~common & ~comp
        else:
            frontier = neighbourhood(g, frontier) & within & ~comp
        comp |= frontier
    return comp


def _pieces(g: Graph, mask: Mask, co: bool) -> list[Mask]:
    """The components (with ``co``, the co-components) of ``mask``, by lowest id."""
    out = []
    rest = mask
    while rest:
        piece = _component(g, (rest & -rest).bit_length() - 1, rest, co)
        out.append(piece)
        rest ^= piece
    return out


def _drop_twins(g: Graph, mask: Mask) -> Mask:
    """``mask`` less every vertex whose open or closed neighbourhood inside
    ``mask`` repeats that of a lower-id vertex.

    One set holds both rows of every kept vertex, as an open row ``N(u)``
    never equals a closed row ``N[v]``: ``v`` would lie in ``N(u)``, so
    ``u`` would lie in ``N[v] = N(u)``, a loop.
    """
    adj = g.adj
    seen = set()
    kept = rest = mask
    while rest:  # bits(mask), inlined: this runs on every graph detect searches
        low = rest & -rest
        rest ^= low
        row = adj[low.bit_length() - 1] & mask
        closed = row | low
        if row in seen or closed in seen:
            kept ^= low
        else:
            seen.add(row)
            seen.add(closed)
    return kept


def split_leaves(g: Graph) -> list[Mask]:
    """Vertex masks of the leaves of the component, co-component and twin split.

    A mask that is disconnected splits into its components; otherwise, one
    whose complement is disconnected splits into its co-components;
    otherwise every vertex with a twin of lower id (the same open or closed
    neighbourhood inside the mask) is dropped and the rest splits again.  A
    mask that none of the three changes is a leaf: connected, co-connected
    and twin-free.  Masks of fewer than five vertices are dropped.  Leaves
    come depth first, each split's pieces in the order of their lowest ids.

    ``g`` has an odd hole iff some leaf induces one.  A hole of length five
    or more is connected and so is its complement, so it lies inside one
    component and inside one co-component.  It holds at most one vertex of
    a twin pair: true twins on it would close a triangle, false twins a
    4-cycle.  So a hole through a dropped vertex ``v`` stays a hole when
    ``v`` is replaced by its twin of lowest id, which is kept and has the
    same neighbours off ``v`` (substitution: Lovász's replication lemma,
    1972, and Gallai's modular decomposition, 1967).  A vertex ``v`` has
    twins of one kind only: a true twin ``w`` and a false twin ``u`` would
    put ``w`` in ``N(v) = N(u)`` and so ``u`` in ``N[w] = N[v]``.  So each
    twin class keeps its lowest id.  An odd hole has at least five
    vertices.
    """
    leaves = []
    todo = [g.full_mask]
    while todo:
        mask = todo.pop()
        if mask.bit_count() < 5:
            continue
        parts = _pieces(g, mask, False)
        if len(parts) == 1:
            parts = _pieces(g, mask, True)
        if len(parts) > 1:
            todo.extend(reversed(parts))
            continue
        kept = _drop_twins(g, mask)
        if kept == mask:
            leaves.append(mask)
        else:
            todo.append(kept)
    return leaves


def _minimal_elimination(g: Graph) -> tuple[list[int], list[Mask]]:
    """An MCS-M elimination ordering and each vertex's later neighbours.

    MCS-M (Berry, Blair, Heggernes, Peyton, "Maximum cardinality search for
    computing minimal triangulations", 2004) numbers the vertices from last
    to first, each time the unnumbered vertex of largest weight (lowest id
    on ties).  Numbering ``v`` raises the weight of every unnumbered ``u``
    that ``v`` reaches by a path whose inner vertices are unnumbered and
    lighter than ``u``; ``uv`` is then an edge of the minimal triangulation
    the ordering eliminates, and ``v`` is eliminated after ``u``.  Returns
    the elimination order and, for each vertex, the mask of its neighbours
    in the triangulation that are eliminated after it.
    """
    adj = g.adj
    later = [0] * g.n
    level = [g.full_mask]  # level[w]: the unnumbered vertices of weight w
    picked = []
    for _ in range(g.n):
        while not level[-1]:
            level.pop()
        v = (level[-1] & -level[-1]).bit_length() - 1
        level[-1] ^= 1 << v
        picked.append(v)
        # ``near``: the neighbours of v and of ``inner``, the vertices that v
        # reaches through vertices lighter than the current weight alone
        near = adj[v]
        inner = lighter = 0
        raised = []
        for w, members in enumerate(level):
            frontier = near & lighter & ~inner
            while frontier:
                inner |= frontier
                near |= neighbourhood(g, frontier)
                frontier = near & lighter & ~inner
            if near & members:
                raised.append((w, near & members))
            lighter |= members
        for w, hit in raised:
            level[w] ^= hit
            if w + 1 == len(level):
                level.append(0)
            level[w + 1] |= hit
            for u in bits(hit):
                later[u] |= 1 << v
    picked.reverse()
    return picked, later


def clique_cutset_atoms(g: Graph) -> list[Mask]:
    """Vertex masks of the atoms of a clique-separator decomposition of ``g``.

    The atoms cover the vertices, each induces a subgraph with no clique
    cutset (disconnected pieces are split too, on the empty clique), and
    every hole of ``g`` lies inside one of them: a clique meets a hole in at
    most one edge, so no hole crosses a clique cutset.  It is Tarjan's step
    ("Decomposition by clique separators", 1985) on an MCS-M ordering: for
    each vertex ``x`` left, in elimination order, ``S`` is its later
    neighbours in the triangulation that are still left; if ``S`` is a
    clique of ``g`` and the component ``C`` of the rest minus ``S`` that
    holds ``x`` leaves some vertex outside ``C | S``, then ``C | S`` is an
    atom and ``C`` leaves the rest.  The rest is the last atom.  An atom
    may be a clique inside an earlier atom's ``S``.

    Across a clique cutset every two vertices on opposite sides are
    non-adjacent and their common neighbours lie in the cutset, so a graph
    in which no non-adjacent pair has a clique as its common neighbourhood
    is one atom.  That is tested first, one clique test per non-adjacent
    pair, and the ordering is taken only if the test passes.

    ``fast.detect`` hands it only connected graphs (the leaves of
    :func:`split_leaves`, or a graph that is its own leaf), so there the
    empty clique never splits anything.
    """
    adj = g.adj
    full = g.full_mask
    if not any(_is_clique(g, adj[a] & adj[b])
               for a in range(g.n) for b in bits(full & ~adj[a] >> (a + 1) << (a + 1))):
        return [full]
    order, later = _minimal_elimination(g)
    atoms = []
    rest = full
    for x in order:
        if not rest >> x & 1:
            continue
        sep = later[x] & rest
        if not _is_clique(g, sep):
            continue
        comp = _component(g, x, rest & ~sep)
        if rest & ~(comp | sep):
            atoms.append(comp | sep)
            rest &= ~comp
    atoms.append(rest)
    return atoms


def induced_three_paths(g: Graph) -> list[tuple[int, int, int]]:
    """All induced paths a-x-b with a < b (each returned once)."""
    out = []
    adj = g.adj
    for x, rest in enumerate(adj):
        while rest:  # lowest bit first, as in bfs_distances: faster than bits() here
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            far = rest & ~adj[a]
            while far:
                low = far & -far
                far ^= low
                out.append((a, x, low.bit_length() - 1))
    return out


def induced_four_paths(g: Graph) -> list[tuple[int, int, int, int]]:
    """All induced paths a-b-c-d, one orientation per path (a < d)."""
    out = []
    adj = g.adj
    for b in range(g.n):
        for c in bits(adj[b]):
            for a in bits(adj[b] & ~adj[c] & ~(1 << c)):
                block = adj[a] | adj[b] | (1 << a) | (1 << b)
                for d in bits(adj[c] & ~block):
                    if a < d:
                        out.append((a, b, c, d))
    return out


class _Search:
    """The search state of one detector call on one graph.

    ``detect`` creates one per graph it searches and hands it to every
    stage: the jewel and pyramid searches, the heavy-cleanable sweep and,
    on a graph with no clique cutset, the six staged shapes.  The graph it
    searches is the whole graph if :func:`split_leaves` leaves it whole,
    and otherwise each leaf in turn, on the leaf's induced graph; the whole
    graph then gets none.  On a graph with a clique cutset it creates one
    more for each atom it searches, on the atom's induced graph, which the
    atom's sweep and shapes share.  So at most two are alive at a time: one
    leaf's (or the whole graph's) and one atom's.  Each public stage called
    alone creates its own.  It is passed explicitly, never kept in module
    state, so concurrent calls share nothing.

    It holds every masked BFS the call runs, keyed by (source, mask), every
    clean-test fallback result, keyed by mask, and four tables, each built
    at most once, on its first read: ``closed``, which the jewel and pyramid
    searches and the path tables read; ``four_paths``, which the sweep of a
    whole graph walks; ``live_paths``, the part of it that an atom's sweep
    and shapes 3-6 search; and ``three_paths``, which shapes 1-2 search.
    ``four_paths`` and ``three_paths`` make their exact mask tests while
    they list, so a path on which no reader could find a hole is never
    listed.  ``edge_cuts`` holds, per edge, keyed by the mask of its two
    ends, the list of shape 1-2 guesses left on it, which
    ``fast._edge_cuts`` fills on the edge's first use and both shapes read
    in both orientations.  On the line graph of 24 random edges of K6,6
    (``perfbench.corpora.line_graph_of_bipartite(6, 6, 24,
    random.Random(0))``) it ends with 7,751 guesses over 76 edges, next to
    239,556 BFS entries (247,835 before the lists' component test).  So it
    keeps at most one :class:`Distances` per BFS the call runs, until the
    call returns: a list of ``n`` integers and the tuple of its layer masks,
    with its key.  At n = 16 that entry is 460 bytes by ``sys.getsizeof``,
    of which the layers are 184.  On the seed-1 benchmark corpora the
    largest context of a ``detect`` call holds 1,027 entries (0.51 MB;
    1,313 before shapes 1-2 dropped the guesses with no ``d1``-``d2`` path,
    1,971 before shapes 3-6 skipped the dead four-paths); on the line graph
    of 40 random edges of K10,10 ``classify_candidate`` keeps 1,355-1,400
    (1.1 MB; 3,079-3,303 before the jewel's mask tests), the jewel search
    none of them (1,710-1,948 before), and stage 3 far more
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
        self.edge_cuts: dict[Mask, list[tuple[int, int, Mask, Mask, Mask, Mask]]] = {}

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
        """The induced four-paths whose sweep mask has five or more vertices.

        For a path ``p1-p2-p3-p4`` the sweep mask drops every neighbour of
        ``p2`` or ``p3`` off the path, so it is the path plus ``V - (N[p2]
        | N[p3])``.  The paths are listed middle edge first, as
        ``induced_four_paths`` lists them and in its order, and a middle
        edge that leaves no vertex outside ``N[p2] | N[p3]`` is skipped
        whole: each path on it has a mask of four vertices, which holds no
        odd hole.
        """
        g = self.g
        full, adj, closed = g.full_mask, g.adj, self.closed
        out = []
        for b in range(g.n):
            rest = full & ~closed[b]
            for c in bits(adj[b]):
                if not rest & ~closed[c]:
                    continue
                for a in bits(adj[b] & ~closed[c]):
                    for d in bits(adj[c] & ~(closed[a] | closed[b]) >> (a + 1) << (a + 1)):
                        out.append((a, b, c, d))
        return out

    @cached_property
    def three_paths(self) -> list[tuple[int, int, int, Mask, Mask, Mask]]:
        """The induced paths ``d1-x-d2`` whose ends can both step off the path.

        Each entry is ``(d1, x, d2, trip, a1, a2)``: ``trip`` is the path's
        vertex mask, ``a1`` the neighbours of ``d1`` outside ``N[x] | N[d2]``
        and ``a2`` those of ``d2`` outside ``N[x] | N[d1]``.  A path is kept,
        in the order of ``induced_three_paths`` (``d1 < d2``), when both are
        non-empty; only the neighbours of ``x`` with a neighbour outside
        ``N[x]`` are paired.  Shapes 1-2 can close no hole on the others.
        """
        adj, closed = self.g.adj, self.closed
        out = []
        for x, row in enumerate(adj):
            cx = closed[x]
            ends = 0
            while row:  # lowest bit first, as in induced_three_paths: faster than bits() here
                low = row & -row
                row ^= low
                if adj[low.bit_length() - 1] & ~cx:
                    ends |= low
            while ends:
                low = ends & -ends
                ends ^= low
                a = low.bit_length() - 1
                step_a = adj[a] & ~cx
                far = ends & ~adj[a]
                while far:
                    high = far & -far
                    far ^= high
                    b = high.bit_length() - 1
                    a1 = step_a & ~closed[b]
                    a2 = adj[b] & ~(cx | closed[a])
                    if a1 and a2:
                        out.append((a, x, b, low | high | 1 << x, a1, a2))
        return out

    @cached_property
    def live_paths(self) -> list[tuple[int, int, int, int]]:
        """The four-paths ``p1-p2-p3-p4`` whose sweep mask may hold an odd hole.

        The sweep mask, which ``cleaning._sweep`` scans from ``p2``, drops
        every neighbour of ``p2`` or ``p3`` off the path.  A path of
        ``four_paths`` (whose masks have five or more vertices) is kept, in
        its order, when the mask does not peel to bipartite.  Every hole
        that shapes 3-6 can return from a guess on the path lies in that
        mask, so the others cannot close one (``docs/derived-types.md``).
        Those shapes read it, and so does the sweep of an atom, whose shapes
        read it right after; the sweep of a whole graph, which decides most
        positives early, walks every path of ``four_paths`` and would pay
        for a peel on each first.
        """
        g = self.g
        full, adj = g.full_mask, g.adj
        out = []
        for p in self.four_paths:
            p1, p2, p3, p4 = p
            four = (1 << p1) | (1 << p2) | (1 << p3) | (1 << p4)
            if not peels_to_bipartite(g, full & ~((adj[p2] | adj[p3]) & ~four)):
                out.append(p)
        return out
