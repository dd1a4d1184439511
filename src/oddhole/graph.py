"""Immutable simple graphs with bitmask vertex sets and deterministic BFS.

Vertices are the integers ``0..n-1``.  Subsets of vertices are passed around
as Python int bitmasks (bit ``v`` set means vertex ``v`` is in the set), which
keeps the inner loops of the detectors cheap: unions, intersections and
complements of vertex sets are single big-int operations.

Deleting vertices never renumbers anything.  The BFS accepts a
``within`` mask and simply refuses to leave it, so witnesses found in a
masked subgraph are valid vertex sequences of the original graph.  The one
renumbering is :meth:`Graph.induced`, which returns the map back to the
original ids; ``fast.detect`` searches every leaf of :func:`split_leaves`
as the graph it induces, which is the graph itself when it is its own only
leaf.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

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
        the subgraph is vertex ``back[i]`` of this graph.  On the full mask
        the subgraph is this graph itself, as graphs are immutable.
        """
        if mask == self.full_mask:
            return self, tuple(range(self.n))
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
    distance as bitmasks (see :class:`Distances`).  ``source`` must be a
    vertex of ``g`` inside the mask, or ``ValueError`` is raised.
    """
    allowed = g.full_mask if within is None else within
    src_bit = 1 << source
    if not g.full_mask & allowed & src_bit:
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


def _in_graph(g: Graph, seq: Sequence[int]) -> bool:
    """Every vertex id of ``seq`` is one of ``0..n-1``."""
    return all(0 <= v < g.n for v in seq)


def is_induced_path(g: Graph, seq: Sequence[int]) -> bool:
    """True iff ``seq`` is an induced path of ``g``.

    Consecutive vertices must be adjacent; every non-consecutive pair must be
    non-adjacent; repeated vertices and vertices outside the graph are
    rejected.  A single vertex is a (trivial) induced path.
    """
    k = len(seq)
    if k == 0 or len(set(seq)) != k or not _in_graph(g, seq):
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
    """True iff ``cycle`` is a chordless cycle of length at least four.

    Repeated vertices and vertices outside the graph are rejected.
    """
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k or not _in_graph(g, cycle):
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


def certifies_berge(g: Graph, within: Optional[Mask] = None) -> bool:
    """True if peeling ``g`` (or the graph it induces on ``within``) leaves a
    bipartite or a co-bipartite graph; then it has no odd hole and no odd
    antihole.  The test is :func:`_peeled_rest`.
    """
    return not _peeled_rest(g, within)


def _peeled_rest(g: Graph, within: Optional[Mask] = None) -> Mask:
    """0 if :func:`certifies_berge` certifies the mask; else what the
    simplicial pass leaves of it, which is not empty.

    First simplicial vertices (their neighbours form a clique) are deleted
    as long as any is left, and a bipartite rest is certified.  Chordal
    graphs peel away entirely.  Otherwise simplicial and co-simplicial
    vertices (their non-neighbours are pairwise non-adjacent) are deleted
    as long as any is left, and a rest that is bipartite or co-bipartite
    (two cliques cover it) is certified.  So bipartite and chordal inputs
    pay nothing for the second pass, and co-chordal inputs peel away in it.

    Each step is exact.  A simplicial vertex lies on no hole, since its two
    neighbours on the hole would be adjacent.  A co-simplicial vertex ``v``
    lies on no hole ``v c1 c2 c3 ...`` of length five or more, since its
    non-neighbours ``c2`` and ``c3`` are adjacent.  So deleting either kind
    keeps every odd hole.  A bipartite graph has no odd cycle, and two
    cliques meet a hole of length five or more in at most two vertices each,
    so a co-bipartite graph has no such hole either.  The two kinds of
    vertex, and the two kinds of rest, swap under complementation, so the
    answer for ``g`` is the answer for its complement, and a certified graph
    has no odd antihole either: it is Berge.

    Every property the test uses is hereditary: a vertex simplicial or
    co-simplicial in a graph stays so in every induced subgraph that keeps
    it, and an induced subgraph of a bipartite or co-bipartite graph is one
    too.  So deleting vertices keeps the others deletable, the worklist
    order does not change what is left, and every sub-mask of a certified
    mask is certified.

    The rest of the simplicial pass has no simplicial vertex, and has five
    vertices or more, as a graph on four or fewer is chordal or a 4-cycle.
    :func:`split_leaves` splits it, and ``fast.detect`` searches it.
    """
    adj = g.adj
    alive = g.full_mask if within is None else within
    todo = alive
    while todo:  # bits() inlined in this function: stage 0 runs it on every graph
        low = todo & -todo
        todo ^= low
        nbrs = adj[low.bit_length() - 1] & alive
        rest = nbrs
        while rest:  # is nbrs a clique? each vertex against the later ones
            high = rest & -rest
            rest ^= high
            if rest & ~adj[high.bit_length() - 1]:
                break
        else:
            alive ^= low
            todo |= nbrs
    if _two_colours(adj, alive, 0):
        return 0
    # The second pass.  No vertex left is simplicial, so each is tested for
    # a stable non-neighbourhood only; deleting ``v`` can make a neighbour
    # of ``v`` simplicial or a non-neighbour co-simplicial, so those are
    # queued.  ``flip`` turns the clique test into the stable-set test.
    peeled = alive
    co_todo, todo = alive, 0
    while co_todo or todo:
        if co_todo:
            low = co_todo & -co_todo
            co_todo ^= low
            side = alive & ~adj[low.bit_length() - 1] ^ low
            flip = 0
        else:
            low = todo & -todo
            todo ^= low
            side = adj[low.bit_length() - 1] & alive
            flip = -1
        rest = side
        while rest:
            high = rest & -rest
            rest ^= high
            if rest & (adj[high.bit_length() - 1] ^ flip):
                break
        else:
            alive ^= low
            nbrs = adj[low.bit_length() - 1] & alive
            todo = (todo | nbrs) & alive
            co_todo = (co_todo | alive & ~nbrs) & alive
    if alive != peeled and _two_colours(adj, alive, 0) or _two_colours(adj, alive, -1):
        return 0
    return peeled


def _two_colours(adj: Sequence[Mask], alive: Mask, flip: int) -> bool:
    """True if the graph on ``alive`` is bipartite; with ``flip`` -1, if its
    complement is (rows are read as ``adj[v] ^ flip``, so the complement is
    never built).

    A breadth-first search puts no edge between layers two apart, so an odd
    cycle shows as an edge inside a layer.
    """
    while alive:
        layer = alive & -alive
        while layer:
            alive &= ~layer
            nxt = 0
            rest = layer
            while rest:  # each vertex of the layer against the later ones
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1] ^ flip
                if row & rest:
                    return False
                nxt |= row
            layer = nxt & alive
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
    """Vertex masks of the leaves of the peel, component, co-component and
    twin split; ``[]`` if ``g`` has no odd hole on these grounds alone.

    Each mask taken (the whole graph first, then each piece that a split
    makes) is peeled by :func:`_peeled_rest`: a certified mask is dropped,
    and otherwise only what its simplicial pass leaves goes on.  A peeled
    mask that is disconnected splits into its components; otherwise, one
    whose complement is disconnected splits into its co-components;
    otherwise every vertex with a twin of lower id (the same open or closed
    neighbourhood inside the mask) is dropped and the rest splits again.  A
    mask that none of the three changes is a leaf: uncertified, with no
    simplicial vertex, connected, co-connected and twin-free, and so of
    five vertices or more.  Leaves come depth first, each split's pieces in
    the order of their lowest ids.  A certified graph costs one peel and
    no list but the empty answer.

    ``g`` has an odd hole iff some leaf induces one.  A certified mask and
    the vertices that a peel deletes lie on no odd hole (``_peeled_rest``).
    A hole of length five or more is connected and so is its complement,
    so it lies inside one component and inside one co-component.  It holds
    at most one vertex of a twin pair: true twins on it would close a
    triangle, false twins a 4-cycle.  So a hole through a dropped vertex
    ``v`` stays a hole when ``v`` is replaced by its twin of lowest id,
    which is kept and has the same neighbours off ``v`` (substitution:
    Lovász's replication lemma, 1972, and Gallai's modular decomposition,
    1967).  A vertex ``v`` has twins of one kind only: a true twin ``w`` and
    a false twin ``u`` would put ``w`` in ``N(v) = N(u)`` and so ``u`` in
    ``N[w] = N[v]``.  So each twin class keeps its lowest id.

    Only the simplicial pass shrinks what is searched, because stages 1-2
    then return the same witness on the rest as on the mask.  A vertex
    ``s`` simplicial in the mask (its neighbours pairwise adjacent) lies on
    none of these, as each would give it two non-adjacent neighbours:

    - the interior of an induced path, or of a path that
      ``walk_down`` reads off a BFS (a shortest path), so every distance
      between other vertices, and every walk, is the same without ``s``;
    - a hole;
    - an end of a four-path that can step off it, as the sweep asks of both
      ends (``cleaning._sweep``);
    - a pyramid: the apex sees three pairwise non-adjacent vertices, a base
      vertex sees another base vertex and the next vertex up its leg, and
      the rest lie inside legs;
    - a jewel ring ``v1..v5`` that passes the loop tests of
      ``configs._jewel``: ``v1`` sees ``v2`` and a neighbour outside
      ``N[v2]``, ``v2`` sees ``v1`` and ``v3``, ``v3`` sees ``v2`` and
      ``v4``, ``v4`` sees ``v3`` and a neighbour outside ``N[v3]``, and
      ``v5`` sees ``v4`` and ``v1``.

    A guess whose prune passes only because of ``s`` (say ``s`` is the one
    neighbour that lets ``v1`` step off) is followed by a BFS that finds no
    path, since every path it could find runs through ``s``.  So a guess
    that meets ``s`` returns nothing, every other guess meets the same
    masks less ``s``, and :meth:`Graph.induced` keeps the id order, so
    every lowest-id tie-break, and the first hit, is unchanged.  Deleting
    the simplicial pass's vertices one at a time, each simplicial in what
    is left, gives the rest.  A co-simplicial vertex, by contrast, can lie
    inside a shortest path of length four or less, and searching the rest
    of both passes changes witnesses, so those deletions only certify.
    """
    leaves = []
    todo = [g.full_mask]
    while todo:
        mask = _peeled_rest(g, todo.pop())
        if not mask:
            continue
        parts = _pieces(g, mask, False)
        if len(parts) == 1:
            parts = _pieces(g, mask, True)
        if len(parts) == 1:
            kept = _drop_twins(g, mask)
            if kept == mask:
                leaves.append(mask)
                continue
            parts = [kept]
        todo.extend(reversed(parts))
    return leaves


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


def _has_stable_triple(mask: Mask, closed: list[Mask]) -> bool:
    """True if three vertices of ``mask`` are pairwise non-adjacent.

    ``closed`` holds each vertex's closed neighbourhood.  With ``mask`` a
    vertex's row, the answer says whether that vertex is a claw centre.
    """
    # bits() inlined twice, which made the claw-centre mask four times faster:
    # over each u in mask, then each w above u that misses u, for an x above w
    # that misses both
    while mask:
        low = mask & -mask
        mask ^= low
        rest = mask & ~closed[low.bit_length() - 1]
        while rest:
            low = rest & -rest
            rest ^= low
            if rest & ~closed[low.bit_length() - 1]:
                return True
    return False


class _Search:
    """The search state of one detector call on one graph.

    ``detect`` creates one per leaf of :func:`split_leaves` and hands it to
    every stage: the jewel and pyramid searches, the heavy-cleanable sweep
    and, on a graph with a claw, the six staged shapes.  The graph it
    searches is the leaf's induced graph, which is the input graph itself
    when that is its own only leaf.  The leaves are searched in turn, so one
    is alive at a time.  Each public stage called alone creates its own.
    It is passed explicitly, never kept in module state, so concurrent
    calls share nothing.

    It holds every masked BFS the call runs, keyed by (source, mask), in
    ``cleaned`` every clean-test fallback result, keyed by mask
    (``cleaning._clean`` fills it), and five tables, each built
    at most once, on its first read: ``closed``, which the jewel and pyramid
    searches and the path tables read; ``claw_centres``, which the pyramid
    search and ``fast.detect``'s claw-free exit read; ``four_paths``, which
    the sweep walks; ``live_paths``, the part of it that shapes 3-6 search;
    and ``three_paths``, which shapes 1-2 search.  ``four_paths`` and
    ``three_paths`` make their exact mask tests while they list, so a path
    on which no reader could find a hole is never listed.  ``edge_cuts``
    holds, per edge, keyed by the mask of its two ends, the list of shape
    1-2 guesses left on it, which ``fast._edge_cuts`` fills on the edge's
    first use and both shapes read in both orientations.

    It keeps at most one :class:`Distances` per BFS the call runs, until
    the call returns: a list of ``n`` integers and the tuple of its layer
    masks, with its key.  At n = 16 that entry is 460 bytes by
    ``sys.getsizeof``, of which the layers are 184.  On the seed-1 benchmark
    corpora the largest context of a ``detect`` call holds 57 entries
    (0.03 MB).  Stage 3 is where a context grows: on the line graph of 24
    random edges of K6,6 (``perfbench.corpora.line_graph_of_bipartite(6, 6,
    24, random.Random(0))``) ``detect`` stops after stage 2 with 596
    entries (0.4 MB), as the graph is claw-free, while ``fast.detect_fast``
    ends with 238,995 entries and 7,751 guesses over 76 edges (139 MB;
    ``docs/derived-types.md``).

    ``bfs_distances`` is looked up in this module at call time, so rebinding
    it here (as an outside tracer does) is honoured.  The entries are shared
    by every caller of the same (source, mask) pair and must not be
    modified.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self._dist: dict[tuple[int, Mask], Distances] = {}
        self.cleaned: dict[Mask, Optional[tuple[int, ...]]] = {}
        self.edge_cuts: dict[Mask, list[tuple[int, int, Mask, Mask, Mask, Mask]]] = {}

    def dist(self, source: int, mask: Mask) -> Distances:
        key = (source, mask)
        d = self._dist.get(key)
        if d is None:
            d = self._dist[key] = bfs_distances(self.g, source, mask)
        return d

    @cached_property
    def closed(self) -> list[Mask]:
        """The closed neighbourhood of each vertex, as a bitmask."""
        return [row | 1 << v for v, row in enumerate(self.g.adj)]

    @cached_property
    def claw_centres(self) -> Mask:
        """The vertices with three pairwise non-adjacent neighbours.

        Each is the centre of an induced K1,3.  A pyramid's apex is one, so
        the pyramid search tries no other apex; and on a graph with none,
        ``fast.detect`` stops after stage 2 (``docs/derived-types.md``).
        """
        closed = self.closed
        return mask_of(a for a, row in enumerate(self.g.adj) if _has_stable_triple(row, closed))

    @cached_property
    def four_paths(self) -> list[tuple[int, int, int, int, Mask]]:
        """The induced four-paths whose sweep mask has five or more vertices.

        Each entry is ``(p1, p2, p3, p4, rest)`` with ``rest = V - (N[p2] |
        N[p3])``.  For a path ``p1-p2-p3-p4`` the sweep mask drops every
        neighbour of ``p2`` or ``p3`` off the path, so it is ``rest`` plus
        the path; this table is the one place that computes it.  The paths
        are listed middle edge first, as ``induced_four_paths`` lists them
        and in its order, and a middle edge with an empty ``rest`` is
        skipped whole: each path on it has a mask of four vertices, which
        holds no odd hole.
        """
        g = self.g
        full, adj, closed = g.full_mask, g.adj, self.closed
        out = []
        for b in range(g.n):
            off_b = full & ~closed[b]
            for c in bits(adj[b]):
                rest = off_b & ~closed[c]
                if not rest:
                    continue
                for a in bits(adj[b] & ~closed[c]):
                    for d in bits(adj[c] & ~(closed[a] | closed[b]) >> (a + 1) << (a + 1)):
                        out.append((a, b, c, d, rest))
        return out

    @cached_property
    def three_paths(self) -> list[tuple[int, int, int, Mask, Mask, Mask]]:
        """The induced paths ``d1-x-d2`` whose ends can both step off the path.

        Each entry is ``(d1, x, d2, trip, a1, a2)``: ``trip`` is the path's
        vertex mask, ``a1`` the neighbours of ``d1`` outside ``N[x] | N[d2]``
        and ``a2`` those of ``d2`` outside ``N[x] | N[d1]``.  The list is
        ``induced_three_paths`` (``d1 < d2``), in its order, less the paths
        on which either is empty.  Shapes 1-2 can close no hole on those.
        """
        adj, closed = self.g.adj, self.closed
        out = []
        for a, x, b in induced_three_paths(self.g):
            a1 = adj[a] & ~(closed[x] | closed[b])
            a2 = adj[b] & ~(closed[x] | closed[a])
            if a1 and a2:
                out.append((a, x, b, 1 << a | 1 << x | 1 << b, a1, a2))
        return out

    @cached_property
    def live_paths(self) -> list[tuple[int, int, int, int, Mask]]:
        """The four-paths ``p1-p2-p3-p4`` whose sweep mask may hold an odd hole.

        The sweep mask, which ``cleaning._sweep`` scans from ``p2``, is
        ``rest`` plus the path.  An entry of ``four_paths`` (whose masks have
        five or more vertices) is kept as it is, in its order, when
        :func:`certifies_berge` does not certify the mask.
        Every hole that shapes 3-6 can return from a guess on the path lies
        in that mask, so the others cannot close one
        (``docs/derived-types.md``).  Only those shapes read it; the sweep,
        which decides most positives early, walks every path of
        ``four_paths`` and would pay for a test on each first.  Four-paths
        on one middle edge often share a mask, so each distinct mask is
        tested once.
        """
        g = self.g
        certified: dict[Mask, bool] = {}
        out = []
        for p in self.four_paths:
            p1, p2, p3, p4, rest = p
            within = rest | (1 << p1) | (1 << p2) | (1 << p3) | (1 << p4)
            if within not in certified:
                certified[within] = certifies_berge(g, within)
            if not certified[within]:
                out.append(p)
        return out
