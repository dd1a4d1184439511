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

    def induced(self, mask: Mask) -> tuple["Graph", tuple[int, ...]]:
        """The subgraph induced on ``mask``, and its back map.

        The vertices of ``mask`` are renumbered ``0..k-1`` in increasing id
        order, so every lowest-id tie-break keeps its order; vertex ``i`` of
        the subgraph is vertex ``back[i]`` of this graph.  On the full mask
        the subgraph is this graph itself, as graphs are immutable.
        """
        if mask == self.full_mask:
            return self, tuple(range(self.n))
        # Each run of consecutive ids in the mask moves down by one shift:
        # the count of ids below it that the mask leaves out.
        runs = []
        back: list[int] = []
        rest = mask
        while rest:
            low = rest & -rest
            run = rest & ~(rest + low)  # the carry of + low clears exactly the lowest run
            start = low.bit_length() - 1
            runs.append((run, start - len(back)))
            back.extend(range(start, start + run.bit_count()))
            rest ^= run
        rows = [0] * len(back)
        adj = self.adj
        for run, shift in runs:
            for i, v in enumerate(back):
                rows[i] |= (adj[v] & run) >> shift
        return Graph.from_rows(len(back), rows), tuple(back)

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


def _chordless(g: Graph, seq: Sequence[int], closed: bool, anti: bool = False) -> bool:
    """True iff ``seq`` lists distinct vertices of ``g``, and each one's row
    meets the mask of ``seq`` in exactly its neighbours along ``seq``; with
    ``closed``, the two ends count as neighbours of each other too.  With
    ``anti`` the rows are those of the complement, read off ``g``'s rows
    inside the mask, so no complement is built.

    An id outside ``0..n-1`` gives False, never a lookup.  So ``seq`` is an
    induced path, or with ``closed`` a chordless cycle: one mask test per
    vertex stands for the pairwise tests of edges and non-edges.
    """
    n, adj = g.n, g.adj
    if not all(0 <= v < n for v in seq):
        return False
    mask = mask_of(seq)
    if mask.bit_count() != len(seq):
        return False
    bit = [1 << v for v in seq]
    ends = (bit[-1], bit[0]) if closed else (0, 0)
    near = [ends[0], *bit, ends[1]]  # near[i] | near[i + 2]: the neighbours of seq[i]
    for i, v in enumerate(seq):
        row = adj[v] & mask
        if anti:
            row ^= mask ^ bit[i]  # the non-neighbours of v in the mask
        if row != near[i] | near[i + 2]:
            return False
    return True


def is_induced_path(g: Graph, seq: Sequence[int]) -> bool:
    """True iff ``seq`` is an induced path of ``g``: consecutive vertices
    adjacent, all other pairs not.  Repeated vertices and ids outside the
    graph give False.  A single vertex is a (trivial) induced path.
    """
    return len(seq) > 0 and _chordless(g, seq, False)


def is_hole(g: Graph, cycle: Sequence[int]) -> bool:
    """True iff ``cycle`` is a chordless cycle of length at least four.

    Repeated vertices and ids outside the graph give False.
    """
    return len(cycle) >= 4 and _chordless(g, cycle, True)


def is_odd_hole(g: Graph, cycle: Sequence[int]) -> bool:
    """True iff ``cycle`` is a chordless cycle of odd length (hence >= 5)."""
    return len(cycle) % 2 == 1 and is_hole(g, cycle)


def is_odd_antihole(g: Graph, cycle: Sequence[int]) -> bool:
    """True iff ``cycle`` is an odd hole of ``g``'s complement, that is,
    ``is_odd_hole(g.complement(), cycle)``, without building the complement."""
    return len(cycle) >= 5 and len(cycle) % 2 == 1 and _chordless(g, cycle, True, anti=True)


def certifies_berge(g: Graph, within: Optional[Mask] = None) -> bool:
    """True if peeling ``g`` (or the graph it induces on ``within``) leaves a
    bipartite or a co-bipartite graph, or the line graph of a bipartite
    graph or its complement; then it has no odd hole and no odd antihole.
    The test is :func:`_peeled_rest`.  A mask with a bit outside
    ``g.full_mask`` (a negative one included) raises ``ValueError``.
    """
    if within is not None and within & ~g.full_mask:
        raise ValueError(f"mask {within:#x} has vertices outside the graph")
    return not _peeled_rest(g, within)[0]


def _peeled_rest(g: Graph, within: Optional[Mask] = None) -> tuple[Mask, bool]:
    """``(0, False)`` if :func:`certifies_berge` certifies the mask; else
    what the simplicial pass leaves of it, which is not empty, and whether
    that rest is already a leaf of :func:`split_leaves`.

    A mask that is bipartite or co-bipartite (two cliques cover it) is
    certified at once.  Otherwise simplicial vertices (their neighbours
    form a clique) are deleted as long as any is left, and the two tests
    are asked again if that deleted a vertex; chordal graphs peel away
    entirely.  Otherwise simplicial and co-simplicial vertices (their
    non-neighbours are pairwise non-adjacent) are deleted as long as any is
    left; the two tests are asked again only if that deleted a vertex, and
    then a rest that is the line graph of a bipartite graph, or whose
    complement is one (:func:`_line_of_bipartite`), is certified.  So
    bipartite and co-bipartite inputs pay for no pass, chordal ones for the
    first only, and co-chordal inputs peel away in the second.  Asking the
    two tests first, before the simplicial pass, with the line-graph test's
    cliques spread from one vertex, raised seed-1 ``sparse-negative``
    throughput by 39% (``perfbench/run.py``, 10 pairs of runs); it costs a
    chordal graph about 1 µs, as both tests fail on it.  Asking the
    co-bipartite test before the second pass, not after it only, raised
    seed-1 ``dense-negative`` throughput by 24% (3 pairs); asking the
    line-graph tests there too raised its p90 latency by 13%, as the
    co-chordal graphs then pay for them.  The order does not change the
    answer, as every certificate is hereditary (below), and an uncertified
    mask leaves the same simplicial rest.

    Each step is exact.  A simplicial vertex lies on no hole, since its two
    neighbours on the hole would be adjacent.  A co-simplicial vertex ``v``
    lies on no hole ``v c1 c2 c3 ...`` of length five or more, since its
    non-neighbours ``c2`` and ``c3`` are adjacent.  So deleting either kind
    keeps every odd hole.  A bipartite graph has no odd cycle, and two
    cliques meet a hole of length five or more in at most two vertices each,
    so a co-bipartite graph has no such hole either.  The line graph of a
    bipartite graph is perfect (König's edge-colouring theorem), so it has
    no odd hole, and so is its complement (Lovász's weak perfect graph
    theorem, 1972).  The two kinds of vertex, and the two pairs of kinds of
    rest, swap under complementation, so the answer for ``g`` is the answer
    for its complement, and a certified graph has no odd antihole either:
    it is Berge.

    Every property the test uses is hereditary: a vertex simplicial or
    co-simplicial in a graph stays so in every induced subgraph that keeps
    it, an induced subgraph of a bipartite or co-bipartite graph is one
    too, and one of the line graph of a bipartite graph is the line graph
    of a subgraph of its root.  So deleting vertices keeps the others
    deletable, the worklist order does not change what is left, and every
    sub-mask of a certified mask is certified.

    The rest of the simplicial pass has no simplicial vertex, and has five
    vertices or more, as a graph on four or fewer is chordal or a 4-cycle.
    :func:`split_leaves` splits it, and ``fast.detect`` searches it.

    If the simplicial pass deleted a vertex and its rest is an odd cycle of
    length ``k >= 7`` or the complement of one (:func:`_ring`), that rest
    is returned at once as a leaf, and it is the leaf that the long way
    gives.  It is not Berge, so no certificate fires.  In ``C_k`` the two
    neighbours of a vertex are not adjacent, and two of its non-neighbours
    are (``k >= 5``), so no vertex is simplicial or co-simplicial; in the
    complement the two kinds swap.  So the second pass deletes nothing, and
    the rest would be returned.  ``C_k`` and its complement are both
    connected, so :func:`split_leaves` finds one component and one
    co-component; and no two vertices of ``C_k`` have the same open or
    closed neighbourhood, nor, as complementation swaps the two kinds of
    twin, of its complement.  So the split keeps the rest whole, as a leaf.
    A mask that the pass left whole pays one comparison and goes the long
    way, ring or not: asking every such mask cost seed-1 ``dense-negative``
    about 2% in process, where the pass leaves 135 of the 300 graphs
    whole, while on seed-1 ``perfect-mixed`` and ``stream-batch`` it would
    catch only 1 and 2 more ring leaves, pieces of a split that the pass
    leaves whole.  Any other rest costs its vertex count and, if that is
    odd and seven or more, the degree of its lowest vertex; the walk goes
    on only while the degrees it reads are two, or all ``k - 3``.
    """
    adj = g.adj
    alive = whole = g.full_mask if within is None else within
    if _two_colours(adj, alive, 0) or _two_colours(adj, alive, -1):
        return 0, False
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
    if alive != whole:
        if _two_colours(adj, alive, 0) or _two_colours(adj, alive, -1):
            return 0, False
        if _ring(adj, alive) is not None:
            return alive, True
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
    if alive != peeled and (_two_colours(adj, alive, 0) or _two_colours(adj, alive, -1)):
        return 0, False
    if _line_of_bipartite(adj, alive, 0) or _line_of_bipartite(adj, alive, -1):
        return 0, False
    return peeled, False


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


def _line_of_bipartite(adj: Sequence[Mask], alive: Mask, flip: int) -> bool:
    """True if the graph on ``alive`` is the line graph of a bipartite
    graph; with ``flip`` -1, if its complement is (rows are read as in
    :func:`_two_colours`).  Asked only of a rest of the peel that
    :func:`_two_colours` did not certify: no vertex is simplicial (with
    ``flip``, co-simplicial), so each has two non-adjacent neighbours, and
    the graph is not bipartite.

    The graph is such a line graph iff each vertex can be given two cliques,
    one on each of two sides, that cover its closed neighbourhood and meet
    only in it, with every member of a clique holding it on the same side:
    the cliques are then the vertices of a bipartite root, and each vertex
    is the edge between its two (``docs/derived-types.md`` has the proof).

    The vertices are first checked in order until one with three or more
    neighbours splits them into two cliques with no edge between them.  A
    vertex with two neighbours passes, and if every vertex has two, the
    graph is a union of cycles, its own root, and not bipartite, so the
    answer is False after one pass.  A claw or a diamond at the first
    vertex with three neighbours refuses there.  The spread below would
    give both answers too; the two exits keep refusals cheap.

    Then the cliques spread through each component from its lowest vertex,
    whose clique with its lowest neighbour goes on side 0.  A clique on a
    side gives each member not yet reached that clique on that side, and
    its closed row less the clique, plus itself, on the other side, which
    spreads in turn.  A member whose row does not hold the clique refuses,
    and so does a member already reached that holds another clique on that
    side.  Each vertex is reached once.
    """
    rest = alive
    while rest:  # bits() inlined, as in _peeled_rest
        low = rest & -rest
        rest ^= low
        nbrs = (adj[low.bit_length() - 1] ^ flip) & (alive ^ low)
        check = nbrs & (nbrs - 1)  # all but the lowest
        if check & (check - 1):  # three neighbours or more
            top = nbrs ^ check
            one = (adj[top.bit_length() - 1] ^ flip) & nbrs | top
            two = nbrs ^ one
            while check:  # each other neighbour sees exactly its own clique
                high = check & -check
                check ^= high
                if (adj[high.bit_length() - 1] ^ flip) & nbrs | high != (one if high & one else two):
                    return False
            break
    else:
        return False
    n = len(adj)
    held = ([0] * n, [0] * n)  # each vertex's clique on side 0, on side 1
    unmet = alive
    while unmet:  # one component at a time, from its lowest vertex
        low = unmet & -unmet
        nbrs = (adj[low.bit_length() - 1] ^ flip) & (alive ^ low)
        top = nbrs & -nbrs
        todo = [((adj[top.bit_length() - 1] ^ flip) & nbrs | top | low, 0)]
        while todo:
            clique, side = todo.pop()
            mine = held[side]
            theirs = held[1 - side]
            rest = clique
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if unmet & low:
                    row = (adj[v] ^ flip) & alive | low
                    if clique & ~row:
                        return False
                    unmet ^= low
                    mine[v] = clique
                    theirs[v] = other = row & ~clique | low
                    todo.append((other, 1 - side))
                elif mine[v] != clique:
                    return False
    return True


def _ring(adj: Sequence[Mask], mask: Mask) -> Optional[tuple[list[int], bool]]:
    """The vertices of ``mask`` in cycle order, from its lowest toward the
    lower of that vertex's two neighbours, and False, if ``mask`` induces
    an odd cycle of length ``k >= 7``; the same, with True, if it induces
    the complement of one (an odd antihole, walked round its complement's
    cycle); else None.

    The lowest vertex's degree tells which to walk: two on the cycle,
    ``k - 3`` on the antihole, and ``k - 3 > 2``.  On the antihole each
    row is read as ``mask & ~N[v]``, so the complement is never built.  The
    walk checks that each row it reaches has two bits and steps to the one
    not yet visited.  When there is none, the mask is the cycle iff the
    walk holds all ``k`` vertices and the last row holds the first: every
    vertex then has degree two on one cycle through all of them.
    """
    k = mask.bit_count()
    if k < 7 or not k & 1:
        return None
    low = mask & -mask
    degree = (adj[low.bit_length() - 1] & mask).bit_count()
    if degree != 2 and degree != k - 3:
        return None
    flip = 0 if degree == 2 else -1
    first = seen = low
    order = [low.bit_length() - 1]
    while True:
        row = (adj[order[-1]] ^ flip) & mask & ~low
        if row.bit_count() != 2:
            return None
        step = row & ~seen
        if not step:
            return (order, bool(flip)) if row & first and len(order) == k else None
        low = step & -step
        seen |= low
        order.append(low.bit_length() - 1)


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
    five vertices or more.  A peeled mask that the peel already found to be
    an odd cycle of length seven or more, or the complement of one, is taken
    as a leaf with no split, as no split would change it (the proof is in
    ``_peeled_rest``).  Leaves come depth first, each split's pieces in
    the order of their lowest ids.  A certified graph (bipartite, chordal,
    the line graph of a bipartite graph, or the complement of any of these)
    costs one peel and no list but the empty answer.

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

    Every step keeps odd antiholes too, so ``pipeline.test_perfect``
    searches the complement of each leaf, not that of ``g``, and an empty
    answer proves ``g`` Berge.  An odd antihole of length five is a 5-hole.
    One of length seven or more is a hole of that length in the complement,
    where a simplicial vertex of ``g`` is co-simplicial and a co-simplicial
    one simplicial, so it holds neither kind.  It misses every certified
    mask, which is Berge.  Each of its vertices sees all but two of the
    others, so it is connected, and its complement is a cycle, so it is
    co-connected: it lies inside one component and one co-component.  True
    twins of ``g`` are false twins of the complement and the other way
    round, so it meets a twin class at most once, and a dropped vertex on it
    can be replaced by its kept twin.  So ``g`` has an odd antihole iff some
    leaf does, and with no leaf it has neither, and is perfect by the strong
    perfect graph theorem (Chudnovsky, Robertson, Seymour and Thomas, 2006).
    On seeds 1-3 of the ``perfect-mixed`` benchmark corpus each of the 120
    perfect graphs has no leaf.

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
        mask, ring = _peeled_rest(g, todo.pop())
        if ring:
            leaves.append(mask)
            continue
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


FourPath = tuple[int, int, int, int, Mask]


def _list_four_paths(g: Graph, closed: list[Mask], listed: list[FourPath]) -> Iterator[FourPath]:
    """Append each entry of ``_Search.four_paths`` to ``listed``, and yield it.

    The paths are listed middle edge first, as ``induced_four_paths`` lists
    them and in its order, and a middle edge with an empty ``rest`` is
    skipped whole: each path on it has a mask of four vertices, which holds
    no odd hole.  Lowest-bit loops stand for ``bits()`` at every level.
    """
    full, adj = g.full_mask, g.adj
    for b in range(g.n):
        off_b = full & ~closed[b]
        cs = adj[b]
        while cs:
            low = cs & -cs
            cs ^= low
            c = low.bit_length() - 1
            rest = off_b & ~closed[c]
            if not rest:
                continue
            ends = adj[b] & ~closed[c]
            while ends:
                low = ends & -ends
                ends ^= low
                a = low.bit_length() - 1
                far = adj[c] & ~(closed[a] | closed[b]) >> (a + 1) << (a + 1)
                while far:
                    low = far & -far
                    far ^= low
                    entry = (a, b, c, low.bit_length() - 1, rest)
                    listed.append(entry)
                    yield entry


class _Search:
    """The search state of one detector call on one graph.

    ``detect`` creates one per leaf of :func:`split_leaves` that it
    searches (``fast._search_graph`` decides a leaf that is an odd cycle or
    antihole of length seven or more without one) and hands it to every
    stage: the jewel and pyramid searches, the heavy-cleanable sweep
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
    on which no reader could find a hole is never listed.  ``four_paths``
    is filled as it is walked (:meth:`walk_four_paths`): the sweep lists
    entries only up to its first hole, and a later reader, such as
    ``live_paths`` after a sweep that found none, lists what is left, so
    each entry is listed once per context, in one order.  In the 22
    contexts of ``test_perfect`` on seed-1 ``perfect-mixed`` that reach the
    sweep, it lists 70 of the 475 entries of their tables.  ``edge_cuts``
    holds, per edge, keyed by the mask of its two ends, the list of shape
    1-2 guesses left on it, which ``fast._edge_cuts`` fills on the edge's
    first use and both shapes read in both orientations.

    It keeps at most one :class:`Distances` per BFS the call runs, until
    the call returns: a list of ``n`` integers and the tuple of its layer
    masks, with its key.  At n = 16 that entry is 460 bytes by
    ``sys.getsizeof``, of which the layers are 184.  On the seed-1 benchmark
    corpora the largest context of a ``detect`` call holds 10 entries.
    Stage 3 is where a context grows, and only a graph with a claw reaches
    it.  Glue a 6-cycle at vertex 0 of the line graph of 24 random edges of
    K6,6 (``perfbench.corpora.line_graph_of_bipartite(6, 6, 24,
    random.Random(0))``): n = 29, one claw centre (vertex 0) and no odd
    hole.  ``detect`` searches it as one leaf, and its context ends with
    263,400 entries and 51,013 clean-test results; the process peaks at
    192 MB RSS, and the call takes 9.3-10.0 s (Python 3.11, a shared 2-vCPU
    host).

    ``bfs_distances`` is looked up in this module at call time, so rebinding
    it here (as an outside tracer does) is honoured.  The entries are shared
    by every caller of the same (source, mask) pair and must not be
    modified.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self._listed: list[FourPath] = []
        self._lister: Optional[Iterator[FourPath]] = None
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
        centres = 0
        for a, row in enumerate(self.g.adj):
            # lowest-bit loops, as in bfs_distances: over each u in the row,
            # then each w above u that misses u, for an x above w that misses both
            while row:
                low = row & -row
                row ^= low
                rest = row & ~closed[low.bit_length() - 1]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if rest & ~closed[low.bit_length() - 1]:
                        centres |= 1 << a
                        row = 0
                        break
        return centres

    @cached_property
    def four_paths(self) -> list[FourPath]:
        """The induced four-paths whose sweep mask has five or more vertices.

        Each entry is ``(p1, p2, p3, p4, rest)`` with ``rest = V - (N[p2] |
        N[p3])``.  For a path ``p1-p2-p3-p4`` the sweep mask drops every
        neighbour of ``p2`` or ``p3`` off the path, so it is ``rest`` plus
        the path; :func:`_list_four_paths` is the one place that computes
        it.  This is the whole table: what :meth:`walk_four_paths` has
        listed, and the rest listed now.
        """
        for _ in self.walk_four_paths():
            pass
        return self._listed

    def walk_four_paths(self) -> Iterator[FourPath]:
        """The entries of :attr:`four_paths` in order, each listed when it is
        first reached.

        So a reader that stops early, as the sweep does at its first hole,
        lists no more of the table, and a later reader, or the whole table,
        goes on from there: every entry is listed once per context.
        """
        if self._lister is None:
            self._lister = _list_four_paths(self.g, self.closed, self._listed)
        listed, lister = self._listed, self._lister
        i = 0
        while i < len(listed) or next(lister, None):
            yield listed[i]
            i += 1

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
