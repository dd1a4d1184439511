import functools
import itertools
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import oddhole.graph
from oddhole import Graph
from oddhole.graph import (
    UNREACHABLE,
    _Search,
    bfs_distances,
    bits,
    certifies_berge,
    geodesic_mask,
    induced_four_paths,
    induced_three_paths,
    is_hole,
    is_induced_path,
    is_odd_antihole,
    is_odd_hole,
    mask_of,
    split_leaves,
    walk_down,
)
from oddhole.generators import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gnp,
    path_graph,
    petersen_graph,
    random_bipartite,
    random_chordal,
)
from oddhole.oracle import oracle_find_odd_hole, oracle_odd_holes
from oddhole.pipeline import ResultDocument, run_detection
from .conftest import disjoint_union, elementary_graph, line_graph, split_family_graphs
from .reference import connected_small_graphs, relabel


def test_graph_rejects_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_adjacency_symmetric_irreflexive():
    g = gnp(9, 0.4, 1)
    for u in range(g.n):
        assert not g.has_edge(u, u)
        for v in range(g.n):
            assert g.has_edge(u, v) == g.has_edge(v, u)


def test_complement_involution_and_cases():
    k4 = complete_graph(4)
    assert k4.complement().edge_count() == 0
    c7 = cycle_graph(7)
    assert c7.complement().complement() == c7
    c5 = cycle_graph(5)
    comp = c5.complement()
    # the complement of a 5-cycle is again a 5-cycle (relabeled)
    assert comp.edge_count() == 5
    assert sorted(comp.degree(v) for v in range(5)) == [2] * 5
    assert is_odd_hole(comp, (0, 2, 4, 1, 3))


def test_is_induced_path_basics():
    p4 = path_graph(4)
    assert is_induced_path(p4, (0, 1, 2, 3))
    c4 = cycle_graph(4)
    assert not is_induced_path(c4, (0, 1, 2, 3))  # closing edge is a chord
    assert not is_induced_path(p4, (0, 1, 1, 2))
    assert is_induced_path(p4, (2,))


def _chordless_by_definition(g, seq, closed):
    # pairwise: distinct vertices of g, each consecutive pair (and with
    # closed the two ends) adjacent, every other pair not
    k = len(seq)
    if not all(0 <= v < g.n for v in seq) or len(set(seq)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            along = j == i + 1 or closed and (i, j) == (0, k - 1)
            if g.has_edge(seq[i], seq[j]) != along:
                return False
    return True


def test_is_induced_path_matches_definition_on_random_graphs():
    # every sequence of length 0-6 over the ids -1..n, repeats included; the
    # graphs hold a 4-hole, a 5-hole, and both, and their complements a 5-hole
    found = [0, 0, 0, 0]
    for n, seed in ((4, 1), (5, 8), (6, 7)):
        g = gnp(n, 0.5, seed)
        co = g.complement()
        for k in range(7):
            for seq in itertools.product(range(-1, n + 1), repeat=k):
                path = k >= 1 and _chordless_by_definition(g, seq, False)
                hole = k >= 4 and _chordless_by_definition(g, seq, True)
                anti = k % 2 == 1 and k >= 4 and _chordless_by_definition(co, seq, True)
                assert is_induced_path(g, seq) == path, (g.adj, seq)
                assert is_hole(g, seq) == hole, (g.adj, seq)
                assert is_odd_hole(g, seq) == (hole and k % 2 == 1), (g.adj, seq)
                assert is_odd_antihole(g, seq) == anti, (g.adj, seq)
                found[0] += path
                found[1] += hole and k % 2 == 0
                found[2] += hole and k % 2 == 1
                found[3] += anti
    assert all(found), found


def test_is_odd_hole_examples():
    c5 = cycle_graph(5)
    assert is_odd_hole(c5, (0, 1, 2, 3, 4))
    c6 = cycle_graph(6)
    assert not is_odd_hole(c6, (0, 1, 2, 3, 4, 5))
    assert is_hole(c6, (0, 1, 2, 3, 4, 5))
    chord = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert not is_odd_hole(chord, (0, 1, 2, 3, 4))


def test_vertex_ids_outside_the_graph_are_no_path_and_no_hole():
    # an id past n - 1 or below 0 is refused, not looked up
    c5 = cycle_graph(5)
    for seq in ((9, 1, 2, 3, 4), (0, 1, 2, 3, -1), (0, 1, 2, 3, 5)):
        assert not is_hole(c5, seq) and not is_odd_hole(c5, seq), seq
    assert not is_induced_path(c5, (3, 4, 5)) and not is_induced_path(c5, (-1, 0, 1))
    # so a result document whose witness names such a vertex fails its check
    data = json.loads(run_detection(c5).to_json())
    for witness in ([9, 1, 2, 3, 4], [0, 1, 2, 3, -1]):
        data["witness"] = witness
        assert not ResultDocument.from_json(json.dumps(data)).verify_witness(c5), witness


def test_bfs_distances_examples():
    p4 = path_graph(4)
    assert bfs_distances(p4, 0) == [0, 1, 2, 3]
    two = Graph(5, [(0, 1), (2, 3), (3, 4)])
    d = bfs_distances(two, 0)
    assert d == [0, 1, UNREACHABLE, UNREACHABLE, UNREACHABLE]
    c7 = cycle_graph(7)
    assert bfs_distances(c7, 0) == [0, 1, 2, 3, 3, 2, 1]


def test_bfs_respects_mask():
    c6 = cycle_graph(6)
    within = mask_of([0, 1, 2, 3])
    d = bfs_distances(c6, 0, within)
    assert d[3] == 3  # the short way through 4,5 is masked out
    assert d[4] == UNREACHABLE and d[5] == UNREACHABLE
    with pytest.raises(ValueError):
        bfs_distances(c6, 5, within)
    # a mask may hold bits past the last vertex; a source there is refused
    # the same way, and the other bits are ignored
    for source, mask in ((7, c6.full_mask | 1 << 7), (6, 1 << 6), (6, None)):
        with pytest.raises(ValueError, match="not in mask"):
            bfs_distances(c6, source, mask)
    assert bfs_distances(c6, 0, c6.full_mask | 1 << 7) == bfs_distances(c6, 0)


def _queue_bfs(g, source, within):
    """Textbook BFS with a FIFO queue, the reference for ``bfs_distances``."""
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in bits(g.adj[u]):
            if within >> w & 1 and dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def test_bfs_distances_match_a_queue_bfs():
    rng = random.Random(11)
    checked = 0
    for i in range(200):
        n = rng.randint(1, 14)
        g = gnp(n, rng.choice((0.15, 0.3, 0.5)), 3000 + i)
        within = rng.getrandbits(n) if i % 4 else g.full_mask
        for s in bits(within):
            assert bfs_distances(g, s, within) == _queue_bfs(g, s, within), (g.adj, s, within)
            checked += 1
        if i % 4 == 0 and n:
            assert bfs_distances(g, 0) == _queue_bfs(g, 0, g.full_mask)
    assert checked > 800


def _lowest_id_walk(g, dist, frm):
    """The reference walk over the plain distance list: from each vertex to
    its lowest-id neighbour one level closer to the source."""
    path = [frm]
    while dist[path[-1]] > 0:
        level = dist[path[-1]] - 1
        path.append(next(w for w in bits(g.adj[path[-1]]) if dist[w] == level))
    return path


@given(st.integers(0, 10000), st.integers(1, 14), st.sampled_from((0.15, 0.3, 0.5)),
       st.integers(0, (1 << 14) - 1), st.integers(0, 13))
@settings(max_examples=150, deadline=None)
def test_bfs_layers_partition_the_reached_vertices(seed, n, p, within, source):
    g = gnp(n, p, seed)
    source %= n
    within = within & g.full_mask | 1 << source
    d = bfs_distances(g, source, within)
    plain = list(d)
    # one layer per distance up to the largest: they partition the reached vertices
    assert len(d.layers) == max(plain) + 1
    for k, layer in enumerate(d.layers):
        assert layer == mask_of(v for v in range(n) if plain[v] == k)
    for v in range(n):
        if plain[v] == UNREACHABLE:
            continue
        assert walk_down(g, d, v) == _lowest_id_walk(g, plain, v), (g.adj, source, within, v)


def test_shortest_path_examples():
    # a shortest path is walk_down on a BFS from its other end
    c7 = cycle_graph(7)
    assert walk_down(c7, bfs_distances(c7, 0), 3) == [3, 2, 1, 0]
    assert bfs_distances(Graph(4, [(0, 1), (2, 3)]), 0)[3] == UNREACHABLE


def test_shortest_path_deterministic_lowest_id():
    # diamond: two shortest 0-3 routes via 1 or 2; lowest id wins
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert walk_down(g, bfs_distances(g, 0), 3) == [3, 1, 0]


def _all_shortest_paths(g, u, v, within=None):
    du = bfs_distances(g, u, within)
    dv = bfs_distances(g, v, within)
    if du[v] < 0:
        return []
    total = du[v]
    allowed = g.full_mask if within is None else within
    paths = []

    def rec(cur, acc):
        if cur == v:
            paths.append(tuple(acc))
            return
        for w in bits(g.adj[cur] & allowed):
            if du[w] == du[cur] + 1 and du[w] + dv[w] == total:
                acc.append(w)
                rec(w, acc)
                acc.pop()

    rec(u, [u])
    return paths


def test_shortest_path_length_matches_bfs_on_random_graphs():
    checked = 0
    for i in range(60):
        g = gnp(9, 0.3, 1000 + i)
        d = bfs_distances(g, 0)
        for v in range(1, 9):
            if d[v] != UNREACHABLE:
                p = walk_down(g, d, v)
                assert len(p) - 1 == d[v] and p[-1] == 0
                assert is_induced_path(g, p)
                checked += 1
    assert checked > 100


def _interior_union(g, u, v, within=None):
    """The interiors of all shortest u-v paths, by ``geodesic_mask``."""
    du = bfs_distances(g, u, within)
    scope = (g.full_mask if within is None else within) & ~(1 << u) & ~(1 << v)
    return geodesic_mask(du, bfs_distances(g, v, within), du[v], scope)


def test_interior_union_examples():
    c6 = cycle_graph(6)
    assert _interior_union(c6, 0, 3) == mask_of([1, 2, 4, 5])
    p4 = path_graph(4)
    assert _interior_union(p4, 0, 3) == mask_of([1, 2])
    assert _interior_union(cycle_graph(4), 0, 1) == 0  # adjacent
    assert _interior_union(Graph(4, [(0, 1), (2, 3)]), 0, 3) == 0  # disconnected


def test_interior_union_matches_enumeration():
    for i in range(120):
        g = gnp(8 if i % 2 else 9, 0.35, 2000 + i)
        for (u, v) in ((0, 7), (1, 5), (2, 6)):
            got = _interior_union(g, u, v)
            paths = _all_shortest_paths(g, u, v)
            want = 0
            for p in paths:
                for w in p[1:-1]:
                    want |= 1 << w
            assert got == want


@given(st.integers(0, 10000), st.integers(5, 9))
@settings(max_examples=60, deadline=None)
def test_bfs_distance_symmetry(seed, n):
    g = gnp(n, 0.35, seed)
    for u in range(n):
        du = bfs_distances(g, u)
        for v in range(u + 1, n):
            assert du[v] == bfs_distances(g, v)[u]


@given(st.integers(0, 10000))
@settings(max_examples=60, deadline=None)
def test_masked_ops_stay_in_mask(seed):
    g = gnp(9, 0.4, seed)
    within = mask_of([0, 2, 3, 5, 6, 8])
    d = bfs_distances(g, 0, within)
    for v in range(9):
        if not within >> v & 1:
            assert d[v] == UNREACHABLE
    # scoped to every vertex: the masked distances alone keep the union inside
    got = geodesic_mask(d, bfs_distances(g, 8, within), d[8], g.full_mask)
    assert got & ~within == 0


def test_induced_path_enumerations():
    c5 = cycle_graph(5)
    threes = induced_three_paths(c5)
    assert len(threes) == 5  # one per middle vertex
    assert all(a < b for (a, x, b) in threes)
    fours = induced_four_paths(c5)
    assert len(fours) == 5
    for (a, b, c, d) in fours:
        assert is_induced_path(c5, (a, b, c, d))
    # complete graph has no induced paths on 3+ vertices
    assert induced_three_paths(complete_graph(5)) == []
    assert induced_four_paths(complete_graph(5)) == []


@functools.lru_cache(maxsize=1)
def _path_table_graphs():
    # every connected graph on 4-7 vertices, and gnp graphs with their complements
    graphs = [g for n in range(4, 8) for g in connected_small_graphs(n)]
    for i in range(30):
        g = gnp(8 + i % 6, (0.2, 0.4, 0.6)[i % 3], 5200 + i)
        graphs += [g, g.complement()]
    return tuple(graphs)


def test_search_four_paths_are_those_with_a_sweep_mask_of_five_or_more():
    # the context lists the four-paths middle edge first and skips an edge
    # with no vertex outside N[p2] | N[p3]; what is left must be exactly
    # the paths whose sweep mask has five or more vertices, in their order
    kept = skipped = 0
    for g in _path_table_graphs():
        every = induced_four_paths(g)
        want = []
        for p in every:
            within = g.full_mask & ~((g.adj[p[1]] | g.adj[p[2]]) & ~mask_of(p))
            if within.bit_count() >= 5:
                # each entry carries rest = V - (N[p2] | N[p3]), the mask less the path
                want.append(p + (within & ~mask_of(p),))
        assert _Search(g).four_paths == want, g.adj
        kept += len(want)
        skipped += len(every) - len(want)
    assert kept > 4000 and skipped > 2500, (kept, skipped)


def test_search_three_paths_are_those_whose_ends_can_step_off():
    # each end of d1-x-d2 needs a neighbour off the path that is adjacent
    # to neither x nor the other end; the table holds those neighbours
    kept = skipped = 0
    for g in _path_table_graphs():
        full, adj = g.full_mask, g.adj
        every = induced_three_paths(g)
        want = []
        for d1, x, d2 in every:
            trip = mask_of((d1, x, d2))
            keep = full & ~(trip | adj[d1] & adj[d2] | adj[x])
            if adj[d1] & keep and adj[d2] & keep:
                want.append((d1, x, d2, trip, adj[d1] & keep, adj[d2] & keep))
        assert _Search(g).three_paths == want, g.adj
        kept += len(want)
        skipped += len(every) - len(want)
    assert kept > 2000 and skipped > 10000, (kept, skipped)


def test_search_live_paths_peel_each_distinct_mask_once(monkeypatch):
    # the table is the four-paths whose sweep mask does not peel, in their
    # order, as a peel per path gives it; paths that share a mask share one
    # peel
    peel = oddhole.graph.certifies_berge
    peeled = []
    monkeypatch.setattr(oddhole.graph, "certifies_berge",
                        lambda g, within=None: peeled.append(within) or peel(g, within))
    live = shared = 0
    for g in _path_table_graphs():
        search = _Search(g)
        want = [p for p in search.four_paths
                if not peel(g, g.full_mask & ~((g.adj[p[1]] | g.adj[p[2]]) & ~mask_of(p[:4])))]
        peeled.clear()
        assert search.live_paths == want, g.adj
        assert len(peeled) == len(set(peeled)), g.adj
        live += len(want)
        shared += len(search.four_paths) - len(peeled)
    assert live > 1500 and shared > 1000, (live, shared)


def test_relabel_preserves_structure():
    g = gnp(8, 0.4, 77)
    perm = [3, 1, 4, 0, 6, 2, 7, 5]
    h = relabel(g, perm)
    for u in range(8):
        for v in range(8):
            assert g.has_edge(u, v) == h.has_edge(perm[u], perm[v])


def _two_colour(nodes, linked):
    # two-colour ``nodes`` by a depth-first search over the pairs ``linked``
    colour = {}
    for s in sorted(nodes):
        if s in colour:
            continue
        colour[s] = 0
        todo = [s]
        while todo:
            u = todo.pop()
            for w in nodes:
                if w != u and linked(u, w):
                    if w not in colour:
                        colour[w] = 1 - colour[u]
                        todo.append(w)
                    elif colour[w] == colour[u]:
                        return False
    return True


def _line_of_bipartite_by_definition(g, alive, co):
    # the maximal cliques of the graph on ``alive`` (with ``co``, of its
    # complement), listed pair by pair: each edge lies in exactly one iff its
    # ends and their common neighbours are a clique, and then that clique is
    # the one.  Each vertex must lie in at most two, and the cliques, linked
    # when they share a vertex, must two-colour: then the graph is the line
    # graph of that bipartite clique graph.
    def adjacent(u, w):
        return bool(g.adj[u] >> w & 1) != co

    cliques = set()
    for u, w in itertools.combinations(sorted(alive), 2):
        if adjacent(u, w):
            clique = frozenset([u, w] + [x for x in alive if adjacent(x, u) and adjacent(x, w)])
            if not all(adjacent(a, b) for a, b in itertools.combinations(clique, 2)):
                return False
            cliques.add(clique)
    if any(sum(v in c for c in cliques) > 2 for v in alive):
        return False
    return _two_colour(cliques, lambda c, d: bool(c & d))


def _certified_by_definition(g, mask, co_simplicial=True, lines=True):
    # certifies_berge as its definition states it, one vertex and one pair at
    # a time: delete simplicial and co-simplicial vertices while any is left,
    # then two-colour the rest or its complement, or find either to be the
    # line graph of a bipartite graph.  Without ``co_simplicial`` it is the
    # simplicial peel and the bipartite test alone; without ``lines``, it
    # has no line-graph test.
    def edge(u, w):
        return bool(g.adj[u] >> w & 1)

    def pairs(vs):
        return itertools.combinations(vs, 2)

    alive = set(bits(mask))
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            near = [u for u in alive if edge(u, v)]
            far = [u for u in alive if u != v and not edge(u, v)]
            if all(edge(a, b) for a, b in pairs(near)) or (
                    co_simplicial and not any(edge(a, b) for a, b in pairs(far))):
                alive.discard(v)
                changed = True

    def two_colours(co):
        return _two_colour(alive, lambda u, w: edge(u, w) != co)

    return two_colours(False) or (co_simplicial and (two_colours(True) or lines and (
        _line_of_bipartite_by_definition(g, alive, False) or _line_of_bipartite_by_definition(g, alive, True))))


def test_certified_graphs_are_berge():
    # every certified graph and its complement have no odd hole; the test
    # agrees with its definition and gives its complement the same answer
    graphs = [g for n in range(1, 8) for g in connected_small_graphs(n)]
    sampled = [gnp(8 + i % 3, (0.15, 0.3, 0.5)[i % 3], 4100 + i) for i in range(120)]
    # elementary graphs are Berge, and many are not certified
    sampled += [elementary_graph(random_bipartite(4, 4, 0.5, 4400 + i), i) for i in range(40)]
    graphs += sampled + [g.complement() for g in sampled]
    certified = berge_left = 0
    for g in graphs:
        got = certifies_berge(g)
        assert got == certifies_berge(g.complement()) == _certified_by_definition(g, g.full_mask), g.adj
        berge = oracle_find_odd_hole(g) is None and oracle_find_odd_hole(g.complement()) is None
        assert berge or not got, g.adj
        certified += got
        berge_left += berge and not got
    # the check is not vacuous: both answers are common, and some Berge
    # graphs are left to the search
    assert certified >= 300 and len(graphs) - certified >= 250 and berge_left >= 20, (
        len(graphs), certified, berge_left)
    assert not certifies_berge(cycle_graph(5)) and not certifies_berge(cycle_graph(7).complement())
    assert certifies_berge(cycle_graph(6)) and certifies_berge(complete_graph(6))
    assert certifies_berge(cycle_graph(6).complement())


def test_line_graphs_of_bipartite_graphs_are_certified():
    # the line graph of a bipartite graph is Berge (Konig), and so is its
    # complement (Lovasz): the peel certifies both, also when neither the
    # rest nor its complement is bipartite, that is when the line graph has
    # a triangle and a 4-hole.  Line graphs with an odd hole are not
    # certified: C7, which is its own line graph, and that of the Petersen
    # graph, nor are their complements.
    roots = [random_bipartite(3 + i % 3, 4 + i % 2, 0.6, 4700 + i) for i in range(30)]
    through_lines = 0
    for h in roots:
        for g in (line_graph(h), line_graph(h).complement()):
            assert certifies_berge(g) and _certified_by_definition(g, g.full_mask), h.adj
            assert oracle_find_odd_hole(g) is None, h.adj
            through_lines += not _certified_by_definition(g, g.full_mask, lines=False)
    assert through_lines >= 40, through_lines
    for g in (cycle_graph(7), line_graph(petersen_graph())):
        for h in (g, g.complement()):
            assert not certifies_berge(h) and not _certified_by_definition(h, h.full_mask)


def _meets_the_line_test_precondition(g):
    # what _peeled_rest guarantees when it asks _line_of_bipartite: every
    # vertex has two non-adjacent neighbours, and the graph is not bipartite
    def branched(v):
        near = list(bits(g.adj[v]))
        return any(not g.has_edge(a, b) for a, b in itertools.combinations(near, 2))

    return all(branched(v) for v in range(g.n)) and not _two_colour(range(g.n), g.has_edge)


def _first_branched_splits(g):
    # the lowest vertex with three neighbours or more exists, and its
    # neighbours split into two cliques with no edge between them
    v = next(v for v in range(g.n) if g.degree(v) >= 3)
    near = list(bits(g.adj[v]))
    one = [u for u in near if u == near[0] or g.has_edge(u, near[0])]
    return all(g.has_edge(a, b) == ((a in one) == (b in one)) for a, b in itertools.combinations(near, 2))


class _CountedRows(list):
    # adjacency rows that count how many times they are read
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_line_test_refuses_where_the_root_test_does():
    # _line_of_bipartite against its definition, on graphs that meet its
    # precondition, read directly (flip 0) and as the complement of the
    # complement (flip -1).  The hand-built graphs pass the check at their
    # first vertex with three neighbours, so the answer comes from spreading
    # the cliques: a diamond and a claw away from vertex 0, roots that are
    # triangle-free but not bipartite, a root with a vertex of degree two
    # (a clique of two vertices), and a second component that fails.
    rook = line_graph(complete_multipartite([3, 3]))  # vertex 3i + j is the edge (i, j)
    diamond = Graph(10, list(rook.edges()) + [(9, 7), (9, 8), (9, 4)])
    claw = Graph(10, list(rook.edges()) + [(9, 4), (9, 8)])
    # triangles 012, 046 and 345, the edge 25, and a claw at 7 on 1, 3 and 6:
    # 7 is reached last, when 1 and 3 already hold their cliques 17 and 37
    late_claw = Graph(8, [(0, 1), (0, 2), (1, 2), (0, 4), (0, 6), (4, 6), (3, 4), (3, 5), (4, 5),
                          (2, 5), (7, 1), (7, 3), (7, 6)])
    petersen = line_graph(petersen_graph())
    # C7 and a path of two edges between 0 and 3: a 5-cycle and a 6-cycle
    chorded = line_graph(Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7), (7, 3)]))
    two_by_three = line_graph(complete_multipartite([2, 3]))
    # C6 with a chord: two 4-cycles, bipartite, with four vertices of degree 2
    theta = line_graph(Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]))
    hand_built = {
        "diamond": (diamond, False),
        "claw": (claw, False),
        "claw reached last": (late_claw, False),
        "Petersen": (petersen, False),
        "C7 and a path": (chorded, False),
        "K23": (two_by_three, True),
        "theta": (theta, True),
        "second component fails": (disjoint_union(two_by_three, chorded), False),
        "second component is C7": (disjoint_union(rook, cycle_graph(7)), False),
        "two components pass": (disjoint_union(theta, rook), True),
    }
    for name, (g, line) in hand_built.items():
        assert _meets_the_line_test_precondition(g) and _first_branched_splits(g), name
        assert _line_of_bipartite_by_definition(g, range(g.n), False) == line, name
        assert oddhole.graph._line_of_bipartite(g.adj, g.full_mask, 0) == line, name
        assert oddhole.graph._line_of_bipartite(g.complement().adj, g.full_mask, -1) == line, name
    # a claw at the first vertex with three neighbours, and a union of
    # cycles, refuse in the check before any clique spreads: it reads that
    # vertex's row and its neighbours', or each row once
    for g, reads in ((petersen_graph(), 4), (cycle_graph(9), 9),
                     (disjoint_union(cycle_graph(5), cycle_graph(6)), 11)):
        assert _meets_the_line_test_precondition(g)
        assert not _line_of_bipartite_by_definition(g, range(g.n), False)
        for adj, flip in ((g.adj, 0), (g.complement().adj, -1)):
            rows = _CountedRows(adj)
            assert not oddhole.graph._line_of_bipartite(rows, g.full_mask, flip)
            assert rows.reads <= reads, (g.adj, flip, rows.reads)
    # random line graphs of bipartite and other graphs, with an edge or two
    # flipped, and their complements
    rng = random.Random(31)
    tested = accepted = 0
    for i in range(400):
        h = random_bipartite(3 + i % 3, 3 + i % 4, 0.75, 5200 + i)
        if i % 4 == 3:
            h = Graph(h.n, list(h.edges()) + [(0, 1)])  # an edge inside a side
        g = line_graph(h)
        for _ in range(i % 3):
            if g.n > 1:
                u, v = rng.sample(range(g.n), 2)
                g = Graph(g.n, set(g.edges()) ^ {(min(u, v), max(u, v))})
        for rest in (g, g.complement()):
            if not _meets_the_line_test_precondition(rest):
                continue
            line = _line_of_bipartite_by_definition(rest, range(rest.n), False)
            assert oddhole.graph._line_of_bipartite(rest.adj, rest.full_mask, 0) == line, rest.adj
            assert oddhole.graph._line_of_bipartite(rest.complement().adj, rest.full_mask, -1) == line, rest.adj
            tested += 1
            accepted += line
    assert tested >= 500 and accepted >= 50 and tested - accepted >= 400, (tested, accepted)


def test_two_colour_tests_come_before_the_simplicial_pass(monkeypatch):
    # _peeled_rest asks both two-colour tests of the whole mask first, so a
    # bipartite or co-bipartite graph is certified with no simplicial pass:
    # each graph below has a simplicial vertex, which that pass would delete
    # before any later test.
    calls = []
    two_colours = oddhole.graph._two_colours

    def spy(adj, alive, flip):
        got = two_colours(adj, alive, flip)
        calls.append((alive, flip, got))
        return got

    monkeypatch.setattr(oddhole.graph, "_two_colours", spy)
    pendant = Graph(10, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (6, 7), (3, 8), (8, 9)])
    # cliques {0, 1, 2} and {3, 4, 5}; vertex 0 sees no vertex of the other
    co_bipartite = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 3), (2, 4), (1, 5)])
    forest = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])  # 0 misses only 4 and 5
    for g, flip in ((pendant, 0), (co_bipartite, -1), (forest.complement(), -1)):
        assert any(all(g.has_edge(a, b) for a, b in itertools.combinations(bits(g.adj[v]), 2))
                   for v in range(g.n)), g.adj
        calls.clear()
        assert certifies_berge(g)
        whole = g.full_mask
        expected = [(whole, 0, True)] if flip == 0 else [(whole, 0, False), (whole, -1, True)]
        assert calls == expected, (g.adj, calls)


def test_certifies_berge_within_a_mask_tests_the_induced_graph():
    # and every sub-mask of a certified mask is certified: the anchored
    # shapes drop a four-path whose sweep mask is certified, with every guess
    # inside it.  Many masks are certified only through co-simplicial
    # deletions or a co-bipartite rest, and many only by the line-graph test.
    rng = random.Random(23)
    graphs = [gnp(10 + i % 4, (0.2, 0.35, 0.5, 0.65)[i % 4], 4500 + i) for i in range(120)]
    # and many only as (complements of) line graphs of bipartite graphs
    graphs += [line_graph(random_bipartite(4, 4 + i % 2, 0.6, 4800 + i)) for i in range(30)]
    graphs += [g.complement() for g in graphs]
    certified = kept = co_only = line_only = 0
    for g in graphs:
        assert certifies_berge(g, g.full_mask) == certifies_berge(g)
        for _ in range(3):
            # each vertex kept with probability 3/4
            mask = rng.getrandbits(g.n) | rng.getrandbits(g.n)
            got = certifies_berge(g, mask)
            assert got == certifies_berge(g.induced(mask)[0]) == _certified_by_definition(g, mask), (
                g.adj, mask)
            if not got:
                kept += 1
                continue
            certified += 1
            co_only += not _certified_by_definition(g, mask, co_simplicial=False)
            line_only += not _certified_by_definition(g, mask, lines=False)
            # every sub-mask of a small mask, and 200 random ones of a larger one
            if mask.bit_count() <= 8:
                subs = [sub for sub in range(mask + 1) if sub & mask == sub]
            else:
                subs = [rng.getrandbits(g.n) & mask for _ in range(200)]
            for sub in subs:
                assert certifies_berge(g, sub), (g.adj, mask, sub)
    assert certified > 300 and kept > 200 and co_only > 150 and line_only > 40, (
        certified, kept, co_only, line_only)
    # a mask with a bit outside the graph, a negative one included, is refused
    for mask in (31 | 1 << 7, -1):
        with pytest.raises(ValueError, match="outside the graph"):
            certifies_berge(cycle_graph(5), mask)


def _reach(g, v, within):
    # the vertices v reaches inside ``within``, by a plain depth-first search
    seen = {v}
    todo = [v]
    while todo:
        u = todo.pop()
        for w in range(g.n):
            if w not in seen and within >> w & 1 and g.has_edge(u, w):
                seen.add(w)
                todo.append(w)
    return mask_of(seen)


def test_induced_renumbers_in_id_order():
    g = gnp(9, 0.4, 12)
    assert g.induced(g.full_mask) == (g, tuple(range(9)))
    # graphs are immutable, so the full mask gives the graph itself
    assert g.induced(g.full_mask)[0] is g
    mask = mask_of((1, 4, 5, 8))
    sub, back = g.induced(mask)
    assert back == (1, 4, 5, 8) and sub.n == 4
    for i, j in itertools.combinations(range(4), 2):
        assert sub.has_edge(i, j) == g.has_edge(back[i], back[j])
    assert g.induced(0) == (Graph(0), ())


def _induced_by_neighbours(g, mask):
    # the subgraph on ``mask`` renumbered one neighbour at a time
    back = tuple(bits(mask))
    pos = {v: i for i, v in enumerate(back)}
    rows = [mask_of(pos[u] for u in bits(g.adj[v] & mask)) for v in back]
    return Graph.from_rows(len(back), rows), back


@given(st.integers(0, 10000), st.integers(1, 40), st.sampled_from((0.2, 0.5, 0.8)),
       st.integers(0, (1 << 40) - 1))
@settings(max_examples=200, deadline=None)
def test_induced_matches_the_per_neighbour_reference(seed, n, p, mask):
    # the rows are built from the runs of consecutive ids in the mask
    g = gnp(n, p, seed)
    top = 1 << (n - 1)
    alternate = mask_of(range(0, n, 2))  # a run per kept vertex
    for m in (mask & g.full_mask, 0, 1, top, top | 1, alternate, g.full_mask ^ top,
              g.full_mask & ~alternate, g.full_mask ^ 1):
        assert g.induced(m) == _induced_by_neighbours(g, m), (g.adj, m)
    assert g.induced(g.full_mask)[0] is g


def _twin_free(g, mask):
    # no two vertices of ``mask`` have the same open or the same closed
    # neighbourhood inside it
    for u, v in itertools.combinations(bits(mask), 2):
        nu, nv = g.adj[u] & mask, g.adj[v] & mask
        if nu == nv or nu | 1 << u == nv | 1 << v:
            return False
    return True


def _has_simplicial(g, mask):
    # some vertex of ``mask`` has its neighbours inside it pairwise adjacent
    return any(all(g.has_edge(a, b) for a, b in itertools.combinations(bits(g.adj[v] & mask), 2))
               for v in bits(mask))


def _hole_lengths(g):
    return {len(hole) for hole in oracle_odd_holes(g)}


def test_split_leaves_match_brute_force_and_the_oracle():
    graphs = [gnp(n, p, 7300 + n * 11 + i) for n in range(3, 11) for p in (0.3, 0.5, 0.7)
              for i in range(6)]
    graphs += [h for g in split_family_graphs(60, seed=23) for h in (g, g.complement())]
    # denser graphs, which the peel leaves whole more often
    graphs += [gnp(n, p, 7600 + n * 11 + i) for n in (11, 12) for p in (0.5, 0.6) for i in range(16)]
    split = leafless = split_holes = 0
    for g in graphs:
        leaves = split_leaves(g)
        co = g.complement()
        seen = 0
        for leaf in leaves:
            # each leaf has five vertices or more, is connected, co-connected,
            # twin-free, uncertified and has no simplicial vertex, and no two
            # leaves meet
            assert leaf.bit_count() >= 5 and not leaf & seen, g.adj
            low = next(bits(leaf))
            assert _reach(g, low, leaf) == leaf and _reach(co, low, leaf) == leaf, g.adj
            assert _twin_free(g, leaf), g.adj
            assert not certifies_berge(g, leaf) and not _has_simplicial(g, leaf), g.adj
            seen |= leaf
        # a graph that is all of these is its own leaf
        whole = g.n >= 5 and _reach(g, 0, g.full_mask) == _reach(co, 0, g.full_mask) == g.full_mask
        whole = whole and not certifies_berge(g) and not _has_simplicial(g, g.full_mask)
        assert (leaves == [g.full_mask]) == (whole and _twin_free(g, g.full_mask)), g.adj
        # each odd hole of g has a hole of its length in some leaf (its twins
        # replaced by the ones kept), and each hole of a leaf is one of g
        lengths = _hole_lengths(g)
        in_leaves = [_hole_lengths(g.induced(leaf)[0]) for leaf in leaves]
        assert lengths == set().union(*in_leaves), g.adj
        split += leaves != [g.full_mask]
        leafless += not leaves
        split_holes += leaves != [g.full_mask] and bool(lengths)
    # none of the four kinds of graph is rare
    assert split >= 150 and len(graphs) - split >= 30, split
    assert leafless >= 30 and split_holes >= 20, (leafless, split_holes)


def _spy_split(monkeypatch):
    # counts the calls of each split step, and records what each peel returns
    calls = {"_pieces": 0, "_drop_twins": 0, "_line_of_bipartite": 0, "peels": []}
    for name in ("_pieces", "_drop_twins", "_line_of_bipartite"):
        def counted(*args, _name=name, _step=getattr(oddhole.graph, name)):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(oddhole.graph, name, counted)
    peel = oddhole.graph._peeled_rest

    def recorded(g, within=None):
        calls["peels"].append(peel(g, within))
        return calls["peels"][-1]

    monkeypatch.setattr(oddhole.graph, "_peeled_rest", recorded)
    return calls


def _glued_cycle(host, k):
    # C_k sharing the lowest edge (a, b) of ``host``: b, then k - 2 new
    # vertices, then a
    a, b = next(host.edges())
    path = [b] + list(range(host.n, host.n + k - 2)) + [a]
    return Graph(host.n + k - 2, list(host.edges()) + list(zip(path, path[1:])))


def test_an_odd_cycle_or_antihole_rest_is_a_leaf_with_no_split(monkeypatch):
    # The simplicial pass leaves an odd antihole beside a chordal graph, and
    # an odd cycle glued along an edge to one; stage 0 takes that rest as
    # the only leaf at once, with no second pass, line-graph test or split.
    calls = _spy_split(monkeypatch)
    rng = random.Random(38)
    cases = []
    for s in range(4):
        host = random_chordal(8, s)
        for k in (7, 9):
            cases.append((disjoint_union(host, cycle_graph(k).complement()), ((1 << k) - 1) << 8))
        for k in (9, 11):
            glued = _glued_cycle(host, k)
            a, b = next(host.edges())
            cases.append((glued, glued.full_mask & ~host.full_mask | 1 << a | 1 << b))
    for g, ring in cases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        want = mask_of(perm[v] for v in bits(ring))
        calls["peels"].clear()
        assert split_leaves(h) == [want], h.adj
        assert calls["peels"] == [(want, True)], h.adj
    assert (calls["_pieces"], calls["_drop_twins"], calls["_line_of_bipartite"]) == (0, 0, 0)


def test_near_rings_still_go_through_the_split(monkeypatch):
    # none of these is an odd cycle of seven or more or the complement of
    # one, so the first peel returns no ring, alone or beside a chordal
    # graph; the leaves are pinned.  The C7 with a vertex that sees three
    # consecutive cycle vertices loses it as a twin of the middle one, and
    # the C7 left is then a leaf, as each piece of C7 + C9 is: the pass
    # leaves those pieces whole, so they go the long way.
    c7, c9 = cycle_graph(7), cycle_graph(9)
    near = [
        (cycle_graph(5), [0x1F]),
        (cycle_graph(8), []),  # bipartite: certified
        (Graph(7, list(c7.edges()) + [(0, 3)]), [0x7F]),
        (disjoint_union(c7, c9), [0x7F, 0xFF80]),
        (Graph(8, list(c7.edges()) + [(7, 0), (7, 1), (7, 2)]), [0x7F]),
    ]
    calls = _spy_split(monkeypatch)
    host = random_chordal(6, 1)
    for g, leaves in near:
        for h, shift in ((g, 0), (disjoint_union(host, g), host.n)):
            calls["peels"].clear()
            assert split_leaves(h) == [leaf << shift for leaf in leaves], h.adj
            assert not calls["peels"][0][1], h.adj
    # each of the four uncertified ones was split (or tested for one)
    assert calls["_pieces"] >= 8 and calls["_drop_twins"] >= 6, calls


@given(st.integers(0, 10000), st.integers(1, 10), st.sampled_from((0.2, 0.35, 0.5, 0.65, 0.8)))
@settings(max_examples=300, deadline=None)
def test_an_empty_split_leaves_no_odd_antihole(seed, n, p):
    # test_perfect answers perfect on an empty split without searching the
    # complement: every step of the split keeps odd antiholes too
    g = gnp(n, p, seed)
    if split_leaves(g) == []:
        assert oracle_find_odd_hole(g.complement()) is None, g.adj
