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
    is_odd_hole,
    mask_of,
    shortest_path,
    split_leaves,
    walk_down,
)
from oddhole.generators import (
    complete_graph,
    connected_small_graphs,
    cycle_graph,
    gnp,
    path_graph,
    random_bipartite,
)
from oddhole.oracle import oracle_find_odd_hole, oracle_odd_holes
from oddhole.pipeline import ResultDocument, run_detection
from .conftest import line_graph, split_family_graphs


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


def test_is_induced_path_matches_definition_on_random_graphs():
    for i in range(80):
        g = gnp(8, 0.35, i)
        # try all sequences of length 4 starting from vertex pairs
        for seq in itertools.permutations(range(8), 4):
            got = is_induced_path(g, seq)
            consec = all(g.has_edge(seq[j], seq[j + 1]) for j in range(3))
            nonconsec = all(
                not g.has_edge(seq[a], seq[b])
                for a in range(4)
                for b in range(a + 2, 4)
            )
            assert got == (consec and nonconsec)
        if i >= 8:  # the double loop is heavy; a few graphs suffice
            break


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
    c7 = cycle_graph(7)
    assert shortest_path(c7, 0, 3) == (0, 1, 2, 3)
    assert shortest_path(Graph(4, [(0, 1), (2, 3)]), 0, 3) is None


def test_shortest_path_deterministic_lowest_id():
    # diamond: two shortest 0-3 routes via 1 or 2; lowest id wins
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert shortest_path(g, 0, 3) == (0, 1, 3)


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
            p = shortest_path(g, 0, v)
            if d[v] == UNREACHABLE:
                assert p is None
            else:
                assert p is not None and len(p) - 1 == d[v]
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
    h = g.relabel(perm)
    for u in range(8):
        for v in range(8):
            assert g.has_edge(u, v) == h.has_edge(perm[u], perm[v])


def _certified_by_definition(g, mask, co_simplicial=True):
    # certifies_berge as its definition states it, one vertex and one pair at
    # a time: delete simplicial and co-simplicial vertices while any is left,
    # then two-colour the rest or its complement.  Without ``co_simplicial``
    # it is the simplicial peel and the bipartite test alone.
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
        colour = {}
        for s in sorted(alive):
            if s in colour:
                continue
            colour[s] = 0
            todo = [s]
            while todo:
                u = todo.pop()
                for w in alive - {u}:
                    if edge(u, w) != co:
                        if w not in colour:
                            colour[w] = 1 - colour[u]
                            todo.append(w)
                        elif colour[w] == colour[u]:
                            return False
        return True

    return two_colours(False) or (co_simplicial and two_colours(True))


def test_certified_graphs_are_berge():
    # every certified graph and its complement have no odd hole; the test
    # agrees with its definition and gives its complement the same answer
    graphs = [g for n in range(1, 8) for g in connected_small_graphs(n)]
    sampled = [gnp(8 + i % 3, (0.15, 0.3, 0.5)[i % 3], 4100 + i) for i in range(120)]
    # line graphs of bipartite graphs are Berge, and many are not certified
    sampled += [line_graph(random_bipartite(4, 4, 0.5, 4400 + i)) for i in range(40)]
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


def test_certifies_berge_within_a_mask_tests_the_induced_graph():
    # and every sub-mask of a certified mask is certified: the anchored
    # shapes drop a four-path whose sweep mask is certified, with every guess
    # inside it.  Many masks are certified only through co-simplicial
    # deletions or a co-bipartite rest.
    rng = random.Random(23)
    graphs = [gnp(10 + i % 4, (0.2, 0.35, 0.5, 0.65)[i % 4], 4500 + i) for i in range(120)]
    graphs += [g.complement() for g in graphs]
    certified = kept = co_only = 0
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
            # every sub-mask of a small mask, and 200 random ones of a larger one
            if mask.bit_count() <= 8:
                subs = [sub for sub in range(mask + 1) if sub & mask == sub]
            else:
                subs = [rng.getrandbits(g.n) & mask for _ in range(200)]
            for sub in subs:
                assert certifies_berge(g, sub), (g.adj, mask, sub)
    assert certified > 300 and kept > 200 and co_only > 150, (certified, kept, co_only)


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
