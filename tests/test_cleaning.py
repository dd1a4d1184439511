import random

import oddhole.cleaning
import oddhole.graph
from oddhole import (
    Graph,
    classify_candidate,
    is_odd_hole,
    test_clean,
    test_heavy_cleanable,
)
from oddhole.cleaning import _clean_through, _opposite_hole
from oddhole.configs import find_jewel, find_pyramid
from oddhole.formats import parse_graph6
from oddhole.generators import (
    complete_graph,
    connected_small_graphs,
    cycle_graph,
    gnp,
    petersen_graph,
    small_graphs,
)
from oddhole.oracle import (
    oracle_find_jewel,
    oracle_find_odd_hole,
    oracle_find_pyramid,
    shortest_odd_holes,
)
from oddhole.probes import is_clean, major_vertices
from oddhole.graph import (
    _Search,
    bfs_distances,
    bits,
    induced_four_paths,
    peels_to_bipartite,
    walk_down,
)
from .conftest import random_graphs


def test_clean_finds_plain_odd_cycles():
    for k in (5, 7, 9, 11):
        hole = test_clean(cycle_graph(k))
        assert hole is not None and len(hole) == k


def test_clean_rejects_holeless():
    assert test_clean(cycle_graph(6)) is None
    assert test_clean(complete_graph(6)) is None


def test_clean_respects_mask():
    c7 = cycle_graph(7)
    within = c7.full_mask & ~1  # drop vertex 0: what remains is a path
    assert test_clean(c7, within) is None


def test_clean_witnesses_verify():
    for g in random_graphs(200, 5, 10, seed=31):
        hole = test_clean(g)
        if hole is not None:
            assert is_odd_hole(g, hole)


def test_clean_complete_on_clean_small_graphs():
    """Pyramid/jewel-free graphs with a clean shortest odd hole are found."""
    exercised = 0
    pool = [g for n in range(5, 8) for g in small_graphs(n)]
    pool += random_graphs(300, 8, 9, seed=29)
    for g in pool:
        holes = shortest_odd_holes(g)
        if not holes:
            continue
        if oracle_find_pyramid(g) is not None or oracle_find_jewel(g) is not None:
            continue
        if not any(is_clean(g, h) for h in holes):
            continue
        exercised += 1
        assert test_clean(g) is not None
    assert exercised >= 50


def test_heavy_cleanable_examples():
    hole = test_heavy_cleanable(cycle_graph(7))
    assert hole is not None and len(hole) == 7
    assert test_heavy_cleanable(cycle_graph(6)) is None


def test_clean_through_finds_odd_cycles_from_every_vertex():
    for k in range(5, 16, 2):
        g = cycle_graph(k)
        search = _Search(g)
        for y in range(k):
            hole = _clean_through(search, g.full_mask, y)
            assert hole is not None and len(hole) == k and y in hole, (k, y)


# C9 on vertices 4-12 with two adjacent majors 2 and 3, and the path 0-1
# hanging off the hole vertex 8: pyramid- and jewel-free, and the majors keep
# the hole from being clean in the whole graph.
PENDANT_C9 = "L`CghDPGH_a@I@"


def _induced(g, mask):
    vs = list(bits(mask))
    index = {v: i for i, v in enumerate(vs)}
    return Graph(len(vs), [(index[u], index[v]) for u, v in g.edges()
                           if u in index and v in index])


def test_heavy_sweep_finds_the_hole_through_p2(monkeypatch):
    g = parse_graph6(PENDANT_C9).graph
    assert find_jewel(g) is None and find_pyramid(g) is None
    assert test_clean(g) is None
    scans = []

    def recorded(search, allowed, y1):
        hole = _clean_through(search, allowed, y1)
        scans.append((allowed, y1, hole))
        return hole

    monkeypatch.setattr(oddhole.cleaning, "_clean_through", recorded)
    hole = test_heavy_cleanable(g)
    assert hole is not None and sorted(hole) == list(range(4, 13))
    within, p2, found = scans[-1]
    assert found == hole and p2 in hole
    # The deciding mask keeps the pendant path, whose vertices come first but
    # lie on no hole, and every odd hole of the mask passes through p2.
    assert within & 0b11 == 0b11
    assert oracle_find_odd_hole(_induced(g, within & ~(1 << p2))) is None
    search = _Search(g)
    assert all(_clean_through(search, within, y) is None for y in (0, 1))


def _triple_scan(g, within):
    # the reference clean test: every vertex triple whose pairwise distances
    # have an odd sum of at least five, with the three shortest paths glued
    verts = list(bits(within))
    dist = {v: bfs_distances(g, v, within) for v in verts}
    for i, y1 in enumerate(verts):
        for j in range(i + 1, len(verts)):
            y2 = verts[j]
            for y3 in verts[j + 1:]:
                d = (dist[y1][y2], dist[y2][y3], dist[y3][y1])
                if min(d) < 0 or sum(d) < 5 or sum(d) % 2 == 0:
                    continue
                p12 = walk_down(g, dist[y1], y2)[::-1]  # y1 .. y2
                p23 = walk_down(g, dist[y2], y3)[::-1]  # y2 .. y3
                p31 = walk_down(g, dist[y3], y1)[::-1]  # y3 .. y1
                cycle = tuple(p12 + p23[1:] + p31[1:-1])
                if is_odd_hole(g, cycle):
                    return cycle
    return None


def test_clean_matches_the_triple_scan():
    graphs = [g for n in range(1, 8) for g in connected_small_graphs(n)]
    for i in range(300):
        g = gnp(8 + i % 5, (0.2, 0.35, 0.5)[i % 3], 9100 + i)
        graphs += [g, g.complement()]
    tested = found = 0
    for g in graphs:
        if find_jewel(g) is not None or find_pyramid(g) is not None:
            continue
        hole = test_clean(g)
        assert (hole is None) == (_triple_scan(g, g.full_mask) is None), g
        tested += 1
        if hole is not None:
            assert is_odd_hole(g, hole)
            found += 1
    assert tested > 1200 and found > 50, (tested, found)


def _ungated_clean(g, within):
    # test_clean without its peel test: the scan from every vertex of the mask
    for y1 in bits(within):
        hole = _opposite_hole(g, bfs_distances(g, y1, within))
        if hole is not None:
            return hole
    return None


def test_clean_runs_no_bfs_on_a_mask_that_peels(monkeypatch):
    # A mask that peels to bipartite holds no odd hole, and test_clean
    # answers None for it without a BFS; on every mask it gives what the
    # scan from each vertex gives.
    bfs = oddhole.cleaning.bfs_distances
    calls = 0

    def counted(g, source, within=None):
        nonlocal calls
        calls += 1
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.cleaning, "bfs_distances", counted)
    rng = random.Random(4700)
    peeled = searched = found = 0
    for i in range(150):
        g = gnp(8 + i % 6, (0.2, 0.35, 0.5)[i % 3], 4700 + i)
        for h in (g, g.complement()):
            for _ in range(4):
                within = sum(1 << v for v in range(h.n) if rng.random() < 0.75)
                calls = 0
                hole = test_clean(h, within)
                asked = calls
                assert hole == (_ungated_clean(h, within) if within.bit_count() >= 5 else None)
                if peels_to_bipartite(h, within):
                    assert asked == 0 and hole is None
                    peeled += 1
                else:
                    searched += 1
                    found += hole is not None
    assert peeled > 100 and searched > found > 50, (peeled, searched, found)


def test_clean_through_runs_one_bfs(monkeypatch):
    bfs = oddhole.graph.bfs_distances
    calls = 0

    def counted(g, source, within=None):
        nonlocal calls
        calls += 1
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.graph, "bfs_distances", counted)
    for g in (parse_graph6(PENDANT_C9).graph, cycle_graph(9), petersen_graph()):
        for y in range(g.n):
            calls = 0
            _clean_through(_Search(g), g.full_mask, y)
            assert calls == 1, (g, y)


def _full_scan_sweep(g):
    # the sweep before it fixed p2: the triple scan over every mask
    full, adj = g.full_mask, g.adj
    seen = set()
    for (p1, p2, p3, p4) in induced_four_paths(g):
        four = (1 << p1) | (1 << p2) | (1 << p3) | (1 << p4)
        within = full & ~((adj[p2] | adj[p3]) & ~four)
        if within in seen:
            continue
        seen.add(within)
        hole = _triple_scan(g, within)
        if hole is not None:
            return hole
    return None


def test_heavy_sweep_through_p2_matches_the_full_scan():
    graphs = [g for n in range(1, 8) for g in connected_small_graphs(n)]
    assert len(graphs) == 996
    for i in range(60):
        g = gnp(8 + i % 5, (0.2, 0.35, 0.5)[i % 3], 7700 + i)
        graphs += [g, g.complement()]
    found = 0
    for g in graphs:
        hole = test_heavy_cleanable(g)
        assert (hole is None) == (_full_scan_sweep(g) is None)
        if hole is not None:
            assert is_odd_hole(g, hole)
            found += 1
    assert found > 150


def _has_dominating_edge(g, h):
    majors = list(bits(major_vertices(g, h)))
    k = len(h)
    for i in range(k):
        u, v = h[i], h[(i + 1) % k]
        if u in majors or v in majors:
            continue
        if all(g.has_edge(m, u) or g.has_edge(m, v) for m in majors):
            return True
    return False


def test_heavy_cleanable_on_dominated_instances():
    """Graphs whose every shortest odd hole has a dominating edge are caught."""
    exercised = 0
    pool = [g for n in range(5, 8) for g in small_graphs(n)]
    pool += random_graphs(200, 8, 9, seed=37)
    for g in pool:
        holes = shortest_odd_holes(g)
        if not holes:
            continue
        if oracle_find_pyramid(g) is not None or oracle_find_jewel(g) is not None:
            continue
        if not any(_has_dominating_edge(g, h) for h in holes):
            continue
        exercised += 1
        assert test_heavy_cleanable(g) is not None
    assert exercised >= 50


def test_classify_examples():
    hole = classify_candidate(cycle_graph(5))
    assert hole is not None and len(hole) == 5
    assert classify_candidate(cycle_graph(6)) is None
    hole = classify_candidate(petersen_graph())
    assert hole is not None and is_odd_hole(petersen_graph(), hole)


def test_classify_candidate_implies_no_configurations():
    for g in random_graphs(200, 5, 9, seed=41):
        if classify_candidate(g) is None:
            assert oracle_find_pyramid(g) is None
            assert oracle_find_jewel(g) is None


def test_classify_witnesses_verify():
    for g in random_graphs(300, 5, 10, seed=51):
        hole = classify_candidate(g)
        if hole is not None:
            assert is_odd_hole(g, hole)


def test_small_graph_shortcut():
    assert classify_candidate(complete_graph(4)) is None
    assert classify_candidate(Graph(0)) is None
