import random

import pytest

import oddhole.cleaning
import oddhole.graph
from oddhole import Graph, detect, is_odd_hole
from oddhole.cleaning import (
    _classify,
    _opposite_hole,
    _sweep,
    test_clean,
    test_heavy_cleanable,
)
from oddhole.configs import find_jewel, find_pyramid, odd_hole_from_pyramid
from oddhole.formats import parse_graph6
from oddhole.generators import complete_graph, cycle_graph, gnp, petersen_graph
from oddhole.oracle import oracle_find_odd_hole
from oddhole.probes import major_vertices
from oddhole.graph import (
    _Search,
    bfs_distances,
    bits,
    certifies_berge,
    induced_four_paths,
    mask_of,
    walk_down,
)
from .conftest import random_graphs
from .reference import (
    connected_small_graphs,
    oracle_find_jewel,
    oracle_find_pyramid,
    shortest_odd_holes,
    small_graphs,
)


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
    # a mask with a bit outside the graph, a negative one included, is
    # refused: (-1).bit_count() is 1, so -1 would pass for a mask too small
    # to hold an odd hole, though C5 is one
    for mask in (-1, 31 | 1 << 7):
        with pytest.raises(ValueError, match="outside the graph"):
            test_clean(cycle_graph(5), mask)


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
        if all(major_vertices(g, h) for h in holes):
            continue
        exercised += 1
        assert test_clean(g) is not None
    assert exercised >= 50


def test_heavy_cleanable_examples():
    hole = test_heavy_cleanable(cycle_graph(7))
    assert hole is not None and len(hole) == 7
    assert test_heavy_cleanable(cycle_graph(6)) is None


def _scan(search, within, y1):
    # the sweep's scan of one mask from y1 alone, on the context's BFS
    return _opposite_hole(search.g, search.dist(y1, within))


def _record_scans(monkeypatch):
    # every scan of the sweep as [mask, y1, hole]: the sweep asks the
    # context for the BFS from y1 in the mask and hands it to _opposite_hole
    scans = []
    dist = oddhole.graph._Search.dist

    def asked(self, source, mask):
        scans.append([mask, source, None])
        return dist(self, source, mask)

    def scanned(g, d1):
        hole = scans[-1][2] = _opposite_hole(g, d1)
        return hole

    monkeypatch.setattr(oddhole.graph._Search, "dist", asked)
    monkeypatch.setattr(oddhole.cleaning, "_opposite_hole", scanned)
    return scans


def test_clean_through_finds_odd_cycles_from_every_vertex():
    for k in range(5, 16, 2):
        g = cycle_graph(k)
        search = _Search(g)
        for y in range(k):
            hole = _scan(search, g.full_mask, y)
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
    scans = _record_scans(monkeypatch)
    hole = test_heavy_cleanable(g)
    assert hole is not None and sorted(hole) == list(range(4, 13))
    within, p2, found = scans[-1]
    assert found == hole and p2 in hole
    # The deciding mask keeps the pendant path, whose vertices come first but
    # lie on no hole, and every odd hole of the mask passes through p2.
    assert within & 0b11 == 0b11
    assert oracle_find_odd_hole(_induced(g, within & ~(1 << p2))) is None
    search = _Search(g)
    assert all(_scan(search, within, y) is None for y in (0, 1))


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


def _walk_and_verify_scan(g, d1):
    # the clean scan before its mask test: walk every edge y2y3 inside a
    # layer from the second on, and keep the first cycle that verifies
    adj, layers = g.adj, d1.layers
    far = 0
    for layer in layers[2:]:
        far |= layer
    for y2 in bits(far):
        head = walk_down(g, d1, y2)[::-1]
        for y3 in bits(adj[y2] & layers[d1[y2]] >> (y2 + 1) << (y2 + 1)):
            cycle = tuple(head) + tuple(walk_down(g, d1, y3)[:-1])
            if is_odd_hole(g, cycle):
                return cycle
    return None


def test_opposite_hole_matches_the_walk_and_verify_scan(monkeypatch):
    # The mask test is exact both ways: the scan returns the cycle that
    # walking and verifying every pair returns, and the one cycle it builds
    # and verifies is that one, so no pair whose cycle fails gets past it.
    verify = oddhole.cleaning.is_odd_hole
    verdicts = []
    monkeypatch.setattr(oddhole.cleaning, "is_odd_hole",
                        lambda g, cycle: verdicts.append(verify(g, cycle)) or verdicts[-1])
    rng = random.Random(2300)
    scans = found = 0
    for i in range(160):
        g = gnp(7 + i % 8, (0.15, 0.25, 0.4, 0.6)[i % 4], 2300 + i)
        for h in (g, g.complement()):
            within = h.full_mask
            if i % 2:
                within = sum(1 << v for v in range(h.n) if rng.random() < 0.8)
            for y1 in bits(within):
                d1 = bfs_distances(h, y1, within)
                verdicts.clear()
                hole = _opposite_hole(h, d1)
                assert hole == _walk_and_verify_scan(h, d1), (h.adj, within, y1)
                assert verdicts == ([] if hole is None else [True]), (h.adj, within, y1)
                scans += 1
                found += hole is not None
    assert scans > 2500 and found > 450, (scans, found)


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
                if certifies_berge(h, within):
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
            _scan(_Search(g), g.full_mask, y)
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


def _steps_off(g, path):
    # both ends of p1-p2-p3-p4 have a neighbour outside N[p2] | N[p3]; the
    # path may carry its sweep's rest as a fifth entry, which is not read
    p1, p2, p3, p4 = path[:4]
    rest = g.full_mask & ~(g.adj[p2] | g.adj[p3] | 1 << p2 | 1 << p3)
    return bool(g.adj[p1] & rest) and bool(g.adj[p4] & rest)


def _unskipped_sweep(search):
    # the sweep without its step-off test: the scan from p2 on every
    # four-path of the table, each (mask, p2) with its answer
    g = search.g
    out = []
    for p in search.four_paths:
        within = g.full_mask & ~((g.adj[p[1]] | g.adj[p[2]]) & ~mask_of(p[:4]))
        out.append((p, within, _scan(search, within, p[1])))
    return out


def test_heavy_sweep_scans_only_four_paths_whose_ends_step_off(monkeypatch):
    # The sweep returns what the scan of every four-path returns, and scans
    # exactly the four-paths up to its hole whose two ends can step off
    # them; on every other four-path the scan finds no hole.
    scans = _record_scans(monkeypatch)
    skipped = kept = found = 0
    for i in range(120):
        g = gnp(8 + i % 6, (0.2, 0.3, 0.45)[i % 3], 6100 + i)
        for h in (g, g.complement()):
            scans.clear()
            hole = _sweep(_Search(h))
            scanned = [(within, y1) for within, y1, _ in scans]
            want = None
            expected = []
            for p, within, got in _unskipped_sweep(_Search(h)):
                if not _steps_off(h, p):
                    assert got is None, (h.adj, p)
                    skipped += 1
                    continue
                kept += 1
                if want is None:
                    expected.append((within, p[1]))
                    want = got
            assert hole == want, h.adj
            assert scanned == expected, h.adj
            found += hole is not None
    assert skipped > 3000 and kept > 4000 and found > 100, (skipped, kept, found)


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
    hole = _classify(_Search(cycle_graph(5)))
    assert hole is not None and len(hole) == 5
    assert _classify(_Search(cycle_graph(6))) is None
    hole = _classify(_Search(petersen_graph()))
    assert hole is not None and is_odd_hole(petersen_graph(), hole)


# an apex joined to a triangle by three paths of length two: a pyramid, with
# no jewel, whose shortest odd holes are the 5-cycles through two paths
PYRAMID = Graph(7, [(1, 2), (2, 3), (1, 3), (0, 4), (4, 1), (0, 5), (5, 2), (0, 6), (6, 3)])


def test_detect_finds_the_pyramid_hole_through_the_pyramid_stage():
    assert find_jewel(PYRAMID) is None
    hole = odd_hole_from_pyramid(PYRAMID, find_pyramid(PYRAMID))
    assert is_odd_hole(PYRAMID, hole)
    assert detect(PYRAMID) == _classify(_Search(PYRAMID)) == hole


def test_classify_candidate_implies_no_configurations():
    for g in random_graphs(200, 5, 9, seed=41):
        if _classify(_Search(g)) is None:
            assert oracle_find_pyramid(g) is None
            assert oracle_find_jewel(g) is None


def test_classify_witnesses_verify():
    for g in random_graphs(300, 5, 10, seed=51):
        hole = _classify(_Search(g))
        if hole is not None:
            assert is_odd_hole(g, hole)


def test_small_graph_shortcut():
    assert _classify(_Search(complete_graph(4))) is None
    assert _classify(_Search(Graph(0))) is None


def test_sweep_lists_the_four_paths_only_up_to_its_hole(monkeypatch):
    # The sweep walks the four-path table as it is listed: one that finds a
    # hole lists the entries up to it only, and returns the hole that the
    # sweep over the whole table returns.  A later reader of the context
    # gets the whole table, and the rest is listed once.
    lister = oddhole.graph._list_four_paths
    listed = []

    def counted(g, closed, out):
        for entry in lister(g, closed, out):
            listed.append(entry)
            yield entry

    monkeypatch.setattr(oddhole.graph, "_list_four_paths", counted)
    shorter = 0
    for i in range(120):
        g = gnp(8 + i % 6, (0.2, 0.3, 0.45)[i % 3], 6100 + i)
        for h in (g, g.complement()):
            listed.clear()
            search = _Search(h)
            hole = _sweep(search)
            walked = list(listed)
            whole = _Search(h)
            table = whole.four_paths
            assert _sweep(whole) == hole and walked == table[:len(walked)], h.adj
            if hole is None:
                assert walked == table, h.adj
            shorter += len(walked) < len(table)
            listed.clear()
            assert search.four_paths == table and listed == table[len(walked):], h.adj
    assert shorter > 50, shorter
