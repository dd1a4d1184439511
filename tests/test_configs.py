from itertools import combinations, product

import pytest

from oddhole import (
    Graph,
    JewelWitness,
    PyramidWitness,
    find_jewel,
    find_pyramid,
    is_odd_hole,
    odd_hole_from_jewel,
    odd_hole_from_pyramid,
    verify_jewel,
    verify_pyramid,
)
import oddhole.configs
import oddhole.graph
from oddhole.generators import (
    connected_small_graphs,
    cycle_graph,
    gnp,
    random_bipartite,
    random_chordal,
)
from oddhole.graph import _Search, bits, mask_of
from oddhole.oracle import oracle_find_jewel, oracle_find_pyramid
from .conftest import line_graph, random_graphs


def _pyramid6():
    # base triangle 0,1,2; apex 3 adjacent to 0; two bent legs through 4, 5
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 4), (4, 1), (3, 5), (5, 2)])


def _jewel6():
    # 5-ring 0..4 plus a connector adjacent to 0 and 3
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 3)])


def test_verify_pyramid_positive_and_broken():
    g = _pyramid6()
    w = PyramidWitness(3, (0, 1, 2), ((3, 0), (3, 4, 1), (3, 5, 2)))
    assert verify_pyramid(g, w)
    spoiled = Graph(6, list(g.edges()) + [(4, 5)])  # edge between leg middles
    assert not verify_pyramid(spoiled, w)


def test_verify_pyramid_requires_two_long_legs():
    # all three legs single edges: apex adjacent to the whole triangle
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2)])
    w = PyramidWitness(3, (0, 1, 2), ((3, 0), (3, 1), (3, 2)))
    assert not verify_pyramid(g, w)


def test_verify_jewel_positive_and_broken():
    g = _jewel6()
    w = JewelWitness((0, 1, 2, 3, 4), (0, 5, 3))
    assert verify_jewel(g, w)
    spoiled = Graph(6, list(g.edges()) + [(5, 1)])  # connector sees ring vertex
    assert not verify_jewel(spoiled, w)


def test_find_jewel_positive_negative():
    assert find_jewel(_jewel6()) is not None
    assert find_jewel(cycle_graph(7)) is None


def test_find_pyramid_positive_negative():
    assert find_pyramid(_pyramid6()) is not None
    assert find_pyramid(cycle_graph(7)) is None


def test_extraction_examples():
    g = _pyramid6()
    w = find_pyramid(g)
    hole = odd_hole_from_pyramid(g, w)
    assert is_odd_hole(g, hole) and len(hole) == 5

    g = _jewel6()
    jw = find_jewel(g)
    hole = odd_hole_from_jewel(g, jw)
    assert is_odd_hole(g, hole) and len(hole) == 5


def test_extraction_with_longer_connector():
    # ring 0..4, connector path 0-5-6-3 of length 3 (odd -> close through 4)
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 3)])
    jw = find_jewel(g)
    assert jw is not None
    hole = odd_hole_from_jewel(g, jw)
    assert is_odd_hole(g, hole)


def test_extraction_rejects_invalid_witness():
    g = cycle_graph(7)
    with pytest.raises(ValueError):
        odd_hole_from_pyramid(g, PyramidWitness(0, (1, 2, 3), ((0, 1), (0, 2), (0, 3))))
    with pytest.raises(ValueError):
        odd_hole_from_jewel(g, JewelWitness((0, 1, 2, 3, 4), (0, 6, 3)))


def test_find_matches_oracle_exhaustive_small():
    from oddhole.generators import small_graphs

    for n in range(4, 8):
        for g in small_graphs(n):
            assert (find_jewel(g) is None) == (oracle_find_jewel(g) is None)
            assert (find_pyramid(g) is None) == (oracle_find_pyramid(g) is None)


def test_find_matches_oracle_random():
    for g in random_graphs(120, 6, 9, seed=11):
        fj = find_jewel(g)
        if fj is not None:
            assert verify_jewel(g, fj)
        assert (fj is None) == (oracle_find_jewel(g) is None)
        fp = find_pyramid(g)
        if fp is not None:
            assert verify_pyramid(g, fp)
        assert (fp is None) == (oracle_find_pyramid(g) is None)


def test_fuzz_witnesses_always_verify():
    pyramids = jewels = 0
    for g in random_graphs(500, 5, 10, seed=23):
        w = find_pyramid(g)
        if w is not None:
            pyramids += 1
            assert verify_pyramid(g, w)
            hole = odd_hole_from_pyramid(g, w)
            assert is_odd_hole(g, hole)
        jw = find_jewel(g)
        if jw is not None:
            jewels += 1
            assert verify_jewel(g, jw)
            hole = odd_hole_from_jewel(g, jw)
            assert is_odd_hole(g, hole)
    assert pyramids >= 20 and jewels >= 20


def test_pyramid_runs_each_leg_bfs_once(monkeypatch):
    # Both graphs are perfect, so the whole search runs.  A line graph is
    # claw-free: no apex has three pairwise non-adjacent anchors, so no leg is
    # ever built.  A leg set reads one BFS from its anchor, plus one from its
    # base vertex when the first reaches it, and the search context runs each
    # (source, mask) BFS once: the chordal graph builds 8 distinct leg sets,
    # 6 of them with an unreachable base vertex, and two of these reuse the
    # anchor BFS of another apex's leg set, so it runs 8.  A memo of whole leg sets ran 10, always
    # running the second BFS 16, a BFS per midpoint for each second half 27,
    # and building all three leg sets of a triple before testing any for
    # emptiness 46 with those.
    bfs = oddhole.graph.bfs_distances
    calls = 0

    def counted(g, source, within=None):
        nonlocal calls
        calls += 1
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.graph, "bfs_distances", counted)
    counts = []
    for g in (random_chordal(10, 5), line_graph(random_bipartite(5, 5, 0.5, 0))):
        calls = 0
        assert find_pyramid(g) is None
        counts.append(calls)
    assert counts == [8, 0]


def _product_anchor_triples(g):
    # Every (apex, base, anchors) the pyramid search must try, in its order:
    # the full product of each leg's anchor choices, filtered for distinct,
    # pairwise non-adjacent anchors.
    adj = g.adj
    out = []
    for b1 in range(g.n):
        for b2 in bits(g.adj[b1]):
            if b2 < b1:
                continue
            for b3 in bits(adj[b1] & adj[b2]):
                if b3 < b2:
                    continue
                base = (b1, b2, b3)
                for a in range(g.n):
                    if a in base or sum(g.has_edge(a, b) for b in base) > 1:
                        continue
                    choices = []
                    for bi in base:
                        others = [b for b in base if b != bi]
                        choices.append([bi] if g.has_edge(a, bi) else [
                            v for v in bits(g.adj[a])
                            if all(v != b and not g.has_edge(v, b) for b in others)])
                    for s in product(*choices):
                        if len(set(s)) == 3 and not any(
                            g.has_edge(s[i], s[j]) for i, j in ((0, 1), (0, 2), (1, 2))
                        ):
                            out.append((a, base, s))
    return out


def _first_leg_key(g, a, base, s):
    # The arguments of the first leg set a triple builds: the first leg whose
    # anchor is not its base vertex, with its allowed set written out in full.
    i = next(i for i in range(3) if s[i] != base[i])
    block = g.adj[a] | 1 << a
    for j in range(3):
        if j != i:
            block |= g.adj[base[j]] | 1 << base[j] | g.adj[s[j]] | 1 << s[j]
    return (a, s[i], base[i], g.full_mask & ~block | 1 << s[i] | 1 << base[i])


def test_pyramid_enumerates_the_same_anchor_triples(monkeypatch):
    # With every leg set empty each triple stops at its first built leg set,
    # so the leg sets built are the first keys of the triples, repeats
    # included, in the order the triples are tried.
    built = []

    def no_legs(search, a, si, bi, allowed):
        built.append((a, si, bi, allowed))
        return []

    monkeypatch.setattr(oddhole.configs, "_build_legs", no_legs)
    graphs = [g for n in range(3, 8) for g in connected_small_graphs(n)]
    for i in range(40):
        g = gnp(8 + i % 4, (0.3, 0.45, 0.6)[i % 3], 700 + i)
        graphs += [g, g.complement()]
    triples = total = 0
    for g in graphs:
        built.clear()
        assert find_pyramid(g) is None
        keys = [_first_leg_key(g, *t) for t in _product_anchor_triples(g)]
        assert built == keys
        triples += len(keys)
        total += len(built)
    assert triples > 600 and total > 500


def test_pyramid_legs_belong_to_their_apex(monkeypatch):
    # two apexes with the same anchor, base vertex and allowed set each get
    # legs of their own, and every leg carries the masks of its own path
    build = oddhole.configs._build_legs
    apexes = {}

    def checked(search, a, si, bi, allowed):
        g = search.g
        apexes.setdefault((g, si, bi, allowed), set()).add(a)
        legs = build(search, a, si, bi, allowed)
        for path, body, near in legs:
            assert path[0] == a and path[1] == si and path[-1] == bi
            assert body == oddhole.graph.mask_of(path[1:])
            near_of_path = 0
            for v in path[1:-1]:
                near_of_path |= g.adj[v]
            assert near == near_of_path
        return legs

    monkeypatch.setattr(oddhole.configs, "_build_legs", checked)
    found = 0
    for g in [random_chordal(10, 5)] + [gnp(9 + i % 4, 0.35, 100 + i) for i in range(48)]:
        w = find_pyramid(g)
        if w is not None:
            found += 1
            assert verify_pyramid(g, w)
    assert found >= 10
    assert any(len(shared) > 1 for shared in apexes.values())


def _induced_paths_from(g, a):
    # every induced path starting at a, depth first
    out = []
    stack = [(a,)]
    while stack:
        path = stack.pop()
        out.append(path)
        for v in bits(g.adj[path[-1]]):
            if v not in path and not any(g.has_edge(v, u) for u in path[:-1]):
                stack.append(path + (v,))
    return out


def test_leg_masks_decide_compatibility_like_the_vertex_loop():
    # The search meets few incompatible leg pairs, so every pair of induced
    # paths from one apex to the two ends of an edge is checked here against
    # the vertex-by-vertex test the masks replace.
    def pair_ok(g, p, q, bp, bq):
        if set(p[1:]) & set(q[1:]):
            return False
        for u in p[1:]:
            for v in q[1:]:
                if g.has_edge(u, v) and (u, v) != (bp, bq):
                    return False
        return True

    leg, apart = oddhole.configs._leg, oddhole.configs._apart
    pairs = rejected = 0
    for n in range(2, 7):
        for g in connected_small_graphs(n):
            for a in range(g.n):
                ends = {}
                for path in _induced_paths_from(g, a)[1:]:
                    ends.setdefault(path[-1], []).append(leg(g, path))
                for u, v in g.edges():
                    for bp, bq in ((u, v), (v, u)):
                        for p, body_p, near_p in ends.get(bp, []):
                            for q, body_q, near_q in ends.get(bq, []):
                                ok = pair_ok(g, p, q, bp, bq)
                                assert apart(body_p, near_p, body_q, near_q) == ok, (g, p, q)
                                pairs += 1
                                rejected += not ok
    assert (pairs, rejected) == (16164, 11090)


def test_claw_centres_match_brute_force():
    # a vertex is a claw centre when three of its neighbours are pairwise
    # non-adjacent: the centre of an induced K1,3
    def brute(g):
        return mask_of(a for a in range(g.n) if any(
            not (g.has_edge(x, y) or g.has_edge(x, z) or g.has_edge(y, z))
            for x, y, z in combinations(bits(g.adj[a]), 3)))

    graphs = [g for n in range(1, 8) for g in connected_small_graphs(n)]
    graphs += random_graphs(200, 5, 14, seed=31, ps=(0.2, 0.35, 0.5, 0.7))
    centres = 0
    for g in graphs:
        mask = oddhole.configs._claw_centres(_Search(g))
        assert mask == brute(g), g
        centres += mask != 0
    assert 400 < centres < len(graphs)


def test_pyramid_tries_no_apex_of_a_claw_free_graph(monkeypatch):
    # The anchors of a pyramid are three pairwise non-adjacent neighbours of
    # its apex, so only claw centres are tried.  Line graphs and co-bipartite
    # graphs have none; gnp graphs do.
    at = oddhole.configs._pyramid_at
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return at(*args)

    monkeypatch.setattr(oddhole.configs, "_pyramid_at", counted)
    for s in range(12):
        h = random_bipartite(5, 5, 0.3 + 0.05 * (s % 6), s)
        for g in (line_graph(h), h.complement()):
            assert find_pyramid(g) is None
    assert calls == 0
    for g in random_graphs(40, 8, 12, seed=37):
        find_pyramid(g)
    assert calls > 40


def _jewel_tuples(g):
    # every (v1, .., v5) the jewel search must try, in its order, with the
    # allowed set of its connecting path
    out = []
    for v1 in range(g.n):
        for v2, v3, v4 in product(range(g.n), repeat=3):
            ring = (v1, v2, v3, v4)
            if len(set(ring)) < 4 or not all(map(g.has_edge, ring, ring[1:])):
                continue
            if g.has_edge(v1, v3) or g.has_edge(v2, v4) or g.has_edge(v1, v4):
                continue
            for v5 in bits(g.adj[v4] & g.adj[v1]):
                allowed = {v1, v4} | {u for u in range(g.n) if all(
                    u != x and not g.has_edge(u, x) for x in (v2, v3, v5))}
                out.append(((v1, v2, v3, v4, v5), allowed))
    return out


def _joined(g, u, v, allowed):
    # whether a path runs from u to v inside allowed, by depth-first search
    seen, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for y in bits(g.adj[x]):
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return v in seen


def test_jewel_skips_only_tuples_without_a_path(monkeypatch):
    # A tuple whose v1 or v4 has no allowed neighbour is skipped before its
    # BFS; every skipped tuple has no v1-v4 path, and the witness is the
    # first tuple that has one.
    bfs = oddhole.graph.bfs_distances
    asked = set()

    def recorded(g, source, within=None):
        asked.add((source, within))
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.graph, "bfs_distances", recorded)
    tried = skipped = found = 0
    for g in random_graphs(150, 6, 10, seed=41, ps=(0.3, 0.45, 0.6)):
        asked.clear()
        w = find_jewel(g)
        first = None
        for ring, allowed in _jewel_tuples(g):
            joined = _joined(g, ring[0], ring[3], allowed)
            if (ring[0], mask_of(allowed)) in asked:
                tried += 1
            else:
                assert not joined, (g, ring)
                skipped += 1
            if joined:
                first = ring
                break
        assert (w and w.ring) == first, g
        found += w is not None
    # some tried tuples have no path either: the mask test is only necessary
    assert (tried, skipped, found) == (58, 1422, 44)


def test_jewel_asks_for_no_bfs_on_co_bipartite_graphs(monkeypatch):
    # In a co-bipartite graph a neighbour of v4 outside the closed
    # neighbourhoods of v2, v3 and v5 is on v1's side, so v1 sees it: every
    # tuple that passes the mask test has a path of length two, and there is
    # no jewel, so none passes.
    calls = 0
    bfs = oddhole.graph.bfs_distances

    def counted(g, source, within=None):
        nonlocal calls
        calls += 1
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.graph, "bfs_distances", counted)
    for s in range(20):
        g = random_bipartite(4 + s % 4, 5, (0.3, 0.5, 0.7)[s % 3], 50 + s).complement()
        assert find_jewel(g) is None
    assert calls == 0
