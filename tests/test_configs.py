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
from oddhole.generators import cycle_graph, gnp, random_bipartite, random_chordal
from oddhole.oracle import oracle_find_jewel, oracle_find_pyramid
from .conftest import random_graphs


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


def _line_graph(h):
    es = list(h.edges())
    return Graph(len(es), [(i, j) for i in range(len(es)) for j in range(i + 1, len(es))
                           if set(es[i]) & set(es[j])])


def test_pyramid_builds_each_leg_set_once(monkeypatch):
    # Both graphs are perfect, so the whole search runs.  A line graph is
    # claw-free: no apex has three pairwise non-adjacent anchors, so no leg is
    # ever built.  A BFS per midpoint for each first half, and each leg set
    # rebuilt for every anchor triple that needs it, made 108 and 0.
    bfs = oddhole.graph.bfs_distances
    calls = 0

    def counted(g, source, within=None):
        nonlocal calls
        calls += 1
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.graph, "bfs_distances", counted)
    counts = []
    for g in (random_chordal(10, 5), _line_graph(random_bipartite(5, 5, 0.5, 0))):
        calls = 0
        assert find_pyramid(g) is None
        counts.append(calls)
    assert counts == [46, 0]


def test_pyramid_legs_belong_to_their_apex(monkeypatch):
    # two apexes with the same anchor, base vertex and allowed set each get
    # legs of their own
    build = oddhole.configs._build_legs
    candidates = oddhole.configs._leg_candidates
    apexes = {}

    def recorded(g, a, si, bi, allowed):
        apexes.setdefault((g, si, bi, allowed), set()).add(a)
        return build(g, a, si, bi, allowed)

    def checked(g, a, base, s, i, memo):
        legs = candidates(g, a, base, s, i, memo)
        assert all(leg[0] == a for leg in legs)
        return legs

    monkeypatch.setattr(oddhole.configs, "_build_legs", recorded)
    monkeypatch.setattr(oddhole.configs, "_leg_candidates", checked)
    found = 0
    for g in [random_chordal(10, 5)] + [gnp(9 + i % 4, 0.35, 100 + i) for i in range(48)]:
        w = find_pyramid(g)
        if w is not None:
            found += 1
            assert verify_pyramid(g, w)
    assert found >= 10
    assert any(len(shared) > 1 for shared in apexes.values())
