import itertools

from oddhole import Graph, is_odd_hole
from oddhole.configs import verify_jewel, verify_pyramid
from oddhole.generators import (
    complete_graph,
    cycle_graph,
    gnp,
    petersen_graph,
    random_bipartite,
)
from oddhole.graph import bits
from oddhole.oracle import oracle_find_odd_hole, oracle_odd_holes
from .reference import oracle_find_jewel, oracle_find_pyramid, shortest_odd_holes


def test_oracle_basic_families():
    found = oracle_find_odd_hole(cycle_graph(5))
    assert found is not None and len(found) == 5
    assert oracle_find_odd_hole(cycle_graph(6)) is None
    assert oracle_find_odd_hole(complete_graph(5)) is None
    for i in range(10):
        assert oracle_find_odd_hole(random_bipartite(5, 5, 0.5, i)) is None


def test_oracle_petersen():
    w = oracle_find_odd_hole(petersen_graph())
    assert w is not None and len(w) == 5
    assert is_odd_hole(petersen_graph(), w)


def _cycles_by_subsets(g):
    """Independent route: a vertex subset induces a cycle iff the induced
    subgraph is connected and 2-regular."""
    out = []
    for r in range(4, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            inside = set(sub)
            degs = [sum(1 for u in bits(g.adj[v]) if u in inside) for v in sub]
            if any(d != 2 for d in degs):
                continue
            # connectivity of the induced 2-regular graph: walk around
            start = sub[0]
            prev, cur = None, start
            steps = 0
            while steps < r:
                nxt = [u for u in bits(g.adj[cur]) if u in inside and u != prev]
                prev, cur = cur, nxt[0]
                steps += 1
                if cur == start:
                    break
            if cur == start and steps == r:
                out.append(sub)
    return out


def test_oracle_agrees_with_subset_enumeration():
    for i in range(40):
        n = 8 if i % 2 else 9
        g = gnp(n, 0.35, 500 + i)
        odd_sets = {
            frozenset(s) for s in _cycles_by_subsets(g) if len(s) % 2 and len(s) >= 5
        }
        holes = {frozenset(c) for c in oracle_odd_holes(g)}
        assert holes == odd_sets


def test_oracle_enumeration_no_duplicates():
    g = cycle_graph(9)
    holes = list(oracle_odd_holes(g))
    assert len(holes) == 1
    g = petersen_graph()
    holes = list(oracle_odd_holes(g))
    assert len(holes) == len({frozenset(h) for h in holes})
    assert len(shortest_odd_holes(g)) == 12  # the twelve 5-cycles


def test_oracle_witnesses_verify():
    for i in range(60):
        g = gnp(9, 0.35, 900 + i)
        w = oracle_find_odd_hole(g)
        if w is not None:
            assert is_odd_hole(g, w)


def test_oracle_pyramid_positive_and_negative():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 4), (4, 1), (3, 5), (5, 2)])
    w = oracle_find_pyramid(g)
    assert w is not None and verify_pyramid(g, w)
    assert oracle_find_pyramid(cycle_graph(7)) is None  # triangle-free


def test_oracle_jewel_positive_and_negative():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 3)])
    w = oracle_find_jewel(g)
    assert w is not None and verify_jewel(g, w)
    for i in range(8):
        assert oracle_find_jewel(random_bipartite(4, 5, 0.5, i)) is None


def test_configuration_presence_implies_odd_hole():
    hits = 0
    for i in range(150):
        g = gnp(8, 0.4, 4200 + i)
        if oracle_find_pyramid(g) is not None or oracle_find_jewel(g) is not None:
            hits += 1
            assert oracle_find_odd_hole(g) is not None
    assert hits >= 10
