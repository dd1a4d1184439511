import random

from oddhole import (
    Graph,
    classify_candidate,
    detect,
    detect_fast,
    detect_simple,
    is_odd_hole,
)
import oddhole.fast
from oddhole.fast import (
    detect_type1,
    detect_type2,
    detect_type3,
    detect_type4,
    detect_type5,
    detect_type6,
)
from oddhole.generators import (
    complete_graph,
    cycle_graph,
    decorated_odd_cycle,
    gnp,
    petersen_graph,
    random_bipartite,
    random_chordal,
)
from oddhole.oracle import oracle_find_odd_hole
from .conftest import random_graphs

ALL_TYPES = (
    detect_type1,
    detect_type2,
    detect_type3,
    detect_type4,
    detect_type5,
    detect_type6,
)


def test_types_trivial_negatives():
    for det in ALL_TYPES:
        assert det(cycle_graph(6)) is None
        assert det(complete_graph(5)) is None


def test_types_sound_on_decorated_instances():
    hits = {i: 0 for i in range(1, 7)}
    for seed in range(60):
        k = 7 if seed % 2 else 9
        g = decorated_odd_cycle(k, 1 + seed % 2, seed)
        for i, det in enumerate(ALL_TYPES, 1):
            hole = det(g)
            if hole is not None:
                assert is_odd_hole(g, hole)
                hits[i] += 1
    # every staged detector's positive path fires somewhere in this family
    assert all(hits[i] > 0 for i in hits), hits


def test_each_shape_searches_a_masked_bfs_once(monkeypatch):
    # both graphs are perfect, so every shape runs its whole enumeration; the
    # chordal one also reaches shapes 3-6, which skip the co-bipartite one
    graphs = (random_bipartite(5, 5, 0.5, 3).complement(), random_chordal(10, 1))
    bfs = oddhole.fast.bfs_distances
    keys = []

    def counted(g, source, within=None):
        keys.append((source, within))
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.fast, "bfs_distances", counted)
    for det in ALL_TYPES:
        calls = 0
        for g in graphs:
            keys.clear()
            assert det(g) is None
            assert len(keys) == len(set(keys)), det.__name__
            calls += len(keys)
        assert calls > 0, det.__name__


def test_detect_known_families():
    for k in (5, 7, 9):
        hole = detect(cycle_graph(k))
        assert hole is not None and len(hole) == k
    for k in (4, 6, 8):
        assert detect(cycle_graph(k)) is None
    hole = detect(petersen_graph())
    assert hole is not None and len(hole) == 5
    for i in range(10):
        assert detect(random_bipartite(5, 6, 0.4, i)) is None


def test_detect_fast_equals_simple_on_candidates():
    checked = 0
    for g in random_graphs(200, 5, 10, seed=81):
        if classify_candidate(g) is not None:
            continue
        checked += 1
        assert (detect_fast(g) is None) == (detect_simple(g) is None)
    assert checked >= 60


def test_detect_matches_oracle_random():
    for g in random_graphs(250, 5, 12, seed=91):
        got = detect(g)
        want = oracle_find_odd_hole(g)
        assert (got is None) == (want is None)
        if got is not None:
            assert is_odd_hole(g, got)


def test_detect_relabeling_invariance():
    rng = random.Random(5)
    for i in range(40):
        g = gnp(10, 0.3, 6100 + i)
        perm = list(range(10))
        rng.shuffle(perm)
        assert (detect(g) is None) == (detect(g.relabel(perm)) is None)


def test_detect_small_graphs():
    assert detect(Graph(0)) is None
    assert detect(Graph(3, [(0, 1), (1, 2), (2, 0)])) is None
    assert detect(complete_graph(4)) is None
