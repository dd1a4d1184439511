import random

from oddhole import is_odd_hole
from oddhole.cleaning import classify_candidate
from oddhole.generators import (
    complete_graph,
    connected_small_graphs,
    cycle_graph,
    decorated_odd_cycle,
    gnp,
    random_bipartite,
)
from oddhole.oracle import oracle_find_odd_hole
from oddhole.simple import detect_simple, detect_with_simple_pipeline
from .conftest import random_graphs


def test_simple_trivial_negatives():
    assert detect_simple(cycle_graph(6)) is None
    assert detect_simple(complete_graph(4)) is None


def test_simple_pipeline_families():
    hole = detect_with_simple_pipeline(cycle_graph(5))
    assert hole is not None and len(hole) == 5
    for i in range(10):
        assert detect_with_simple_pipeline(random_bipartite(4, 5, 0.5, i)) is None
    # the reference detector alone finds this hole (it returns None on C7,
    # which is no candidate: the heavy-cleanable sweep decides it)
    g = decorated_odd_cycle(9, 1, 3)
    hole = detect_simple(g)
    assert hole is not None and is_odd_hole(g, hole)


def test_simple_pipeline_matches_oracle_exhaustive():
    for n in range(1, 8):
        for g in connected_small_graphs(n):
            got = detect_with_simple_pipeline(g)
            want = oracle_find_odd_hole(g)
            assert (got is None) == (want is None)
            if got is not None:
                assert is_odd_hole(g, got)


def test_simple_matches_oracle_on_candidates():
    checked = 0
    for g in random_graphs(150, 8, 12, seed=61):
        if classify_candidate(g) is not None:
            continue
        checked += 1
        got = detect_simple(g)
        want = oracle_find_odd_hole(g)
        assert (got is None) == (want is None)
    assert checked >= 40


def test_pipeline_agreement_random_mid_sizes():
    for g in random_graphs(120, 8, 12, seed=71):
        got = detect_with_simple_pipeline(g)
        want = oracle_find_odd_hole(g)
        assert (got is None) == (want is None)
        if got is not None:
            assert is_odd_hole(g, got)


def test_relabeling_invariance():
    rng = random.Random(17)
    for i in range(40):
        g = gnp(9, 0.3, 8800 + i)
        perm = list(range(9))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert (detect_with_simple_pipeline(g) is None) == (
            detect_with_simple_pipeline(h) is None
        )
