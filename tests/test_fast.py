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
    _anchored_cuts,
    _split_cuts,
    detect_type1,
    detect_type2,
    detect_type3,
    detect_type4,
    detect_type5,
    detect_type6,
)
from oddhole.generators import (
    complete_graph,
    connected_small_graphs,
    cycle_graph,
    decorated_odd_cycle,
    gnp,
    petersen_graph,
    random_bipartite,
    random_chordal,
)
from oddhole.graph import bits, induced_four_paths, induced_three_paths
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
        # reversing the labels flips every c2 < c3 edge of shapes 1-2 onto
        # its mirror, which must not change any shape's verdict
        flipped = g.relabel(range(g.n - 1, -1, -1))
        for i, det in enumerate(ALL_TYPES, 1):
            hole = det(g)
            if hole is not None:
                assert is_odd_hole(g, hole)
                hits[i] += 1
            assert (det(flipped) is None) == (hole is None), (i, seed)
    # every staged detector's positive path fires, each as often as pinned
    assert hits == {1: 37, 2: 12, 3: 41, 4: 36, 5: 60, 6: 5}


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


def _unfiltered_split_cuts(g, arcs):
    # every guess of shapes 1-2, with no test for dead ones
    full, adj = g.full_mask, g.adj
    for c2, c3 in arcs:
        pairbit = (1 << c2) | (1 << c3)
        c1base = adj[c2] & ~adj[c3] & ~pairbit
        c4base = adj[c3] & ~adj[c2] & ~pairbit
        if not c1base or not c4base:
            continue
        x2base = (adj[c2] | adj[c3]) & ~pairbit
        for (d1, x, d2) in induced_three_paths(g):
            trip = (1 << d1) | (1 << x) | (1 << d2)
            if trip & pairbit:
                continue
            xbit = 1 << x
            drop = (adj[d1] & adj[d2] & ~xbit) | (x2base & ~trip) | xbit
            gp = full & ~(drop | (adj[x] & ~trip))
            yield (c2, c3, c1base & ~xbit, c4base & ~xbit, d1, d2, trip,
                   trip | pairbit, drop, gp)


def _checked_anchored_cuts(g, anchor_on_c3):
    # every guess of shapes 3-6, kept by the survival test on the anchor and d2
    full, adj = g.full_mask, g.adj
    for p in induced_four_paths(g):
        for (c1, d1, c3, c4) in (p, p[::-1]):
            cbits = (1 << c1) | (1 << d1) | (1 << c3) | (1 << c4)
            anchor = c3 if anchor_on_c3 else c1
            x2 = (adj[d1] | adj[c3]) & ~cbits
            for x in bits(adj[d1] & ~cbits):
                xbit = 1 << x
                for d2 in bits(adj[x] & ~adj[d1] & ~cbits & ~xbit):
                    spare = (1 << anchor) | (1 << d2)
                    drop = (adj[d1] & adj[d2] & ~xbit) | x2 | xbit
                    gp = full & ~(drop | (adj[x] & ~spare))
                    if gp & spare == spare:
                        yield (c1, d1, c3, c4, d2, anchor, spare,
                               cbits | xbit | (1 << d2), drop, gp)


def test_stage3_prefilters_drop_only_dead_guesses():
    graphs = [g for n in range(5, 8) for g in connected_small_graphs(n)]
    for i in range(40):
        g = gnp(8 + i % 4, (0.3, 0.5, 0.7)[i % 3], 4400 + i)
        graphs += [g, g.complement()]
    dropped = 0
    for g in graphs:
        adj = g.adj
        arcs = [(u, v) for u in range(g.n) for v in g.neighbors_of[u]]
        kept = iter(_split_cuts(g, arcs))
        nxt = next(kept, None)
        for guess in _unfiltered_split_cuts(g, arcs):
            if guess == nxt:
                nxt = next(kept, None)
                continue
            # a dropped guess leaves d1 or d2 no step into gp off the path
            d1, d2, trip, gp = guess[4], guess[5], guess[6], guess[9]
            assert not (adj[d1] & gp & ~trip and adj[d2] & gp & ~trip), guess
            dropped += 1
        assert nxt is None, "a kept guess is not among the unfiltered ones, in order"
        for anchor_on_c3 in (False, True):
            assert (list(_anchored_cuts(g, anchor_on_c3))
                    == list(_checked_anchored_cuts(g, anchor_on_c3)))
    assert dropped > 0


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
