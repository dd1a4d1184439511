import random
import sys
from concurrent.futures import ThreadPoolExecutor

from oddhole import (
    Graph,
    classify_candidate,
    detect,
    detect_fast,
    detect_simple,
    detect_with_simple_pipeline,
    is_odd_hole,
)
import oddhole.cleaning
import oddhole.fast
import oddhole.graph
import oddhole.simple
from oddhole.cleaning import _classify
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
from oddhole.formats import parse_graph6
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
from oddhole.graph import (
    _Search,
    bits,
    clique_cutset_atoms,
    induced_four_paths,
    induced_three_paths,
    mask_of,
    peels_to_bipartite,
    split_leaves,
)
from oddhole.oracle import oracle_find_odd_hole
from .conftest import disjoint_union, join, random_graphs, split_family_graphs, with_twin

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
    # and the staged run returns the first shape's hole
    g = decorated_odd_cycle(9, 2, 1)
    hole = detect_fast(g)
    assert hole is not None and is_odd_hole(g, hole)


# Both graphs are perfect, so every stage runs its whole enumeration.  Shapes
# 3-6 run no BFS on either: they skip the co-bipartite one, and every sweep
# mask of the chordal one peels to bipartite.
SHAPE_GRAPHS = (random_bipartite(5, 5, 0.5, 3).complement(), random_chordal(10, 1))


def _record_bfs(monkeypatch):
    # the search context lives in ``graph`` and looks the BFS up there.  Each
    # key names its graph too, since detect searches each atom of a clique
    # cutset on an induced graph with a context of its own: by id, and the
    # graph itself keeps that id from passing to a later atom's graph.
    bfs = oddhole.graph.bfs_distances
    keys = []

    def counted(g, source, within=None):
        keys.append((id(g), g, source, within))
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.graph, "bfs_distances", counted)
    return keys


# The line graph of a bipartite graph (4 + 4 vertices, seed 2): perfect, not
# decided by the peeling, and a candidate.  An edge is a clique cutset of it:
# its atoms have 3 and 9 vertices, and detect searches the 9-vertex one alone
# (the other peels away).  One of its four-paths is live, and shapes 5-6 run
# no BFS on it.
LINE_CANDIDATE = "IrKy_SFAO"

# The line graph of 10 edges of K4,4 (``perfbench`` ``line_graph_of_bipartite
# (4, 4, 10, Random(1))``): perfect, one atom, a candidate, and every shape
# searches it.  5 of its 45 four-paths are live.
LIVE_CANDIDATE = "ILWqKNQBo"
LIVE_PATHS = [(8, 1, 4, 9), (3, 2, 4, 9), (2, 3, 0, 7), (0, 7, 9, 4), (1, 8, 0, 7)]


def test_each_shape_searches_a_masked_bfs_once(monkeypatch):
    keys = _record_bfs(monkeypatch)
    # detect_fast runs all six shapes over one context: none repeats another's
    # BFS.  Shapes 3-6 drop every guess of SHAPE_GRAPHS before any BFS.
    lines = tuple(parse_graph6(s).graph for s in (LINE_CANDIDATE, LIVE_CANDIDATE))
    for det in ALL_TYPES + (detect_fast,):
        calls = 0
        for g in SHAPE_GRAPHS + lines:
            keys.clear()
            assert det(g) is None
            assert len(keys) == len(set(keys)), det.__name__
            calls += len(keys)
        assert calls > 0, det.__name__


def _count_searches(monkeypatch):
    # the number of search contexts built, in a one-item list
    init = oddhole.graph._Search.__init__
    built = [0]

    def counted(self, graph):
        built[0] += 1
        init(self, graph)

    monkeypatch.setattr(oddhole.graph._Search, "__init__", counted)
    return built


def test_detect_builds_one_search_per_call(monkeypatch):
    # one context for the whole graph's stages 1-2, and one for the one atom
    # that stage 3 searches; detect_fast and the simple pipeline, which do
    # not decompose, build one.  Each shape called alone builds its own and
    # searches the one-atom candidate.
    g = parse_graph6(LINE_CANDIDATE).graph
    live = parse_graph6(LIVE_CANDIDATE).graph
    assert not peels_to_bipartite(g) and classify_candidate(g) is None
    atoms = clique_cutset_atoms(g)
    assert sorted(atom.bit_count() for atom in atoms) == [3, 9]
    assert [peels_to_bipartite(g.induced(atom)[0]) for atom in atoms] == [True, False]
    built = _count_searches(monkeypatch)
    dist = oddhole.graph._Search.dist
    searches = []

    def counted_dist(self, source, mask):
        searches[-1] += 1
        return dist(self, source, mask)

    monkeypatch.setattr(oddhole.graph._Search, "dist", counted_dist)
    for det in ALL_TYPES:
        searches.append(0)
        built[0] = 0
        assert det(live) is None and built[0] == 1
    assert all(searches), searches
    for run, contexts in ((detect, 2), (detect_fast, 1), (detect_with_simple_pipeline, 1)):
        built[0] = 0
        assert run(g) is None
        assert built[0] == contexts, run.__name__


def test_anchored_shapes_search_only_live_four_paths():
    # The filter keeps 5 of the 45 four-paths, in their order, and only the
    # anchored shapes build it: stages 1-2 (whose sweep walks every
    # four-path) leave it unbuilt.
    g = parse_graph6(LIVE_CANDIDATE).graph
    search = _Search(g)
    assert _classify(search) is None
    assert len(search.four_paths) == 45 and "live_paths" not in search.__dict__
    assert search.live_paths == LIVE_PATHS
    assert [p for p in search.four_paths if p in LIVE_PATHS] == LIVE_PATHS
    # and both anchors guess on each of them (without the filter they would
    # guess on 41 of the 45)
    for anchor_on_c3 in (False, True):
        paths = {guess[:4] for guess in _anchored_cuts(search, anchor_on_c3)}
        assert {p if p[0] < p[3] else p[::-1] for p in paths} == set(LIVE_PATHS)


def test_detect_on_one_atom_keeps_one_search(monkeypatch):
    # a candidate with no clique cutset: stage 3 goes on with the context of
    # stages 0-2, on the whole graph
    g = SHAPE_GRAPHS[0]
    assert not peels_to_bipartite(g) and classify_candidate(g) is None
    assert clique_cutset_atoms(g) == [g.full_mask]
    built = _count_searches(monkeypatch)
    assert detect(g) is None
    assert built[0] == 1


def test_detect_maps_an_atom_hole_back(monkeypatch):
    # A 7-hole glued along the edge 2-3 of a chordal host: that edge is a
    # clique cutset, and the hole is an atom on its own, whose vertex 0 is
    # vertex 2 here.  With stages 1-2 turned off on the whole graph, only
    # the atom loop can find the hole, and only in this graph's ids.
    host = random_chordal(8, 1)
    assert host.has_edge(2, 3)
    g = Graph(13, list(host.edges()) + [(2, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 3)])
    atom = mask_of((2, 3, 8, 9, 10, 11, 12))
    assert atom in clique_cutset_atoms(g)
    monkeypatch.setattr(oddhole.fast, "_classify", lambda search: None)
    hole = detect(g)
    assert hole is not None and is_odd_hole(g, hole)
    assert mask_of(hole) == atom


def _split_hole(g, leaves, hole_mask):
    # detect splits g into ``leaves`` and returns the one odd hole there is
    assert split_leaves(g) == leaves
    hole = detect(g)
    assert hole is not None and is_odd_hole(g, hole)
    assert mask_of(hole) == hole_mask


# A 6-cycle on vertices 0-5 and a 7-hole on 6-12, joined or side by side:
# the 6-cycle is the first leaf and has no odd hole, so the hole is found in
# the last leaf.
def test_detect_finds_a_hole_on_one_side_of_a_join():
    six, seven = mask_of(range(6)), mask_of(range(6, 13))
    _split_hole(join(cycle_graph(6), cycle_graph(7)), [six, seven], seven)


def test_detect_finds_a_hole_in_the_last_component():
    six, seven = mask_of(range(6)), mask_of(range(6, 13))
    _split_hole(disjoint_union(cycle_graph(6), cycle_graph(7)), [six, seven], seven)


# A 7-hole whose vertex 0 has a twin 7: the split keeps 0, and every odd
# hole runs through 0 or 7, so the hole found must run through 0.
def test_detect_finds_a_hole_through_a_kept_false_twin():
    seven = mask_of(range(7))
    _split_hole(with_twin(cycle_graph(7), 0, true=False), [seven], seven)


def test_detect_finds_a_hole_through_a_kept_true_twin():
    seven = mask_of(range(7))
    _split_hole(with_twin(cycle_graph(7), 0, true=True), [seven], seven)


def test_detect_matches_oracle_on_split_families():
    split = holes = 0
    for g in split_family_graphs(300, seed=17):
        got = detect(g)
        want = oracle_find_odd_hole(g)
        assert (got is None) == (want is None), g.adj
        if got is not None:
            assert is_odd_hole(g, got)
        split += split_leaves(g) != [g.full_mask]
        holes += want is not None
    # every one splits, and both verdicts are common
    assert split == 300 and 40 <= holes <= 150, (split, holes)


def test_detect_runs_each_masked_bfs_once(monkeypatch):
    # The jewel, pyramid, sweep and shapes of one call read every masked BFS
    # from one context.  The chordal graph is decided by the peeling, which
    # is turned off here so that every stage runs on it too.  The co-bipartite
    # graph asks for none: no jewel tuple passes the mask test before the BFS,
    # and it has no claw centre for the pyramid.
    monkeypatch.setattr(oddhole.fast, "peels_to_bipartite", lambda g: False)
    keys = _record_bfs(monkeypatch)
    co_bipartite, chordal = SHAPE_GRAPHS
    for g in (co_bipartite, chordal, parse_graph6(LINE_CANDIDATE).graph):
        keys.clear()
        assert detect(g) is None
        assert len(keys) == len(set(keys)), g
        assert bool(keys) == (g is not co_bipartite), g


def test_detect_lists_the_four_paths_once(monkeypatch):
    # the sweep and the four anchored shapes share one list of four-paths
    build = oddhole.graph.induced_four_paths
    calls = 0

    def counted(g):
        nonlocal calls
        calls += 1
        return build(g)

    # counted in every module of the search, whether it imports the name or not
    for module in (oddhole.graph, oddhole.cleaning, oddhole.fast, oddhole.simple):
        monkeypatch.setattr(module, "induced_four_paths", counted, raising=False)
    g = parse_graph6(LINE_CANDIDATE).graph
    # one list per context: detect builds one for the whole graph and one
    # for the atom it searches (test_detect_builds_one_search_per_call)
    for run, lists in ((detect, 2), (detect_with_simple_pipeline, 1)):
        calls = 0
        assert run(g) is None
        assert calls == lists, run.__name__


def test_detect_from_threads_matches_sequential():
    # no search state is shared between calls, so threads cannot mix them up
    graphs = [decorated_odd_cycle(7 + 2 * (i % 2), 1 + i % 3, i) for i in range(20)]
    graphs += [gnp(10, 0.4, 8800 + i) for i in range(20)]
    graphs += [random_chordal(10, i).complement() for i in range(10)]
    want = [detect(g) for g in graphs]
    assert any(w is None for w in want) and any(w is not None for w in want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(detect, graphs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _random_tree(n, seed):
    rng = random.Random(seed)
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _with_pendant_cliques(g, size, at):
    """``g`` plus, for each vertex ``v`` in ``at``, ``size`` new vertices that
    form a clique with ``v``."""
    edges = list(g.edges())
    n = g.n
    for v in at:
        clique = [v] + list(range(n, n + size))
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
        n += size
    return Graph(n, edges)


def test_peeled_bipartite_inputs_skip_the_search(monkeypatch):
    bfs = oddhole.graph.bfs_distances
    calls = []

    def counted(g, source, within=None):
        calls.append(source)
        return bfs(g, source, within)

    # every module the search reaches BFS through
    for module in (oddhole.graph, oddhole.cleaning):
        monkeypatch.setattr(module, "bfs_distances", counted)
    decided = (
        [_random_tree(12, seed) for seed in range(3)]
        + [random_bipartite(6, 6, 0.4, seed) for seed in range(3)]
        + [random_chordal(12, seed) for seed in range(3)]
        + [_with_pendant_cliques(random_bipartite(5, 5, 0.5, 2), 3, (0, 5, 9))]
    )
    for g in decided:
        calls.clear()
        assert detect(g) is None
        assert calls == []
        # the search alone would have paid for BFS on the same graph
        assert classify_candidate(g) is None and detect_fast(g) is None
        assert calls
    # an odd hole survives the peeling: simplicial vertices are not on it
    c5_triangle = _with_pendant_cliques(cycle_graph(5), 2, (0,))
    undecided = [c5_triangle] + [decorated_odd_cycle(7 + 2 * (s % 2), 1 + s % 3, s) for s in range(10)]
    for g in undecided:
        assert not peels_to_bipartite(g)
        hole = detect(g)
        assert hole is not None and is_odd_hole(g, hole)


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


def _unfiltered_anchored_cuts(g, anchor_on_c3):
    # every guess of shapes 3-6 in which the anchor and d2 survive the deletion
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


def _dropped(kept, every):
    # the guesses of ``every`` missing from ``kept``; the kept ones must be
    # the others, in the same order
    kept = iter(kept)
    nxt = next(kept, None)
    for guess in every:
        if guess == nxt:
            nxt = next(kept, None)
        else:
            yield guess
    assert nxt is None, "a kept guess is not among the unfiltered ones, in order"


def test_stage3_prefilters_drop_only_dead_guesses():
    graphs = [g for n in range(5, 8) for g in connected_small_graphs(n)]
    for i in range(40):
        g = gnp(8 + i % 4, (0.3, 0.5, 0.7)[i % 3], 4400 + i)
        graphs += [g, g.complement()]
    split = anchored = peeled = 0
    for g in graphs:
        full, adj = g.full_mask, g.adj
        arcs = [(u, v) for u in range(g.n) for v in bits(adj[u])]
        for guess in _dropped(_split_cuts(g, arcs), _unfiltered_split_cuts(g, arcs)):
            # a dropped guess leaves d1 or d2 no step into gp off the path
            d1, d2, trip, gp = guess[4], guess[5], guess[6], guess[9]
            assert not (adj[d1] & gp & ~trip and adj[d2] & gp & ~trip), guess
            split += 1
        search = _Search(g)
        live = set(search.live_paths)
        no_hole = {}  # sweep mask -> whether the oracle finds no odd hole in it
        for anchor_on_c3 in (False, True):
            for guess in _dropped(_anchored_cuts(search, anchor_on_c3),
                                  _unfiltered_anchored_cuts(g, anchor_on_c3)):
                c1, d1, c3, c4, d2, anchor, gp = guess[:6] + (guess[9],)
                path = (c1, d1, c3, c4) if c1 < c4 else (c4, c3, d1, c1)
                if path in live:
                    # a dropped guess leaves the anchor or d2 no step into gp
                    assert not (adj[anchor] & gp and adj[d2] & gp), guess
                    anchored += 1
                    continue
                # or its four-path's sweep mask, which holds every hole the
                # guess can return, is too small or peels: it has no odd hole
                w = full & ~((adj[d1] | adj[c3]) & ~mask_of(path))
                assert w.bit_count() < 5 or peels_to_bipartite(g, w), guess
                if w not in no_hole:
                    no_hole[w] = oracle_find_odd_hole(g.induced(w)[0]) is None
                assert no_hole[w], guess
                peeled += 1
    assert split > 0 and anchored > 0 and peeled > 0, (split, anchored, peeled)


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
