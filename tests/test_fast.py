import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

from oddhole import Graph, detect, is_odd_hole
import oddhole.cleaning
import oddhole.fast
import oddhole.graph
import oddhole.simple
from oddhole.cleaning import _classify, classify_candidate
from oddhole.configs import JewelWitness, PyramidWitness, find_jewel, find_pyramid
from oddhole.fast import (
    _anchored_cuts,
    _split_cuts,
    _type1,
    _type2,
    detect_fast,
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
    _peeled_rest,
    _Search,
    bfs_distances,
    bits,
    certifies_berge,
    induced_four_paths,
    induced_three_paths,
    mask_of,
    split_leaves,
)
from oddhole.oracle import oracle_find_odd_hole
from oddhole.simple import detect_simple, detect_with_simple_pipeline
from .conftest import (
    disjoint_union,
    join,
    line_graph,
    random_graphs,
    split_family_graphs,
    with_twin,
)
from .test_cleaning import _steps_off

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
    # key names its graph too, since detect searches each leaf of a split on
    # an induced graph with a context of its own: by id, and the graph itself
    # keeps that id from passing to a later leaf's graph.
    bfs = oddhole.graph.bfs_distances
    keys = []

    def counted(g, source, within=None):
        keys.append((id(g), g, source, within))
        return bfs(g, source, within)

    monkeypatch.setattr(oddhole.graph, "bfs_distances", counted)
    return keys


# Three elementary graphs (Maffray and Reed, 1999): each is the line graph
# of a bipartite graph with one flat edge (an edge in no triangle) replaced
# by two cliques with some edges between them.  Each is claw-free and
# perfect, and has a diamond, so it is not the line graph of a bipartite
# graph and the peeling does not decide it.  Each is a candidate, so detect
# stops after stage 2 on it.

# Its one simplicial vertex is 9.  3 of its 37 four-paths are live, and each
# of the six shapes asks for a BFS on it.
SIMPLICIAL_CANDIDATE = "IlZEG[LAW"

# No split, and shapes 3-6 search it: 6 of its 37 four-paths are live.
LIVE_CANDIDATE = "JDPeP_pAWQ_"
LIVE_PATHS = [(6, 0, 3, 7), (3, 0, 6, 4), (5, 1, 4, 9), (2, 5, 1, 4), (1, 5, 2, 7), (0, 6, 4, 9)]

# No split, and each of the six shapes asks for a BFS on it.
SHAPES_CANDIDATE = "HMaHXSf"

# ``gnp(10, 0.5, 71406)``: perfect, not decided by the peeling, a candidate
# with four claw centres, so detect runs stage 3 on it; each of the six
# shapes asks for a BFS, and 2 of its 36 four-paths are live.  Stage 0
# leaves one leaf: the graph less its one simplicial vertex.
CLAW_CANDIDATE = "I@wgNbIiO"


def test_each_shape_searches_a_masked_bfs_once(monkeypatch):
    keys = _record_bfs(monkeypatch)
    # detect_fast runs all six shapes over one context: none repeats another's
    # BFS.  Shapes 3-6 drop every guess of SHAPE_GRAPHS before any BFS.
    candidates = tuple(parse_graph6(s).graph for s in (SIMPLICIAL_CANDIDATE, LIVE_CANDIDATE))
    for det in ALL_TYPES + (detect_fast,):
        calls = 0
        for g in SHAPE_GRAPHS + candidates:
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
    # one context for stages 1-3 of a candidate with a claw, as for
    # detect_fast and the simple pipeline: detect searches the one leaf that
    # stage 0 leaves of it.  Each shape called alone builds its own and asks
    # it for a BFS.
    g = parse_graph6(CLAW_CANDIDATE).graph
    assert not certifies_berge(g) and len(split_leaves(g)) == 1
    assert classify_candidate(g) is None and _Search(g).claw_centres
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
        assert det(g) is None and built[0] == 1
    assert all(searches), searches
    for run in (detect, detect_fast, detect_with_simple_pipeline):
        built[0] = 0
        assert run(g) is None
        assert built[0] == 1, run.__name__


def test_detect_builds_one_search_per_leaf(monkeypatch):
    # detect searches each leaf of stage 0 on a context of its own, built on
    # the leaf's induced graph, up to the leaf that holds a hole; a graph
    # that is its own only leaf is searched as itself, not as a copy
    init = oddhole.graph._Search.__init__
    graphs = []
    monkeypatch.setattr(oddhole.graph._Search, "__init__",
                        lambda self, graph: graphs.append(graph) or init(self, graph))
    live, atom, claw = (parse_graph6(text).graph
                        for text in (LIVE_CANDIDATE, SHAPES_CANDIDATE, CLAW_CANDIDATE))
    # the Petersen graph is its own only leaf and has a 5-hole; an odd cycle
    # would be decided with no context (test_odd_cycle_and_antihole_leaves_build_no_search)
    pet = petersen_graph()
    for g, count, found in ((live, 1, False), (pet, 1, True), (claw, 1, False),
                            (disjoint_union(live, atom), 2, False),
                            (disjoint_union(live, pet), 2, True),
                            (disjoint_union(pet, live), 1, True)):
        graphs.clear()
        leaves = split_leaves(g)
        assert (detect(g) is not None) == found and len(graphs) == count, g.adj
        assert graphs == [g.induced(leaf)[0] for leaf in leaves[:count]], g.adj
        assert (graphs[0] is g) == (leaves == [g.full_mask]), g.adj


def _relabelled(g, count, rng):
    # ``count`` random relabellings of g
    out = []
    for _ in range(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(g.relabel(perm))
    return out


def test_odd_cycle_leaves_get_the_stages_witness_in_closed_form():
    # fast._cycle_hole returns, with no search, the tuple that stages 1-2
    # return on the same graph: on every labelling of C7, and on random
    # labellings of the odd cycles C9-C31
    rng = random.Random(9)
    graphs = [cycle_graph(7).relabel(perm) for perm in itertools.permutations(range(7))]
    for k in range(9, 32, 2):
        graphs += _relabelled(cycle_graph(k), 12, rng)
    for g in graphs:
        hole = oddhole.fast._cycle_hole(g)
        assert hole is not None and hole == _classify(_Search(g)) == detect(g), g.adj


def test_odd_antihole_leaves_have_no_odd_hole():
    # _search_graph answers None on the odd antiholes C7-bar to C15-bar, as
    # the brute-force oracle does up to n = 11
    rng = random.Random(11)
    for k in range(7, 16, 2):
        for g in _relabelled(cycle_graph(k).complement(), 6, rng):
            assert oddhole.fast._ring(g, co=True) is not None
            assert oddhole.fast._search_graph(g) is None, g.adj
            if k <= 11:
                assert oracle_find_odd_hole(g) is None, g.adj


def test_ring_takes_only_one_odd_cycle_of_seven_or_more():
    # none of these is one odd cycle of length seven or more, though C5, C8
    # and three disjoint C7s (n = 21) have every vertex of degree two and
    # the last two differ from C9 by one edge; nor is any complement an odd
    # antihole
    c7, c9 = cycle_graph(7), cycle_graph(9)
    chord = Graph(9, list(c9.edges()) + [(0, 4)])
    broken = Graph(9, [e for e in c9.edges() if e != (0, 8)])
    assert broken.edge_count() == 8
    for g in (cycle_graph(5), cycle_graph(8), disjoint_union(disjoint_union(c7, c7), c7),
              chord, broken):
        assert oddhole.fast._ring(g) is None and oddhole.fast._cycle_hole(g) is None, g.adj
        assert oddhole.fast._ring(g.complement(), co=True) is None, g.adj
    # and the walk reads a cycle from 0, toward its lower neighbour
    assert oddhole.fast._ring(c9) == list(range(9))
    assert oddhole.fast._ring(c9.complement(), co=True) == list(range(9))


def test_odd_cycle_and_antihole_leaves_build_no_search(monkeypatch):
    # both leaf tests decide before a context is built, so each one proves
    # itself here: without it the leaf is searched on a context
    built = _count_searches(monkeypatch)
    c9 = cycle_graph(9)
    assert split_leaves(c9) == [c9.full_mask]
    assert detect(c9) is not None and built[0] == 0
    assert oddhole.fast._search_graph(cycle_graph(7).complement()) is None and built[0] == 0
    # a cycle after a searched leaf: only that leaf builds a context
    live = parse_graph6(LIVE_CANDIDATE).graph
    g = disjoint_union(live, c9)
    hole = detect(g)
    assert hole is not None and min(hole) >= live.n and built[0] == 1


def test_anchored_shapes_search_only_live_four_paths():
    # The filter keeps 6 of the 37 four-paths, in their order, and only the
    # anchored shapes build it: stages 1-2 (whose sweep walks every
    # four-path) leave it unbuilt.
    g = parse_graph6(LIVE_CANDIDATE).graph
    search = _Search(g)
    assert _classify(search) is None
    assert len(search.four_paths) == 37 and "live_paths" not in search.__dict__
    # each entry is a four-path and its rest, as the four-path table has it
    assert [p[:4] for p in search.live_paths] == LIVE_PATHS
    assert [p for p in search.four_paths if p[:4] in LIVE_PATHS] == search.live_paths
    # and both anchors guess on each of them (without the filter they would
    # guess on all 37)
    for anchor_on_c3 in (False, True):
        paths = {guess[:4] for guess in _anchored_cuts(search, anchor_on_c3)}
        assert {p if p[0] < p[3] else p[::-1] for p in paths} == set(LIVE_PATHS)


def _split_hole(g, leaves, hole_mask):
    # detect splits g into ``leaves`` and returns the one odd hole there is
    assert split_leaves(g) == leaves
    hole = detect(g)
    assert hole is not None and is_odd_hole(g, hole)
    assert mask_of(hole) == hole_mask


# SIMPLICIAL_CANDIDATE on vertices 0-9 and a 7-hole on 10-16, joined or
# side by side: the candidate, less its simplicial vertex 9, is the first
# leaf and has no odd hole, so the hole is found in the last leaf.  (A
# 6-cycle in its place would be certified and dropped.)
def test_detect_finds_a_hole_on_one_side_of_a_join():
    rest, seven = mask_of(range(9)), mask_of(range(10, 17))
    _split_hole(join(parse_graph6(SIMPLICIAL_CANDIDATE).graph, cycle_graph(7)), [rest, seven], seven)


def test_detect_finds_a_hole_in_the_last_component():
    rest, seven = mask_of(range(9)), mask_of(range(10, 17))
    _split_hole(disjoint_union(parse_graph6(SIMPLICIAL_CANDIDATE).graph, cycle_graph(7)),
                [rest, seven], seven)


# A 7-hole whose vertex 0 has a twin 7: the split keeps 0, and every odd
# hole runs through 0 or 7, so the hole found must run through 0.
def test_detect_finds_a_hole_through_a_kept_false_twin():
    seven = mask_of(range(7))
    _split_hole(with_twin(cycle_graph(7), 0, true=False), [seven], seven)


def test_detect_finds_a_hole_through_a_kept_true_twin():
    seven = mask_of(range(7))
    _split_hole(with_twin(cycle_graph(7), 0, true=True), [seven], seven)


def _mapped(w, back):
    # a stage's answer on an induced graph, in the ids of the whole graph
    if isinstance(w, JewelWitness):
        return JewelWitness(_mapped(w.ring, back), _mapped(w.path, back))
    if isinstance(w, PyramidWitness):
        return PyramidWitness(back[w.apex], _mapped(w.base, back),
                              tuple(_mapped(p, back) for p in w.paths))
    return None if w is None else tuple(back[v] for v in w)


def test_stages_1_2_return_the_same_witness_on_the_simplicial_rest():
    # detect searches what the simplicial pass of stage 0 leaves, and must
    # find there what it would find on the whole graph: a simplicial vertex
    # lies on no hole, pyramid, jewel that the search tries, or shortest
    # path (graph.split_leaves).  Checked where the pass deletes something
    # and the rest is not certified.  The rest of both passes fails this.
    base = [gnp(6 + i % 8, (0.2, 0.3, 0.45, 0.6)[i % 4], 5200 + i) for i in range(600)]
    base += [decorated_odd_cycle(7 + 2 * (i % 3), 1 + i % 3, 5600 + i) for i in range(60)]
    searched = 0
    hits = {stage: 0 for stage in (classify_candidate, find_jewel, find_pyramid)}
    for g in (h for g in base for h in (g, g.complement())):
        rest = _peeled_rest(g)
        if rest in (0, g.full_mask):
            continue
        sub, back = g.induced(rest)
        for stage in hits:
            got = stage(sub)
            assert _mapped(got, back) == stage(g), (stage.__name__, g.adj)
            hits[stage] += got is not None
        searched += 1
    # many graphs lose vertices to the pass, and each stage finds something
    # on many of them
    assert searched > 200 and min(hits.values()) > 100, (searched, hits)


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
    # from one context.  Stage 0 decides both graphs of SHAPE_GRAPHS, so
    # they are searched whole by _search_graph, stages 1-3 without stage 0,
    # and so are the two candidates, which detect searches on their peeled
    # rest.  Neither graph of SHAPE_GRAPHS asks for a BFS.  On the
    # co-bipartite graph no jewel tuple passes the mask test before the BFS,
    # and it has no claw centre for the pyramid.  On the chordal graph no
    # four-path has two ends with a neighbour outside N[p2] | N[p3], so the
    # sweep scans none of them (cleaning._sweep), and the other stages drop
    # every guess by masks.
    keys = _record_bfs(monkeypatch)
    co_bipartite, chordal = SHAPE_GRAPHS
    paths = _Search(chordal).four_paths
    assert len(paths) == 14 and not any(_steps_off(chordal, p) for p in paths)
    candidates = tuple(parse_graph6(text).graph for text in (SIMPLICIAL_CANDIDATE, CLAW_CANDIDATE))
    runs = [(oddhole.fast._search_graph, g) for g in SHAPE_GRAPHS + candidates]
    runs += [(detect, g) for g in candidates]
    for run, g in runs:
        keys.clear()
        assert run(g) is None
        assert len(keys) == len(set(keys)), g
        assert bool(keys) == (g not in SHAPE_GRAPHS), g


def test_detect_fast_tests_each_fallback_mask_once(monkeypatch):
    # Every clean-test fallback of the shapes goes through cleaning._clean,
    # which calls cleaning.test_clean as that module holds it, once per
    # distinct mask of the context, and answers the repeats from the memo.
    clean = oddhole.cleaning.test_clean
    memo = oddhole.fast._clean
    tested, asked = [], []
    monkeypatch.setattr(oddhole.cleaning, "test_clean",
                        lambda g, within=None: tested.append(within) or clean(g, within))
    monkeypatch.setattr(oddhole.fast, "_clean",
                        lambda search, mask: asked.append(mask) or memo(search, mask))
    total = repeated = 0
    for i in range(200):
        g = gnp(8 + i % 5, (0.3, 0.45, 0.6)[i % 3], 3100 + i)
        for h in (g, g.complement()):
            tested.clear()
            asked.clear()
            hole = detect_fast(h)  # one context per call
            assert sorted(tested) == sorted(set(asked)), h.adj
            assert hole is None or is_odd_hole(h, hole)
            total += len(tested)
            repeated += len(asked) - len(tested)
    assert total > 20 and repeated > 20, (total, repeated)


def _count_tables(monkeypatch):
    # the (table, context) of every path table built; the contexts are kept,
    # so no two of them share an id.  The four-path table is listed as it is
    # walked, so it counts as built when a context first walks it.
    builds = []
    for name in ("live_paths", "three_paths"):
        prop = oddhole.graph._Search.__dict__[name]

        def counted(self, build=prop.func, name=name):
            builds.append((name, self))
            return build(self)

        monkeypatch.setattr(prop, "func", counted)
    walk = oddhole.graph._Search.walk_four_paths

    def counted_walk(self):
        if self._lister is None:
            builds.append(("four_paths", self))
        return walk(self)

    monkeypatch.setattr(oddhole.graph._Search, "walk_four_paths", counted_walk)
    return builds


def test_detect_lists_the_four_paths_once(monkeypatch):
    # Each context builds each path table at most once: the sweep lists the
    # four-paths, shapes 1 and 2 share one list of three-paths, and the four
    # anchored shapes one list of live four-paths (built on the four-paths).
    builds = _count_tables(monkeypatch)
    g = parse_graph6(CLAW_CANDIDATE).graph
    # detect builds one context for a candidate with a claw
    # (test_detect_builds_one_search_per_call); the simple pipeline builds
    # one and lists its own paths for the reference search
    for run, names in (
        (detect, ["four_paths", "three_paths", "live_paths"]),
        (detect_with_simple_pipeline, ["four_paths"]),
    ):
        builds.clear()
        assert run(g) is None
        assert len({id(search) for _, search in builds}) == 1
        assert [name for name, _ in builds] == names, run.__name__
    # shape 2 reads the table that shape 1 built: emptied there, it leaves
    # shape 2 nothing to search, where a context of its own has something
    dist = oddhole.graph._Search.dist
    asked = []
    monkeypatch.setattr(oddhole.graph._Search, "dist",
                        lambda self, source, mask: asked.append(source) or dist(self, source, mask))
    g = parse_graph6(SHAPES_CANDIDATE).graph
    assert _type2(_Search(g)) is None and asked
    search = _Search(g)
    builds.clear()
    assert _type1(search) is None and [name for name, _ in builds] == ["three_paths"]
    search.three_paths.clear()
    asked.clear()
    assert _type2(search) is None and asked == [] and len(builds) == 1


def _count_staged(monkeypatch):
    # the graph of every context that stage 3 runs on
    staged = oddhole.fast._staged
    graphs = []
    monkeypatch.setattr(oddhole.fast, "_staged",
                        lambda search: graphs.append(search.g) or staged(search))
    return graphs


def test_claw_free_candidates_stop_after_stage_2(monkeypatch):
    """A claw-free candidate builds no stage-3 table; one with a claw reaches stage 3.

    No verdict test can catch an exit that fires too widely: stage 3 has
    decided no graph of the suites or of the benchmark corpora, so a detect
    that never ran it would pass them all.  This test pins where the exit
    fires.  That it loses no hole rests on the proof in
    ``docs/derived-types.md`` ("Claw-free graphs need no stage 3") and on
    ``tools/check_clawfree_lemma.py``.
    """
    builds = _count_tables(monkeypatch)
    staged = _count_staged(monkeypatch)
    for text in (SIMPLICIAL_CANDIDATE, LIVE_CANDIDATE, SHAPES_CANDIDATE):
        g = parse_graph6(text).graph
        assert not certifies_berge(g) and classify_candidate(g) is None
        assert not _Search(g).claw_centres
        builds.clear()
        staged.clear()
        assert detect(g) is None
        assert {name for name, _ in builds} == {"four_paths"} and staged == [], text
        # stage 3 called on its own still searches it
        assert detect_fast(g) is None and "live_paths" in {name for name, _ in builds}
    # stage 3 runs on the leaf that stage 0 leaves of it: all but its one
    # simplicial vertex, 3, and still with a claw
    g = parse_graph6(CLAW_CANDIDATE).graph
    rest = g.full_mask & ~(1 << 3)
    leaf = g.induced(rest)[0]
    assert split_leaves(g) == [rest] and _Search(leaf).claw_centres
    builds.clear()
    staged.clear()
    assert detect(g) is None and staged == [leaf]
    assert [name for name, _ in builds] == ["four_paths", "three_paths", "live_paths"]


def _bipartite(h):
    # a graph is bipartite iff no BFS puts the two ends of an edge in one layer
    return not any(d[a] == d[b] >= 0 for d in (bfs_distances(h, v) for v in range(h.n))
                   for a, b in h.edges())


def _circular_interval(n, arcs, longest, seed):
    # points 0..n-1 on a circle, adjacent when one of ``arcs`` random arcs of
    # at most ``longest`` steps holds both: a claw-free graph
    rng = random.Random(seed)
    edges = set()
    for _ in range(arcs):
        start = rng.randrange(n)
        points = [(start + i) % n for i in range(rng.randint(1, longest) + 1)]
        edges.update((min(a, b), max(a, b)) for i, a in enumerate(points) for b in points[i + 1:])
    return Graph(n, sorted(edges))


def test_detect_matches_oracle_on_claw_free_families(monkeypatch):
    # Line graphs of non-bipartite graphs and circular-interval graphs, which
    # the benchmark corpora lack: claw-free, with and without odd holes.
    # detect stops after stage 2 on every one, and agrees with the oracle.
    # Stage 0 decides all but 2 of the hole-free ones before any search, so
    # the exit is counted on stages 1-3 run on each whole graph: stages 1-2
    # find every hole, and the exit fires on every hole-free graph.
    decided = []
    classify = oddhole.fast._classify
    monkeypatch.setattr(oddhole.fast, "_classify",
                        lambda search: decided.append(classify(search)) or decided[-1])
    staged = _count_staged(monkeypatch)
    roots = [gnp(6 + i % 3, (0.3, 0.4)[i % 2], 9100 + i) for i in range(240)]
    graphs = [line_graph(h) for h in roots if not _bipartite(h)]
    for i in range(240):
        n = 7 + i % 9
        graphs.append(_circular_interval(n, 3 * n // 2, 4, 9300 + i))
    holes = exits = 0
    for g in graphs:
        assert not _Search(g).claw_centres, g.adj
        got = detect(g)
        want = oracle_find_odd_hole(g)
        assert (got is None) == (want is None), g.adj
        if got is not None:
            assert is_odd_hole(g, got)
        holes += want is not None
        decided.clear()
        whole = oddhole.fast._search_graph(g)
        assert (whole is None) == (want is None) and decided == [whole], g.adj
        exits += whole is None
    # both verdicts are common, and many searches reach the exit
    assert staged == [] and (len(graphs), holes, exits) == (398, 198, 200), (len(graphs), holes, exits)


def test_shapes_1_2_ask_for_no_bfs_on_co_bipartite_graphs(monkeypatch):
    # In a co-bipartite graph each end of a three-path d1-x-d2 lies in one
    # clique and x in one of them, so the end in x's clique has every
    # neighbour in N[x] or N[other end]: no three-path is kept.
    keys = _record_bfs(monkeypatch)
    paths = 0
    for seed in range(12):
        g = random_bipartite(4 + seed % 3, 5, (0.3, 0.5, 0.7)[seed % 3], seed).complement()
        paths += len(induced_three_paths(g))
        assert _Search(g).three_paths == []
        keys.clear()
        assert detect_type1(g) is None and detect_type2(g) is None
        assert keys == []
    assert paths > 100, paths


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
    # an odd hole survives the peeling: no simplicial or co-simplicial
    # vertex is on it, however many vertices hang off it, and an odd
    # antihole survives it in the complement
    undecided = [_with_pendant_cliques(cycle_graph(5), size, at)
                 for size in (1, 2, 3) for at in ((0,), (0, 1), (0, 2), (0, 1, 2, 3, 4))]
    undecided += [decorated_odd_cycle(k, extras, seed)
                  for k in (7, 9, 11) for extras in range(5) for seed in range(4)]
    for g in undecided:
        assert not certifies_berge(g) and not certifies_berge(g.complement()), g.adj
        hole = detect(g)
        assert hole is not None and is_odd_hole(g, hole)


def test_co_chordal_and_co_bipartite_inputs_skip_the_search(monkeypatch):
    # Stage 0 decides the complements of what the simplicial peel decides:
    # a co-chordal graph peels away through co-simplicial vertices, and a
    # co-bipartite rest is covered by two cliques.  It also decides the line
    # graph of a bipartite graph and its complement, which are perfect
    # (Konig; Lovasz); before it did, the search ran on each of these:
    # stages 1-2 on every line graph, and stage 3 on every complement.
    # detect builds no search context on them and asks for no BFS.
    keys = _record_bfs(monkeypatch)
    built = _count_searches(monkeypatch)
    roots = [random_bipartite(4 + i % 2, 5, 0.6, 4900 + i) for i in range(8)]
    decided = (
        [random_chordal(12, seed).complement() for seed in range(4)]
        + [random_bipartite(6, 7, (0.3, 0.5, 0.7)[seed % 3], seed).complement() for seed in range(6)]
        + [_with_pendant_cliques(random_bipartite(5, 5, 0.5, 2), 3, (0, 5, 9)).complement()]
        + [_random_tree(12, seed).complement() for seed in range(2)]
        + [g for h in roots for g in (line_graph(h), line_graph(h).complement())]
    )
    for g in decided:
        keys.clear()
        built[0] = 0
        assert certifies_berge(g), g.adj
        assert detect(g) is None and keys == [] and built == [0], g.adj
        # the search alone would have built one
        assert oddhole.fast._search_graph(g) is None and built == [1], g.adj


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
    split = unlinked = anchored = peeled = 0
    for g in graphs:
        full, adj = g.full_mask, g.adj
        arcs = [(u, v) for u in range(g.n) for v in bits(adj[u])]
        kept = list(_split_cuts(_Search(g), arcs))
        for guess in kept:
            # a kept guess leaves both d1 and d2 a step into gp off the path
            d1, d2, trip, gp = guess[4], guess[5], guess[6], guess[9]
            assert adj[d1] & gp & ~trip and adj[d2] & gp & ~trip, guess
        for guess in _dropped(kept, _unfiltered_split_cuts(g, arcs)):
            # a dropped guess leaves d1 or d2 no step into gp off the path,
            # or gp has no d1-d2 path at all
            d1, d2, trip, gp = guess[4], guess[5], guess[6], guess[9]
            if adj[d1] & gp & ~trip and adj[d2] & gp & ~trip:
                assert bfs_distances(g, d1, gp)[d2] == -1, guess
                unlinked += 1
            split += 1
        search = _Search(g)
        live = {p[:4] for p in search.live_paths}
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
                # guess can return, is too small or certified: it has no odd hole
                w = full & ~((adj[d1] | adj[c3]) & ~mask_of(path))
                assert w.bit_count() < 5 or certifies_berge(g, w), guess
                if w not in no_hole:
                    no_hole[w] = oracle_find_odd_hole(g.induced(w)[0]) is None
                assert no_hole[w], guess
                peeled += 1
    assert split > unlinked > 0 and anchored > 0 and peeled > 0, (split, unlinked, anchored, peeled)


def _step_off_split_cuts(g, arcs):
    # the guesses of shapes 1-2 that can step off both d1 and d2 into gp:
    # the enumeration without the component test
    adj = g.adj
    for guess in _unfiltered_split_cuts(g, arcs):
        d1, d2, trip, gp = guess[4], guess[5], guess[6], guess[9]
        if adj[d1] & gp & ~trip and adj[d2] & gp & ~trip:
            yield guess


def test_split_cuts_drop_only_guesses_with_no_path():
    # The component test on each edge drops a guess only when gp has no
    # d1-d2 path, which both shapes need; the kept guesses keep their order.
    graphs = [g for n in range(5, 8) for g in connected_small_graphs(n)]
    for i in range(36):
        g = gnp(8 + i % 6, (0.3, 0.5, 0.7)[i % 3], 5500 + i)
        graphs += [g, g.complement()]
    lines = [line_graph(random_bipartite(4 + i % 3, 4 + i % 2, 0.5, i)) for i in range(20)]
    kept = dropped = line_drops = 0
    for g in graphs + lines:
        arcs = [(u, v) for u in range(g.n) for v in bits(g.adj[u])]
        guesses = list(_split_cuts(_Search(g), arcs))
        kept += len(guesses)
        for guess in _dropped(guesses, _step_off_split_cuts(g, arcs)):
            d1, d2, gp = guess[4], guess[5], guess[9]
            assert bfs_distances(g, d1, gp)[d2] == -1, guess
            dropped += 1
            line_drops += g in lines
    # of the 28,854 guesses that can step off both ends, about half go
    assert (kept, dropped, line_drops) == (14094, 14760, 9468)


def test_shapes_1_2_share_one_list_per_edge():
    # The guesses of an edge are listed once per context: shape 1 fills the
    # lists, and shape 2, which walks both orientations of each arc, reads
    # the same lists and adds none.
    g = parse_graph6(SHAPES_CANDIDATE).graph
    search = _Search(g)
    assert _type1(search) is None
    lists = dict(search.edge_cuts)  # holds each list, so that no id is reused

    def same_lists():
        return search.edge_cuts.keys() == lists.keys() and all(
            search.edge_cuts[edge] is cuts for edge, cuts in lists.items())

    assert any(lists.values())
    assert _type2(search) is None and same_lists()
    # a context of shape 2's own lists the same edges
    own = _Search(g)
    assert _type2(own) is None and own.edge_cuts == search.edge_cuts
    # the two orientations of an arc give the same guesses, flanks swapped
    for u, v in g.edges():
        forward = _split_cuts(search, [(u, v)])
        mirrored = [(c3, c2, c4set, c1set, *rest) for c2, c3, c1set, c4set, *rest in forward]
        assert mirrored == list(_split_cuts(search, [(v, u)]))
    assert same_lists()


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
