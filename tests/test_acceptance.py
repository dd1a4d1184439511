"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import itertools
import random
import sys
from contextlib import contextmanager

from oddhole import Graph, detect, is_odd_hole
from oddhole.cleaning import _classify
from oddhole.configs import find_jewel, find_pyramid
from oddhole.fast import _staged
from oddhole.generators import (
    complete_graph,
    cycle_graph,
    gnp,
    petersen_graph,
    random_bipartite,
    random_chordal,
)
from oddhole.graph import _Search, bits, bfs_distances, walk_down
from oddhole.oracle import oracle_find_odd_hole
from oddhole.pipeline import test_perfect
from oddhole.probes import heavy_edges, major_vertices
from oddhole.simple import detect_simple
from .conftest import parity_decorated
from .reference import (
    connected_small_graphs,
    is_normal_set,
    oracle_find_jewel,
    oracle_find_pyramid,
    shortest_odd_holes,
    small_graphs,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {label}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num}: PASS - {label}")


def test_criterion_1_exhaustive_small_graphs():
    with criterion(1, "detect == oracle on every connected graph with n <= 7"):
        total = 0
        for n in range(1, 8):
            graphs = connected_small_graphs(n)
            for g in graphs:
                got = detect(g)
                want = oracle_find_odd_hole(g)
                assert (got is None) == (want is None), (n, list(g.edges()))
                if got is not None:
                    assert is_odd_hole(g, got)
                total += 1
        assert total == 1 + 1 + 2 + 6 + 21 + 112 + 853


def test_criterion_2_randomized_oracle_equivalence():
    with criterion(2, "detect == oracle on 500 seeded graphs per (n, p) cell"):
        for n in range(8, 15):
            for p in (0.15, 0.3, 0.5):
                for i in range(500):
                    g = gnp(n, p, i)
                    got = detect(g)
                    want = oracle_find_odd_hole(g)
                    assert (got is None) == (want is None), (n, p, i)
                    if got is not None:
                        assert is_odd_hole(g, got)


def test_criterion_3_differential_detectors():
    with criterion(3, "stage 3 == detect_simple on every candidate, n <= 10"):
        rng = random.Random(33)
        candidates = 0
        total = 0
        while total < 300:
            n = rng.randint(5, 10)
            p = rng.choice((0.15, 0.3, 0.5))
            g = gnp(n, p, 555000 + total)
            total += 1
            if _classify(_Search(g)) is not None:
                continue
            candidates += 1
            f = _staged(_Search(g))
            s = detect_simple(g)
            assert (f is None) == (s is None), (n, p, total)
            if f is not None:
                assert is_odd_hole(g, f) and is_odd_hole(g, s)
        assert candidates >= 100


def test_criterion_4_witness_soundness_fuzz():
    with criterion(4, "every emitted witness verifies on 10^4 random graphs"):
        rng = random.Random(4)
        found = 0
        for i in range(10000):
            n = rng.randint(4, 12)
            p = rng.choice((0.1, 0.2, 0.3, 0.45, 0.6))
            g = gnp(n, p, 777000 + i)
            w = detect(g)
            if w is not None:
                found += 1
                assert is_odd_hole(g, w), (n, p, i, w)
        assert found >= 2000  # the fuzz must actually exercise witnesses


def test_criterion_5_known_families():
    with criterion(5, "known families detected exactly"):
        for k in range(2, 11):
            w = detect(cycle_graph(2 * k + 1))
            assert w is not None and len(w) == 2 * k + 1
            assert detect(cycle_graph(2 * k)) is None
        for n in range(2, 11):
            assert detect(complete_graph(n)) is None
        for i in range(20):
            assert detect(random_bipartite(4 + i % 4, 5 + i % 3, 0.4, i)) is None
        w = detect(petersen_graph())
        assert w is not None and len(w) == 5


_SHARED_X = {11: [(0, 1, 3, 5), (0, 1, 3, 7), (0, 1, 5, 7), (0, 1, 3, 5, 7)],
             13: [(0, 1, 3, 5), (0, 1, 3, 7), (0, 1, 5, 9), (0, 1, 3, 5, 9)]}
_SHARED_Y = {11: [(0, 1, 7, 9), (0, 1, 5, 9)],
             13: [(0, 1, 7, 9), (0, 1, 9, 11), (0, 1, 7, 11)]}


def _shared_pair_graphs():
    """Two nonadjacent spread vertices sharing an adjacent anchor pair.

    Exercises the facts that need nonadjacent major pairs (their common
    neighborhood must be normal, and hole-paths between them are even).
    """
    for k in (11, 13):
        for xpat in _SHARED_X[k]:
            for ypat in _SHARED_Y[k]:
                for rot in range(0, k, 3):
                    edges = [(i, (i + 1) % k) for i in range(k)]
                    edges += [(k, (u + rot) % k) for u in xpat]
                    edges += [(k + 1, (u + rot) % k) for u in ypat]
                    yield Graph(k + 2, edges)


def _structural_instances():
    """Decorated odd cycles that survive the configuration filters.

    Yields (graph, shortest holes) for instances that are pyramid- and
    jewel-free and have a shortest odd hole; these satisfy the hypotheses
    shared by the structural facts under test.
    """
    def raw():
        for k in (9, 11, 13):
            for links in ("triangle", "path"):
                for seed in range(140):
                    try:
                        yield parity_decorated(k, seed, majors=3, links=links)
                    except ValueError:
                        continue
        yield from _shared_pair_graphs()

    for g in raw():
        holes = shortest_odd_holes(g)
        if not holes or len(holes[0]) < 7:
            continue
        if oracle_find_pyramid(g) is not None:
            continue
        if oracle_find_jewel(g) is not None:
            continue
        yield g, holes


def _stable_subsets(g, majors):
    for r in range(1, len(majors) + 1):
        for comb in itertools.combinations(majors, r):
            if all(
                not g.has_edge(a, b)
                for a, b in itertools.combinations(comb, 2)
            ):
                yield comb


def test_criterion_6_structural_property_suites():
    with criterion(6, "structural property suites: zero violations, >= 50 instances each"):
        exercised = {"stable": 0, "degree": 0, "jump": 0, "heavy": 0}
        for g, holes in _structural_instances():
            if min(exercised.values()) >= 60:
                break
            for hole in holes:
                majors = sorted(bits(major_vertices(g, hole)))
                if not majors:
                    continue
                k = len(hole)
                # completed-neighborhood normality for stable major sets
                for x_set in _stable_subsets(g, majors):
                    complete = [
                        h for h in hole
                        if all(g.has_edge(x, h) for x in x_set)
                    ]
                    assert is_normal_set(hole, complete), (g, hole, x_set)
                    exercised["stable"] += 1
                # spread vertices have at least four hole neighbors
                for m in majors:
                    assert sum(
                        1 for h in hole if g.has_edge(m, h)
                    ) >= 4, (g, hole, m)
                    exercised["degree"] += 1
                # induced paths between nonadjacent majors along the hole
                # have even length
                for x, y in itertools.combinations(majors, 2):
                    if g.has_edge(x, y):
                        continue
                    for start in range(k):
                        for ln in range(1, k):
                            arc = [hole[(start + t) % k] for t in range(ln + 1)]
                            path = (x, *arc, y)
                            from oddhole.graph import is_induced_path

                            if is_induced_path(g, path):
                                assert (len(path) - 1) % 2 == 0, (g, hole, path)
                                exercised["jump"] += 1
                # a singleton-isolated subset of majors admits a heavy edge
                if len(hole) >= 7:
                    for x_set in _heavy_subsets(g, majors):
                        assert heavy_edges(g, hole, x_set), (g, hole, x_set)
                        exercised["heavy"] += 1
        shortpath_count = _shortpath_suite()
        exercised["shortpath"] = shortpath_count
        assert all(v >= 50 for v in exercised.values()), exercised


def _heavy_subsets(g, majors):
    for r in range(1, len(majors) + 1):
        for comb in itertools.combinations(majors, r):
            isolated = any(
                all(not g.has_edge(x0, other) for other in comb if other != x0)
                for x0 in comb
            )
            if isolated:
                yield comb


def _shortpath_suite():
    """Clean shortest odd holes: distances realize arcs; swaps stay holes."""
    count = 0
    rng = random.Random(99)
    instances = []
    for k in (7, 9, 11):
        instances.append(cycle_graph(k))
    for i in range(400):
        g = gnp(rng.randint(7, 11), rng.choice((0.2, 0.3)), 888000 + i)
        instances.append(g)
    for g in instances:
        holes = shortest_odd_holes(g)
        if not holes:
            continue
        if any(major_vertices(g, h) for h in holes):
            # the fact needs a clean shortest hole; check those that are
            holes = [h for h in holes if not major_vertices(g, h)]
        if not holes:
            continue
        if oracle_find_pyramid(g) is not None or oracle_find_jewel(g) is not None:
            continue
        hole = holes[0]
        k = len(hole)
        pos = {h: i for i, h in enumerate(hole)}
        for a in range(k):
            for b in range(a + 2, k):
                if (b - a) % k == k - 1:
                    continue  # adjacent around the wrap
                u, v = hole[a], hole[b]
                arc1 = b - a
                arc2 = k - arc1
                short_len = min(arc1, arc2)
                du = bfs_distances(g, u)
                assert du[v] == short_len, (g, hole, u, v)
                p = walk_down(g, du, v)[::-1]
                # close through the longer hole arc, walking from v back to u
                if arc1 > arc2:
                    interior = [hole[(a + t) % k] for t in range(1, arc1)]
                    interior.reverse()
                else:
                    interior = [hole[(b + t) % k] for t in range(1, arc2)]
                cycle = tuple(p) + tuple(interior)
                assert is_odd_hole(g, cycle) and len(cycle) == k, (g, hole, u, v)
                count += 1
    return count


def test_criterion_7_configuration_oracle_gates():
    with criterion(7, "pyramid/jewel finders match their oracles"):
        for n in range(1, 8):
            for g in small_graphs(n):
                assert (find_pyramid(g) is None) == (oracle_find_pyramid(g) is None)
                assert (find_jewel(g) is None) == (oracle_find_jewel(g) is None)
        rng = random.Random(7)
        for i in range(500):
            n = rng.randint(8, 10)
            g = gnp(n, rng.choice((0.2, 0.35, 0.5)), 999000 + i)
            assert (find_pyramid(g) is None) == (oracle_find_pyramid(g) is None), i
        for i in range(500):
            n = rng.randint(8, 9)
            g = gnp(n, rng.choice((0.2, 0.35, 0.5)), 111000 + i)
            assert (find_jewel(g) is None) == (oracle_find_jewel(g) is None), i


def test_criterion_8_perfection_smoke():
    with criterion(8, "perfection verdicts on known families"):
        for i in range(10):
            assert test_perfect(random_chordal(10, i)).verdict == "perfect"
            assert test_perfect(random_bipartite(5, 5, 0.45, i)).verdict == "perfect"
        for g in (cycle_graph(5), cycle_graph(7), cycle_graph(7).complement()):
            doc = test_perfect(g)
            assert doc.verdict == "imperfect"
            assert doc.verify_witness(g)

