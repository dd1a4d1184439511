import pytest

from oddhole import Graph
from oddhole.configs import find_jewel, find_pyramid
from oddhole.generators import cycle_graph, gnp
from oddhole.graph import bits, mask_of
from oddhole.oracle import oracle_odd_holes
from oddhole.probes import (
    heavy_edges,
    is_clean,
    is_normal_set,
    major_vertices,
    set_gaps,
    vertex_gaps,
)


def _cycle_plus(k, extra_nbrs):
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k, u) for u in extra_nbrs]
    return Graph(k + 1, edges)


HOLE7 = tuple(range(7))


def test_major_vertices_examples():
    assert major_vertices(cycle_graph(7), HOLE7) == 0
    dominating = _cycle_plus(7, range(7))
    assert major_vertices(dominating, HOLE7) == mask_of([7])
    three_consec = _cycle_plus(7, [1, 2, 3])
    assert major_vertices(three_consec, HOLE7) == 0
    spread = _cycle_plus(7, [0, 3])
    assert major_vertices(spread, HOLE7) == mask_of([7])


def test_major_independent_reimplementation():
    # quantifier spelled out directly: no window of three consecutive hole
    # vertices contains all the neighbors
    for i in range(60):
        g = gnp(10, 0.4, 3000 + i)
        hole = None
        from oddhole.oracle import oracle_find_odd_hole

        hole = oracle_find_odd_hole(g)
        if hole is None:
            continue
        k = len(hole)
        got = major_vertices(g, hole)
        for v in range(g.n):
            if v in hole:
                continue
            nbrs = [j for j in range(k) if g.has_edge(v, hole[j])]
            windows = [
                set(((s + d) % k) for d in range(3)) for s in range(k)
            ]
            fits = any(set(nbrs) <= w for w in windows) if nbrs else True
            assert bool(got >> v & 1) == (not fits)


def test_is_clean():
    assert is_clean(cycle_graph(7), HOLE7)
    assert not is_clean(_cycle_plus(7, range(7)), HOLE7)


def test_set_gaps_examples():
    gaps = set_gaps(HOLE7, [0, 3])
    lengths = sorted(len(g) - 1 for g in gaps)
    assert lengths == [3, 4]
    assert not is_normal_set(HOLE7, [0, 3])

    gaps = set_gaps(HOLE7, [0, 1])  # adjacent pair: single long gap
    assert [len(g) - 1 for g in gaps] == [6]
    assert is_normal_set(HOLE7, [0, 1])

    hole6 = tuple(range(6))
    gaps = set_gaps(hole6, [0, 2, 4])
    assert sorted(len(g) - 1 for g in gaps) == [2, 2, 2]
    assert is_normal_set(hole6, [0, 2, 4])


def test_set_gaps_degenerate_shapes():
    # empty set on an odd hole: never normal
    assert not is_normal_set(HOLE7, [])
    gaps = set_gaps(HOLE7, [])
    assert len(gaps) == 1 and len(gaps[0]) - 1 == 7
    # single member: one closed gap around the whole cycle
    gaps = set_gaps(HOLE7, [3])
    assert len(gaps) == 1
    assert gaps[0][0] == gaps[0][-1] == 3 and len(gaps[0]) - 1 == 7
    # everything: no gaps at all
    assert set_gaps(HOLE7, list(range(7))) == []
    assert is_normal_set(HOLE7, list(range(7)))
    with pytest.raises(ValueError):
        set_gaps(HOLE7, [9])


def test_vertex_gaps_examples():
    g = _cycle_plus(7, [0, 3])
    gaps = vertex_gaps(g, HOLE7, 7)
    assert sorted(len(p) - 1 for p in gaps) == [3, 4]
    g = _cycle_plus(7, [0, 1])
    gaps = vertex_gaps(g, HOLE7, 7)
    assert [len(p) - 1 for p in gaps] == [6]
    ends = {(p[0], p[-1]) for p in gaps}
    assert ends == {(1, 0)}
    g = _cycle_plus(7, [2])
    assert vertex_gaps(g, HOLE7, 7) == []  # fewer than two neighbors
    with pytest.raises(ValueError):
        vertex_gaps(g, HOLE7, 3)  # probe vertex must be off the hole


def test_vertex_gaps_lengths_sum():
    # with no two neighbors adjacent on the hole, gap lengths sum to the
    # hole length
    for i in range(80):
        g = gnp(11, 0.3, 4100 + i)
        from oddhole.oracle import oracle_find_odd_hole

        hole = oracle_find_odd_hole(g)
        if hole is None:
            continue
        k = len(hole)
        pos = {h: idx for idx, h in enumerate(hole)}
        for v in range(g.n):
            if v in hole:
                continue
            nbrs = sorted(pos[h] for h in hole if g.has_edge(v, h))
            if len(nbrs) < 2:
                continue
            adjacent_pair = any(
                (nbrs[(i + 1) % len(nbrs)] - nbrs[i]) % k == 1
                for i in range(len(nbrs))
            )
            if adjacent_pair:
                continue
            gaps = vertex_gaps(g, hole, v)
            assert sum(len(p) - 1 for p in gaps) == k


def test_heavy_edges_examples():
    c7 = cycle_graph(7)
    assert len(heavy_edges(c7, HOLE7, [])) == 7  # vacuous domination
    dom = _cycle_plus(7, range(7))
    assert len(heavy_edges(dom, HOLE7, [7])) == 7
    # 9-cycle plus a vertex adjacent to 0..3: heavy edges are those meeting
    # its neighborhood
    g = _cycle_plus(9, [0, 1, 2, 3])
    hole9 = tuple(range(9))
    got = heavy_edges(g, hole9, [9])
    assert got == [(0, 1), (1, 2), (2, 3), (3, 4), (8, 0)]
    # direct evaluation of the definition
    for (u, v) in [(e, (e + 1) % 9) for e in range(9)]:
        dominated = g.has_edge(9, u) or g.has_edge(9, v)
        assert ((u, v) in got) == dominated


def test_two_majors_on_a_c9_leave_a_heavy_edge():
    # The reason stage 3 may never decide a graph: in a pyramid- and
    # jewel-free graph, some edge of a shortest odd hole C dominates every
    # C-major vertex, so the heavy sweep finds the hole first.  A graph
    # breaking this shrinks to C plus its majors, so here every C9 with two
    # majors is built: each neighborhood that makes a vertex major without a
    # shorter odd hole (the first major's up to rotation and reflection),
    # with the majors adjacent or not.
    hole = tuple(range(9))
    ring = [(i, (i + 1) % 9) for i in range(9)]

    def shorter_hole(g):
        return any(len(c) < 9 for c in oracle_odd_holes(g))

    rows = [row for row in range(1, 1 << 9)
            if major_vertices(_cycle_plus(9, bits(row)), hole)
            and not shorter_hole(_cycle_plus(9, bits(row)))]
    assert len(rows) == 184

    def images(row):
        members = list(bits(row))
        for shift in range(9):
            for sign in (1, -1):
                yield mask_of((sign * v + shift) % 9 for v in members)

    firsts = [row for row in rows if row == min(images(row))]
    assert len(firsts) == 17
    graphs = [Graph(11, ring + [(9, u) for u in bits(r1)] + [(10, u) for u in bits(r2)]
                    + joined)
              for r1 in firsts for r2 in rows for joined in ([], [(9, 10)])]
    assert len(graphs) == 6256
    # none of them lacks a heavy edge; with three majors some do, and each
    # of those fails a precondition
    for g in graphs:
        if not heavy_edges(g, hole, [9, 10]):
            assert shorter_hole(g) or find_pyramid(g) or find_jewel(g)
