"""Staged odd-hole detection for candidate graphs.

A candidate (no pyramid, no jewel, no heavy-cleanable shortest odd hole)
that still contains an odd hole has a shortest odd hole C with a probe
vertex x whose largest gap D on C has length at least three, and an edge
c2c3 of C whose ends dominate x and every other spread-out vertex not
adjacent to x.  Up to renaming, the guessed quintet (c2, c3, d1, x, d2)
then falls into one of six shapes:

1. c2 != d1, D shorter than half the hole;
2. c2 != d1, D longer than half;
3. c2 == d1, c3 outside the interior of D, D shorter;
4. c2 == d1, c3 outside the interior of D, D longer;
5. c2 == d1, c3 inside the interior of D, D shorter;
6. c2 == d1, c3 inside the interior of D, D longer.

Each detector below enumerates the tuples of its shape, derives deletion
sets that (for the right guess) strip every spread-out vertex while keeping
the hole, reconstructs the hole from shortest-path pieces, and verifies the
result before reporting.  Witnesses are therefore always genuine; the
completeness of the six-way split is exercised by the differential and
oracle suites.  See docs/derived-types.md for how shapes 4-6 are obtained
from their short counterparts.

Two pieces are shared by all six shapes.  The search context
(``graph._Search``), created once per leaf that :func:`detect` searches
and passed to every shape, answers every masked BFS and, through
``cleaning._clean``, every clean-test fallback, so each distinct (source,
mask) pair is searched, and each fallback mask tested, once per context;
it also builds, once each, the tables of paths that the shapes guess on
(``_Search.three_paths``, ``four_paths`` and ``live_paths``, below).  The jewel, pyramid and heavy-cleanable searches
fill it first.  It is freed when the call returns; a public
``detect_typeN`` called alone gets a context of its own.  :func:`_strip` is
the common deletion step, and the only place a shape builds a union of
shortest paths: it is given the pieces ``(a, b, t)`` that recover the gap,
collects the vertices on their shortest paths inside ``gp`` off a small
protected set (``graph.geodesic_mask`` on the context's BFS from both
ends), and drops the guessed neighbours of the probe and the dominating
edge plus the fringe of that union.

Shapes 1-2 draw their guesses from :func:`_split_cuts` and close the hole
with :func:`_flank_pairs`; shapes 3-6 draw theirs from
:func:`_anchored_cuts`.  Each guess of shapes 1-2 has a mirror (``c2`` and
``c3`` swapped, and for shape 2 also ``d1`` and ``d2``) with the same
deletion sets whose cycles are the same cycles reversed, so shape 1 takes
each edge in one orientation and shape 2 each three-path in one.  Both
enumerations also skip, by exact bitmask tests and before any BFS, every
guess that cannot close a hole: shapes 1-2 those in which ``d1`` or ``d2``
has no neighbour left off the three-path, or no component of the graph
less the edge's other neighbours meets a neighbour of each (every
``d1``-``d2`` path in ``gp`` runs inside one), shapes 3-6 those that
delete the anchor or ``d2`` or leave either with no neighbour in ``gp``
(the search must step out of both, and they are not adjacent).  Tests that
do not depend on the rest of the guess are made while the context lists
its paths, so those paths are never listed.  Shapes 1-2 walk
``_Search.three_paths``, the three-paths whose ends each have a neighbour
outside ``N[x]`` and the other end's closed neighbourhood, and on an edge with
none left no arc is walked.  The guesses left on
an edge depend on the unordered edge alone, so :func:`_edge_cuts` lists
them once per context, in ``_Search.edge_cuts``, and both shapes and both
orientations read that list.  In the stage-3 context of :func:`detect`
on the line graph of 20 random edges of K6,6 with a 6-cycle glued at one
vertex (the graph named in ``cleaning._clean``), the component test drops
1,994 of the 5,234 guesses that pass the step-off test, and 2,500 of
those have no ``d1``-``d2`` path in ``gp``; ``_Search.three_paths`` keeps
144 of its 156 three-paths there.  The sweep walks
``_Search.four_paths``, the four-paths whose sweep mask
(the path and, listed with it, its ``rest``: every vertex outside
``N[p2] | N[p3]``) has five or more vertices, listed middle edge first so
that an edge with an empty ``rest`` is skipped whole (475 of 498 are kept
in the 22 contexts of ``test_perfect`` on seed-1 ``perfect-mixed`` that
reach the sweep).  The sweep walks the table as it is listed and stops at
its first hole, so those contexts list 70 of the 475.  Shapes 3-6 walk
``_Search.live_paths``, those four-paths whose mask
``graph.certifies_berge`` does not certify either.  Every hole that
a guess on a four-path can return lies in that mask, so the others cannot
close one.  Each table is built once
per context, on the first call that reads it, and shared by the stages
that read it.  ``live_paths`` keeps 128 of the 326 four-paths of that
glued graph.  Stage 0 leaves no perfect side of seed-1 ``perfect-mixed``
to the search, and no context there reaches stage 3.  The clean-test
fallbacks of every shape skip, inside :func:`cleaning.test_clean`, a
certified mask.  The remaining guesses keep their order, and so the
witnesses are unchanged.
Every path is read off the BFS layers by ``graph.walk_down``; a path from
one end through a guessed middle vertex to the other is joined by
``graph.through``.

Stages 1-2 run on every leaf that :func:`detect` searches, and on small
graphs their cost is the constant factor of their loops.  The jewel's
``v2..v5`` loops, the pyramid's triangle loops, the clean scan's loops,
the claw-centre mask and the four-path lister walk their masks with inline
lowest-bit loops, not ``graph.bits`` generators, in the same increasing
order; ``Graph.induced`` builds each leaf's rows from the runs of
consecutive ids in the leaf, one AND and one shift per run.
``pipeline.test_perfect`` builds no complement for a graph with no leaf,
and searches the complement of each leaf, not of the whole graph, for one
with a leaf.

Two leaves need no search, and :func:`_search_graph` decides them in O(n)
before it builds a context.  A leaf that is an odd cycle of length seven
or more gets, in closed form, the hole that stages 1-2 return on it
(:func:`_cycle_hole`); one that is the complement of such a cycle has no
odd hole.  One walker, ``graph._ring``, tests both in one walk: the
degree of the lowest vertex tells it whether to walk the rows or those of
the complement, which it never builds.  Stage 0 asks the same walker of
the rest of each simplicial pass that deleted a vertex, and takes such a
rest as a leaf with no split (``graph._peeled_rest``).  ``pipeline.test_perfect`` asks it again of
each leaf before it builds the leaf's complement: the complement of an
antihole leaf is a cycle, whose hole :func:`_cycle_hole` gives with no
complement built and no ``detect`` run there.
On seed-1 ``perfect-mixed``, 62 of the 240 leaves that the graph sides
search are odd cycles and 120 are odd antiholes, whose complements are
the 120 leaves of the complement sides; on seed-1 ``stream-batch``, 169 of
the 200 leaves are odd cycles.  Stage 0 takes 181 of the 182 and 167 of
the 169 as leaves at once.  A seed-1 ``perfect-mixed`` pass of
``test_perfect`` takes 35.5 ms in process without the two leaf tests,
20.6 ms with them, and 17.3 ms when stage 0 also takes those leaves at
once and the digest encodes graph6 by table (best of 25 passes in each of
8 rounds; Python 3.11.7, 2 shared vCPUs).  When the two tests came in,
they cut the complement sides of that pass from 7.9 ms to 1.25, and a
``detect`` pass over seed-1 ``stream-batch`` from 15.7 ms to 10.2.

:func:`detect` runs the six shapes only on a graph with a claw: on a
claw-free graph the jewel, pyramid and heavy-cleanable searches already
find an odd hole if there is one (``docs/derived-types.md``, "Claw-free
graphs need no stage 3").
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .cleaning import _classify, _clean
from .graph import (
    Distances,
    Graph,
    Mask,
    _pieces,
    _ring,
    _Search,
    bits,
    geodesic_mask,
    is_odd_hole,
    mask_of,
    neighbourhood,
    split_leaves,
    through,
    walk_down,
)

Hole = tuple[int, ...]
RData = dict[int, tuple[tuple[int, ...], int, int]]  # v -> (path, mask, length)


def _strip(search: _Search, drop: Mask, keep: Mask, gp: Mask,
           *pieces: tuple[int, int, int]) -> Mask:
    """All vertices but ``drop`` and the fringe of the geodesic union ``y``.

    Each piece ``(a, b, t)``, with ``t`` the distance of ``a`` and ``b`` in
    ``gp``, adds to ``y`` the vertices of ``gp & ~keep`` on a shortest a-b
    path in ``gp`` (``graph.geodesic_mask`` on the context's BFS from both
    ends).  The fringe is every vertex outside ``y | keep`` with a neighbour
    in ``y``.
    """
    scope = gp & ~keep
    y = 0
    for a, b, t in pieces:
        y |= geodesic_mask(search.dist(a, gp), search.dist(b, gp), t, scope)
    near = neighbourhood(search.g, y)
    return search.g.full_mask & ~(drop | (near & ~y & ~keep))


def _equidistant(da: Distances, db: Distances, shift: int) -> Mask:
    """The vertices ``w`` with ``da[w] >= 1`` and ``db[w] == da[w] + shift``."""
    la = da.layers
    lb = db.layers
    out = 0
    for t in range(1, min(len(la), len(lb) - shift)):
        out |= la[t] & lb[t + shift]
    return out


def _r_paths(search: _Search, hub: int, core: Mask, members: Mask) -> RData:
    """Shortest anchored paths: each member, then only core vertices, to hub.

    A member need not lie in the core itself; its path steps into the core
    immediately.  Minimum length makes every returned path induced.  Members
    with no route are omitted; the hub itself gets the trivial path.
    """
    g = search.g
    hd = search.dist(hub, core)
    out: RData = {}
    for v in bits(members):
        if v == hub:
            out[v] = ((v,), 1 << v, 0)
            continue
        row = g.adj[v]
        for best, layer in enumerate(hd.layers):  # the nearest core neighbour, lowest id
            step = row & layer
            if step:
                via = (step & -step).bit_length() - 1
                path = (v,) + tuple(walk_down(g, hd, via))  # v, via .. hub
                out[v] = (path, mask_of(path), best + 1)
                break
    return out


def _flank_pairs(search: _Search, gpp: Mask, r1: RData, r4: RData, gap: Hole,
                 close: tuple[int, int]) -> Optional[Hole]:
    """Close the hole through one anchored path from each flank.

    The paths of ``r1`` end at ``gap[0]`` and those of ``r4`` at ``gap[-1]``;
    a one-vertex gap is a hub both flanks share.  Pairs are tried in matching
    length parity, evens first.  A pair whose paths share a vertex or an edge
    (the hub aside) is skipped; any other is assembled as
    ``a .. gap .. b, close`` and verified, with the clean test on ``gpp``
    plus the two flank vertices as the fallback.
    """
    g = search.g
    hub = 1 << gap[0] if len(gap) == 1 else 0
    sides = []
    for rdata in (r1, r4):
        by_parity: tuple[list, list] = ([], [])
        for v, (path, mask, length) in rdata.items():
            by_parity[length % 2].append((v, path, mask & ~hub))
        sides.append(by_parity)
    for a_items, b_items in zip(*sides):
        for a, pa, ca in a_items:
            na = neighbourhood(g, ca)
            for b, pb, cb in b_items:
                if ca & cb or na & cb:
                    continue
                cycle = pa + gap[1:] + pb[-2::-1] + close
                if is_odd_hole(g, cycle):
                    return cycle
                hole = _clean(search, gpp | (1 << a) | (1 << b))
                if hole is not None:
                    return hole
    return None


def _split_cuts(search: _Search, arcs: Iterable[tuple[int, int]]) -> Iterator[tuple]:
    """The guesses of shapes 1-2: each arc c2-c3 with each induced path d1-x-d2 off it.

    The guesses of an arc come from :func:`_edge_cuts`, one list per edge
    that both orientations and both shapes read; only the flank sets are
    made per arc.  With no three-path in ``search.three_paths``, no arc is
    walked.

    Yields ``(c2, c3, c1set, c4set, d1, d2, trip, used, drop, gp)``: the two
    flank sets (neighbours of one end of the arc only, less ``x``), the path's
    vertex mask ``trip``, ``used`` (``trip`` plus the arc), the deletion set
    ``drop`` (common neighbours of ``d1, d2`` other than ``x``, the arc's
    other neighbours, and ``x``) and ``gp``, the vertices left once ``drop``
    and the rest of the neighbourhood of ``x`` are gone.
    """
    if not search.three_paths:
        return
    adj = search.g.adj
    for c2, c3 in arcs:
        pairbit = (1 << c2) | (1 << c3)
        c1base = adj[c2] & ~adj[c3] & ~pairbit
        c4base = adj[c3] & ~adj[c2] & ~pairbit
        if not c1base or not c4base:
            continue
        for d1, d2, xbit, trip, drop, gp in _edge_cuts(search, pairbit):
            yield (c2, c3, c1base & ~xbit, c4base & ~xbit, d1, d2, trip,
                   trip | pairbit, drop, gp)


def _edge_cuts(search: _Search, pairbit: Mask) -> list[tuple[int, int, Mask, Mask, Mask, Mask]]:
    """The live guesses ``(d1, d2, xbit, trip, drop, gp)`` on the edge ``pairbit``.

    The list is built on the edge's first use and kept in
    ``search.edge_cuts``, since the tests, ``drop`` and ``gp`` of a guess
    depend on the unordered edge alone.  Its three-paths are those of
    ``search.three_paths`` off the edge, in that order.  Shape 1 needs a
    ``d1``-``d2`` path in ``gp``, and shape 2 a ``d3`` that both ends reach
    in ``gp``; either way some ``d1``-``d2`` path lies in ``gp``.  Its
    interior lies in ``gp - trip`` (``x`` is deleted and ``d1, d2`` are not
    adjacent), which is the complement of ``N[x] | N(d1) & N(d2) | x2base |
    trip``, with ``x2base`` the other neighbours of the edge's ends.  So a
    guess is dead, and left out, unless two tests pass:

    - it can step off both ends: ``s1 = a1 - x2base`` and ``s2 = a2 -
      x2base`` are the neighbours of ``d1`` and ``d2`` in ``gp - trip``,
      and both must be non-empty;
    - the interior, which is connected and misses ``x2base``, lies in one
      component of ``G[V - x2base]``, so one component must meet both
      ``s1`` and ``s2``.  The components depend on the edge alone; they
      are listed once, when a three-path first passes the first test.
    """
    cuts = search.edge_cuts.get(pairbit)
    if cuts is not None:
        return cuts
    g = search.g
    full, adj = g.full_mask, g.adj
    x2base = neighbourhood(g, pairbit) & ~pairbit
    parts: Optional[list[Mask]] = None
    cuts = search.edge_cuts[pairbit] = []
    for (d1, x, d2, trip, a1, a2) in search.three_paths:
        s1 = a1 & ~x2base
        s2 = a2 & ~x2base
        if trip & pairbit or not (s1 and s2):
            continue
        if parts is None:
            parts = _pieces(g, full & ~x2base, co=False)
        for part in parts:
            if part & s1 and part & s2:
                break
        else:
            continue
        xbit = 1 << x
        drop = (adj[d1] & adj[d2] & ~xbit) | (x2base & ~trip) | xbit
        cuts.append((d1, d2, xbit, trip, drop, full & ~(drop | (adj[x] & ~trip))))
    return cuts


def detect_type1(g: Graph) -> Optional[Hole]:
    """Shape 1: dominating edge away from the gap, gap shorter than half."""
    return _type1(_Search(g))


def _type1(search: _Search) -> Optional[Hole]:
    g = search.g
    # Swapping c2 and c3 swaps the flank sets and reverses every cycle built
    # below, so each edge is tried in one orientation only.
    for c2, c3, c1set, c4set, d1, d2, trip, used, drop, gp in _split_cuts(search, g.edges()):
        t = search.dist(d1, gp)[d2]
        if t < 0:
            continue
        gpp = _strip(search, drop, trip, gp, (d1, d2, t))
        for d3 in bits(gpp & ~used):
            hole = _flank_pairs(search, gpp, _r_paths(search, d3, gpp, c1set),
                                _r_paths(search, d3, gpp, c4set), (d3,), (c3, c2))
            if hole is not None:
                return hole
    return None


def detect_type2(g: Graph) -> Optional[Hole]:
    """Shape 2: dominating edge away from the gap, gap longer than half."""
    return _type2(_Search(g))


def _type2(search: _Search) -> Optional[Hole]:
    g = search.g
    adj = g.adj
    # Swapping both c2, c3 and d1, d2 swaps the flanks and reverses the gap
    # path and every cycle, so the three-path is tried in one orientation.
    arcs = ((c2, c3) for c2 in range(g.n) for c3 in bits(adj[c2]))
    for c2, c3, c1set, c4set, d1, d2, trip, used, drop, gp in _split_cuts(search, arcs):
        dd1 = search.dist(d1, gp)
        dd2 = search.dist(d2, gp)
        for d3 in bits(_equidistant(dd1, dd2, 0) & ~used):
            t = dd1[d3]
            gpp = _strip(search, drop, trip, gp, (d1, d3, t), (d2, d3, t))
            off_hub = ~(adj[d3] | (1 << d3))
            hole = _flank_pairs(search, gpp, _r_paths(search, d1, gpp, c1set & off_hub),
                                _r_paths(search, d2, gpp, c4set & off_hub),
                                through(g, dd1, dd2, d3), (c3, c2))
            if hole is not None:
                return hole
    return None


def _anchored_cuts(search: _Search, anchor_on_c3: bool) -> Iterator[tuple]:
    """The guesses of shapes 3-6: an induced path c1-d1-c3-c4, x and d2.

    ``d1-c3`` is the dominating edge, ``x`` a neighbour of ``d1`` off the
    path and ``d2`` a neighbour of ``x`` but not of ``d1``; each four-path is
    taken in both orientations.  The anchor, the second vertex of the gap,
    is ``c3`` or ``c1``.  Yields ``(c1, d1, c3, c4, d2, anchor, spare, used,
    drop, gp)`` for the guesses whose anchor and ``d2`` survive the deletion
    of ``drop`` (common neighbours of ``d1, d2`` other than ``x``, the other
    neighbours of ``d1`` and ``c3``, and ``x``) and of the rest of the
    neighbourhood of ``x``, that is those in which ``d2`` is adjacent to
    neither ``c3`` nor the anchor; ``spare`` is the anchor and ``d2``,
    ``used`` the four-path, ``x`` and ``d2``.

    Of those, only the guesses in which both the anchor and ``d2`` have a
    neighbour in ``gp`` are yielded: both shapes need a path of length at
    least two inside ``gp`` from each of them, as they are not adjacent.
    Two earlier tests drop only such dead guesses: ``d2`` lies in ``pool``,
    the four-path's ``rest`` (``V - (N[d1] | N[c3])``) less the anchor's
    neighbours, so an oriented four-path with an empty ``pool`` has no
    ``d2``; and the anchor's neighbours in ``gp`` lie in ``reach`` minus
    ``x`` and its neighbours.  Only the four-paths of ``search.live_paths``
    are taken: on the others no guess can return a hole.
    """
    g = search.g
    full, adj = g.full_mask, g.adj
    for (p1, p2, p3, p4, rest) in search.live_paths:
        cbits = (1 << p1) | (1 << p2) | (1 << p3) | (1 << p4)
        x2 = full & ~(rest | cbits)
        for (c1, d1, c3, c4) in ((p1, p2, p3, p4), (p4, p3, p2, p1)):
            anchor = c3 if anchor_on_c3 else c1
            pool = rest & ~adj[anchor]
            if not pool:
                continue
            reach = adj[anchor] & ~x2  # where the anchor can step into gp, before N(x) goes
            for x in bits(adj[d1] & ~cbits):
                xbit = 1 << x
                if not reach & ~(adj[x] | xbit):
                    continue
                for d2 in bits(adj[x] & pool):
                    spare = (1 << anchor) | (1 << d2)
                    drop = (adj[d1] & adj[d2] & ~xbit) | x2 | xbit
                    gp = full & ~(drop | (adj[x] & ~spare))
                    if adj[anchor] & gp and adj[d2] & gp:
                        yield (c1, d1, c3, c4, d2, anchor, spare,
                               cbits | xbit | (1 << d2), drop, gp)


def _short_anchored(search: _Search, anchor_on_c3: bool) -> Optional[Hole]:
    g = search.g
    for c1, d1, c3, c4, d2, anchor, spare, used, drop, gp in _anchored_cuts(search, anchor_on_c3):
        t = search.dist(anchor, gp)[d2]
        if t < 0:
            continue
        gpp = _strip(search, drop, spare, gp, (anchor, d2, t))
        need = (1 << c1) | (1 << c4)
        if (gpp & need) != need:
            continue
        e1 = search.dist(c1, gpp)
        e4 = search.dist(c4, gpp)
        for d3 in bits(_equidistant(e1, e4, 0) & ~used):
            cycle = (d1,) + through(g, e1, e4, d3) + (c3,)
            if is_odd_hole(g, cycle):
                return cycle
            hole = _clean(search, gpp)
            if hole is not None:
                return hole
    return None


def _long_anchored(search: _Search, anchor_on_c3: bool) -> Optional[Hole]:
    g = search.g
    for c1, d1, c3, c4, d2, anchor, spare, used, drop, gp in _anchored_cuts(search, anchor_on_c3):
        r_end = c1 if anchor_on_c3 else c4
        da = search.dist(anchor, gp)
        db = search.dist(d2, gp)
        for d3 in bits(_equidistant(da, db, 1) & ~used):
            t1 = da[d3]
            gpp = _strip(search, drop, spare, gp, (anchor, d3, t1), (d2, d3, t1 + 1))
            rdata = _r_paths(search, d2, gpp, 1 << r_end)
            if r_end not in rdata:
                continue
            rpath = rdata[r_end][0]  # r_end .. d2
            body = (d1,) + through(g, da, db, d3) + rpath[-2::-1]
            cycle = body if anchor_on_c3 else body + (c3,)
            if is_odd_hole(g, cycle):
                return cycle
            hole = _clean(search, gpp)
            if hole is not None:
                return hole
    return None


def detect_type3(g: Graph) -> Optional[Hole]:
    """Shape 3: dominating edge meets the gap end, hole flank outside, short gap."""
    return _short_anchored(_Search(g), anchor_on_c3=False)


def detect_type4(g: Graph) -> Optional[Hole]:
    """Shape 4: like shape 3 with the gap longer than half the hole."""
    return _long_anchored(_Search(g), anchor_on_c3=False)


def detect_type5(g: Graph) -> Optional[Hole]:
    """Shape 5: dominating edge meets the gap end, flank inside the gap, short gap."""
    return _short_anchored(_Search(g), anchor_on_c3=True)


def detect_type6(g: Graph) -> Optional[Hole]:
    """Shape 6: like shape 5 with the gap longer than half the hole."""
    return _long_anchored(_Search(g), anchor_on_c3=True)


_SHAPES: tuple[Callable[[_Search], Optional[Hole]], ...] = (
    _type1,
    _type2,
    partial(_short_anchored, anchor_on_c3=False),
    partial(_long_anchored, anchor_on_c3=False),
    partial(_short_anchored, anchor_on_c3=True),
    partial(_long_anchored, anchor_on_c3=True),
)


def _staged(search: _Search) -> Optional[Hole]:
    """Stage 3: the six shapes in order on one context; the first hole."""
    for shape in _SHAPES:
        hole = shape(search)
        if hole is not None:
            return hole
    return None


def detect(g: Graph) -> Optional[Hole]:
    """Decide whether the graph has an odd hole; return a verified one if so.

    Stage 0 is ``graph.split_leaves``.  It peels the graph: simplicial
    vertices are deleted as long as any is left, and then simplicial and
    co-simplicial ones; if the rest is bipartite or co-bipartite, or the
    line graph of a bipartite graph or the complement of one, the answer is
    None (``graph._peeled_rest`` has the proofs).  Bipartite, chordal and
    line graphs of bipartite graphs end there, and so do their complements;
    as the test gives a graph and its complement the same answer, so does
    either side of ``pipeline.test_perfect`` on any of them.  Otherwise
    only the rest of the simplicial pass goes on, and is split on
    components, co-components and twins, each piece peeled the same way.
    With no leaf left the answer is None, and the graph is Berge, so
    ``pipeline.test_perfect`` skips its complement side (the proof is in
    ``split_leaves``).  The leaves go to ``_search_leaves``, which
    ``test_perfect`` shares; its complement side searches the complement
    of each leaf.  Each leaf, in the order the split yields it,
    is searched as an induced graph (``Graph.induced``, which is this graph
    itself when it is its own only leaf), and a hole found there is mapped
    back to this graph's ids and verified; the graph has an odd hole iff
    some leaf has one.  Stages 1-2 return the same witness on the
    simplicial rest as on the graph (the proof is in ``split_leaves``).

    A leaf that is an odd cycle of length seven or more, or the complement
    of one, is decided with no search (:func:`_search_graph`): the cycle
    gets the hole that stages 1-2 would return (:func:`_cycle_hole`), and
    the antihole has none.  Any other leaf is searched through
    ``cleaning._classify`` (jewel, pyramid, heavy-cleanable sweep) on one
    search context.  If that finds
    nothing and the graph has no claw (``_Search.claw_centres`` is empty),
    the answer is None: in a claw-free graph every shortest odd hole has an
    edge whose ends see all of its major vertices, so the sweep would have
    found one (``docs/derived-types.md``, "Claw-free graphs need no stage
    3").  Otherwise the six staged shapes (:func:`_staged`) run on the same
    context.
    """
    return _search_leaves(g, split_leaves(g))


def _cycle_hole(order: list[int]) -> Hole:
    """The hole that stages 1-2 return on an odd cycle ``C_k``, ``k >= 7``,
    on the vertices ``0..k-1``, given its cycle order from 0 toward its
    lower neighbour (``graph._ring``).  The cycle can be the complement of
    the graph that ``graph._ring`` walked: this is then the hole that
    ``detect`` returns on that complement.

    On ``C_k``, ``k >= 7``, the jewel and the pyramid find nothing: a
    jewel's ring is a 5-cycle, and a pyramid has a triangle.  So stages 1-2
    return the sweep's first hole.  For ``b`` with neighbours ``x`` and
    ``y``, write ``x'`` for the other neighbour of ``x`` and ``y'`` for
    that of ``y``.  ``graph._list_four_paths`` lists, by ``b`` and then by
    ``c``, the four-paths ``a-b-c-d`` with ``d > a``: on ``b`` they are
    ``y-b-x-x'`` if ``x' > y`` and ``x-b-y-y'`` if ``y' > x``.  Each has a
    ``rest`` of ``k - 4`` vertices, so it is listed, and both its ends step
    into it (the other neighbour of ``a`` is not ``d``, as ``k > 5``).  So
    the sweep scans first the lowest ``b`` with ``x' > y`` or ``y' > x``;
    there is one, as the four-path ending at the highest id is listed.  Its
    mask is the whole cycle, and ``cleaning._opposite_hole`` from ``b``
    meets ``k // 2`` layers of two vertices each.  Only the last holds an
    edge, joining the two antipodes of ``b``: the lower is ``y2`` and the
    higher ``y3``.  The walks from each down to ``b`` are the two arcs,
    which meet only at ``b`` and see each other only at ``y2y3``, so every
    test passes.  The hole is the whole cycle, walked from ``b`` through
    ``y2`` and then ``y3``: from ``b`` toward the lower of its antipodes.
    """
    k = len(order)
    pos = [0] * k
    for i, v in enumerate(order):
        pos[v] = i
    for b in range(k):  # x' > y or y' > x, read both ways round the ring
        i = pos[b]
        if order[(i + 2) % k] > order[i - 1] or order[i - 2] > order[(i + 1) % k]:
            break
    ring = order[i:] + order[:i]
    h = k // 2
    if ring[h] > ring[h + 1]:  # the lower antipode is h steps the other way
        ring[1:] = ring[:0:-1]
    return tuple(ring)


def _search_leaves(g: Graph, leaves: list[Mask]) -> Optional[Hole]:
    """Stages 1-3 of :func:`detect` on the ``leaves`` that stage 0 left of ``g``."""
    for leaf in leaves:
        sub, back = g.induced(leaf)
        hole = _search_graph(sub)
        if hole is not None:
            hole = tuple(back[v] for v in hole)
            if is_odd_hole(g, hole):
                return hole
    return None


def _search_graph(g: Graph) -> Optional[Hole]:
    """Stages 1-3 of :func:`detect`, with no stage 0, on one context.

    Two leaves are decided first, with no context, by one walk of
    ``graph._ring``: an odd cycle of length seven or more gets the hole of
    :func:`_cycle_hole`, and the complement of one has no odd hole.  Proof
    of the second: an induced subgraph of the
    antihole on ``S`` is the complement of ``C_k[S]``, which is the whole
    cycle or a union of paths.  A hole ``C_m`` there (``m >= 5``) would make
    ``C_k[S]`` the complement of ``C_m``, whose vertices have degree ``m -
    3``: that is not a union of paths for ``m >= 6``, and for ``m = 5`` it
    is a 5-cycle, so ``S`` would be the whole cycle and ``k = 5``.
    """
    ring = _ring(g.adj, g.full_mask)
    if ring is not None:
        order, co = ring
        return None if co else _cycle_hole(order)
    search = _Search(g)
    hole = _classify(search)
    if hole is not None or not search.claw_centres:
        return hole
    return _staged(search)
