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

Two pieces are shared by all six shapes.  A :class:`_Memo`, created once per
shape call, answers every masked BFS and every clean-test fallback, so each
distinct (source, mask) pair is searched once per shape; it holds one
distance list per such pair and is freed when the shape returns.
:func:`_strip` is the common deletion step: drop the guessed neighbours of
the probe and the dominating edge, plus the fringe of the union of the
shortest paths that recover the gap (``graph.geodesic_mask``).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .cleaning import classify_candidate, test_clean, _walk_down
from .graph import (
    Graph,
    Mask,
    bits,
    bfs_distances,
    geodesic_mask,
    induced_four_paths,
    induced_three_paths,
    is_odd_hole,
    mask_of,
)

Hole = tuple[int, ...]
RData = dict[int, tuple[tuple[int, ...], int, int]]  # v -> (path, mask, length)


class _Memo:
    """Masked BFS distances and clean-test results for one graph.

    ``bfs_distances`` and ``test_clean`` are looked up in this module at call
    time, so rebinding them here (as an outside tracer does) is honoured.
    The distance lists are shared by every caller of the same (source, mask)
    pair and must not be modified.
    """

    __slots__ = ("g", "_dist", "_clean")

    def __init__(self, g: Graph) -> None:
        self.g = g
        self._dist: dict[tuple[int, Mask], list[int]] = {}
        self._clean: dict[Mask, Optional[Hole]] = {}

    def dist(self, source: int, mask: Mask) -> list[int]:
        key = (source, mask)
        d = self._dist.get(key)
        if d is None:
            d = self._dist[key] = bfs_distances(self.g, source, mask)
        return d

    def clean(self, mask: Mask) -> Optional[Hole]:
        if mask not in self._clean:
            self._clean[mask] = test_clean(self.g, mask)
        return self._clean[mask]


def _strip(g: Graph, drop: Mask, y: Mask, keep: Mask) -> Mask:
    """All vertices but ``drop`` and the fringe of ``y``.

    The fringe is every vertex outside ``y | keep`` with a neighbour in ``y``.
    """
    adj = g.adj
    near = 0
    for w in bits(y):
        near |= adj[w]
    return g.full_mask & ~(drop | (near & ~y & ~keep))


def _r_paths(memo: _Memo, hub: int, core: Mask, members: Mask) -> RData:
    """Shortest anchored paths: each member, then only core vertices, to hub.

    A member need not lie in the core itself; its path steps into the core
    immediately.  Minimum length makes every returned path induced.  Members
    with no route are omitted; the hub itself gets the trivial path.
    """
    g = memo.g
    hd = memo.dist(hub, core)
    out: RData = {}
    for v in bits(members):
        if v == hub:
            out[v] = ((v,), 1 << v, 0)
            continue
        best = -1
        via = -1
        for u in bits(g.adj[v] & core):
            d = hd[u]
            if d >= 0 and (best < 0 or d < best):
                best, via = d, u
        if best < 0:
            continue
        tail = _walk_down(g, hd, via, core)  # via .. hub
        path = (v,) + tuple(tail)
        out[v] = (path, mask_of(path), best + 1)
    return out


def _parity_split(rdata: RData, side: Mask):
    evens, odds = [], []
    for v in bits(side):
        entry = rdata.get(v)
        if entry is None:
            continue
        (evens if entry[2] % 2 == 0 else odds).append((v,) + entry)
    return evens, odds


def _pair_scan(g, a_items, b_items, hub_mask, assemble, net) -> Optional[Hole]:
    """Try every pair whose anchored paths are disjoint and non-adjacent.

    Joint vertices or edges between the two paths (hub aside) disqualify a
    pair outright; surviving pairs are assembled into a full cycle and
    verified, with the clean-test net as the fallback when assembly fails.
    """
    adj = g.adj
    for (a, pa, ma, _la) in a_items:
        ca = ma & ~hub_mask
        na = 0
        for w in bits(ca):
            na |= adj[w]
        for (b, pb, mb, _lb) in b_items:
            cb = mb & ~hub_mask
            if ca & cb or na & cb:
                continue
            hole = assemble(pa, pb)
            if hole is not None:
                return hole
            hole = net(a, b)
            if hole is not None:
                return hole
    return None


def _flank_pairs(memo: _Memo, gpp: Mask, r1: RData, c1set: Mask, r4: RData,
                 c4set: Mask, hub_mask: Mask, assemble) -> Optional[Hole]:
    """Pair the two flanks' anchored paths in matching length parity."""
    ev_a, od_a = _parity_split(r1, c1set)
    ev_b, od_b = _parity_split(r4, c4set)

    def net(a, b):
        return memo.clean(gpp | (1 << a) | (1 << b))

    for a_items, b_items in ((ev_a, ev_b), (od_a, od_b)):
        if not a_items or not b_items:
            continue
        hole = _pair_scan(memo.g, a_items, b_items, hub_mask, assemble, net)
        if hole is not None:
            return hole
    return None


def detect_type1(g: Graph) -> Optional[Hole]:
    """Shape 1: dominating edge away from the gap, gap shorter than half."""
    if g.n < 5:
        return None
    memo = _Memo(g)
    full, adj = g.full_mask, g.adj
    p3s = induced_three_paths(g)
    for c2 in range(g.n):
        for c3 in g.neighbors_of[c2]:
            pairbit = (1 << c2) | (1 << c3)
            c1base = adj[c2] & ~adj[c3] & ~pairbit
            c4base = adj[c3] & ~adj[c2] & ~pairbit
            if not c1base or not c4base:
                continue
            x2base = (adj[c2] | adj[c3]) & ~pairbit
            for (d1, x, d2) in p3s:
                trip = (1 << d1) | (1 << x) | (1 << d2)
                if trip & pairbit:
                    continue
                xbit = 1 << x
                dpair = trip & ~xbit
                x1 = adj[d1] & adj[d2] & ~xbit
                x2 = x2base & ~trip
                gp = full & ~(x1 | x2 | ((adj[x] | xbit) & ~dpair))
                dd1 = memo.dist(d1, gp)
                t = dd1[d2]
                if t < 0:
                    continue
                y = geodesic_mask(dd1, memo.dist(d2, gp), t, gp & ~dpair)
                gpp = _strip(g, x1 | x2 | xbit, y, dpair)
                c1set = c1base & ~xbit
                c4set = c4base & ~xbit
                for d3 in bits(gpp & ~pairbit & ~trip):
                    hole = _finish_split_hub(memo, c2, c3, c1set, c4set, d3, gpp)
                    if hole is not None:
                        return hole
    return None


def _finish_split_hub(memo, c2, c3, c1set, c4set, d3, gpp) -> Optional[Hole]:
    rdata = _r_paths(memo, d3, gpp, c1set | c4set)
    if not rdata:
        return None
    g = memo.g

    def assemble(pa, pb):
        cycle = pa + tuple(reversed(pb))[1:] + (c3, c2)
        return cycle if is_odd_hole(g, cycle) else None

    return _flank_pairs(memo, gpp, rdata, c1set, rdata, c4set, 1 << d3, assemble)


def detect_type2(g: Graph) -> Optional[Hole]:
    """Shape 2: dominating edge away from the gap, gap longer than half."""
    if g.n < 5:
        return None
    memo = _Memo(g)
    full, adj = g.full_mask, g.adj
    base_p3s = induced_three_paths(g)
    p3s = base_p3s + [(d2, x, d1) for (d1, x, d2) in base_p3s]
    for c2 in range(g.n):
        for c3 in g.neighbors_of[c2]:
            pairbit = (1 << c2) | (1 << c3)
            c1base = adj[c2] & ~adj[c3] & ~pairbit
            c4base = adj[c3] & ~adj[c2] & ~pairbit
            if not c1base or not c4base:
                continue
            x2base = (adj[c2] | adj[c3]) & ~pairbit
            for (d1, x, d2) in p3s:
                trip = (1 << d1) | (1 << x) | (1 << d2)
                if trip & pairbit:
                    continue
                xbit = 1 << x
                dpair = trip & ~xbit
                x1 = adj[d1] & adj[d2] & ~xbit
                x2 = x2base & ~trip
                gp = full & ~(x1 | x2 | ((adj[x] | xbit) & ~dpair))
                dd1 = memo.dist(d1, gp)
                dd2 = memo.dist(d2, gp)
                for d3 in bits(gp & ~pairbit & ~trip):
                    t = dd1[d3]
                    if t < 1 or dd2[d3] != t:
                        continue
                    hole = _type2_finish(
                        memo, c2, c3, c1base, c4base, d1, d2, d3,
                        x1 | x2 | xbit, gp, dd1, dd2, xbit, dpair,
                    )
                    if hole is not None:
                        return hole
    return None


def _type2_finish(
    memo, c2, c3, c1base, c4base, d1, d2, d3, drop, gp, dd1, dd2, xbit, dpair
) -> Optional[Hole]:
    g = memo.g
    adj = g.adj
    t = dd1[d3]
    dd3 = memo.dist(d3, gp)
    scope = gp & ~dpair
    y = geodesic_mask(dd1, dd3, t, scope) | geodesic_mask(dd2, dd3, t, scope)
    gpp = _strip(g, drop, y, dpair)
    half1 = _walk_down(g, dd1, d3, gp)  # d3 .. d1
    half1.reverse()
    half2 = _walk_down(g, dd2, d3, gp)  # d3 .. d2
    gap_path = tuple(half1) + tuple(half2[1:])  # d1 .. d3 .. d2
    avoid_hub = adj[d3] | (1 << d3)
    c1set = c1base & ~xbit & ~avoid_hub
    c4set = c4base & ~xbit & ~avoid_hub
    r1 = _r_paths(memo, d1, gpp, c1set)
    r4 = _r_paths(memo, d2, gpp, c4set)

    def assemble(pa, pb):
        cycle = pa + gap_path[1:] + tuple(reversed(pb))[1:] + (c3, c2)
        return cycle if is_odd_hole(g, cycle) else None

    return _flank_pairs(memo, gpp, r1, c1set, r4, c4set, 0, assemble)


def _oriented_four_paths(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    for (a, b, c, d) in induced_four_paths(g):
        yield (a, b, c, d)
        yield (d, c, b, a)


def _anchored_tuples(g: Graph) -> Iterator[tuple[int, int, int, int, int, int, Mask]]:
    """Tuples (c1, d1, c3, c4, x, d2) with the dominating edge at d1-c3."""
    adj = g.adj
    for (c1, d1, c3, c4) in _oriented_four_paths(g):
        cbits = (1 << c1) | (1 << d1) | (1 << c3) | (1 << c4)
        for x in bits(adj[d1] & ~cbits):
            xbit = 1 << x
            for d2 in bits(adj[x] & ~adj[d1] & ~cbits & ~xbit):
                yield c1, d1, c3, c4, x, d2, cbits


def _short_anchored(g: Graph, anchor_on_c3: bool) -> Optional[Hole]:
    if g.n < 5:
        return None
    memo = _Memo(g)
    full, adj = g.full_mask, g.adj
    for c1, d1, c3, c4, x, d2, cbits in _anchored_tuples(g):
        anchor = c3 if anchor_on_c3 else c1
        xbit = 1 << x
        x1 = adj[d1] & adj[d2] & ~xbit
        x2 = (adj[d1] | adj[c3]) & ~cbits
        spare = (1 << anchor) | (1 << d2)
        gp = full & ~(x1 | x2 | ((adj[x] | xbit) & ~spare))
        if (gp & spare) != spare:
            continue
        da = memo.dist(anchor, gp)
        t = da[d2]
        if t < 0:
            continue
        y = geodesic_mask(da, memo.dist(d2, gp), t, gp & ~spare)
        gpp = _strip(g, x1 | x2 | xbit, y, spare)
        need = (1 << c1) | (1 << c4)
        if (gpp & need) != need:
            continue
        e1 = memo.dist(c1, gpp)
        e4 = memo.dist(c4, gpp)
        used = cbits | xbit | (1 << d2)
        for d3 in bits(gpp & ~used):
            ta = e1[d3]
            if ta < 1 or e4[d3] != ta:
                continue
            pa = _walk_down(g, e1, d3, gpp)  # d3 .. c1
            pa.reverse()
            pb = _walk_down(g, e4, d3, gpp)  # d3 .. c4
            cycle = (d1,) + tuple(pa) + tuple(pb[1:]) + (c3,)
            if is_odd_hole(g, cycle):
                return cycle
            hole = memo.clean(gpp)
            if hole is not None:
                return hole
    return None


def _long_anchored(g: Graph, anchor_on_c3: bool) -> Optional[Hole]:
    if g.n < 5:
        return None
    memo = _Memo(g)
    full, adj = g.full_mask, g.adj
    for c1, d1, c3, c4, x, d2, cbits in _anchored_tuples(g):
        anchor = c3 if anchor_on_c3 else c1
        r_end = c1 if anchor_on_c3 else c4
        xbit = 1 << x
        x1 = adj[d1] & adj[d2] & ~xbit
        x2 = (adj[d1] | adj[c3]) & ~cbits
        spare = (1 << anchor) | (1 << d2)
        gp = full & ~(x1 | x2 | ((adj[x] | xbit) & ~spare))
        if (gp & spare) != spare:
            continue
        da = memo.dist(anchor, gp)
        db = memo.dist(d2, gp)
        scope = gp & ~spare
        for d3 in bits(gp & ~cbits & ~xbit & ~(1 << d2)):
            t1 = da[d3]
            if t1 < 1 or db[d3] != t1 + 1:
                continue
            dd3 = memo.dist(d3, gp)
            y = geodesic_mask(da, dd3, t1, scope) | geodesic_mask(db, dd3, t1 + 1, scope)
            gpp = _strip(g, x1 | x2 | xbit, y, spare)
            rdata = _r_paths(memo, d2, gpp, 1 << r_end)
            if r_end not in rdata:
                continue
            rpath = rdata[r_end][0]  # r_end .. d2
            p1 = _walk_down(g, da, d3, gp)  # d3 .. anchor
            p1.reverse()
            p2 = _walk_down(g, db, d3, gp)  # d3 .. d2
            body = (d1,) + tuple(p1) + tuple(p2[1:]) + tuple(reversed(rpath))[1:]
            cycle = body + ((c3,) if not anchor_on_c3 else ())
            if is_odd_hole(g, cycle):
                return cycle
            hole = memo.clean(gpp)
            if hole is not None:
                return hole
    return None


def detect_type3(g: Graph) -> Optional[Hole]:
    """Shape 3: dominating edge meets the gap end, hole flank outside, short gap."""
    return _short_anchored(g, anchor_on_c3=False)


def detect_type4(g: Graph) -> Optional[Hole]:
    """Shape 4: like shape 3 with the gap longer than half the hole."""
    return _long_anchored(g, anchor_on_c3=False)


def detect_type5(g: Graph) -> Optional[Hole]:
    """Shape 5: dominating edge meets the gap end, flank inside the gap, short gap."""
    return _short_anchored(g, anchor_on_c3=True)


def detect_type6(g: Graph) -> Optional[Hole]:
    """Shape 6: like shape 5 with the gap longer than half the hole."""
    return _long_anchored(g, anchor_on_c3=True)


_TYPE_DETECTORS: tuple[Callable[[Graph], Optional[Hole]], ...] = (
    detect_type1,
    detect_type2,
    detect_type3,
    detect_type4,
    detect_type5,
    detect_type6,
)


def detect_fast(g: Graph) -> Optional[Hole]:
    """Run the six shape detectors in order on a candidate graph."""
    for shape in _TYPE_DETECTORS:
        hole = shape(g)
        if hole is not None:
            return hole
    return None


def detect(g: Graph) -> Optional[Hole]:
    """Decide whether the graph has an odd hole; return a verified one if so."""
    hole = classify_candidate(g)
    if hole is not None:
        return hole
    return detect_fast(g)
