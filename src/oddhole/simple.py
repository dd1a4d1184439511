"""Reference odd-hole detector built on exhaustive eight-tuple enumeration.

This is the straightforward high-degree polynomial detector: guess a
dominating four-path, a probe vertex with two gap ends, and the gap's middle
vertex; derive deletion sets that (for the right guess) remove every vertex
with spread-out neighbors on a shortest odd hole while keeping the hole
intact; then run the clean-hole test on what remains.  It is much slower
than the staged detector in :mod:`oddhole.fast` but far easier to trust,
which makes it the differential-testing partner.  Intended for n up to
roughly 12.
"""

from __future__ import annotations

from typing import Optional

from .cleaning import _classify, _clean
from .graph import (
    Graph,
    _Search,
    bits,
    bfs_distances,
    geodesic_mask,
    induced_four_paths,
    induced_three_paths,
    neighbourhood,
)

Hole = tuple[int, ...]


def detect_simple(g: Graph) -> Optional[Hole]:
    """Decide odd-hole presence for a candidate graph; witness on success.

    The "no odd hole" answer is only guaranteed when the input is a
    candidate (no pyramid, no jewel, no heavy-cleanable shortest odd hole);
    that precondition is not checked here.  Reported witnesses are always
    verified regardless.
    """
    return _simple(_Search(g))


def _simple(search: _Search) -> Optional[Hole]:
    """The reference search; clean-test results go to ``search``.

    Its BFS are direct ``bfs_distances`` calls, not kept in the context:
    this detector has no size cap, and keeping them would hold one distance
    list per distinct scope until the call returns.  It lists every induced
    three- and four-path itself, not the context's pruned tables, so that
    it stays an independent check of the staged shapes.
    """
    g = search.g
    full = g.full_mask
    adj = g.adj
    p3s = induced_three_paths(g)
    for (c1, c2, c3, c4) in induced_four_paths(g):
        cmask = (1 << c1) | (1 << c2) | (1 << c3) | (1 << c4)
        x2 = (adj[c2] | adj[c3]) & ~cmask
        for (d1, x, d2) in p3s:
            xbit = 1 << x
            if xbit & cmask:
                continue
            dpair = (1 << d1) | (1 << d2)
            x1 = adj[d1] & adj[d2] & ~xbit
            deleted = x1 | x2
            if deleted & dpair:
                continue  # the guessed gap ends must survive
            gprime = full & ~deleted
            pool = gprime & ~adj[x] & ~xbit  # probe-avoiding vertex pool
            scope = pool | dpair
            dd1 = bfs_distances(g, d1, scope)
            dd2 = bfs_distances(g, d2, scope)
            for d3 in bits(pool):
                t1 = dd1[d3]
                if t1 < 0 or dd2[d3] != t1:
                    continue
                hole = _try_middle(
                    search, x1, x2, gprime, pool, scope, dd1, dd2, x, d1, d2, d3, t1
                )
                if hole is not None:
                    return hole
    return None


def _try_middle(search, x1, x2, gprime, pool, scope, dd1, dd2, x, d1, d2, d3, t1):
    g = search.g
    dd3 = bfs_distances(g, d3, scope)
    ends = (1 << d1) | (1 << d2) | (1 << d3)
    f = (geodesic_mask(dd1, dd3, t1, pool) | geodesic_mask(dd2, dd3, t1, pool)) & ~ends
    x3 = neighbourhood(g, f | 1 << d3) & gprime & ~f & ~ends & ~(1 << x)
    return _clean(search, g.full_mask & ~(x1 | x2 | x3 | (1 << x)))


def detect_with_simple_pipeline(g: Graph) -> Optional[Hole]:
    """Full decision for arbitrary graphs via the reference detector."""
    search = _Search(g)
    hole = _classify(search)
    if hole is not None:
        return hole
    return _simple(search)
