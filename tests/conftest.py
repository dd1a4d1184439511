import random

import pytest

from oddhole import Graph
from oddhole.generators import (
    complete_graph,
    cycle_graph,
    gnp,
    path_graph,
    petersen_graph,
)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def c7():
    return cycle_graph(7)


@pytest.fixture
def petersen():
    return petersen_graph()


def random_graphs(count, nmin, nmax, seed, ps=(0.15, 0.3, 0.5)):
    """Deterministic stream of random graphs for fuzz-style suites."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(nmin, nmax)
        p = rng.choice(ps)
        out.append(gnp(n, p, seed * 100003 + i))
    return out


def disjoint_union(a, b):
    """``a`` and ``b`` side by side, ``b``'s vertices numbered after ``a``'s."""
    return Graph(a.n + b.n, list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()])


def join(a, b):
    """The disjoint union of ``a`` and ``b`` plus every edge between them."""
    return disjoint_union(a.complement(), b.complement()).complement()


def line_graph(h):
    """One vertex per edge of ``h``, adjacent when the edges share an end."""
    es = list(h.edges())
    return Graph(len(es), [(i, j) for i in range(len(es)) for j in range(i + 1, len(es))
                           if set(es[i]) & set(es[j])])


def elementary_graph(h, seed):
    """The line graph of ``h`` with one flat edge ``xy`` (an edge in no
    triangle), chosen at random, augmented: ``x`` and ``y`` become the
    cliques ``{x, a}`` and ``{y, b}``, ``a`` sees the other neighbours of
    ``x`` and ``b`` those of ``y``, and the edges between the two cliques
    are ``xy``, ``xb`` and ``ab``.  For a bipartite ``h`` it is an elementary
    graph (Maffray and Reed, 1999): claw-free and perfect.  ``x a b y`` with
    ``x`` (or ``b``) holds a diamond, so it is no line graph of a bipartite
    graph.  With no flat edge, it is the line graph itself."""
    g = line_graph(h)
    flat = [(x, y) for x, y in g.edges() if not g.adj[x] & g.adj[y]]
    if not flat:
        return g
    x, y = random.Random(seed).choice(flat)
    a, b = g.n, g.n + 1
    edges = list(g.edges()) + [(x, a), (a, b), (x, b), (y, b)]
    edges += [(a, u) for u in range(g.n) if g.has_edge(x, u) and u != y]
    edges += [(b, u) for u in range(g.n) if g.has_edge(y, u) and u != x]
    return Graph(g.n + 2, edges)


def with_twin(g, v, true):
    """``g`` plus a vertex ``g.n`` with the neighbours of ``v``: a true twin
    of ``v`` (adjacent to it) if ``true``, else a false one."""
    edges = list(g.edges()) + [(u, g.n) for u in range(g.n) if g.has_edge(u, v)]
    if true:
        edges.append((v, g.n))
    return Graph(g.n + 1, edges)


def split_family_graphs(count, seed):
    """Seeded disjoint unions, joins and twin blow-ups of gnp pieces, n <= 12,
    each relabelled at random so that a kept twin may have either id."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 3 < 2:
            a = gnp(rng.randint(2, 5), rng.choice((0.3, 0.5, 0.7)), rng.randrange(10**6))
            b = gnp(rng.randint(6, 12 - a.n), rng.choice((0.3, 0.4, 0.5)), rng.randrange(10**6))
            g = disjoint_union(a, b) if i % 3 == 0 else join(a, b)
        else:
            g = gnp(rng.randint(7, 10), rng.choice((0.3, 0.4, 0.5)), rng.randrange(10**6))
            for _ in range(rng.randint(1, 12 - g.n)):
                g = with_twin(g, rng.randrange(g.n), rng.random() < 0.5)
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(g.relabel(perm))
    return out


def parity_decorated(k, seed, majors=3, links="triangle"):
    """Odd cycle plus linked majors whose gap parities avoid short odd holes.

    These instances are usually pyramid- and jewel-free with the base cycle
    as their shortest odd hole, which makes them the workhorse for the
    structural property suites.  ``links`` picks how the majors are joined
    to each other: a clique, a path, or not at all.
    """
    rng = random.Random(("pdec", k, seed, majors, links).__repr__())

    def territory():
        parts = rng.choice([4, 4, 5])
        rest = (k - 1) // 2 - (parts - 1)
        if rest < 0:
            return None
        halves = [1] * (parts - 1)
        for _ in range(rest):
            halves[rng.randrange(parts - 1)] += 1
        gaps = [1] + [2 * h for h in halves]
        rng.shuffle(gaps)
        start = rng.randrange(k)
        pos = [start]
        for gv in gaps[:-1]:
            pos.append((pos[-1] + gv) % k)
        return sorted(set(pos))

    edges = [(i, (i + 1) % k) for i in range(k)]
    for m in range(majors):
        t = territory()
        if t is None:
            raise ValueError("cycle too short")
        edges += [(k + m, u) for u in t]
    if links == "triangle":
        for a in range(majors):
            for b in range(a + 1, majors):
                edges.append((k + a, k + b))
    elif links == "path":
        for a in range(majors - 1):
            edges.append((k + a, k + a + 1))
    elif links != "none":
        raise ValueError(f"unknown linkage {links!r}")
    return Graph(k + majors, edges)
