"""Seeded corpora for the benchmark, each graph with its verdict known by construction.

Every builder returns a :class:`Case`: the graph plus the verdict that
``oddhole.pipeline.test_perfect`` must give (``perfect`` or ``imperfect``)
and, for ``imperfect``, the ``witness_kind`` (``hole`` when the graph itself
has an odd hole, ``antihole`` when only its complement has one).  The
verdict ``oddhole.detect`` must give follows: it finds an odd hole exactly
when the kind is ``hole``.

The families and why their verdicts hold:

* co-bipartite and co-chordal graphs are complements of perfect graphs, so
  they are perfect (weak perfect graph theorem);
* line graphs of bipartite graphs are perfect (Konig's edge-colouring
  theorem);
* an odd cycle of length at least seven glued along one edge onto any host
  stays induced, because its new vertices see only their cycle neighbours;
* a chordal graph has no hole, and the complement of an odd cycle of length
  at least seven has no odd hole, so their disjoint union has none, while
  its complement contains the odd cycle itself.

``perfbench/tests/test_corpora.py`` cross-checks every builder against the
exponential oracle on small instances.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from oddhole import Graph
from oddhole.formats import encode_graph6
from oddhole.generators import cycle_graph, decorated_odd_cycle, random_bipartite, random_chordal

WORKLOADS = ("dense-negative", "sparse-negative", "perfect-mixed", "stream-batch")


@dataclass(frozen=True)
class Case:
    graph: Graph
    verdict: str  # perfect | imperfect
    witness_kind: Optional[str] = None  # hole | antihole, for imperfect

    @property
    def has_odd_hole(self) -> bool:
        """What ``detect`` must answer: an odd hole in the graph itself."""
        return self.witness_kind == "hole"


def perfect(g: Graph) -> Case:
    return Case(g, "perfect")


def co_bipartite(a: int, b: int, p: float, seed: int) -> Case:
    return perfect(random_bipartite(a, b, p, seed).complement())


def co_chordal(n: int, seed: int) -> Case:
    return perfect(random_chordal(n, seed).complement())


def bipartite_with_edges(a: int, b: int, m: int, rng: random.Random) -> Case:
    """A random bipartite graph with exactly ``m`` edges between sides of sizes
    ``a`` and ``b``; a fixed edge count keeps the detection cost less spread
    than ``random_bipartite``'s independent edges do."""
    picked = rng.sample([(i, a + j) for i in range(a) for j in range(b)], m)
    return perfect(Graph(a + b, picked))


def co_bipartite_with_edges(a: int, b: int, m: int, rng: random.Random) -> Case:
    """Complement of :func:`bipartite_with_edges`."""
    return perfect(bipartite_with_edges(a, b, m, rng).graph.complement())


def line_graph_of_bipartite(a: int, b: int, m: int, rng: random.Random) -> Case:
    """Line graph of a random bipartite graph with ``m`` edges between sides of
    sizes ``a`` and ``b``: one vertex per edge, adjacent when the edges share
    an end."""
    picked = rng.sample([(i, j) for i in range(a) for j in range(b)], m)
    edges = [
        (x, y)
        for x in range(m)
        for y in range(x + 1, m)
        if picked[x][0] == picked[y][0] or picked[x][1] == picked[y][1]
    ]
    return perfect(Graph(m, edges))


def glued_odd_hole(k: int, host: Graph, rng: random.Random) -> Case:
    """A ``k``-cycle (odd, k >= 7) sharing one edge with ``host``.

    The shared edge is a random edge of the host; the cycle's other ``k - 2``
    vertices are new and adjacent only to their cycle neighbours.
    """
    if k < 7 or k % 2 == 0:
        raise ValueError("need an odd cycle of length at least seven")
    u, v = rng.choice(list(host.edges()))
    n = host.n
    path = [v] + list(range(n, n + k - 2)) + [u]
    edges = list(host.edges()) + list(zip(path, path[1:]))
    return Case(Graph(n + k - 2, edges), "imperfect", "hole")


def decorated_hole(k: int, extras: int, seed: int) -> Case:
    """``oddhole.generators.decorated_odd_cycle``: its base cycle stays induced."""
    return Case(decorated_odd_cycle(k, extras, seed), "imperfect", "hole")


def chordal_with_antihole(n: int, k: int, seed: int) -> Case:
    """Disjoint union of a random chordal graph on ``n`` vertices and the
    complement of a ``k``-cycle (odd, k >= 7)."""
    if k < 7 or k % 2 == 0:
        raise ValueError("need an odd antihole on at least seven vertices")
    chordal = random_chordal(n, seed)
    anti = cycle_graph(k).complement()
    edges = list(chordal.edges()) + [(n + a, n + b) for a, b in anti.edges()]
    return Case(Graph(n + k, edges), "imperfect", "antihole")


# Corpus sizes: at least 100 graphs per pass, so that the 90th latency
# percentile has ten samples beyond it, and as many distinct graphs as fit in
# a pass of 15-20 s on a 2-CPU Python 3.11 machine, so that the corpus cost
# and its percentiles vary little from seed to seed.  Sizes are below the
# ROADMAP's n = 18..32 for the same reason.


def _dense_negative(rng: random.Random) -> list[Case]:
    return [
        co_bipartite(6, 7, 0.5, rng.randrange(2**31)) if i % 2 else co_chordal(13, rng.randrange(2**31))
        for i in range(300)
    ]


def _sparse_negative(rng: random.Random) -> list[Case]:
    out = []
    for _ in range(120):
        out.append(bipartite_with_edges(8, 8, 18, rng))
        out.append(perfect(random_chordal(18, rng.randrange(2**31))))
        out.append(line_graph_of_bipartite(5, 5, 12, rng))
    return out


def _host(rng: random.Random, n: int) -> Graph:
    """A chordal or bipartite host with at least one edge."""
    while True:
        if rng.random() < 0.5:
            g = random_chordal(n, rng.randrange(2**31))
        else:
            g = random_bipartite(n // 2, n - n // 2, 0.4, rng.randrange(2**31))
        if g.edge_count():
            return g


def _hole_group(rng: random.Random, count: int) -> list[Case]:
    out = []
    for i in range(count):
        if i % 3 == 2:
            out.append(decorated_hole(rng.choice((7, 9, 11)), rng.randint(2, 5), rng.randrange(2**31)))
        else:
            out.append(glued_odd_hole(rng.choice((7, 9, 11)), _host(rng, rng.randint(6, 10)), rng))
    return out


def _perfect_mixed(rng: random.Random) -> list[Case]:
    out = _hole_group(rng, 120)
    for i in range(120):
        out.append(chordal_with_antihole(10, 7 + 2 * (i % 2), rng.randrange(2**31)))
    for i in range(120):
        n = 11 + i % 3
        kind = i // 3 % 3
        if kind == 0:
            out.append(perfect(random_chordal(n, rng.randrange(2**31))))
        elif kind == 1:
            out.append(perfect(random_bipartite(n // 2, n - n // 2, 0.3, rng.randrange(2**31))))
        else:
            out.append(line_graph_of_bipartite(4, 5, n - 1, rng))
    rng.shuffle(out)
    return out


def _stream_batch(rng: random.Random) -> list[Case]:
    # Sizes fixed within each family, so that the batch costs about the same
    # for every seed.
    out = [glued_odd_hole(7 + 2 * (i % 2), _host(rng, 8), rng) for i in range(200)]
    for i in range(24):
        out.append(co_chordal(11, rng.randrange(2**31)) if i % 2 else
                   co_bipartite_with_edges(5, 6, 15, rng))
    rng.shuffle(out)
    return out


_BUILDERS = {
    "dense-negative": _dense_negative,
    "sparse-negative": _sparse_negative,
    "perfect-mixed": _perfect_mixed,
    "stream-batch": _stream_batch,
}


def build(workload: str, seed: int) -> list[Case]:
    """The corpus of one workload; the same seed always gives the same graphs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def graph6_lines(cases: list[Case]) -> list[str]:
    return [encode_graph6(c.graph) for c in cases]


def lines_digest(lines: list[str]) -> str:
    return "sha256:" + hashlib.sha256("\n".join(lines).encode()).hexdigest()
