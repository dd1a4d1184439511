"""Graph families for corpora and tests, plus small-graph enumeration.

The random families are all seeded and deterministic: the same spec string
always yields the same graphs.  The enumeration of all graphs on up to
eight-ish vertices (one per isomorphism class) backs the exhaustive suites;
it uses degree-refinement plus minimum-code canonical forms, which is cheap
at these sizes.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product
from typing import Optional

from .formats import MAX_VERTICES, _numbers
from .graph import Graph, bfs_distances, bits


def cycle_graph(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)]) if k >= 3 else path_graph(k)


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_multipartite(sizes: list[int]) -> Graph:
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    edges = []
    for ai, (a0, a1) in enumerate(bounds):
        for (b0, b1) in bounds[ai + 1:]:
            edges += [(u, v) for u in range(a0, a1) for v in range(b0, b1)]
    return Graph(start, edges)


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(("gnp", n, p, seed).__repr__())
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    rng = random.Random(("bip", a, b, p, seed).__repr__())
    edges = [
        (i, a + j) for i in range(a) for j in range(b) if rng.random() < p
    ]
    return Graph(a + b, edges)


def random_chordal(n: int, seed: int) -> Graph:
    """Chordal graph via simplicial construction: each new vertex joins a clique."""
    rng = random.Random(("chordal", n, seed).__repr__())
    rows = [0]
    for v in range(1, n):
        anchor = rng.randrange(v)
        clique = [anchor]
        for u in sorted(bits(rows[anchor]), key=lambda _: rng.random()):
            if all(rows[u] >> w & 1 for w in clique) and rng.random() < 0.6:
                clique.append(u)
        take = clique[: rng.randint(1, len(clique))]
        row = 0
        for u in take:
            row |= 1 << u
            rows[u] |= 1 << v
        rows.append(row)
    return Graph.from_rows(n, rows)


def decorated_odd_cycle(
    k: int,
    extras: int,
    seed: int,
    min_anchors: int = 4,
) -> Graph:
    """Odd cycle plus spread-out decoration vertices.

    Each extra vertex gets at least ``min_anchors`` neighbors on the cycle,
    never all within three consecutive positions, so every extra is major
    for the base cycle.  Each pair of extras is linked with probability 0.4.
    """
    if k < 5 or k % 2 == 0:
        raise ValueError("need an odd cycle of length at least five")
    # Anchors out of k leave a gap of at least ceil(k / count), and one or no
    # anchor a gap of k; if every draw's gap is too wide, the span test below
    # could never pass and the loop would never end.
    most = min(k - 1, min_anchors + 2)
    if extras > 0 and -(-k // most) > k - 4:
        raise ValueError(f"a {k}-cycle has no room for {min_anchors} or more anchors "
                         "beyond three consecutive positions")
    rng = random.Random(("decorated", k, extras, seed).__repr__())
    edges = [(i, (i + 1) % k) for i in range(k)]
    for e in range(extras):
        v = k + e
        while True:
            count = rng.randint(min_anchors, min(k - 1, min_anchors + 2))
            anchors = sorted(rng.sample(range(k), count))
            span = k if count < 2 else max(
                (anchors[(i + 1) % count] - anchors[i]) % k for i in range(count)
            )
            if span <= k - 4:  # neighbors do not fit three consecutive spots
                break
        edges += [(v, u) for u in anchors]
        for w in range(k, v):
            if rng.random() < 0.4:
                edges.append((v, w))
    return Graph(k + extras, edges)


def _refined_labels(g: Graph) -> list[int]:
    labels = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        sig = [
            (labels[v], tuple(sorted(labels[u] for u in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sig)))}
        nxt = [remap[s] for s in sig]
        if nxt == labels:
            break
        labels = nxt
    return labels


def canonical_code(g: Graph) -> tuple:
    """Isomorphism-invariant key: refinement profile plus minimum bit code."""
    n = g.n
    labels = _refined_labels(g)
    classes: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        classes.setdefault(lab, []).append(v)
    ordered = [classes[lab] for lab in sorted(classes)]
    profile = tuple(sorted((lab, len(classes[lab])) for lab in classes))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    best: Optional[int] = None
    for combo in product(*(permutations(cl) for cl in ordered)):
        position = [0] * n
        slot = 0
        for group in combo:
            for v in group:
                position[v] = slot
                slot += 1
        inv = [0] * n
        for v, s in enumerate(position):
            inv[s] = v
        code = 0
        for (i, j) in pairs:
            code = (code << 1) | (g.adj[inv[i]] >> inv[j] & 1)
        if best is None or code < best:
            best = code
    return (n, profile, best)


@lru_cache(maxsize=None)
def small_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if n == 0:
        return (Graph(0),)
    if n == 1:
        return (Graph(1),)
    out: dict[tuple, Graph] = {}
    for base in small_graphs(n - 1):
        for subset in range(1 << (n - 1)):
            rows = list(base.adj) + [subset]
            for u in bits(subset):
                rows[u] |= 1 << (n - 1)
            g = Graph.from_rows(n, rows)
            key = canonical_code(g)
            if key not in out:
                out[key] = g
    return tuple(out.values())


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return all(d >= 0 for d in bfs_distances(g, 0))


@lru_cache(maxsize=None)
def connected_small_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in small_graphs(n) if is_connected(g))


def _probability(token: str) -> float:
    p = float(token)
    if not 0.0 <= p <= 1.0:  # NaN fails too
        raise ValueError(f"probability {token} is not in [0, 1]")
    return p


def _integer(token: str, what: str) -> int:
    """ASCII digits with an optional leading ``-``, as the edge-list reader
    takes them (``int`` alone would also take other scripts' digits and
    underscores)."""
    if not _numbers([token.removeprefix("-")]):
        raise ValueError(f"{what} {token!r} is not an integer")
    return int(token)


def _size(token: str) -> int:
    """A parameter that counts vertices: a non-negative int."""
    n = _integer(token, "vertex count")
    if n < 0:
        raise ValueError(f"vertex count {token} is negative")
    return n


# family -> (builder, positional parameter types (None: any number of sizes),
#            seeded); the ``_size`` parameters add up to the vertex count
_FAMILIES = {
    "cycle": (cycle_graph, (_size,), False),
    "path": (path_graph, (_size,), False),
    "complete": (complete_graph, (_size,), False),
    "petersen": (petersen_graph, (), False),
    "multipartite": (lambda *sizes: complete_multipartite(list(sizes)), None, False),
    "gnp": (gnp, (_size, _probability), True),
    "bipartite": (random_bipartite, (_size, _size, _probability), True),
    "chordal": (random_chordal, (_size,), True),
    "decorated": (decorated_odd_cycle, (_size, _size), True),
}


def generate_corpus(spec: str) -> list[Graph]:
    """Build the graphs of a one-line family spec.

    Examples: ``cycle 7``; ``gnp 10 0.3 seed=1 count=5``;
    ``bipartite 4 5 0.4 seed=2``; ``multipartite 2 3 4``; ``petersen``;
    ``chordal 10 seed=3 count=2``; ``decorated 9 2 seed=4``;
    ``complete 6``.  The seeded families (``gnp``, ``bipartite``,
    ``chordal``, ``decorated``) build ``count`` graphs from seeds ``seed``,
    ``seed + 1``, ...; the others build one graph and ignore both options.
    Sizes, ``seed`` and ``count`` are ASCII digits, with a leading ``-``
    allowed.  Raises ``ValueError`` on a malformed spec, a negative vertex
    count or ``count``, a probability outside [0, 1] and a graph with more
    vertices than graph6 can encode.
    """
    tokens = spec.split()
    if not tokens:
        raise ValueError("empty corpus spec")
    family, rest = tokens[0], tokens[1:]
    pos = [tok for tok in rest if "=" not in tok]
    kw = dict(tok.split("=", 1) for tok in rest if "=" in tok)
    seed = _integer(kw.pop("seed", "0"), "seed")
    count = _integer(kw.pop("count", "1"), "count")
    if count < 0:
        raise ValueError(f"count {count} is negative")
    if kw:
        raise ValueError(f"unknown options: {sorted(kw)}")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    build, types, seeded = _FAMILIES[family]
    types = (_size,) * len(pos) if types is None else types
    if len(pos) != len(types):
        raise ValueError(f"{family} takes {len(types)} positional parameters, got {len(pos)}")
    args = [convert(tok) for convert, tok in zip(types, pos)]
    # refuse before building: no format can hold the graph, and its
    # adjacency rows alone would take gigabytes
    n = sum(arg for convert, arg in zip(types, args) if convert is _size)
    if n > MAX_VERTICES:
        raise ValueError(f"{family} spec has {n} vertices, more than the "
                         f"{MAX_VERTICES} that graph6 can encode")
    if not seeded:
        return [build(*args)]
    return [build(*args, seed + i) for i in range(count)]
