import hashlib

import pytest

from oddhole.formats import encode_graph6
from oddhole.generators import (
    MAX_OUTPUT_BYTES,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    decorated_odd_cycle,
    generate_corpus,
    gnp,
    path_graph,
    petersen_graph,
    random_bipartite,
    random_chordal,
)
from oddhole.graph import bits
from oddhole.oracle import oracle_find_odd_hole
from oddhole.probes import major_vertices
from .reference import canonical_code, connected_small_graphs, relabel, small_graphs


def test_small_graph_counts_match_known_sequences():
    assert [len(small_graphs(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_small_graphs(n)) for n in range(1, 8)] == [
        1, 1, 2, 6, 21, 112, 853,
    ]


def test_canonical_code_invariant_under_relabeling():
    import random

    rng = random.Random(9)
    for i in range(40):
        g = gnp(7, 0.45, i)
        perm = list(range(7))
        rng.shuffle(perm)
        assert canonical_code(g) == canonical_code(relabel(g, perm))


def test_gnp_deterministic():
    assert gnp(10, 0.3, 1) == gnp(10, 0.3, 1)
    assert gnp(10, 0.3, 1) != gnp(10, 0.3, 2)


def test_dense_families_match_their_edge_lists():
    # the dense builders make rows directly, with the same draws in the same
    # order as the edge lists they replaced, so every graph (and every
    # corpus built from them) is bit-identical
    import random

    from oddhole import Graph

    def by_edges(n, keep):
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if keep(i, j)])

    for n in range(8):
        assert complete_graph(n) == by_edges(n, lambda i, j: True)
    for sizes in ([], [0], [3], [2, 2, 2], [1, 0, 4, 2], [5, 1]):
        part = [k for k, s in enumerate(sizes) for _ in range(s)]
        assert complete_multipartite(sizes) == by_edges(sum(sizes), lambda i, j: part[i] != part[j])
    for n, p, seed in ((0, 0.5, 1), (1, 0.5, 1), (9, 0.3, 2), (12, 0.5, 3), (15, 1.0, 4), (7, 0.0, 5)):
        rng = random.Random(("gnp", n, p, seed).__repr__())
        assert gnp(n, p, seed) == by_edges(n, lambda i, j: rng.random() < p)
    for a, b, p, seed in ((0, 3, 0.5, 1), (4, 5, 0.4, 2), (6, 7, 0.5, 3), (3, 0, 0.5, 4)):
        rng = random.Random(("bip", a, b, p, seed).__repr__())
        assert random_bipartite(a, b, p, seed) == by_edges(
            a + b, lambda i, j: i < a <= j and rng.random() < p)


def test_bipartite_has_no_odd_cycles():
    for i in range(10):
        g = random_bipartite(5, 6, 0.5, i)
        assert oracle_find_odd_hole(g) is None


def _is_chordal(g):
    """Simplicial elimination check."""
    alive = set(range(g.n))
    while alive:
        for v in sorted(alive):
            nbrs = [u for u in bits(g.adj[v]) if u in alive]
            if all(
                g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:]
            ):
                alive.remove(v)
                break
        else:
            return False
    return True


def test_chordal_generator_produces_chordal_graphs():
    for i in range(25):
        g = random_chordal(9, i)
        assert _is_chordal(g)
        assert oracle_find_odd_hole(g) is None


def test_multipartite_and_petersen():
    octa = complete_multipartite([2, 2, 2])
    assert octa.n == 6 and octa.edge_count() == 12
    pet = petersen_graph()
    assert pet.n == 10 and pet.edge_count() == 15
    assert all(pet.degree(v) == 3 for v in range(10))


def test_decorated_cycle_extras_are_major():
    for seed in range(20):
        g = decorated_odd_cycle(9, 2, seed)
        hole = tuple(range(9))
        majors = major_vertices(g, hole)
        assert majors >> 9 & 1 and majors >> 10 & 1
        assert oracle_find_odd_hole(g) is not None
    # also with fewer anchors, where a draw may hold a single anchor
    for k, least in ((7, 1), (7, 2), (9, 0), (9, 1), (11, 1), (11, 3)):
        for seed in range(10):
            g = decorated_odd_cycle(k, 3, seed, min_anchors=least)
            extras = g.full_mask & ~((1 << k) - 1)
            assert major_vertices(g, tuple(range(k))) == extras, (k, least, seed)


def test_decorated_cycle_rejects_bad_parameters():
    with pytest.raises(ValueError):
        decorated_odd_cycle(6, 1, 0)
    with pytest.raises(ValueError):
        decorated_odd_cycle(3, 1, 0)
    # four anchors on a 5-cycle always leave a gap of two: this used to loop
    with pytest.raises(ValueError, match="no room"):
        decorated_odd_cycle(5, 1, 0)
    for least in (0, 1):
        with pytest.raises(ValueError, match="no room"):
            decorated_odd_cycle(5, 1, 0, min_anchors=least)
    with pytest.raises(ValueError, match="no room"):
        decorated_odd_cycle(7, 1, 0, min_anchors=0)
    assert decorated_odd_cycle(5, 0, 0) == cycle_graph(5)


def test_corpus_specs():
    assert generate_corpus("cycle 7") == [cycle_graph(7)]
    graphs = generate_corpus("gnp 10 0.3 seed=1 count=3")
    assert graphs == [gnp(10, 0.3, s) for s in (1, 2, 3)]
    assert generate_corpus("gnp 10 0.3 seed=1 count=3") == graphs
    assert generate_corpus("petersen") == [petersen_graph()]
    assert generate_corpus("multipartite 2 3 4") == [complete_multipartite([2, 3, 4])]
    assert generate_corpus("decorated 9 2 seed=5 count=2") == [
        decorated_odd_cycle(9, 2, 5), decorated_odd_cycle(9, 2, 6)]
    # the unseeded families build one graph and ignore seed= and count=
    assert generate_corpus("cycle 5 seed=3 count=4") == [cycle_graph(5)]
    for spec, want in (("path 5", path_graph(5)), ("complete 6", complete_graph(6)),
                       ("bipartite 4 5 0.4 seed=2", random_bipartite(4, 5, 0.4, 2)),
                       ("chordal 10 seed=3", random_chordal(10, 3))):
        assert generate_corpus(spec) == [want], spec


# specs over all nine families, with seed= and count=, and count= on an
# unseeded family, whose graph6 lines are pinned by CORPUS_DIGEST
CORPUS_SPECS = (
    "cycle 7", "cycle 2", "path 5", "complete 6", "complete 4 seed=9 count=3", "petersen",
    "multipartite 2 3 4", "multipartite 0 0", "multipartite", "gnp 8 0.5",
    "gnp 10 0.3 seed=1 count=3", "gnp 6 1 count=2", "bipartite 4 5 0.4 seed=2 count=2",
    "bipartite 3 3 0", "chordal 10 seed=3 count=2", "chordal 1", "decorated 9 2 seed=4 count=2",
    "decorated 7 0",
)
CORPUS_DIGEST = "9af19e660e9392ece218dc157941eed97f645b30e777f0303946d8344c2dbdb0"


def test_corpus_specs_match_the_pinned_digest():
    h = hashlib.sha256()
    for spec in CORPUS_SPECS:
        for g in generate_corpus(spec):
            h.update(f"{spec}\t{encode_graph6(g)}\n".encode())
    assert h.hexdigest() == CORPUS_DIGEST


def test_corpus_spec_errors():
    with pytest.raises(ValueError):
        generate_corpus("")
    with pytest.raises(ValueError):
        generate_corpus("whatever 3")
    with pytest.raises(ValueError):
        generate_corpus("cycle 7 bogus=1")
    # an output past MAX_OUTPUT_BYTES: the size is the graph6 length at n,
    # plus a newline, per line
    for n in (0, 1, 2, 5, 62, 63, 100, 200):
        size = (1 if n <= 62 else 4) + -(-n * (n - 1) // 12) + 1
        assert len(encode_graph6(complete_graph(n))) + 1 == size, n
    # 3.3e9 bytes in one line, 4e9 in 10^9 lines, 8.3e8 in one line, one
    # vertex past the largest graph allowed (7,094), and one 4-byte line
    # (n = 5) past 2^20 of them: refused before any graph is built
    for spec in ("multipartite 100000 100000", "gnp 5 0.5 count=1000000000", "cycle 100000",
                 "gnp 7095 0.5", "chordal 5 count=1048577"):
        with pytest.raises(ValueError, match="bytes of graph6"):
            generate_corpus(spec)
    assert MAX_OUTPUT_BYTES == 1 << 22
    assert len(generate_corpus("cycle 7094")[0].adj) == 7094


def test_corpus_spec_integers_are_ascii_digits():
    # int() alone would take other scripts' digits and underscores
    for spec in ("cycle ５", "cycle 1_0", "cycle +5", "cycle -", "gnp 5 0.5 count=1_0",
                 "gnp 5 0.5 count=٣", "gnp 5 0.5 seed=1_0", "multipartite 2 ３"):
        with pytest.raises(ValueError, match="is not an integer"):
            generate_corpus(spec)
    with pytest.raises(ValueError, match="count -3 is negative"):
        generate_corpus("gnp 5 0.5 count=-3")
    # a leading minus stays allowed on seed, and a count of zero builds nothing
    assert generate_corpus("gnp 5 0.5 seed=-2 count=2") == [gnp(5, 0.5, s) for s in (-2, -1)]
    assert generate_corpus("gnp 5 0.5 count=0") == []
