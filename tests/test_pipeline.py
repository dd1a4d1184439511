import re
from pathlib import Path

import pytest

import oddhole
from oddhole import Graph, is_odd_hole
from oddhole.generators import (
    cycle_graph,
    gnp,
    random_bipartite,
    random_chordal,
)
from oddhole.oracle import oracle_find_odd_hole
from oddhole.pipeline import (
    BENCH_HEADER,
    ResultDocument,
    bench_rows,
    graph_digest,
    run_detection,
    test_perfect,
)


def test_run_detection_document_fields():
    doc = run_detection(cycle_graph(7))
    assert doc.verdict == "odd-hole-found"
    assert doc.witness is not None and len(doc.witness) == 7
    assert doc.witness_kind == "hole"
    assert doc.algorithm == "fast"
    assert doc.n == 7 and doc.millis >= 0
    assert doc.verify_witness(cycle_graph(7))

    doc = run_detection(cycle_graph(6))
    assert doc.verdict == "no-odd-hole" and doc.witness is None


def test_algorithm_dispatch():
    for algo in ("fast", "simple", "oracle"):
        doc = run_detection(cycle_graph(9), algo)
        assert doc.verdict == "odd-hole-found"
        assert doc.algorithm == algo
    try:
        run_detection(cycle_graph(5), "bogus")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown algorithm accepted")


def test_unknown_algorithm_is_a_value_error():
    # the top-level wrapper forwards the algorithm too
    for call in (run_detection, test_perfect, oddhole.test_perfect):
        with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
            call(cycle_graph(5), "nope")
    assert oddhole.test_perfect(cycle_graph(5), "oracle").algorithm == "oracle"


def test_json_roundtrip_and_reverify():
    for g in (cycle_graph(7), cycle_graph(6)):
        doc = run_detection(g)
        back = ResultDocument.from_json(doc.to_json())
        assert back == doc
        assert back.verify_witness(g)


def test_perfect_families():
    assert test_perfect(cycle_graph(6)).verdict == "perfect"
    doc = test_perfect(cycle_graph(5))
    assert doc.verdict == "imperfect" and doc.witness_kind == "hole"
    assert is_odd_hole(cycle_graph(5), doc.witness)


def test_perfect_antihole_path():
    g = cycle_graph(7).complement()
    doc = test_perfect(g)
    assert doc.verdict == "imperfect" and doc.witness_kind == "antihole"
    assert is_odd_hole(g.complement(), doc.witness)
    assert doc.verify_witness(g)


def test_perfect_chordal_and_bipartite():
    for i in range(6):
        assert test_perfect(random_chordal(9, i)).verdict == "perfect"
        assert test_perfect(random_bipartite(4, 5, 0.5, i)).verdict == "perfect"


def test_perfect_matches_oracle_small():
    for i in range(60):
        g = gnp(8, 0.4, 7000 + i)
        doc = test_perfect(g)
        want = (
            oracle_find_odd_hole(g) is None
            and oracle_find_odd_hole(g.complement()) is None
        )
        assert (doc.verdict == "perfect") == want


def test_digest_stable():
    assert graph_digest(cycle_graph(5)) == graph_digest(cycle_graph(5))
    assert graph_digest(cycle_graph(5)) != graph_digest(cycle_graph(6))


def test_bench_rows_schema():
    rows = list(bench_rows([8, 10], 0.3, 2, "fast", seed=1))
    assert rows[0] == BENCH_HEADER
    assert len(rows) == 1 + 2 * 2
    for row in rows[1:]:
        n, p, algo, seed, millis, verdict = row.split(",")
        assert algo == "fast"
        assert verdict in ("odd-hole-found", "no-odd-hole")
        float(millis)
    again = list(bench_rows([8, 10], 0.3, 2, "fast", seed=1))
    assert [r.rsplit(",", 2)[0] for r in rows] == [r.rsplit(",", 2)[0] for r in again]
    assert [r.rsplit(",", 1)[1] for r in rows] == [r.rsplit(",", 1)[1] for r in again]


def _readme_library_names():
    """The names the README's Library section documents, one bullet at a time."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    names = set()
    for bullet in re.split(r"\n\* ", section)[1:]:
        head = bullet.split(" — ", 1)[0]
        for span in re.findall(r"`([^`]+)`", head):
            m = re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span)
            if m:
                names.add(m.group(1))
    return names


def test_exports_are_the_documented_names():
    for name in oddhole.__all__:
        assert getattr(oddhole, name) is not None, name
    assert len(set(oddhole.__all__)) == len(oddhole.__all__)
    assert set(oddhole.__all__) == _readme_library_names()
