import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oddhole
import oddhole.fast
import oddhole.graph
from oddhole import Graph, is_odd_hole
from oddhole.generators import (
    cycle_graph,
    gnp,
    random_bipartite,
    random_chordal,
)
from oddhole.fast import detect
from oddhole.formats import parse_graph6
from oddhole.graph import mask_of, split_leaves
from oddhole.oracle import oracle_find_odd_hole
from oddhole.pipeline import (
    ResultDocument,
    graph_digest,
    run_detection,
    test_perfect,
)
from .reference import relabel


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


def test_entry_points_take_no_algorithm():
    # detect is the one detector; the oracle and the reference detectors of
    # oddhole.simple back the tests only
    for call in (run_detection, test_perfect, oddhole.test_perfect):
        assert call(cycle_graph(5)).algorithm == "fast"
        for algorithm in ("fast", "oracle", "simple"):
            with pytest.raises(TypeError):
                call(cycle_graph(5), algorithm)


def test_json_roundtrip_and_reverify():
    for g in (cycle_graph(7), cycle_graph(6)):
        doc = run_detection(g)
        back = ResultDocument.from_json(doc.to_json())
        assert back == doc
        assert back.verify_witness(g)


def test_from_json_refuses_a_witness_of_other_than_ints():
    # 0.0 and "0" would make verify_witness raise TypeError, and JSON true
    # would be read as the vertex 1 and verify
    data = json.loads(run_detection(cycle_graph(5)).to_json())
    for witness in ([0.0, 1, 2, 3, 4], ["0", 1, 2, 3, 4], [True, 2, 3, 4, 0], "01234"):
        data["witness"] = witness
        with pytest.raises(ValueError, match="witness must be a list of vertex ids"):
            ResultDocument.from_json(json.dumps(data))
    data["witness"] = [1, 2, 3, 4, 0]
    assert ResultDocument.from_json(json.dumps(data)).verify_witness(cycle_graph(5))


def test_from_json_refuses_a_document_of_the_wrong_shape():
    # a non-object, a missing field and an unknown field: each is a bad
    # document, not an AttributeError or a TypeError from the constructor
    data = json.loads(run_detection(cycle_graph(5)).to_json())
    missing = {k: v for k, v in data.items() if k != "n"}
    for text in ("[]", "3", "null", '"doc"', json.dumps(missing), json.dumps({**data, "extra": 1})):
        with pytest.raises(ValueError):
            ResultDocument.from_json(text)
    # the two fields with defaults may be left out
    doc = run_detection(cycle_graph(6))
    short = {k: v for k, v in json.loads(doc.to_json()).items() if k not in ("witness", "witness_kind")}
    assert ResultDocument.from_json(json.dumps(short)) == doc


def test_verify_witness_refuses_a_witness_that_contradicts_the_verdict():
    # a negative verdict carries no witness, and a hole of the complement
    # shows imperfection, not an odd hole of the graph
    c5, hole = cycle_graph(5), (0, 1, 2, 3, 4)

    def doc(verdict, witness, kind):
        return ResultDocument(verdict, 5, "fast", 0.0, graph_digest(c5), witness, kind)

    assert doc("imperfect", hole, "hole").verify_witness(c5)
    for verdict, witness, kind in (("no-odd-hole", hole, "hole"), ("perfect", hole, "hole"),
                                   ("no-odd-hole", hole, None), ("perfect", None, "hole"),
                                   ("odd-hole-found", hole, "antihole"),
                                   ("odd-hole-found", hole, None), ("imperfect", None, "hole"),
                                   ("odd-hole-found", None, None)):
        bad = doc(verdict, witness, kind)
        assert not bad.verify_witness(c5), (verdict, witness, kind)
        assert not ResultDocument.from_json(bad.to_json()).verify_witness(c5)


def test_verify_witness_refuses_an_unknown_witness_kind():
    # "banana" used to be read as a hole of the graph
    c5 = cycle_graph(5)
    doc = ResultDocument("odd-hole-found", 5, "fast", 0.0, graph_digest(c5),
                         (0, 1, 2, 3, 4), "banana")
    assert not doc.verify_witness(c5)
    with pytest.raises(ValueError, match="unknown witness kind 'banana'"):
        ResultDocument.from_json(doc.to_json())


def test_verify_witness_refuses_a_document_of_another_graph():
    # the C7 is a hole of the bigger graph too, but the document is not its
    doc = run_detection(cycle_graph(7))
    bigger = Graph(9, [(i, (i + 1) % 7) for i in range(7)] + [(7, 8)])
    assert is_odd_hole(bigger, doc.witness)
    assert doc.verify_witness(cycle_graph(7)) and not doc.verify_witness(bigger)
    # a document naming the right vertex count but another digest
    moved = Graph(7, [(i, (i + 2) % 7) for i in range(7)])
    assert is_odd_hole(moved, (0, 2, 4, 6, 1, 3, 5))
    doc = ResultDocument("odd-hole-found", 7, "fast", 0.0, graph_digest(cycle_graph(7)),
                         (0, 2, 4, 6, 1, 3, 5), "hole")
    assert not doc.verify_witness(moved)


def test_from_json_refuses_badly_typed_fields():
    data = json.loads(run_detection(cycle_graph(7)).to_json())
    for name, value in (("n", "7"), ("n", True), ("n", 7.0), ("n", None), ("millis", "x"),
                        ("millis", False), ("millis", None), ("digest", 5), ("digest", None),
                        ("algorithm", None), ("algorithm", 1)):
        with pytest.raises(ValueError, match=f"bad {name}"):
            ResultDocument.from_json(json.dumps({**data, name: value}))
    # an integer time is a number, and an older document may name another detector
    doc = ResultDocument.from_json(json.dumps({**data, "millis": 3, "algorithm": "oracle"}))
    assert doc.millis == 3 and doc.algorithm == "oracle" and doc.verify_witness(cycle_graph(7))


def test_from_json_refuses_a_negative_vertex_count():
    # such a document names no graph at all; the empty graph's loads
    data = json.loads(run_detection(Graph(0)).to_json())
    for n in (-3, -1):
        with pytest.raises(ValueError, match="bad n"):
            ResultDocument.from_json(json.dumps({**data, "n": n}))
    assert ResultDocument.from_json(json.dumps(data)).verify_witness(Graph(0))


def test_from_json_refuses_an_unknown_verdict():
    data = json.loads(run_detection(cycle_graph(6)).to_json())
    for verdict in (5, None, "maybe", ["perfect"]):
        with pytest.raises(ValueError, match="unknown verdict"):
            ResultDocument.from_json(json.dumps({**data, "verdict": verdict}))


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


def test_perfect_builds_no_complement_after_an_empty_split(monkeypatch):
    # An empty split proves the graph Berge, so test_perfect answers
    # perfect without the complement side.  A graph with leaves builds the
    # complement of each leaf it searches, never its own unless it is its
    # own only leaf, and none for a leaf that is an odd antihole: the hole
    # of that complement is read off the leaf's own rows.
    complement = Graph.complement
    built = []
    monkeypatch.setattr(Graph, "complement", lambda g: built.append(g) or complement(g))
    perfect_with_leaf = gnp(10, 0.5, 3)
    antihole = cycle_graph(7).complement()
    for g, leaves, builds, verdict in ((random_chordal(9, 0), 0, 0, "perfect"),
                                       (random_bipartite(4, 5, 0.5, 0), 0, 0, "perfect"),
                                       (cycle_graph(6).complement(), 0, 0, "perfect"),
                                       (perfect_with_leaf, 1, 1, "perfect"),
                                       (antihole, 1, 0, "imperfect")):
        assert split_leaves(g) == [g.full_mask] * leaves, g.adj
        built.clear()
        assert test_perfect(g).verdict == verdict
        assert built == [g] * builds, g.adj
    for s in range(4):
        # a chordal graph beside a 7-antihole: the leaf is the antihole
        chordal = random_chordal(10, s)
        g = Graph(17, list(chordal.edges()) + [(u + 10, v + 10) for u, v in antihole.edges()])
        leaf = antihole.full_mask << 10
        assert split_leaves(g) == [leaf]
        built.clear()
        doc = test_perfect(g)
        assert doc.verdict == "imperfect" and doc.witness_kind == "antihole"
        assert set(doc.witness) <= set(range(10, 17)) and doc.verify_witness(g)
        assert built == []
        # beside perfect_with_leaf, the leaf is that graph: its complement is
        # built, not g's
        g = Graph(20, list(chordal.edges())
                  + [(u + 10, v + 10) for u, v in perfect_with_leaf.edges()])
        leaf = perfect_with_leaf.full_mask << 10
        assert split_leaves(g) == [leaf]
        built.clear()
        assert test_perfect(g).verdict == "perfect"
        assert built == [g.induced(leaf)[0]] and built[0].n == 10 and built[0] is not g


def test_perfect_takes_an_odd_cycle_leaf_complement_in_closed_form(monkeypatch):
    # A chordal graph beside a 9-antihole: the leaf is the antihole, which
    # the graph side decides with no search, and its complement is a 9-cycle,
    # whose hole fast._cycle_hole gives with no stage 0 and no search.
    split = oddhole.fast.split_leaves  # detect's stage 0
    split_on = []
    monkeypatch.setattr(oddhole.fast, "split_leaves", lambda h: split_on.append(h) or split(h))
    init = oddhole.graph._Search.__init__
    searched = []
    monkeypatch.setattr(oddhole.graph._Search, "__init__",
                        lambda self, h: searched.append(h) or init(self, h))
    antihole = cycle_graph(9).complement()
    for s in range(3):
        chordal = random_chordal(10, s)
        g = Graph(19, list(chordal.edges()) + [(u + 10, v + 10) for u, v in antihole.edges()])
        leaf = antihole.full_mask << 10
        assert split_leaves(g) == [leaf]
        doc = test_perfect(g)
        assert doc.verdict == "imperfect" and doc.witness_kind == "antihole"
        assert doc.verify_witness(g)
        assert split_on == [] and searched == []
        # the witness is still detect's on the leaf's complement
        sub, back = g.induced(leaf)
        assert doc.witness == tuple(back[v] for v in detect(sub.complement()))
        split_on.clear()


def test_perfect_antihole_witness_comes_from_the_leaf_complement():
    # The antihole witness is detect's first hole in the complement of a
    # leaf, in g's ids; here it differs from detect on the whole complement.
    g = parse_graph6("H}NHCpl").graph
    (leaf,) = split_leaves(g)
    assert leaf == mask_of((0, 1, 2, 3, 4, 7, 8))
    doc = test_perfect(g)
    assert doc.verdict == "imperfect" and doc.witness_kind == "antihole"
    assert doc.witness == (2, 3, 8, 0, 4, 1, 7)
    assert is_odd_hole(g.complement(), doc.witness)
    assert mask_of(doc.witness) & ~leaf == 0
    sub, back = g.induced(leaf)
    assert doc.witness == tuple(back[v] for v in detect(sub.complement()))
    assert detect(g.complement()) == (1, 7, 5, 3, 8, 0, 4)
    assert doc.verify_witness(g)


def test_perfect_matches_oracle_small():
    for i in range(60):
        g = gnp(8, 0.4, 7000 + i)
        doc = test_perfect(g)
        want = (
            oracle_find_odd_hole(g) is None
            and oracle_find_odd_hole(g.complement()) is None
        )
        assert (doc.verdict == "perfect") == want


def _planted_antihole(k, noise, seed):
    """A k-antihole and ``noise`` vertices joined at random, ids shuffled."""
    rng = random.Random(seed)
    n = k + noise
    edges = [(u, v) for u in range(k) for v in range(u + 2, k) if (u, v) != (0, k - 1)]
    edges += [(u, v) for v in range(k, n) for u in range(v) if rng.random() < 0.5]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, edges), perm)


def test_perfect_matches_oracle_on_planted_antiholes():
    # planted odd antiholes (7 and 9) with 1-4 noise vertices: the verdict
    # and witness kind follow the oracle on g and on its complement
    kinds = []
    for i in range(400):
        g = _planted_antihole(7 + 2 * (i % 2), 1 + i % 4, 8000 + i)
        doc = test_perfect(g)
        if oracle_find_odd_hole(g) is not None:
            want = ("imperfect", "hole")
        elif oracle_find_odd_hole(g.complement()) is not None:
            want = ("imperfect", "antihole")
        else:
            want = ("perfect", None)
        assert (doc.verdict, doc.witness_kind) == want, g.adj
        assert doc.verify_witness(g), g.adj
        kinds.append(doc.witness_kind)
    assert kinds.count("antihole") >= 50 and "hole" in kinds, kinds.count("antihole")


def test_digest_stable():
    assert graph_digest(cycle_graph(5)) == graph_digest(cycle_graph(5))
    assert graph_digest(cycle_graph(5)) != graph_digest(cycle_graph(6))


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


def test_import_oddhole_stays_light():
    # test_perfect imports oddhole.pipeline on its first call, so that a
    # plain import loads only the detector's own modules; the pipeline
    # itself loads neither the reference detectors, the oracle nor the
    # generators
    code = ("import sys, oddhole; print(' '.join(sorted(sys.modules)))\n"
            "import oddhole.pipeline; print(' '.join(sorted(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(oddhole.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60)
    loaded, with_pipeline = (set(line.split()) for line in res.stdout.splitlines())
    assert "oddhole.fast" in loaded, res.stderr
    for name in ("pipeline", "simple", "probes", "oracle", "formats", "generators"):
        assert f"oddhole.{name}" not in loaded, name
    assert "dataclasses" not in loaded
    assert "oddhole.pipeline" in with_pipeline
    for name in ("simple", "probes", "oracle", "generators"):
        assert f"oddhole.{name}" not in with_pipeline, name


def test_cli_imports_only_what_the_stream_runs():
    # every start of `oddhole detect --stdin-stream` pays for what the CLI
    # module imports; probe and gen import the oracle, the probes and the
    # generators themselves
    code = "import sys, oddhole.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(oddhole.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60)
    loaded = set(res.stdout.split())
    assert "oddhole.pipeline" in loaded, res.stderr
    for name in ("click", "dataclasses", "inspect", "oddhole.oracle", "oddhole.generators",
                 "oddhole.probes", "oddhole.simple"):
        assert name not in loaded, name
