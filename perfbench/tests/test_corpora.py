"""Checks of the benchmark's own pieces: corpus builders against the oracle,
the correctness gate, and the traced decomposition against ``detect``.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import corpora  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from oddhole import detect  # noqa: E402
from oddhole.generators import random_bipartite, random_chordal  # noqa: E402
from oddhole.oracle import oracle_find_odd_hole  # noqa: E402
from oddhole.pipeline import run_detection, test_perfect  # noqa: E402


def oracle_outcome(g):
    if oracle_find_odd_hole(g) is not None:
        return ("imperfect", "hole")
    if oracle_find_odd_hole(g.complement()) is not None:
        return ("imperfect", "antihole")
    return ("perfect", None)


def small_cases():
    """Instances with n <= 10 from every builder, several seeds each."""
    rng = random.Random(7)
    for seed in range(4):
        yield corpora.co_bipartite(4, 5, 0.5, seed)
        yield corpora.co_chordal(10, seed)
        yield corpora.co_bipartite_with_edges(4, 5, 10, rng)
        yield corpora.bipartite_with_edges(5, 5, 12, rng)
        yield corpora.line_graph_of_bipartite(4, 5, 10, rng)
        yield corpora.glued_odd_hole(7, random_chordal(4, seed), rng)
        yield corpora.glued_odd_hole(9, random_bipartite(1, 2, 1.0, seed), rng)
        yield corpora.decorated_hole(7, 3, seed)
        yield corpora.chordal_with_antihole(3, 7, seed)


@pytest.mark.parametrize("case", list(small_cases()), ids=lambda c: f"n{c.graph.n}-{c.verdict}-{c.witness_kind}")
def test_builder_verdict_matches_oracle(case):
    assert case.graph.n <= 10
    assert oracle_outcome(case.graph) == (case.verdict, case.witness_kind)


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_corpus_is_seeded(workload):
    first = corpora.graph6_lines(corpora.build(workload, 3))
    assert first == corpora.graph6_lines(corpora.build(workload, 3))
    assert first != corpora.graph6_lines(corpora.build(workload, 4))
    assert len(first) >= 100  # ten samples beyond the 90th latency percentile


def test_gate_rejects_wrong_answers():
    hole_case = corpora.decorated_hole(7, 2, 0)
    hole = detect(hole_case.graph)
    assert worker.check_detect(hole_case, hole) is None
    assert worker.check_detect(hole_case, None) is not None
    assert worker.check_detect(hole_case, hole[:-1]) is not None
    doc = test_perfect(hole_case.graph)
    assert worker.check_perfect(hole_case, doc.verdict, doc.witness, doc.witness_kind) is None
    assert worker.check_perfect(hole_case, doc.verdict, doc.witness, "antihole") is not None

    line = run_detection(hole_case.graph).to_json()
    assert worker.check_stream_line(hole_case, line) is None
    wrong = json.loads(line)
    wrong["digest"] = "sha256:0"
    assert worker.check_stream_line(hole_case, json.dumps(wrong)) is not None
    assert worker.check_stream_line(hole_case, "not json") is not None


def traced_counts(graphs):
    tracer = tracing.Tracer()
    with tracer.installed():
        holes = [tracer.detect(g) for g in graphs]
        outcomes = [tracer.perfect(g) for g in graphs]
    return holes, outcomes, dict(tracer.counts)


def test_traced_decomposition_matches_detect_and_repeats():
    graphs = [c.graph for c in corpora.build("stream-batch", 1)[:12]]
    graphs += [c.graph for c in corpora.build("perfect-mixed", 1)[:8]]
    holes, outcomes, counts = traced_counts(graphs)
    assert holes == [detect(g) for g in graphs]
    assert outcomes == [(d.verdict, d.witness, d.witness_kind) for d in map(test_perfect, graphs)]
    assert traced_counts(graphs)[2] == counts
    assert counts["graph.bfs_calls"] >= counts["graph.bfs_distinct"] > 0
    assert counts["configs.hits"] + counts["cleaning.hits"] + counts["fast.hits"] > 0


def test_tracer_restores_the_program():
    import oddhole.cleaning
    import oddhole.fast
    import oddhole.graph

    before = (oddhole.graph.bfs_distances, oddhole.fast.bfs_distances, oddhole.cleaning.test_clean)
    with tracing.Tracer().installed():
        assert oddhole.fast.bfs_distances is not before[1]
    assert (oddhole.graph.bfs_distances, oddhole.fast.bfs_distances, oddhole.cleaning.test_clean) == before


def test_reference_scaling():
    nominal = reference.NOMINAL_S
    assert reference.scaled([2.0, 4.0], [nominal] * 3) == [2.0, 4.0]
    # A call made while the task ran twice as slowly counts half.
    assert reference.scaled([4.0], [2 * nominal] * 2, window=0) == [2.0]
    slow_then_fast = reference.scaled([3.0, 3.0, 3.0], [2 * nominal, 2 * nominal, nominal, nominal], window=0)
    assert slow_then_fast == pytest.approx([1.5, 2.0, 3.0])
    with pytest.raises(ValueError):
        reference.scaled([1.0], [1.0])
    assert reference.timed(3) > 0
