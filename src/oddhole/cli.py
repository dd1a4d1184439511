"""Command-line interface.

Exit codes are a stable contract for scripting: 0 means no odd hole (or
perfect), 1 means an odd hole was found (or the graph is imperfect), and 2
means the input could not be parsed or is too large for the command.

``probe`` and ``--algorithm oracle`` run the exponential brute-force search,
so they refuse graphs with more than ``PROBE_MAX_VERTICES`` (36) vertices with
exit code 2; on grid graphs that search takes a fraction of a second at 36
vertices and about 25 times as long at 49 (see README.md).
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click

from .formats import ParseError, encode_graph6, parse_graph, parse_graph6
from .generators import generate_corpus
from .graph import Graph
from .oracle import oracle_find_odd_hole
from .pipeline import ALGORITHMS, bench_rows, run_detection, test_perfect
from .probes import heavy_edges, major_vertices, vertex_gaps
from .graph import bits as _bits

EXIT_CLEAN = 0
EXIT_FOUND = 1
EXIT_INPUT = 2

PROBE_MAX_VERTICES = 36

_algorithm_option = click.option("--algorithm", default="fast",
                                 type=click.Choice(list(ALGORITHMS)))


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load(path: Optional[str], fmt: str) -> Graph:
    try:
        return parse_graph(_read_input(path), fmt).graph
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT)


def _too_large(g: Graph, algorithm: str) -> bool:
    """Say so on stderr if ``g`` is too large for the brute-force search."""
    if algorithm != "oracle" or g.n <= PROBE_MAX_VERTICES:
        return False
    click.echo(f"input error: the brute-force search takes at most {PROBE_MAX_VERTICES} "
               f"vertices, got {g.n}", err=True)
    return True


@click.group()
def main() -> None:
    """Detect odd holes and test graph perfection."""


@main.command()
@click.argument("input", required=False)
@click.option("--format", "fmt", default="auto",
              type=click.Choice(["auto", "graph6", "edgelist"]))
@_algorithm_option
@click.option("--witness", is_flag=True, help="print the witness cycle")
@click.option("--json", "as_json", is_flag=True, help="print the full result document")
@click.option("--stdin-stream", is_flag=True,
              help="treat stdin as one graph6 value per line")
def detect(input, fmt, algorithm, witness, as_json, stdin_stream):
    """Decide whether a graph contains an odd hole."""
    if stdin_stream:
        sys.exit(_stream_detect(algorithm, as_json))
    g = _load(input, fmt)
    if _too_large(g, algorithm):
        sys.exit(EXIT_INPUT)
    doc = run_detection(g, algorithm)
    _emit(doc, witness, as_json)
    sys.exit(EXIT_FOUND if doc.verdict == "odd-hole-found" else EXIT_CLEAN)


def _emit(doc, witness: bool, as_json: bool) -> None:
    if as_json:
        click.echo(doc.to_json())
        return
    click.echo(doc.verdict)
    if witness and doc.witness is not None:
        click.echo(" ".join(map(str, doc.witness)))


def _stream_detect(algorithm: str, as_json: bool) -> int:
    try:
        lines = [ln.strip() for ln in sys.stdin if ln.strip()]
        graphs = [parse_graph6(ln).graph for ln in lines]
    except (ParseError, UnicodeDecodeError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    if any(_too_large(g, algorithm) for g in graphs):
        return EXIT_INPUT
    any_found = False
    for g in graphs:
        doc = run_detection(g, algorithm)
        _emit(doc, False, as_json)
        any_found |= doc.verdict == "odd-hole-found"
    return EXIT_FOUND if any_found else EXIT_CLEAN


@main.command()
@click.argument("input", required=False)
@click.option("--format", "fmt", default="auto",
              type=click.Choice(["auto", "graph6", "edgelist"]))
@_algorithm_option
@click.option("--json", "as_json", is_flag=True)
def perfect(input, fmt, algorithm, as_json):
    """Test whether a graph is perfect."""
    g = _load(input, fmt)
    if _too_large(g, algorithm):
        sys.exit(EXIT_INPUT)
    doc = test_perfect(g, algorithm)
    if as_json:
        click.echo(doc.to_json())
    else:
        click.echo(doc.verdict)
        if doc.witness is not None:
            kind = doc.witness_kind or "hole"
            click.echo(f"{kind}: " + " ".join(map(str, doc.witness)))
    sys.exit(EXIT_FOUND if doc.verdict == "imperfect" else EXIT_CLEAN)


@main.command()
@click.argument("input", required=False)
@click.option("--format", "fmt", default="auto",
              type=click.Choice(["auto", "graph6", "edgelist"]))
def probe(input, fmt):
    """Dump hole structure (majors, gaps, heavy edges) as JSON.

    Graphs with more than PROBE_MAX_VERTICES vertices are refused (exit 2).
    """
    g = _load(input, fmt)
    if _too_large(g, "oracle"):
        sys.exit(EXIT_INPUT)
    hole = oracle_find_odd_hole(g)
    if hole is None:
        click.echo(json.dumps({"hole": None}))
        sys.exit(EXIT_CLEAN)
    majors = sorted(_bits(major_vertices(g, hole)))
    report = {
        "hole": list(hole),
        "majors": majors,
        "gaps": {str(v): [list(arc) for arc in vertex_gaps(g, hole, v)] for v in majors},
        "heavy_edges": [list(e) for e in heavy_edges(g, hole, majors)],
    }
    click.echo(json.dumps(report, sort_keys=True))
    sys.exit(EXIT_FOUND)


@main.command()
@click.argument("spec", nargs=-1, required=True)
def gen(spec):
    """Generate a corpus; one graph6 line per graph."""
    try:
        # encode every graph first, so that no line is printed for a spec
        # that fails on a later graph
        lines = [encode_graph6(doc.graph) for doc in generate_corpus(" ".join(spec))]
    except ValueError as exc:
        click.echo(f"spec error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    for line in lines:
        click.echo(line)
    sys.exit(EXIT_CLEAN)


@main.command()
@click.option("--sizes", default="10,15,20,25,30")
@click.option("--p", default=0.3, type=float)
@click.option("--per", default=3, type=int, help="graphs per size")
@_algorithm_option
@click.option("--seed", default=0, type=int)
def bench(sizes, p, per, algorithm, seed):
    """Wall-time report over random graphs; CSV on stdout."""
    try:
        size_list = [int(s) for s in sizes.split(",") if s]
        if any(n < 0 for n in size_list):
            raise ValueError
    except ValueError:
        click.echo("bad --sizes: want non-negative integers", err=True)
        sys.exit(EXIT_INPUT)
    if algorithm == "oracle" and any(n > PROBE_MAX_VERTICES for n in size_list):
        click.echo(f"bad --sizes: the brute-force search takes at most {PROBE_MAX_VERTICES} "
                   "vertices", err=True)
        sys.exit(EXIT_INPUT)
    if not 0.0 <= p <= 1.0:  # NaN fails too
        click.echo("bad --p: want a probability in [0, 1]", err=True)
        sys.exit(EXIT_INPUT)
    for row in bench_rows(size_list, p, per, algorithm, seed):
        click.echo(row)
    sys.exit(EXIT_CLEAN)


if __name__ == "__main__":
    main()
