"""Command-line interface.

Exit codes are a stable contract for scripting: 0 means no odd hole (or
perfect), 1 means an odd hole was found (or the graph is imperfect), and 2
means the input could not be parsed.
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
from .pipeline import BENCH_HEADER, bench_rows, run_detection, test_perfect
from .probes import heavy_edges, major_vertices, vertex_gaps
from .graph import bits as _bits

EXIT_CLEAN = 0
EXIT_FOUND = 1
EXIT_INPUT = 2


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load(path: Optional[str], fmt: str) -> Graph:
    try:
        return parse_graph(_read_input(path), fmt).graph
    except (ParseError, OSError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT)


@click.group()
def main() -> None:
    """Detect odd holes and test graph perfection."""


@main.command()
@click.argument("input", required=False)
@click.option("--format", "fmt", default="auto",
              type=click.Choice(["auto", "graph6", "edgelist"]))
@click.option("--algorithm", default="fast",
              type=click.Choice(["fast", "simple", "oracle"]))
@click.option("--witness", is_flag=True, help="print the witness cycle")
@click.option("--json", "as_json", is_flag=True, help="print the full result document")
@click.option("--stdin-stream", is_flag=True,
              help="treat stdin as one graph6 value per line")
def detect(input, fmt, algorithm, witness, as_json, stdin_stream):
    """Decide whether a graph contains an odd hole."""
    if stdin_stream:
        sys.exit(_stream_detect(algorithm, as_json))
    doc = run_detection(_load(input, fmt), algorithm)
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
    lines = [ln.strip() for ln in sys.stdin if ln.strip()]
    try:
        graphs = [parse_graph6(ln).graph for ln in lines]
    except ParseError as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    any_found = False
    for g in graphs:
        doc = run_detection(g, algorithm)
        if as_json:
            click.echo(doc.to_json())
        else:
            click.echo(doc.verdict)
        any_found |= doc.verdict == "odd-hole-found"
    return EXIT_FOUND if any_found else EXIT_CLEAN


@main.command()
@click.argument("input", required=False)
@click.option("--format", "fmt", default="auto",
              type=click.Choice(["auto", "graph6", "edgelist"]))
@click.option("--algorithm", default="fast",
              type=click.Choice(["fast", "simple", "oracle"]))
@click.option("--json", "as_json", is_flag=True)
def perfect(input, fmt, algorithm, as_json):
    """Test whether a graph is perfect."""
    g = _load(input, fmt)
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
    """Dump hole structure (majors, gaps, heavy edges) as JSON."""
    g = _load(input, fmt)
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
        docs = generate_corpus(" ".join(spec))
    except ValueError as exc:
        click.echo(f"spec error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    for doc in docs:
        click.echo(encode_graph6(doc.graph))
    sys.exit(EXIT_CLEAN)


@main.command()
@click.option("--sizes", default="10,15,20,25,30")
@click.option("--p", default=0.3, type=float)
@click.option("--per", default=3, type=int, help="graphs per size")
@click.option("--algorithm", default="fast",
              type=click.Choice(["fast", "simple", "oracle"]))
@click.option("--seed", default=0, type=int)
def bench(sizes, p, per, algorithm, seed):
    """Wall-time report over random graphs; CSV on stdout."""
    try:
        size_list = [int(s) for s in sizes.split(",") if s]
    except ValueError:
        click.echo("bad --sizes", err=True)
        sys.exit(EXIT_INPUT)
    for row in bench_rows(size_list, p, per, algorithm, seed):
        click.echo(row)
    sys.exit(EXIT_CLEAN)


if __name__ == "__main__":
    main()
