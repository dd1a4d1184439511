"""Command-line interface.

Exit codes are a stable contract for scripting: 0 means no odd hole (or
perfect), 1 means an odd hole was found (or the graph is imperfect), and 2
means the input could not be parsed or is too large for the command, or
the command line names an option or command that does not exist.

The input's format is read from the input itself (``formats.parse_graph``),
and ``detect`` and ``perfect`` run ``oddhole.detect``.  ``probe`` runs the
exponential brute-force search, so it refuses graphs with more than
``PROBE_MAX_VERTICES`` (36) vertices with exit code 2; on grid graphs that
search takes a fraction of a second at 36 vertices and about 25 times as
long at 49 (see README.md).

The parser is the standard library's ``argparse``; an option is never
abbreviated, and ``--help`` is the only help flag.  Start-up imports only
what ``detect`` and ``perfect`` run: ``probe`` imports the brute-force
search and ``gen`` the generators in their own bodies.  Every line is
flushed as it is printed, so a stream's results arrive as they are decided;
a reader that closes the pipe early ends the run with exit code 1 and
nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .formats import ParseError, encode_graph6, parse_graph, parse_graph6
from .graph import Graph, bits as _bits
from .pipeline import run_detection, test_perfect

EXIT_CLEAN = 0
EXIT_FOUND = 1
EXIT_INPUT = 2

PROBE_MAX_VERTICES = 36


def _echo(line: str) -> None:
    print(line, flush=True)


def _refuse(message: str) -> int:
    print(message, file=sys.stderr, flush=True)
    return EXIT_INPUT


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load(path: Optional[str]) -> Graph:
    """Parse the input; exit 2 if it is malformed."""
    try:
        return parse_graph(_read_input(path)).graph
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        sys.exit(_refuse(f"input error: {exc}"))


def _detect(args: argparse.Namespace) -> int:
    if args.stdin_stream:
        dropped = [name for name, given in (("FILE", args.input not in (None, "-")),
                                            ("--witness", args.witness)) if given]
        if dropped:
            return _refuse(f"bad --stdin-stream: it reads graph6 lines from stdin and takes "
                           f"no {', '.join(dropped)}")
        return _stream_detect(args.json)
    doc = run_detection(_load(args.input))
    _emit(doc, args.witness, args.json)
    return EXIT_FOUND if doc.verdict == "odd-hole-found" else EXIT_CLEAN


def _emit(doc, witness: bool, as_json: bool) -> None:
    if as_json:
        _echo(doc.to_json())
        return
    _echo(doc.verdict)
    if witness and doc.witness is not None:
        _echo(" ".join(map(str, doc.witness)))


def _stream_detect(as_json: bool) -> int:
    try:
        lines = [ln.strip() for ln in sys.stdin if ln.strip()]
        graphs = [parse_graph6(ln).graph for ln in lines]
    except (ParseError, UnicodeDecodeError) as exc:
        return _refuse(f"input error: {exc}")
    any_found = False
    for g in graphs:
        doc = run_detection(g)
        _emit(doc, False, as_json)
        any_found |= doc.verdict == "odd-hole-found"
    return EXIT_FOUND if any_found else EXIT_CLEAN


def _perfect(args: argparse.Namespace) -> int:
    doc = test_perfect(_load(args.input))
    if args.json:
        _echo(doc.to_json())
    else:
        _echo(doc.verdict)
        if doc.witness is not None:
            _echo(f"{doc.witness_kind}: " + " ".join(map(str, doc.witness)))
    return EXIT_FOUND if doc.verdict == "imperfect" else EXIT_CLEAN


def _probe(args: argparse.Namespace) -> int:
    from .oracle import oracle_find_odd_hole
    from .probes import heavy_edges, major_vertices, vertex_gaps

    g = _load(args.input)
    if g.n > PROBE_MAX_VERTICES:
        return _refuse(f"input error: the brute-force search takes at most "
                       f"{PROBE_MAX_VERTICES} vertices, got {g.n}")
    hole = oracle_find_odd_hole(g)
    if hole is None:
        _echo(json.dumps({"hole": None}))
        return EXIT_CLEAN
    majors = sorted(_bits(major_vertices(g, hole)))
    report = {
        "hole": list(hole),
        "majors": majors,
        "gaps": {str(v): [list(arc) for arc in vertex_gaps(g, hole, v)] for v in majors},
        "heavy_edges": [list(e) for e in heavy_edges(g, hole, majors)],
    }
    _echo(json.dumps(report, sort_keys=True))
    return EXIT_FOUND


def _gen(args: argparse.Namespace) -> int:
    from .generators import generate_corpus

    try:
        # encode every graph first, so that no line is printed for a spec
        # that fails on a later graph
        lines = [encode_graph6(g) for g in generate_corpus(" ".join(args.spec))]
    except (ValueError, MemoryError) as exc:  # a MemoryError usually has no message
        return _refuse(f"spec error: {str(exc) or 'out of memory building the graphs'}")
    for line in lines:
        _echo(line)
    return EXIT_CLEAN


def _parser() -> argparse.ArgumentParser:
    """The ``oddhole`` command line: four commands, each with its options."""

    def parser(**kwargs) -> argparse.ArgumentParser:
        # no prefix of an option is taken for it, and no -h
        p = argparse.ArgumentParser(allow_abbrev=False, add_help=False, **kwargs)
        p.add_argument("--help", action="help", help="show this message and exit")
        return p

    top = parser(prog="oddhole", description="Detect odd holes and test graph perfection.")
    commands = top.add_subparsers(title="commands", metavar="COMMAND", required=True,
                                  parser_class=parser)

    def command(name: str, run, summary: str, description: str = "") -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=summary, description=description or summary)
        sub.set_defaults(run=run, command=sub)
        return sub

    detect = command("detect", _detect, "Decide whether a graph contains an odd hole.")
    detect.add_argument("input", nargs="?", metavar="FILE")
    detect.add_argument("--witness", action="store_true", help="print the witness cycle")
    detect.add_argument("--json", action="store_true", help="print the full result document")
    detect.add_argument("--stdin-stream", action="store_true",
                        help="treat stdin as one graph6 value per line")
    perfect = command("perfect", _perfect, "Test whether a graph is perfect.")
    perfect.add_argument("input", nargs="?", metavar="FILE")
    perfect.add_argument("--json", action="store_true")
    probe = command("probe", _probe, "Dump hole structure (majors, gaps, heavy edges) as JSON.",
                    "Dump hole structure (majors, gaps, heavy edges) as JSON.  Graphs with "
                    f"more than {PROBE_MAX_VERTICES} vertices are refused (exit 2).")
    probe.add_argument("input", nargs="?", metavar="FILE")
    gen = command("gen", _gen, "Generate a corpus; one graph6 line per graph.")
    gen.add_argument("spec", nargs="+", metavar="SPEC")
    return top


def main(argv: Optional[list[str]] = None) -> None:
    """Run one command and exit with its code; ``argv`` defaults to ``sys.argv[1:]``."""
    args, unknown = _parser().parse_known_args(argv)
    if unknown:  # the command's own usage line, not the top level's
        args.command.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        code = args.run(args)
    except BrokenPipeError:
        # the reader closed stdout: exit 1 with no traceback, and point
        # stdout at the null device so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
