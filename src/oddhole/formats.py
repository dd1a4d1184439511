"""Graph interchange: graph6 lines and a plain edge-list format.

graph6 is the compact printable encoding used by the usual small-graph
enumeration tools: the vertex count, then the upper triangle of the
adjacency matrix in column order, packed six bits per printable byte with
an offset of 63.  The edge-list format is line oriented: ``n m`` on the
first line, then one ``u v`` pair per line with 0-based vertex ids, every
number in ASCII digits.

Both directions are provided and ``parse(encode(g))`` is the identity;
encoded output is canonical, so canonical inputs round-trip bit-exactly.
Both parsers refuse graphs with more than ``MAX_VERTICES`` vertices, the
most graph6 can encode, before allocating anything for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graph import Graph

GRAPH6_HEADER = ">>graph6<<"

# the largest vertex count the four-byte graph6 size prefix can encode
MAX_VERTICES = 258047


def _numbers(parts: list[str]) -> bool:
    """Whether every part is ASCII digits only.

    ``int`` alone would also take other scripts' digits, signs and
    underscores.
    """
    return all(p.isascii() and p.isdigit() for p in parts)


class ParseError(ValueError):
    """Malformed graph input; carries a human-readable location."""


@dataclass(frozen=True)
class GraphDocument:
    graph: Graph
    fmt: str
    name: Optional[str] = None
    comment: Optional[str] = None


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= MAX_VERTICES:
        out = ["~", chr(63 + (n >> 12)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    else:
        raise ValueError("graph too large for this graph6 writer")
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def parse_graph6(text: str) -> GraphDocument:
    """Parse one graph6 value (optionally with the standard header)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ParseError("empty graph6 input")
    data = [ord(c) - 63 for c in s]
    for off, value in enumerate(data):
        if not 0 <= value <= 63:
            raise ParseError(f"invalid graph6 byte at offset {off}: {s[off]!r}")
    if data[0] != 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) < 4 or data[1] == 63:
            raise ParseError("unsupported graph6 size prefix")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ParseError(
            f"graph6 body length {len(body)} does not match n={n}"
        )
    bits = 0
    for value in body:
        bits = (bits << 6) | value
    pad = len(body) * 6 - need
    bits >>= pad
    edges = []
    pos = need
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                edges.append((i, j))
    return GraphDocument(Graph(n, edges), "graph6")


def encode_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for (u, v) in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> GraphDocument:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for (no, ln) in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ParseError("empty edge-list input")
    no, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {no}: expected 'n m' header")
    if not _numbers(parts):
        raise ParseError(f"line {no}: non-integer header")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:  # more digits than int() converts
        raise ParseError(f"line {no}: number too long") from None
    if n > MAX_VERTICES:
        raise ParseError(f"line {no}: more than {MAX_VERTICES} vertices")
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    seen = set()
    for no, ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"line {no}: expected 'u v'")
        if not _numbers(parts):
            raise ParseError(f"line {no}: non-integer endpoint")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"line {no}: number too long") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {no}: vertex out of range 0..{n - 1}")
        if u == v:
            raise ParseError(f"line {no}: loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"line {no}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    return GraphDocument(Graph(n, edges), "edgelist")


def parse_graph(text: str, fmt: str = "auto") -> GraphDocument:
    """Parse either supported format; ``auto`` sniffs the first line."""
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "auto":
        first = text.strip().splitlines()[0] if text.strip() else ""
        stripped = first.strip()
        parts = stripped.split()
        if len(parts) == 2 and _numbers(parts):
            return parse_edgelist(text)
        return parse_graph6(text)
    raise ParseError(f"unknown format {fmt!r}")
