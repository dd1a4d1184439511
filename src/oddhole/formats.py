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

from binascii import b2a_base64
from typing import NamedTuple

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


class GraphDocument(NamedTuple):
    """What the parsers return; callers read its ``graph``."""

    graph: Graph


# base64 packs six bits per byte as graph6 does, most significant first;
# only the alphabet differs
_GRAPH6_ALPHABET = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))
# the upper-triangle bits packed at a time: a multiple of 24, so that each
# chunk is whole base64 groups, and small enough to bound the memory
_CHUNK_BITS = 24 << 14


def _pack(bits: str) -> str:
    """The graph6 bytes of a string of ``0``/``1``, padded with zeros to six."""
    pad = -len(bits) % 24
    data = int(bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big")
    packed = b2a_base64(data, newline=False).translate(_GRAPH6_ALPHABET)
    return packed[:(len(bits) + 5) // 6].decode()


def encode_graph6(g: Graph) -> str:
    """The graph6 line of ``g``: its size, then the upper triangle of its
    adjacency matrix column by column, six bits per byte.

    Column ``j`` is bits ``0..j-1`` of row ``j``, lowest first, so one
    ``bin`` call and one reversed slice give it; the columns are packed in
    chunks of ``_CHUNK_BITS`` bits, so the memory beyond the output is
    bounded.
    """
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= MAX_VERTICES:
        out = ["~", chr(63 + (n >> 12)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    else:
        raise ValueError("graph too large for this graph6 writer")
    adj = g.adj
    columns: list[str] = []
    size = 0
    for j in range(1, n):
        # bit j marks the column's top, so bin() gives "0b1" and then its j
        # bits, highest first; the slice drops "0b1" and reverses them
        columns.append(bin(adj[j] & ((1 << j) - 1) | 1 << j)[:2:-1])
        size += j
        if size >= _CHUNK_BITS:
            bits = "".join(columns)
            whole = size - size % 24
            out.append(_pack(bits[:whole]))
            columns = [bits[whole:]]
            size -= whole
    if size:
        out.append(_pack("".join(columns)))
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
    if pad := len(body) * 6 - need:
        body[-1] &= -1 << pad  # padding bits carry no pair
    # the bits run down each column in turn: (0, 1), (0, 2), (1, 2), (0, 3), ...
    rows = [0] * n
    i, j = 0, 1
    for value in body:
        for bit in (32, 16, 8, 4, 2, 1):
            if value & bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return GraphDocument(Graph.from_rows(n, rows))


def encode_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for (u, v) in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> GraphDocument:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for (no, ln) in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty edge-list input")
    no, header = lines[0]
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
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    rows = [0] * n
    for no, ln in lines[1:]:
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
        if rows[u] >> v & 1:
            raise ParseError(f"line {no}: duplicate edge {u} {v}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return GraphDocument(Graph.from_rows(n, rows))


def parse_graph(text: str) -> GraphDocument:
    """Parse either supported format, read from the text itself.

    The first line that is neither blank nor a ``#`` comment, the first
    line ``parse_edgelist`` reads, decides: an ``n m`` header of two
    numbers is an edge list, anything else graph6.  A graph6 value holds no
    space, so no text that one parser accepts is sent to the other.
    """
    first = next((ln for ln in map(str.strip, text.splitlines())
                  if ln and not ln.startswith("#")), "")
    parts = first.split()
    if len(parts) == 2 and _numbers(parts):
        return parse_edgelist(text)
    return parse_graph6(text)
