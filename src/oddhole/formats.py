"""Graph interchange: graph6 lines and a plain edge-list format.

graph6 is the compact printable encoding used by the usual small-graph
enumeration tools: the vertex count, then the upper triangle of the
adjacency matrix in column order, packed six bits per printable byte with
an offset of 63.  The edge-list format is line oriented: ``n m`` on the
first line, then one ``u v`` pair per line with 0-based vertex ids, every
number in ASCII digits.

Both formats are read; graph6 is also written, and
``parse_graph6(encode_graph6(g))`` is the identity.  The written graph6 is
canonical, so canonical inputs round-trip bit-exactly.  Both parsers
refuse graphs with more than ``MAX_VERTICES`` vertices, the most graph6
can encode, before allocating anything for them.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
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
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6_ALPHABET = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_BASE64_ALPHABET = bytes.maketrans(bytes(range(63, 127)), _BASE64)
# each byte with its eight bits in reverse order
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# the upper-triangle bits packed at a time: a multiple of 24, so that each
# chunk is whole base64 groups, and small enough to bound the memory
_CHUNK_BITS = 24 << 14


def _pack(bits: int, size: int) -> str:
    """The graph6 bytes of the ``size`` low bits of ``bits``, lowest first,
    padded with zeros to six."""
    data = bits.to_bytes((size + 23) // 24 * 3, "little").translate(_REVERSED)
    packed = b2a_base64(data, newline=False).translate(_GRAPH6_ALPHABET)
    return packed[:(size + 5) // 6].decode()


def encode_graph6(g: Graph) -> str:
    """The graph6 line of ``g``: its size, then the upper triangle of its
    adjacency matrix column by column, six bits per byte.

    Column ``j`` is bits ``0..j-1`` of row ``j``, and graph6 writes them
    lowest first, so one shift puts each column above the last in one int,
    whose bit ``p`` is the ``p``-th bit written.  Its little-endian bytes
    hold those bits lowest first within each byte, while graph6, like
    base64, reads each byte highest bit first; reversing the bits of every
    byte (``_REVERSED``, one ``bytes.translate``) gives the stream that
    base64 packs six bits at a time.  The columns are packed in chunks of
    ``_CHUNK_BITS`` bits, so the memory beyond the output is bounded.
    """
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= MAX_VERTICES:
        out = ["~", chr(63 + (n >> 12)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    else:
        raise ValueError("graph too large for this graph6 writer")
    adj = g.adj
    chunk = _CHUNK_BITS
    bits = size = 0
    for j in range(1, n):
        bits |= (adj[j] & ((1 << j) - 1)) << size
        size += j
        if size >= chunk:
            whole = size - size % 24
            out.append(_pack(bits & ((1 << whole) - 1), whole))
            bits >>= whole
            size -= whole
    if size:
        out.append(_pack(bits, size))
    return "".join(out)


def parse_graph6(text: str) -> GraphDocument:
    """Parse one graph6 value (optionally with the standard header).

    The body is read back as :func:`encode_graph6` writes it: base64 turns
    it into bytes, ``_REVERSED`` puts each byte's first bit lowest, and the
    columns are read off in chunks, lowest bits first.  The padding bits
    after the last column are never read.
    """
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ParseError("empty graph6 input")
    raw = s.encode()
    if not s.isascii() or min(raw) < 63 or max(raw) > 126:
        off = next(i for i, c in enumerate(s) if not "?" <= c <= "~")
        raise ParseError(f"invalid graph6 byte at offset {off}: {s[off]!r}")
    if raw[0] != 126:
        n, body = raw[0] - 63, raw[1:]
    else:
        if len(raw) < 4 or raw[1] == 126:
            raise ParseError("unsupported graph6 size prefix")
        n = (raw[1] - 63) << 12 | (raw[2] - 63) << 6 | raw[3] - 63
        body = raw[4:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ParseError(
            f"graph6 body length {len(body)} does not match n={n}"
        )
    body = body.translate(_BASE64_ALPHABET) + b"A" * (-len(body) % 4)
    data = a2b_base64(body).translate(_REVERSED)
    # column j holds the pairs (0, j) .. (j - 1, j); ``bits`` holds the
    # ``size`` bits read in and not yet taken, lowest first
    rows = [0] * n
    step = _CHUNK_BITS >> 3
    at = bits = size = 0
    for j in range(1, n):
        while size < j:
            bits |= int.from_bytes(data[at:at + step], "little") << size
            at += step
            size += step << 3
        rows[j] = col = bits & ((1 << j) - 1)
        bits >>= j
        size -= j
        bit = 1 << j
        while col:  # each pair (i, j) also sets bit j of row i
            i = col.bit_length() - 1
            col ^= 1 << i
            rows[i] |= bit
    return GraphDocument(Graph.from_rows(n, rows))


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
