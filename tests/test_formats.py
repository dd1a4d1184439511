import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oddhole.formats
from oddhole.formats import (
    GRAPH6_HEADER,
    ParseError,
    encode_graph6,
    parse_edgelist,
    parse_graph,
    parse_graph6,
)
from oddhole.generators import (
    complete_graph,
    cycle_graph,
    gnp,
    petersen_graph,
)
from oddhole.graph import Graph
from .reference import encode_edgelist


def test_graph6_known_value_roundtrip():
    k5 = complete_graph(5)
    assert encode_graph6(k5) == "D~{"
    doc = parse_graph6("D~{")
    assert doc.graph == k5
    assert encode_graph6(parse_graph6("D~{").graph) == "D~{"


def test_graph6_header_accepted():
    c5 = cycle_graph(5)
    text = GRAPH6_HEADER + encode_graph6(c5)
    assert parse_graph6(text).graph == c5


def test_graph6_roundtrip_random():
    for i in range(120):
        g = gnp(3 + i % 10, 0.4, i)
        assert parse_graph6(encode_graph6(g)).graph == g
    pet = petersen_graph()
    assert parse_graph6(encode_graph6(pet)).graph == pet


def test_graph6_larger_n_prefix():
    # 62 is the largest vertex count with a one-byte size prefix
    for n, head in ((62, "}"), (63, "~"), (70, "~")):
        g = gnp(n, 0.05, 3)
        s = encode_graph6(g)
        assert s[0] == head
        assert parse_graph6(s).graph == g


def _encode_graph6_bit_by_bit(g):
    # the upper triangle one bit at a time, as the encoder once walked it
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr(63 + (n >> 12)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (g.adj[j] >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def test_graph6_encoder_matches_the_bit_by_bit_reference(monkeypatch):
    # every size from 0 to 300, both size prefixes, every padding
    for n in range(301):
        g = gnp(n, (0.1, 0.5, 0.9)[n % 3], 4400 + n)
        assert encode_graph6(g) == _encode_graph6_bit_by_bit(g), n
    for n in (62, 63):
        for g in (Graph(n), complete_graph(n), gnp(n, 0.5, n)):
            assert encode_graph6(g) == _encode_graph6_bit_by_bit(g), n
    # the triangle is packed in chunks; small ones put many chunk ends in
    # every column and across column ends
    for chunk in (24, 48, 96):
        monkeypatch.setattr(oddhole.formats, "_CHUNK_BITS", chunk)
        for n in range(40):
            g = gnp(n, 0.5, 4800 + n)
            assert encode_graph6(g) == _encode_graph6_bit_by_bit(g), (chunk, n)


def _parse_graph6_bit_by_bit(s):
    # the body one bit at a time, down each column in turn: (0, 1), (0, 2),
    # (1, 2), (0, 3), ...; the padding bits after the last pair are skipped
    data = [ord(c) - 63 for c in s]
    if data[0] != 63:
        n, body = data[0], data[1:]
    else:
        n, body = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    rows = [0] * n
    i, j = 0, 1
    for value in body:
        for bit in (32, 16, 8, 4, 2, 1):
            if j < n and value & bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph.from_rows(n, rows)


def test_graph6_parser_matches_the_bit_by_bit_reference(monkeypatch):
    # every size from 0 to 300, both size prefixes, with the header or
    # blanks around the value, and the padding bits set at random: the
    # parser must ignore them
    rng = random.Random(38)
    for n in range(301):
        g = gnp(n, (0.1, 0.5, 0.9)[n % 3], 5400 + n)
        s = encode_graph6(g)
        pad = -(n * (n - 1) // 2) % 6
        if pad:
            s = s[:-1] + chr(ord(s[-1]) | rng.randrange(1, 1 << pad))
        assert _parse_graph6_bit_by_bit(s) == g, n
        for text in (s, GRAPH6_HEADER + s, f" {s}\n"):
            assert parse_graph6(text).graph == g, n
    # the body is read in chunks; small ones end inside columns
    for chunk in (24, 48, 96):
        monkeypatch.setattr(oddhole.formats, "_CHUNK_BITS", chunk)
        for n in range(40):
            g = gnp(n, 0.5, 5800 + n)
            assert parse_graph6(encode_graph6(g)).graph == g, (chunk, n)


def test_graph6_parses_a_2000_vertex_cycle_in_seconds():
    # the CLI accepts graphs this large and larger, so parsing must scale with the body
    text = encode_graph6(cycle_graph(2000))
    start = time.perf_counter()
    assert parse_graph6(text).graph == cycle_graph(2000)
    assert time.perf_counter() - start < 10.0


def test_graph6_errors():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError, match="body length 1 does not match n=5"):
        parse_graph6("D~")  # truncated body
    with pytest.raises(ParseError, match="body length 3 does not match n=5"):
        parse_graph6("D~{{")  # trailing junk
    with pytest.raises(ParseError, match="invalid graph6 byte at offset 1:"):
        parse_graph6("D\x07{")  # byte out of range
    with pytest.raises(ParseError, match="invalid graph6 byte at offset 2: 'é'"):
        parse_graph6("D~é")  # not ASCII
    with pytest.raises(ParseError, match="size prefix"):
        parse_graph6("~~")  # a long size prefix cut short


def test_edgelist_roundtrip():
    c5 = cycle_graph(5)
    text = encode_edgelist(c5)
    doc = parse_edgelist(text)
    assert doc.graph == c5
    assert encode_edgelist(doc.graph) == text


def test_edgelist_example():
    text = "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
    assert parse_edgelist(text).graph == cycle_graph(5)


def test_edgelist_errors():
    with pytest.raises(ParseError, match="loop"):
        parse_edgelist("3 1\n2 2\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_edgelist("3 2\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="range"):
        parse_edgelist("3 1\n0 3\n")
    with pytest.raises(ParseError, match="header"):
        parse_edgelist("3\n")
    with pytest.raises(ParseError, match="empty"):
        parse_edgelist("# comments only\n\n# no header\n")
    with pytest.raises(ParseError, match="edge lines"):
        parse_edgelist("3 2\n0 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_edgelist("4 2\n0 1\nx y\n")
    with pytest.raises(ParseError, match="vertices"):
        parse_edgelist("300000 0\n")  # more than graph6 can encode
    with pytest.raises(ParseError, match="line 1: number too long"):
        parse_edgelist("1" * 5000 + " 0\n")  # beyond int()'s digit limit
    with pytest.raises(ParseError, match="line 2: number too long"):
        parse_edgelist("3 1\n0 " + "1" * 5000 + "\n")


def test_edgelist_numbers_are_ascii_digits():
    # int() alone would read each of these as a number
    for text in (
        "3 1\n\u0660 \u0661\n",  # Arabic-Indic digits
        "1_1 1\n0 1_0\n",  # underscores
        "3 1\n+0 1\n",  # sign
        "\uff13 1\n0 1\n",  # fullwidth digit in the header
    ):
        with pytest.raises(ParseError, match="non-integer"):
            parse_edgelist(text)
    assert parse_edgelist("3 1\n002 1\n").graph.has_edge(1, 2)


def test_auto_sniff_wants_ascii_digits():
    # a first line of other digits is not an edge-list header
    with pytest.raises(ParseError, match="graph6"):
        parse_graph("\u0663 \u0661\n\u0660 \u0661\n")
    assert parse_graph("3 1\n0 2\n").graph == Graph(3, [(0, 2)])


def test_auto_format_sniffing():
    # each text parses only in the format the sniff picks for it
    assert parse_graph("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n").graph == cycle_graph(5)
    assert parse_graph("D~{").graph == complete_graph(5)
    # the sniff skips the blank and comment lines that parse_edgelist skips
    text = "# c5\n\n  # drawn by hand\n5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
    assert parse_graph(text) == parse_edgelist(text)
    assert parse_graph("\n\n  D~{\n").graph == complete_graph(5)
    # the format is no parameter: it is always read from the text
    with pytest.raises(TypeError):
        parse_graph("D~{", "graph6")


def _graph_or_none(parse, text):
    try:
        return parse(text).graph
    except ParseError:
        return None


@st.composite
def _graph_texts(draw):
    """Texts near both formats: a graph's graph6 value or edge list, with
    blank lines, comments and spaces put in, and maybe one byte changed."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = gnp(rng.randint(0, 9), rng.random(), rng.randint(0, 1000))
    if draw(st.booleans()):
        lines = [rng.choice(["", GRAPH6_HEADER]) + encode_graph6(g)]
        fillers = ["", "  ", "\t"]  # graph6 takes blanks around its value only
    else:
        lines = encode_edgelist(g).splitlines()
        fillers = ["", "  ", "\t", "# c", " # 5 5"]
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(fillers))
    lines = [rng.choice(["", " ", "\t"]) + ln + rng.choice(["", " ", "\r"]) for ln in lines]
    text = "\n".join(lines) + rng.choice(["", "\n"])
    if text and draw(st.booleans()):
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice("0123456789 #\n~?@D_+-\u0660") + text[i + 1:]
    return text


@given(st.one_of(_graph_texts(), st.text(alphabet="0123456789 #\n~?@D", max_size=12)))
@settings(max_examples=400, deadline=None)
def test_sniffing_picks_the_parser_that_accepts(text):
    # no text is read by both parsers, and parse_graph gives the graph of
    # the one that accepts it, or refuses what neither accepts
    accepted = [g for g in (_graph_or_none(parse_graph6, text), _graph_or_none(parse_edgelist, text))
                if g is not None]
    assert len(accepted) <= 1, text
    assert _graph_or_none(parse_graph, text) == (accepted[0] if accepted else None), text
