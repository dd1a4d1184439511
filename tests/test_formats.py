import pytest

from oddhole.formats import (
    GRAPH6_HEADER,
    ParseError,
    encode_edgelist,
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


def test_graph6_known_value_roundtrip():
    k5 = complete_graph(5)
    assert encode_graph6(k5) == "D~{"
    doc = parse_graph6("D~{")
    assert doc.graph == k5 and doc.fmt == "graph6"
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
    g = gnp(70, 0.05, 3)
    s = encode_graph6(g)
    assert s[0] == "~"
    assert parse_graph6(s).graph == g


def test_graph6_errors():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("D~")  # truncated body
    with pytest.raises(ParseError):
        parse_graph6("D~{{")  # trailing junk
    with pytest.raises(ParseError):
        parse_graph6("D\x07{")  # byte out of range


def test_edgelist_roundtrip():
    c5 = cycle_graph(5)
    text = encode_edgelist(c5)
    doc = parse_edgelist(text)
    assert doc.graph == c5 and doc.fmt == "edgelist"
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
        parse_graph("\u0663 \u0661\n\u0660 \u0661\n", "auto")
    assert parse_graph("3 1\n0 2\n", "auto").fmt == "edgelist"


def test_auto_format_sniffing():
    assert parse_graph("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", "auto").fmt == "edgelist"
    assert parse_graph("D~{", "auto").fmt == "graph6"
    with pytest.raises(ParseError):
        parse_graph("D~{", "nope")
