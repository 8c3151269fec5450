import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indtree import (
    Graph,
    Graph6ParseError,
    GraphError,
    from_edge_list_text,
    from_graph6,
    read_graph6_lines,
    to_edge_list_text,
    to_graph6,
)


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def test_known_encodings():
    assert to_graph6(Graph.from_edge_list(1, [])) == b"@"
    assert to_graph6(Graph.from_edge_list(2, [(0, 1)])) == b"A_"
    assert to_graph6(Graph.from_edge_list(2, [])) == b"A?"
    assert to_graph6(Graph.from_edge_list(3, [(0, 1), (1, 2)])) == b"Bg"


def test_matches_networkx_encoder():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(0, 31)
        g = random_graph(rng, n, 0.3)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        assert to_graph6(g) == nx.to_graph6_bytes(G, header=False).strip()


def test_roundtrip_medium_header():
    # n = 63 forces the '~' three-sextet size header
    rng = random.Random(9)
    g = random_graph(rng, 63, 0.1)
    data = to_graph6(g)
    assert data[0:1] == b"~"
    assert from_graph6(data) == g
    G = nx.Graph()
    G.add_nodes_from(range(63))
    G.add_edges_from(g.edges())
    assert data == nx.to_graph6_bytes(G, header=False).strip()


def test_accepts_str_and_optional_prefix():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert from_graph6("Bg") == g
    assert from_graph6(b">>graph6<<Bg") == g


def test_read_graph6_lines():
    graphs = list(read_graph6_lines("@\n\nBg\nA_\n"))
    assert [g.n for g in graphs] == [1, 3, 2]


def test_rejects_garbage():
    with pytest.raises(Graph6ParseError):
        from_graph6(b"")
    err = None
    try:
        from_graph6(b"garbage!!")
    except Graph6ParseError as e:
        err = e
    assert err is not None and err.offset == 7  # first byte below 63
    with pytest.raises(Graph6ParseError):
        from_graph6(b"B")  # truncated body
    with pytest.raises(Graph6ParseError):
        from_graph6(b"BgX")  # trailing garbage
    with pytest.raises(Graph6ParseError):
        from_graph6(b"A@")  # nonzero padding bits
    with pytest.raises(Graph6ParseError):
        from_graph6(b"~")  # bare medium header


def test_rejects_non_ascii():
    with pytest.raises(Graph6ParseError) as exc:
        from_graph6("D\u00e9")
    assert exc.value.offset == 1
    with pytest.raises(Graph6ParseError):
        read_graph6_lines(b"D\xfd")
    with pytest.raises(Graph6ParseError):
        read_graph6_lines("Bg\nD\u00e9\n")


def test_truncation_is_found_before_rows_are_allocated():
    # a long header claiming 2^20 vertices over a two-byte body; rows for
    # that n would take megabytes
    n = 1 << 20
    head = b"~~" + bytes(63 + (n >> s & 63) for s in (30, 24, 18, 12, 6, 0))
    tracemalloc.start()
    try:
        with pytest.raises(Graph6ParseError, match="truncated"):
            from_graph6(head + b"??")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_rejects_overlong_header():
    # n=5 written in the medium '~' form must not be accepted
    body = to_graph6(Graph.from_edge_list(5, [(0, 1)]))[1:]
    overlong = b"~" + bytes([63, 63, 63 + 5]) + body
    with pytest.raises(Graph6ParseError):
        from_graph6(overlong)


def test_roundtrip_beyond_64_vertices():
    # bitmask rows are plain ints, so nothing special happens past one word
    rng = random.Random(31)
    g = random_graph(rng, 100, 0.05)
    assert from_graph6(to_graph6(g)) == g


def test_roundtrip_random():
    rng = random.Random(123)
    for _ in range(500):
        n = rng.randrange(0, 31)
        g = random_graph(rng, n, rng.random())
        assert from_graph6(to_graph6(g)) == g


def test_edge_list_text_roundtrip():
    rng = random.Random(77)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 15), 0.3)
        assert from_edge_list_text(to_edge_list_text(g)) == g


def test_edge_list_text_format():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert to_edge_list_text(g) == "3 2\n0 1\n1 2\n"


def test_edge_list_text_rejects_bad_input():
    with pytest.raises(GraphError):
        from_edge_list_text("")
    with pytest.raises(GraphError):
        from_edge_list_text("3\n")  # header needs two fields
    with pytest.raises(GraphError):
        from_edge_list_text("3 2\n0 1\n")  # fewer edges than declared
    with pytest.raises(GraphError):
        from_edge_list_text("3 1\n0 1\n1 2\n")  # more edges than declared
    with pytest.raises(GraphError):
        from_edge_list_text("3 1\n0 x\n")
    with pytest.raises(GraphError):
        from_edge_list_text("3 1\n0 7\n")


def test_edge_list_text_takes_ascii_digits_only():
    # int() alone accepts each of these tokens
    for text in (
        "\u0663 1\n\u0660 \u0661\n",  # Arabic-Indic digits
        "3 1\n0 \u0661\n",
        "3 1\n0 \u00b2\n",  # superscript two
        "3 1\n+0 1\n",
        "3 1\n0 1_0\n",
        "-3 0\n",
        "3 1\n0 -1\n",
        "3 1\n0 " + "1" * 5000 + "\n",  # past int()'s digit limit
    ):
        with pytest.raises(GraphError):
            from_edge_list_text(text)
    assert from_edge_list_text("3 1\n00 2\n") == Graph.from_edge_list(3, [(0, 2)])


# headers that parse but cannot be allocated: past the index size, and past memory
HUGE_HEADERS = ("9223372036854775808 0\n", "1000000000000000000 0\n")


@pytest.mark.parametrize("text", HUGE_HEADERS)
def test_edge_list_header_too_large_to_allocate(text):
    with pytest.raises(GraphError):
        from_edge_list_text(text)


# raw bytes, and bytes from graph6's alphabet with line breaks, which reach
# past the first byte check
GRAPH6_INPUTS = st.binary(max_size=80) | st.lists(
    st.integers(63, 126) | st.just(10), max_size=80
).map(bytes)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(GRAPH6_INPUTS)
@example(b"~~~~~~~~")  # the largest long header over an empty body
@example(b"~?~~")
def test_graph6_parsers_give_graphs_or_parse_errors(data):
    try:
        assert isinstance(from_graph6(data), Graph)
    except Graph6ParseError:
        pass
    try:
        assert all(isinstance(g, Graph) for g in read_graph6_lines(data))
    except Graph6ParseError:
        pass


# arbitrary text, and lines of zero to three tokens that are small numbers or
# short arbitrary strings, which reach past the header
EDGE_LIST_INPUTS = st.text() | st.lists(
    st.lists(st.integers(0, 40).map(str) | st.text(max_size=3), max_size=3).map(" ".join)
).map("\n".join)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(EDGE_LIST_INPUTS)
@example(HUGE_HEADERS[0])
@example(HUGE_HEADERS[1])
def test_edge_list_parser_gives_graphs_or_graph_errors(text):
    try:
        assert isinstance(from_edge_list_text(text), Graph)
    except GraphError:
        pass
