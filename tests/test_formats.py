import random
import time
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
from indtree.formats import MAX_EDGE_LIST_N, read_graphs

from helpers import random_graph, to_nx


def test_known_encodings():
    assert to_graph6(Graph.from_edge_list(1, [])) == b"@"
    assert to_graph6(Graph.from_edge_list(2, [(0, 1)])) == b"A_"
    assert to_graph6(Graph.from_edge_list(2, [])) == b"A?"
    assert to_graph6(Graph.from_edge_list(3, [(0, 1), (1, 2)])) == b"Bg"


def test_matches_networkx_encoder():
    # every n up to 70 puts the column ends at every offset in a 6-bit
    # group, and crosses the one-byte header's limit of 62
    rng = random.Random(5)
    for n in range(71):
        for p in (0.0, 0.3, 0.7, 1.0):
            g = random_graph(rng, n, p)
            assert to_graph6(g) == nx.to_graph6_bytes(to_nx(g), header=False).strip()


def test_roundtrip_medium_header():
    # n = 63 forces the '~' three-sextet size header
    rng = random.Random(9)
    g = random_graph(rng, 63, 0.1)
    data = to_graph6(g)
    assert data[0:1] == b"~"
    assert from_graph6(data) == g
    assert data == nx.to_graph6_bytes(to_nx(g), header=False).strip()


def test_accepts_str_and_optional_prefix():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert from_graph6("Bg") == g
    assert from_graph6(b">>graph6<<Bg") == g


@pytest.mark.parametrize("prefix", ["", ">>graph6<<"])
def test_read_graphs_takes_graph6_with_or_without_the_header(prefix):
    graphs = read_graphs(f"\n {prefix}Bw\nA_\n")
    assert graphs == [Graph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)]), Graph.from_edge_list(2, [(0, 1)])]


def test_read_graphs_takes_an_edge_list():
    assert read_graphs("\n3 2\n0 1\n1 2\n") == [Graph.from_edge_list(3, [(0, 1), (1, 2)])]


@pytest.mark.parametrize("text", ["", " \n\n"])
def test_read_graphs_rejects_empty_input(text):
    with pytest.raises(GraphError, match="no graphs"):
        read_graphs(text)


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
    with pytest.raises(Graph6ParseError, match="padding") as exc:
        from_graph6(b"A@")  # nonzero padding bits
    assert exc.value.offset == 1  # the last group, which holds the padding
    with pytest.raises(Graph6ParseError):
        from_graph6(b"~")  # bare medium header


@pytest.mark.parametrize("prefix", [b"", b">>graph6<<"])
@pytest.mark.parametrize(
    "body, match, offset",
    [
        (b"B\x00", "outside graph6 range", 1),  # the body's first byte
        (b"B", "truncated", 1),  # one past the end
        (b"B??", "trailing garbage", 2),  # the first byte after the body
        (b"BA", "padding", 1),  # the group that holds the padding bits
        (b"~??B?", "overlong header", 0),  # n = 3 in the medium form
        (b"~~?????B?", "overlong header", 0),  # n = 3 in the long form
    ],
)
def test_error_offsets_count_the_optional_header(prefix, body, match, offset):
    with pytest.raises(Graph6ParseError, match=match) as exc:
        from_graph6(prefix + body)
    assert exc.value.offset == len(prefix) + offset


def test_rejects_non_ascii():
    with pytest.raises(Graph6ParseError) as exc:
        from_graph6("D\u00e9")
    assert exc.value.offset == 1
    with pytest.raises(Graph6ParseError):
        read_graph6_lines(b"D\xfd")
    with pytest.raises(Graph6ParseError):
        read_graph6_lines("Bg\nD\u00e9\n")


@pytest.mark.parametrize("encode", [False, True])
@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("Bg\nBg\n  B\n", "line 3: truncated graph6 string", 3),
        ("Bg\n  Bx\n", "line 2: nonzero padding bit", 3),
        ("Bg\n\n\tB\x01\n", "line 3: byte 1 outside graph6 range 63..126", 2),
    ],
)
def test_line_errors_name_the_line_and_count_its_leading_whitespace(text, message, offset, encode):
    with pytest.raises(Graph6ParseError) as exc:
        read_graph6_lines(text.encode("ascii") if encode else text)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


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


def test_dense_thousand_vertex_roundtrip_is_fast():
    # 249,540 edges; decoding is linear in the body, not O(n) per edge bit
    g = random_graph(random.Random(1), 1000, 0.5)
    data = to_graph6(g)
    start = time.perf_counter()
    h = from_graph6(data)
    elapsed = time.perf_counter() - start
    assert h == g and g.edge_count == 249540
    assert elapsed < 4


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


def test_edge_list_order_limit():
    g = from_edge_list_text(f"{MAX_EDGE_LIST_N} 1\n0 {MAX_EDGE_LIST_N - 1}\n")
    assert MAX_EDGE_LIST_N == 65536 and g.n == 65536 and g.edges() == [(0, 65535)]
    with pytest.raises(GraphError, match="limit"):
        from_edge_list_text(f"{MAX_EDGE_LIST_N + 1} 0\n")
    with pytest.raises(GraphError, match="limit"):
        from_edge_list_text("1000000000 0\n")  # about 16 GB of rows if built


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
