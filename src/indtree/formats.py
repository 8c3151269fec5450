"""graph6 and edge-list serialization.

graph6 packs the upper triangle of the adjacency matrix in column order
(x01, x02, x12, x03, ...) into big-endian 6-bit groups, each offset by 63 so
the output is printable ASCII in 63..126. The vertex count is a one-byte
header for n <= 62, and a "~"-prefixed multi-byte header above that.

The edge-list text format is "n m" on the first line followed by m lines
"u v", 0-indexed, with n <= MAX_EDGE_LIST_N.
"""

from __future__ import annotations

from .graph import Graph, GraphError

_HEADER_PREFIX = b">>graph6<<"

# header capacity bounds for the three N(n) encodings
_N_SHORT_MAX = 62
_N_MEDIUM_MAX = 258047
_N_LONG_MAX = 68719476735

# _REVERSED[x] is the 6-bit x with its bits in reverse order
_REVERSED = bytes(int(f"{x:06b}"[::-1], 2) for x in range(64))

# rows are n-bit ints, so a graph can take n * n / 8 bytes: 512 MiB here
MAX_EDGE_LIST_N = 1 << 16


class Graph6ParseError(GraphError):
    """Malformed graph6 input; ``offset`` is the first offending byte index
    and ``reason`` the message without it."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.reason = message
        self.offset = offset


def to_graph6(g: Graph) -> bytes:
    """Encode a graph as one graph6 byte string (no trailing newline)."""
    n = g.n
    if n <= _N_SHORT_MAX:
        head = bytes([63 + n])
    elif n <= _N_MEDIUM_MAX:
        head = bytes([126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)])
    elif n <= _N_LONG_MAX:
        head = bytes([126, 126] + [63 + (n >> s & 63) for s in (30, 24, 18, 12, 6, 0)])
    else:
        raise GraphError(f"graph6 cannot encode n={n}")
    adj = g.adj
    out = bytearray(head)
    group = 0  # the bits of the group being filled, first bit highest
    filled = 0
    for j in range(1, n):
        # column j is bits 0..j-1 of row j, lowest first: taken six at a
        # time and reversed, so the first bit comes out highest
        col = adj[j]
        i = 0
        while j - i > 6:  # six bits close the group and leave ``filled`` bits over
            group = group << 6 | _REVERSED[col >> i & 63]
            out.append(63 + (group >> filled))
            group &= (1 << filled) - 1
            i += 6
        take = j - i  # 1..6; the shift drops the reversed bits of rows >= j
        group = group << take | _REVERSED[col >> i & 63] >> 6 - take
        filled += take
        if filled >= 6:
            filled -= 6
            out.append(63 + (group >> filled))
            group &= (1 << filled) - 1
    if filled:
        out.append(63 + (group << (6 - filled)))
    return bytes(out)


def from_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 byte string into a Graph.

    Rejects malformed headers, bytes outside 63..126, truncation, trailing
    garbage, and nonzero padding bits, reporting the byte offset into
    ``data`` as given, ">>graph6<<" header included.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError("non-ASCII character in graph6 string", exc.start) from None
    start = len(_HEADER_PREFIX) if data.startswith(_HEADER_PREFIX) else 0
    if len(data) == start:
        raise Graph6ParseError("empty graph6 string", start)

    def sextet(i: int) -> int:
        if i >= len(data):
            raise Graph6ParseError("truncated graph6 string", len(data))
        b = data[i]
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"byte {b} outside graph6 range 63..126", i)
        return b - 63

    if data[start] != 126:
        n = sextet(start)
        body = start + 1
    elif len(data) > start + 1 and data[start + 1] != 126:
        n = 0
        for i in range(start + 1, start + 4):
            n = n << 6 | sextet(i)
        if n <= _N_SHORT_MAX:
            raise Graph6ParseError(f"overlong header for n={n}", start)
        body = start + 4
    else:
        n = 0
        for i in range(start + 2, start + 8):
            n = n << 6 | sextet(i)
        if n <= _N_MEDIUM_MAX:
            raise Graph6ParseError(f"overlong header for n={n}", start)
        body = start + 8

    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(data) > body + ngroups:
        raise Graph6ParseError("trailing garbage after graph6 data", body + ngroups)
    # the body is read in full before any row is allocated, so a header
    # claiming a huge n over a short body costs nothing
    groups = [sextet(i) for i in range(body, len(data))]
    if len(groups) < ngroups:
        raise Graph6ParseError("truncated graph6 string", len(data))

    rows = [0] * n
    group = 0
    left = 0  # bits of group not yet read
    it = iter(groups)
    for j in range(1, n):
        for i in range(j):
            if not left:
                group = next(it)
                left = 6
            left -= 1
            if group >> left & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    if group & ((1 << left) - 1):
        raise Graph6ParseError("nonzero padding bit", body + ngroups - 1)
    return Graph(n, rows)


def read_graph6_lines(text: bytes | str) -> list[Graph]:
    """Parse one graph per nonempty line.

    A parse error names its line: the message starts ``line K: ``, K counting
    from 1 over ``text.splitlines()`` with blank lines included, and the
    offset counts into that line as given, leading whitespace included.
    """
    graphs = []
    for k, line in enumerate(text.splitlines(), 1):
        data = line.strip()
        if data:
            try:
                graphs.append(from_graph6(data))
            except Graph6ParseError as exc:
                lead = len(line) - len(line.lstrip())
                raise Graph6ParseError(f"line {k}: {exc.reason}", lead + exc.offset) from None
    return graphs


def read_graphs(text: str) -> list[Graph]:
    """Parse graph6 lines or one edge-list text, whichever ``text`` holds.

    graph6 bytes all sit in 63..126 and the optional ">>graph6<<" header
    starts with '>' (62), so an edge-list header's leading digit (< 62)
    cannot be mistaken for either.
    """
    first = text.lstrip()[:1]
    if not first:
        raise GraphError("no graphs in the input")
    if ord(first) >= 62:
        return read_graph6_lines(text)
    return [from_edge_list_text(text)]


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the "n m" / "u v" edge-list format.

    A header with n > MAX_EDGE_LIST_N raises GraphError before any row is
    built.
    """
    rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
    if not rows:
        raise GraphError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphError(f"expected 'n m' on the first line, got {rows[0]!r}")
    n, m = _naturals(head, f"non-integer header {rows[0]!r}")
    if n > MAX_EDGE_LIST_N:
        raise GraphError(f"edge-list order {n} exceeds the limit {MAX_EDGE_LIST_N}")
    if len(rows) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(rows) - 1} lines")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"expected 'u v', got {ln!r}")
        u, v = _naturals(parts, f"non-integer edge line {ln!r}")
        edges.append((u, v))
    return Graph.from_edge_list(n, edges)


def _naturals(tokens: list[str], error: str) -> list[int]:
    """Tokens of ASCII digits as ints; ``int`` alone would also take signs,
    underscores and the digits of other scripts."""
    if all(t.isascii() and t.isdigit() for t in tokens):
        try:
            return [int(t) for t in tokens]
        except ValueError:  # more digits than int() converts
            pass
    raise GraphError(error)
