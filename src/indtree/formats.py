"""graph6 and edge-list serialization.

graph6 packs the upper triangle of the adjacency matrix in column order
(x01, x02, x12, x03, ...) into big-endian 6-bit groups, each offset by 63 so
the output is printable ASCII in 63..126. The vertex count is a one-byte
header for n <= 62, and a "~"-prefixed multi-byte header above that.

The edge-list text format is "n m" on the first line followed by m lines
"u v", 0-indexed.
"""

from __future__ import annotations

from .graph import Graph, GraphError

_HEADER_PREFIX = b">>graph6<<"

# header capacity bounds for the three N(n) encodings
_N_SHORT_MAX = 62
_N_MEDIUM_MAX = 258047
_N_LONG_MAX = 68719476735


class Graph6ParseError(GraphError):
    """Malformed graph6 input; ``offset`` is the first offending byte index."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
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
    group = 0
    filled = 0
    for j in range(1, n):
        col = adj[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            filled += 1
            if filled == 6:
                out.append(63 + group)
                group = 0
                filled = 0
    if filled:
        out.append(63 + (group << (6 - filled)))
    return bytes(out)


def from_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 byte string into a Graph.

    Rejects malformed headers, bytes outside 63..126, truncation, trailing
    garbage, and nonzero padding bits, reporting the byte offset.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError("non-ASCII character in graph6 string", exc.start) from None
    if data.startswith(_HEADER_PREFIX):
        data = data[len(_HEADER_PREFIX):]
    if not data:
        raise Graph6ParseError("empty graph6 string", 0)

    def sextet(i: int) -> int:
        if i >= len(data):
            raise Graph6ParseError("truncated graph6 string", len(data))
        b = data[i]
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"byte {b} outside graph6 range 63..126", i)
        return b - 63

    if data[0] != 126:
        n = sextet(0)
        body = 1
    elif len(data) >= 2 and data[1] != 126:
        n = 0
        for i in range(1, 4):
            n = n << 6 | sextet(i)
        if n <= _N_SHORT_MAX:
            raise Graph6ParseError(f"overlong header for n={n}", 0)
        body = 4
    else:
        n = 0
        for i in range(2, 8):
            n = n << 6 | sextet(i)
        if n <= _N_MEDIUM_MAX:
            raise Graph6ParseError(f"overlong header for n={n}", 0)
        body = 8

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
    bit = 0
    for k, group in enumerate(groups):
        for t in range(5, -1, -1):
            val = group >> t & 1
            if bit >= nbits:
                if val:
                    raise Graph6ParseError("nonzero padding bit", body + k)
                continue
            if val:
                i, j = _triangle_position(bit)
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return Graph(n, rows)


def _triangle_position(bit: int) -> tuple[int, int]:
    """Map a column-order upper-triangle bit index to its (i, j) pair, i < j."""
    j = 1
    while bit >= j:
        bit -= j
        j += 1
    return bit, j


def read_graph6_lines(text: bytes | str) -> list[Graph]:
    """Parse one graph per nonempty line."""
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            graphs.append(from_graph6(line))
    return graphs


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the "n m" / "u v" edge-list format."""
    rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
    if not rows:
        raise GraphError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphError(f"expected 'n m' on the first line, got {rows[0]!r}")
    n, m = _naturals(head, f"non-integer header {rows[0]!r}")
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
