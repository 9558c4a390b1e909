"""graph6 text codec for small graphs.

The format packs the column-major upper triangle of the adjacency matrix
into 6-bit groups offset by 63, after a 1-byte (n <= 62) or 4-byte
(63 <= n <= 258047) vertex-count header.  Both directions work on
``str``, one character per graph6 byte.  Decoding is strict: characters
outside the graph6 range, a 4-byte header for n <= 62, wrong body length
and nonzero padding all raise :class:`Graph6Error` carrying the offending
byte offset, so each graph has one accepted encoding (trailing newlines
aside).
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph, UnsupportedSizeError


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~"] + [chr(63 + (n >> s & 63)) for s in (12, 6, 0)]
    acc = 0
    width = 0
    for m in range(1, n):
        col = g.adj[m]
        for i in range(m):
            acc = (acc << 1) | (col >> i & 1)
            width += 1
            if width == 6:
                out.append(chr(63 + acc))
                acc = 0
                width = 0
    if width:
        out.append(chr(63 + (acc << (6 - width))))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    data = text.rstrip("\n")
    if not data:
        raise Graph6Error("empty input", 0)
    vals = []
    for off, ch in enumerate(data):
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise Graph6Error(f"byte {ch!r} outside graph6 range", off)
        vals.append(code)

    if data[0] != "~":
        n = vals[0]
        body_start = 1
    else:
        if len(vals) >= 2 and data[1] == "~":
            raise Graph6Error("8-byte vertex counts are not supported", 1)
        if len(vals) < 4:
            raise Graph6Error("truncated 4-byte vertex count", len(data))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        if n <= 62:
            raise Graph6Error(f"4-byte vertex count for n={n}, which has a 1-byte header", 1)
        body_start = 4
    if n == 0:
        raise Graph6Error("graph6 string encodes an empty graph", 0)
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"graph6 string encodes n={n}, cap is {MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(vals) - body_start < nbytes:
        raise Graph6Error("graph6 body too short", len(data))
    if len(vals) - body_start > nbytes:
        raise Graph6Error("trailing bytes after graph6 body", body_start + nbytes)

    rows = [0] * n
    pos = 0
    for m in range(1, n):
        for i in range(m):
            val = vals[body_start + pos // 6]
            if val >> (5 - pos % 6) & 1:
                rows[i] |= 1 << m
                rows[m] |= 1 << i
            pos += 1
    if pos % 6:
        pad = vals[body_start + pos // 6] & ((1 << (6 - pos % 6)) - 1)
        if pad:
            raise Graph6Error("nonzero padding bits", body_start + pos // 6)
    return Graph._from_rows(tuple(rows))
