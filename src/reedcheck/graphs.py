"""Bit-row graphs, the graph6 codec, and exact isomorphism utilities.

A :class:`Graph` stores one integer bitmask per vertex: bit ``w`` of row
``v`` is set iff ``vw`` is an edge.  Graphs are immutable values; every
operation returns a fresh instance, so they are safe to share between
worker processes.  Vertex counts are capped at 64 to keep each row in a
single machine word.  The public constructors check that the rows are
in range, loop-free and symmetric.  ``Graph._of`` skips the checks and
is used only where that holds by construction: the decoder, the
complement, induced subgraphs, canonical forms and enumerated children.

The graph6 decoder checks a line's length byte and size first, then its
data bytes' range with one ``min``/``max`` test (scanning for the first
bad byte only when that fails).  It reads the body as one integer, six
bits per byte through a ``str.translate`` table, tests the padding with
one mask and takes column j as a j-bit slice, setting two row bits per
edge.

Canonical labeling is an exhaustive minimum-bitstring search (no external
labeler), exact for any size but intended for graphs of at most ~12
vertices.  The bitstring order matches graph6's column order, which is
what makes orderly generation in :mod:`reedcheck.corpus` correct: the
prefix of a minimal string is itself minimal.  One depth-first
branch-and-bound over vertex orders serves the canonicity test, the
canonical form and the isomorphism test.  It works on bitsets: each node
narrows its candidate mask to the vertices with the least next column in
one mask operation per placed vertex, and a vertex is no candidate while
a lower twin of it is unplaced.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

MAX_VERTICES = 64

_G6_HEADER = ">>graph6<<"
# graph6 data byte -> its six bits, most significant first
_G6_BITS = str.maketrans({chr(63 + k): format(k, "06b") for k in range(64)})


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the 0-based byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        adj = tuple(adj)
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits set beyond vertex {n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(n):
            for w in range(v + 1, n):
                if ((adj[v] >> w) & 1) != ((adj[w] >> v) & 1):
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
        self.n = n
        self.adj = adj

    @classmethod
    def _of(cls, n: int, rows: Sequence[int]) -> "Graph":
        """Unchecked constructor, for rows that are symmetric, loop-free and
        within ``0..n-1`` by construction (never for outside input)."""
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for v, w in edges:
            if v == w:
                raise ValueError(f"loop at vertex {v}")
            rows[v] |= 1 << w
            rows[w] |= 1 << v
        return cls(n, rows)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(v, v + 1) for v in range(n - 1)])

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, v: int, w: int) -> bool:
        return bool((self.adj[v] >> w) & 1)

    def edges(self) -> Iterable[tuple[int, int]]:
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            w = v + 1
            while row:
                if row & 1:
                    yield (v, w)
                row >>= 1
                w += 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"

    def __reduce__(self):
        return (Graph, (self.n, self.adj))


def iter_bits(mask: int) -> Iterable[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complement(g: Graph) -> Graph:
    """Edge vw present iff v != w and vw absent in ``g``."""
    full = (1 << g.n) - 1
    return Graph._of(g.n, [full ^ row ^ (1 << v) for v, row in enumerate(g.adj)])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabeled 0.. in index order."""
    keep = sorted(set(vertices))
    if keep and not 0 <= keep[0] <= keep[-1] < g.n:
        raise ValueError(f"vertex set not within 0..{g.n - 1}")
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for w in iter_bits(g.adj[v]):
            if w in pos:
                rows[pos[v]] |= 1 << pos[w]
    return Graph._of(len(keep), rows)


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

def graph_to_graph6(g: Graph) -> str:
    """Encode as one-line graph6: length byte n+63, then upper-triangle bits
    in column order x(0,1), x(0,2), x(1,2), x(0,3), ... in 6-bit groups."""
    if g.n > 62:
        raise Graph6Error(f"graph6 single-byte sizes stop at 62 vertices, got {g.n}")
    out = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.adj[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def graph_from_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string (optional ``>>graph6<<`` header)."""
    s = text.rstrip("\r\n")
    base = 0
    if s.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        s = s[base:]
    if not s:
        raise Graph6Error("missing length byte", offset=base)
    c0 = ord(s[0])
    if c0 == 126:
        raise Graph6Error("multi-byte vertex counts (n > 62) unsupported", offset=base)
    if not 63 <= c0 <= 125:
        raise Graph6Error(f"bad length byte {s[0]!r}", offset=base)
    n = c0 - 63
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated: expected {need} data bytes, found {len(body)}",
            offset=base + 1 + len(body),
        )
    if len(body) > need:
        raise Graph6Error("trailing garbage after graph data", offset=base + 1 + need)
    if not body:
        return Graph._of(n, [0] * n)
    if min(body) < "?" or max(body) > "~":
        idx, ch = next((i, ch) for i, ch in enumerate(body) if not "?" <= ch <= "~")
        raise Graph6Error(f"character {ch!r} out of graph6 range", offset=base + 1 + idx)
    bits = int(body.translate(_G6_BITS), 2)
    pad = 6 * need - npairs  # fewer than 6, so all in the last byte
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", offset=base + need)
    bits >>= pad
    rows = [0] * n
    # the columns from the last: column j is the low j bits, vertex 0 highest
    for j in range(n - 1, 0, -1):
        col = bits & ((1 << j) - 1)
        bits >>= j
        while col:
            low = col & -col
            i = j - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            col ^= low
    return Graph._of(n, rows)


# ---------------------------------------------------------------------------
# canonical labeling (exhaustive minimum-bitstring, graph6 column order)
# ---------------------------------------------------------------------------

def _column_bits(adj: Sequence[int], n: int) -> list[int]:
    # column j = adjacency of j to 0..j-1, vertex 0 in the most significant bit
    cols = []
    for j in range(n):
        b = 0
        for i in range(j):
            b = (b << 1) | ((adj[i] >> j) & 1)
        cols.append(b)
    return cols


def _least_order(adj: Sequence[int], n: int, stop: bool) -> tuple[int, ...] | None:
    """Vertex order with the least column string, by depth-first branch-and-bound.

    ``bound`` holds the least columns found so far, starting from those of
    the identity order.  At each node the candidates are narrowed, one
    placed vertex at a time, to those with the least next column: the
    non-neighbors of that vertex if any remain, else its neighbors.  That
    column is compared with the bound once.  A larger one ends the node; a
    smaller one either ends the search (``stop``: the identity order is not
    least, so ``None`` is returned) or lowers the bound at that depth and
    unsets the deeper entries.  The tied vertices are then placed in turn,
    lowest first.

    Twin rule: v is a candidate only while no lower twin w (N(v) - w ==
    N(w) - v) is unplaced.  Swapping v and w is then an automorphism fixing
    the placed prefix, so w's subtree holds the same column strings as v's.
    Twins form classes (a vertex cannot have both an adjacent and a
    non-adjacent twin), so placing v frees just the next vertex of its class.
    """
    # false twins share N(v), true twins N[v]; the two keys never collide
    last: dict[int, int] = {}
    nxt = [0] * n
    avail = 0
    for v in range(n):
        for key in (adj[v], adj[v] | 1 << v):
            if key in last:
                nxt[last[key]] = 1 << v
                break
        else:
            avail |= 1 << v
        last[adj[v]] = last[adj[v] | 1 << v] = v
    bound = _column_bits(adj, n)
    unset = 1 << n  # above every column
    order: list[int] = []
    best: tuple[int, ...] = ()

    def search(depth: int, avail: int) -> bool:
        nonlocal best
        if depth == n:
            best = tuple(order)
            return True
        tied = avail
        b = 0
        for p in order:
            off = tied & ~adj[p]
            if off:
                tied = off
                b <<= 1
            else:
                tied &= adj[p]
                b = (b << 1) | 1
        if b > bound[depth]:
            return True
        if b < bound[depth]:
            if stop:
                return False
            bound[depth] = b
            bound[depth + 1:] = [unset] * (n - depth - 1)
        while tied:
            low = tied & -tied
            v = low.bit_length() - 1
            order.append(v)
            ok = search(depth + 1, avail ^ low | nxt[v])
            order.pop()
            if not ok:
                return False
            tied ^= low
        return True

    return best if search(0, avail) else None


def is_min_labeled(adj: Sequence[int], n: int) -> bool:
    """True iff no relabeling gives a lexicographically smaller column string.

    This is the rejection test behind orderly generation: a graph is kept
    iff its current labeling already is the canonical one.
    """
    return _least_order(adj, n, stop=True) is not None


def canonical_form(g: Graph) -> Graph:
    """Relabeling of ``g`` with the minimum column bitstring.

    Exact for every size.  The twin rule keeps graphs with large twin
    classes (empty, complete, cocktail-party) fast.  Other symmetric graphs
    cost a search over their tied orders: a few milliseconds in CPython up
    to ~12 vertices, but about 0.6 s for C16 and 3 s for the 20-vertex
    dodecahedron.
    """
    adj = g.adj
    perm = _least_order(adj, g.n, stop=False)
    return Graph._of(g.n, [sum(1 << j for j, w in enumerate(perm) if (adj[v] >> w) & 1)
                           for v in perm])


def canonical_code(g: Graph) -> str:
    """Total-order key equal across all relabelings of ``g``.

    The key is the graph6 encoding of the canonical form, so equal codes
    mean isomorphic graphs and codes sort by (n, edge bitstring).
    """
    return graph_to_graph6(canonical_form(g))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test: equal canonical forms."""
    return a.n == b.n and a.m == b.m and canonical_form(a) == canonical_form(b)
