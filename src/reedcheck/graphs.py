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
vertices.  One depth-first branch-and-bound over vertex orders serves the
canonicity test, the canonical form and the isomorphism test.  It works
on bitsets: one narrowing step gives each node the vertices with the
least next column, in one mask operation per placed vertex, and a vertex
is skipped while a lower twin of it is unplaced.

Orderly extension builds the graphs on n vertices from those on n-1:
every canonical (n-1)-vertex graph is extended by one vertex with each of
the 2^(n-1) possible neighborhoods, and a candidate is kept iff its
labeling already is the canonical one.  Because the bitstring uses graph6
column order, the first n-1 vertices of a canonical labeling always form
a canonical labeling themselves, so each isomorphism class is produced
exactly once and the kept graphs double as their own canonical codes.
A parent's candidates are decided together, in one walk of the parent's
own tied tree with sets of new columns held as bit masks; the walk takes
the search's narrowing step, and its twin rule keeps twins apart only for
the columns that split them.  Most of a child's tree leaves the new
vertex out and so is a node of the parent's tree; the walk compares the
new vertex's column with the bound there for every candidate at once.
It rejects a candidate as soon as one node shows a smaller string, and
at the leaves it keeps only the least column of each orbit under the
parent's automorphisms.  A surviving child then runs the canonicity test
only below the nodes where the walk placed the new vertex.
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
        # an unpickled graph was built or decoded, so checked, before pickling
        return (Graph._of, (self.n, self.adj))


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


def _twins(adj: Sequence[int]) -> list[int]:
    """The lower twins of each vertex v: the w < v with N(v) - w == N(w) - v."""
    # false twins share N(v), true twins N[v]; the two keys never collide
    group: dict[int, int] = {}
    for v, row in enumerate(adj):
        bit = 1 << v
        group[row] = group.get(row, 0) | bit
        group[row | bit] = group.get(row | bit, 0) | bit
    return [(group[row] | group[row | 1 << v]) & ((1 << v) - 1) for v, row in enumerate(adj)]


def _narrow(adj: Sequence[int], order: Iterable[int], tied: int) -> tuple[int, int]:
    """The vertices of ``tied`` whose column after ``order`` is least, and that column.

    One placed vertex at a time, the candidates narrow to its non-neighbors
    if any remain, else to its neighbors, and the column gains a 0 or a 1.
    """
    column = 0
    for p in order:
        off = tied & ~adj[p]
        if off:
            tied = off
            column <<= 1
        else:
            tied &= adj[p]
            column = (column << 1) | 1
    return tied, column


def _least_order(adj: Sequence[int], n: int, stop: bool, bound: Sequence[int] | None = None,
                 starts: Iterable[Sequence[int]] = ((),)) -> tuple[int, ...] | None:
    """Vertex order with the least column string, by depth-first branch-and-bound.

    ``bound`` holds the least columns found so far, starting from those of
    the identity order; a caller that has them passes them in.  At each
    node the unplaced vertices are narrowed to those with the least next
    column (:func:`_narrow`).  That column is compared with the bound once.
    A larger one ends the node; a smaller one either ends the search
    (``stop``: the identity order is not least, so ``None`` is returned) or
    lowers the bound at that depth and unsets the deeper entries.  The tied
    vertices are then placed in turn, lowest first.

    A node narrows from the root only when its parent tied one vertex.
    Otherwise the parent's other tied vertices are the node's own narrowing
    through the parent's order, since every step kept them on the side it
    kept the placed vertex, and a step by the placed vertex finishes it.

    The search runs below each prefix of ``starts`` in turn; by default
    that is the root alone.  With ``stop``, a caller that has already
    decided every node outside the subtrees of its starts passes only those
    starts, each of which must tie the bound at every depth it covers.

    Twin rule: a tied vertex v is skipped while a lower twin w (N(v) - w ==
    N(w) - v) is unplaced.  Swapping v and w is then an automorphism fixing
    the placed prefix, so w's subtree holds the same column strings as v's.
    That holds at any node, whatever prefix led there, and unplaced twins
    tie together, so w is searched at the same node.
    """
    bound = _column_bits(adj, n) if bound is None else list(bound)
    unset = 1 << n  # above every column
    lower = _twins(adj)
    order: list[int] = []
    best: tuple[int, ...] = tuple(range(n))

    def search(placed: int, rest: int, b: int) -> bool:
        # rest: the other vertices the parent tied with the one just placed, b their column
        nonlocal best
        depth = len(order)
        if depth == n:
            best = tuple(order)
            return True
        if rest:
            tied, c = _narrow(adj, order[-1:], rest)
            b = (b << 1) | c
        else:
            tied, b = _narrow(adj, order, ((1 << n) - 1) ^ placed)
        if b > bound[depth]:
            return True
        if b < bound[depth]:
            if stop:
                return False
            bound[depth] = b
            bound[depth + 1:] = [unset] * (n - depth - 1)
        cell = tied
        while tied:
            low = tied & -tied
            v = low.bit_length() - 1
            if not lower[v] & ~placed:
                order.append(v)
                ok = search(placed | low, cell ^ low, b)
                order.pop()
                if not ok:
                    return False
            tied ^= low
        return True

    for start in starts:
        order[:] = start
        if not search(sum(1 << v for v in start), 0, 0):
            return None
    return best


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
    to ~12 vertices, but about 0.6 s for C16 and 3.5 s for the 20-vertex
    dodecahedron (CPython 3.11, one core of a shared x86-64 machine).  The
    narrowing step is one function call per search node; on random graphs
    with at most 11 vertices that call is about a tenth of the time.
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


# ---------------------------------------------------------------------------
# orderly extension (one walk of a parent's tied tree decides its children)
# ---------------------------------------------------------------------------

def _column_sets(m: int) -> list[int]:
    """``holds[v]`` for each v < m: the set of new columns whose neighborhood
    holds v.

    A new column ``col`` is an m-bit number, vertex 0 in its most
    significant bit, as graph6 reads it; a set of columns is a 2^m-bit mask.
    """
    return [sum(1 << col for col in range(1 << m) if (col >> (m - 1 - v)) & 1)
            for v in range(m)]


def _children(parent: Graph, holds: list[int]):
    """The canonical children of the canonical graph ``parent``, in the order
    of their new column, which is graph6 order.

    One walk of the parent's tied tree decides most columns at once
    (:func:`_surviving_columns`).  Each column that survives it gets its own
    stop-mode search, started only from the nodes the walk left to it.
    """
    m = parent.n
    adj = parent.adj
    bound = _column_bits(adj, m)
    for col, starts in _surviving_columns(parent, bound, holds):
        rows = [adj[i] | ((col >> (m - 1 - i)) & 1) << m for i in range(m)]
        rows.append(int(f"{col:0{m}b}"[::-1], 2))  # vertex 0 in the low bit
        if _least_order(rows, m + 1, True, bound + [col], starts) is not None:
            yield Graph._of(m + 1, rows)


def _surviving_columns(parent: Graph, bound: list[int], holds: list[int]):
    """The new columns of ``parent`` that survive one walk of its tied tree,
    ascending, each with the prefixes its child's search must still start from.

    A child's vertex orders either leave the new vertex x out of their
    prefix, or place it at some depth j after a prefix of parent vertices.
    The nodes of the first kind tie the bound exactly where they are nodes
    of the parent's own stop-mode tree (``bound`` is the parent's columns,
    and no parent column beats them), so the walk visits each once for all
    the columns, narrowing as :func:`_least_order` does.  At each node it
    compares x's column there, the bits of col at the prefix's vertices,
    with the bound at depth j for every column at once, in masks over the
    column space: the columns where it is smaller are rejected, and those
    where it ties record the prefix plus x as a start.  At a leaf x comes
    last; a column whose permuted self is smaller than itself is rejected,
    which leaves one column of each orbit under the parent's automorphisms.

    The walk goes down the identity order first.  At depth v there it
    rejects every column whose top v bits fall below the parent's column v,
    where swapping v with x would give a smaller string; so every column
    starts alive.

    ``rel`` holds the columns for which a subtree still matters.  Parent
    twins v and w stay twins in the child unless the new column splits
    them, so the walk descends into v while a lower twin w is unplaced only
    for the columns that hold exactly one of v and w.
    """
    m = parent.n
    adj = parent.adj
    full = (1 << (1 << m)) - 1
    lacks = [full ^ h for h in holds]
    lower = _twins(adj)
    alive = full
    entries: list[tuple[tuple[int, ...], int]] = []

    def walk(order: tuple[int, ...], placed: int, rel: int) -> None:
        nonlocal alive
        depth = len(order)
        lt = 0
        eq = rel
        if depth == m:
            for i, p in enumerate(order):
                if p != i:
                    lt |= eq & holds[i] & lacks[p]
                    eq &= ~(holds[i] ^ holds[p])
            alive &= ~lt
            return
        b = bound[depth]
        bit = 1 << depth
        for p in order:
            bit >>= 1
            if b & bit:
                lt |= eq & lacks[p]
                eq &= holds[p]
            else:
                eq &= lacks[p]
        alive &= ~lt
        if eq:
            entries.append((order + (m,), eq))
        tied, c = _narrow(adj, order, ((1 << m) - 1) ^ placed)
        if c != b:
            return
        while tied:
            low = tied & -tied
            v = low.bit_length() - 1
            r = rel & alive
            twins = lower[v] & ~placed
            while twins and r:
                w = (twins & -twins).bit_length() - 1
                r &= holds[v] ^ holds[w]
                twins &= twins - 1
            if r:
                walk(order + (v,), placed | low, r)
            tied ^= low

    walk((), 0, alive)
    starts: dict[int, list[tuple[int, ...]]] = {col: [] for col in iter_bits(alive)}
    for prefix, eq in entries:
        for col in iter_bits(eq & alive):
            starts[col].append(prefix)
    return starts.items()
