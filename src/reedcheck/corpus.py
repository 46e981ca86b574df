"""Exhaustive small-graph corpora and family sweeps.

Graphs are generated by orderly extension: every canonical (n-1)-vertex
graph is extended by one vertex with each of the 2^(n-1) possible
neighborhoods, and a candidate is kept iff its labeling already is the
canonical one (minimum bitstring).  Because the bitstring uses graph6
column order, the first n-1 vertices of a canonical labeling always form
a canonical labeling themselves, so each isomorphism class is produced
exactly once and the kept graphs double as their own canonical codes.
Neighborhoods below a per-parent threshold are skipped at once: swapping
an old vertex with the new one would give a smaller string.  The rest of
a parent's candidates are decided together, in one walk of the parent's
own tied tree with sets of new columns held as bit masks.  Most of a
child's tree leaves the new vertex out and so is a node of the parent's
tree; the walk compares the new vertex's column with the bound there for
every candidate at once.  It rejects a candidate as soon as one node
shows a smaller string, and at the leaves it keeps only the least column
of each orbit under the parent's automorphisms.  A surviving child then
searches only below the nodes where the walk placed the new vertex.

Sweeps filter a corpus through a hereditary family, compute one exact
invariant bundle per member, flag any Reed-bound violation with a full
certificate, and optionally audit each member against its bundle.  Every
family is defined by forbidden induced patterns, so it is hereditary: an
induced subgraph of a member is a member.  A sweep over the internal
enumeration therefore decides membership level by level and tests a
graph only when its parent (the graph on its first n-1 vertices, which it
was extended from) is a member; the rest are counted as examined without
a search.  A graph6 stream need not contain the parents of its graphs,
so a stream sweep tests every line.  Both sweeps hand one loop an
iterator of graphs, which a pool takes in fixed-size contiguous chunks
cut off it as they are needed, so no corpus is held in memory.  Totals
have one shape, :class:`SweepReport`, whether they cover one member, one
chunk or the whole sweep, and one fold adds them up: each member's into
its chunk's, and the chunks' into the sweep's in chunk order.  The
capped lists (20 tight exemplars, 100 audit certificates) therefore keep
the first entries of the stream, and reports are byte-identical for any
worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, islice

from .audit import STATEMENTS, STATUSES, AuditReport, audit_graph
from .graphs import (_G6_HEADER, Graph, Graph6Error, _column_bits, _least_order, _twins,
                     graph_from_graph6, graph_to_graph6, iter_bits)
# not called here any more: the benchmark's tracer still counts calls under this name
from .graphs import is_min_labeled  # noqa: F401
from .invariants import InvariantBundle, invariant_bundle
from .patterns import FamilySpec, in_family

MAX_ENUMERATION_N = 9

_EXEMPLAR_CAP = 20
_AUDIT_CERT_CAP = 100
_CHUNK_SIZE = 32  # graphs per chunk: few, so that short sweeps keep a pool busy
# chunks per pool task: each task costs the main process about 0.4 ms of CPU,
# which a pooled sweep of cheap graphs took from its workers
_CHUNKS_PER_TASK = 8


@lru_cache(maxsize=None)
def _canonical_level(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph.empty(0),)
    holds = _column_sets(n - 1)
    # each parent's children come out in graph6 order, and the parents already are in it
    return tuple(child for parent in _canonical_level(n - 1)
                 for child in _children(parent, holds))


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
    the columns.  At each node it compares x's column there, the bits of
    col at the prefix's vertices, with the bound at depth j for every
    column at once, in masks over the column space: the columns where it
    is smaller are rejected, and those where it ties record the prefix
    plus x as a start.  At a leaf x comes last; a column whose permuted
    self is smaller than itself is rejected, which leaves one column of
    each orbit under the parent's automorphisms.

    ``rel`` holds the columns for which a subtree still matters.  Parent
    twins v and w stay twins in the child unless the new column splits
    them, so the walk descends into v while a lower twin w is unplaced only
    for the columns that hold exactly one of v and w.
    """
    m = parent.n
    adj = parent.adj
    full = (1 << (1 << m)) - 1
    lacks = [full ^ h for h in holds]
    lower = [twins & ((1 << v) - 1) for v, twins in enumerate(_twins(adj))]
    alive = full ^ ((1 << _first_child(parent)) - 1)
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
        tied = ((1 << m) - 1) ^ placed
        c = 0
        for p in order:
            off = tied & ~adj[p]
            if off:
                tied = off
                c <<= 1
            else:
                tied &= adj[p]
                c = (c << 1) | 1
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


def _first_child(parent: Graph) -> int:
    """The least new column, read as a number, that a child of ``parent`` can
    have and still be canonical.

    Swapping vertex v with the new vertex keeps columns 0..v-1, and column v
    becomes the new column's top v bits.  So a new column ``col`` with
    ``col >> (n-1-v) < cols[v]`` for some v (n the child's vertex count) gives a
    smaller string, which happens exactly when ``col < cols[v] << (n-1-v)``.
    """
    cols = _column_bits(parent.adj, parent.n)
    return max((cols[v] << (parent.n - v) for v in range(1, parent.n)), default=0)


def enumerate_graphs(n: int):
    """One canonical representative per isomorphism class on ``n`` vertices,
    in canonical-code order."""
    if not 0 <= n <= MAX_ENUMERATION_N:
        raise ValueError(
            f"internal enumeration supports n <= {MAX_ENUMERATION_N}; "
            "use an external graph6 stream for larger graphs"
        )
    yield from _canonical_level(n)


class Graph6Stream:
    """Iterator of (line_number, graph6, Graph) over one-graph-per-line text.

    ``graph6`` is the line without its line ending and without a leading
    ``>>graph6<<`` header; since the decoder accepts no trailing bytes and
    no nonzero padding, it equals the graph's own encoding.  A line that is
    exactly the header is skipped; a header followed by a graph on the same
    line, as networkx writes it, is decoded like any other line.  In strict
    mode a malformed line aborts with the line number; in lenient mode it
    is skipped and recorded in :attr:`skipped`.
    """

    def __init__(self, lines, strict: bool = True):
        self._lines = lines
        self.strict = strict
        self.skipped: list[tuple[int, str]] = []

    def __iter__(self):
        for lineno, raw in enumerate(self._lines, start=1):
            line = raw.rstrip("\r\n")
            if line == _G6_HEADER:
                continue
            try:
                g = graph_from_graph6(line)
            except Graph6Error as exc:
                if self.strict:
                    raise Graph6Error(f"line {lineno}: {exc}") from exc
                self.skipped.append((lineno, str(exc)))
                continue
            yield lineno, line.removeprefix(_G6_HEADER), g


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    """Totals of a family sweep, or of one part of it (one member, one chunk
    of the stream); violation lists carry full certificates.

    Each total equals the sum of its ``per_n`` rows: only :meth:`count`
    adds to either, and :meth:`fold` adds a part through it.
    """

    family: str
    n_max: int | None = None
    examined: int = 0
    members: int = 0
    per_n: dict[int, dict[str, int]] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    tight_count: int = 0
    tight_exemplars: list[str] = field(default_factory=list)
    audit: dict | None = None
    skipped_lines: int = 0
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n_max": self.n_max,
            "examined": self.examined,
            "members": self.members,
            "violation_count": len(self.violations),
            "violations": self.violations,
            "tight_count": self.tight_count,
            "tight_exemplars": self.tight_exemplars,
            "per_n": {str(n): row for n, row in sorted(self.per_n.items())},
            "audit": self.audit,
            "skipped_lines": self.skipped_lines,
            "wall_time_s": self.wall_time_s,
        }

    def count(self, n: int, examined: int = 1, members: int = 0, tight: int = 0) -> None:
        """Count graphs on ``n`` vertices into their ``per_n`` row and the totals."""
        row = self.per_n.setdefault(n, {"examined": 0, "members": 0, "tight": 0})
        row["examined"] += examined
        row["members"] += members
        row["tight"] += tight
        self.examined += examined
        self.members += members
        self.tight_count += tight

    def fold(self, part: SweepReport) -> None:
        """Add ``part`` into these totals.  Parts are folded in stream order,
        so the capped lists keep the first exemplars and certificates of the
        stream."""
        for n, row in part.per_n.items():
            self.count(n, row["examined"], row["members"], row["tight"])
        self.violations.extend(part.violations)
        self.tight_exemplars.extend(
            part.tight_exemplars[:_EXEMPLAR_CAP - len(self.tight_exemplars)])
        src, dst = part.audit, self.audit
        if src is None:
            return
        for s in STATEMENTS:
            for st in STATUSES:
                dst["instances"][s][st] += src["instances"][s][st]
        dst["violated_total"] += src["violated_total"]
        certs = dst["violated_certificates"]
        certs.extend(src["violated_certificates"][:_AUDIT_CERT_CAP - len(certs)])
        dst["gate_full_pass_members"].extend(src["gate_full_pass_members"])


def _member_part(family: str, g: Graph, bundle: InvariantBundle,
                 report: AuditReport | None) -> SweepReport:
    """Sweep totals over the single member ``g``."""
    tight = int(bundle.slack == 0)
    # encode only the graphs the report prints; an audit has encoded its graph already
    g6 = report.graph6 if report else (graph_to_graph6(g) if bundle.slack <= 0 else None)
    part = SweepReport(family,
                       violations=[{"graph6": g6, **bundle.to_json()}] if bundle.slack < 0 else [],
                       tight_exemplars=[g6] if tight else [])
    part.count(g.n, members=1, tight=tight)
    if report:
        part.audit = {
            "instances": report.counters,
            "violated_certificates": [f.to_json() for f in report.violations[:_AUDIT_CERT_CAP]],
            "violated_total": len(report.violations),
            "gate_full_pass_members": [g6] if report.gate_full_pass_colorings else [],
        }
    return part


def _sweep_chunk(family: FamilySpec, audit: bool, members_only: bool, graphs) -> SweepReport:
    part = SweepReport(family.name, audit={
        "instances": {s: dict.fromkeys(STATUSES, 0) for s in STATEMENTS},
        "violated_certificates": [],
        "violated_total": 0,
        "gate_full_pass_members": [],
    } if audit else None)
    for g in graphs:
        if members_only or in_family(g, family).member:
            bundle = invariant_bundle(g)
            report = audit_graph(g, bundle) if audit else None
            part.fold(_member_part(family.name, g, bundle, report))
        else:
            part.count(g.n)
    return part


def _sweep_graphs(family: FamilySpec, graphs, audit: bool, workers: int,
                  members_only: bool = False) -> SweepReport:
    """Sweep totals over the iterable ``graphs``; with ``members_only`` every
    graph is already known to be a member and is not tested again.

    With ``workers > 1`` and more than one chunk, an order-keeping pool runs
    contiguous chunks of ``_CHUNK_SIZE`` graphs, cut off ``graphs`` as it
    asks for them and sent ``_CHUNKS_PER_TASK`` to a task, and each chunk's
    part is folded as it arrives, in stream order.
    """
    graphs = iter(graphs)
    chunks = iter(lambda: list(islice(graphs, _CHUNK_SIZE)), [])
    processes = min(workers, os.cpu_count() or 1)
    head = list(islice(chunks, 2)) if processes > 1 else []
    if len(head) < 2:
        return _sweep_chunk(family, audit, members_only, chain(*head, graphs))
    import multiprocessing  # only here: a serial run does not pay for the import

    with multiprocessing.Pool(processes) as pool:
        parts = pool.imap(partial(_sweep_chunk, family, audit, members_only),
                          chain(head, chunks), _CHUNKS_PER_TASK)
        total = next(parts)
        for part in parts:
            total.fold(part)
    return total


def sweep(family: FamilySpec, n_max: int, *, audit: bool = False,
          workers: int = 1) -> SweepReport:
    """Verify the Reed bound over every family member with at most ``n_max``
    vertices (internal enumeration; n_max <= 9)."""
    if not 0 <= n_max <= MAX_ENUMERATION_N:
        raise ValueError(f"n_max must be within 0..{MAX_ENUMERATION_N}")
    start = time.monotonic()
    untested = SweepReport(family.name)
    members = _hereditary_members(family, n_max, untested)
    report = _sweep_graphs(family, members, audit, workers, members_only=True)
    report.fold(untested)
    report.n_max = n_max
    report.wall_time_s = time.monotonic() - start
    return report


def _hereditary_members(family: FamilySpec, n_max: int, untested: SweepReport):
    """The members with at most ``n_max`` vertices, in enumeration order.

    Membership is decided level by level.  A graph's parent is the graph on
    its first n-1 vertices, which orderly extension built it from; since the
    family is hereditary, a child of a non-member is no member and is not
    tested.  Every graph not yielded is counted into ``untested`` as
    examined; a pool runs this generator on its task-feeder thread, so read
    ``untested`` only once the generator is exhausted.
    """
    # adjacency rows of the previous level's members; the empty graph's
    # parent rows are () too, so level 0 is always tested
    parents = {()}
    for n in range(n_max + 1):
        low = (1 << max(n - 1, 0)) - 1
        graphs = _canonical_level(n)
        level = set()
        for g in graphs:
            if (tuple(row & low for row in g.adj[:n - 1]) in parents
                    and in_family(g, family).member):
                level.add(g.adj)
                yield g
        untested.count(n, examined=len(graphs) - len(level))
        parents = level


def sweep_stream(family: FamilySpec, lines, *, strict: bool = True, audit: bool = False,
                 workers: int = 1) -> SweepReport:
    """Same verification over an external graph6 stream (one graph per line)."""
    start = time.monotonic()
    stream = Graph6Stream(lines, strict=strict)
    report = _sweep_graphs(family, (g for _, _, g in stream), audit, workers)
    report.skipped_lines = len(stream.skipped)
    report.wall_time_s = time.monotonic() - start
    return report
