"""Exhaustive small-graph corpora and family sweeps.

Each level of the enumeration is built from the one below by orderly
extension (see :mod:`reedcheck.graphs`), comes out in graph6 order and is
cached for the life of the process.

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
iterator of graphs, which a pool takes in contiguous tasks of a fixed
size cut off it as they are needed, so no corpus is held in memory.
Totals have one shape, :class:`SweepReport`, whether they cover one
member, one task or the whole sweep, and one fold adds them up: each
member's into its task's, and the tasks' into the sweep's in task order.
The capped lists (20 tight exemplars, 100 audit certificates) therefore
keep the first entries of the stream, and reports are byte-identical for
any worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, islice

from .audit import STATEMENTS, STATUSES, AuditReport, audit_graph
from .graphs import (_G6_HEADER, Graph, Graph6Error, _children, _column_sets, graph_from_graph6,
                     graph_to_graph6)
# not called here any more: the benchmark's tracer still counts calls under this name
from .graphs import is_min_labeled  # noqa: F401
from .invariants import InvariantBundle, invariant_bundle
from .patterns import FamilySpec, in_family

MAX_ENUMERATION_N = 9

_EXEMPLAR_CAP = 20
_AUDIT_CERT_CAP = 100
# graphs per pool task: each task costs the main process about 0.4 ms of CPU,
# which a pooled sweep of cheap graphs would take from its workers; an input
# of one task or less is swept without a pool
_TASK_SIZE = 256


@lru_cache(maxsize=None)
def _canonical_level(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph.empty(0),)
    holds = _column_sets(n - 1)
    # each parent's children come out in graph6 order, and the parents already are in it
    return tuple(child for parent in _canonical_level(n - 1)
                 for child in _children(parent, holds))


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
    """Totals of a family sweep, or of one part of it (one member, one task
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


def _sweep_task(family: FamilySpec, audit: bool, members_only: bool, graphs) -> SweepReport:
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

    With ``workers > 1`` and more than one task's graphs, an order-keeping
    pool runs contiguous tasks of ``_TASK_SIZE`` graphs, cut off ``graphs``
    as it asks for them, and each task's part is folded as it arrives, in
    stream order.
    """
    graphs = iter(graphs)
    tasks = iter(lambda: list(islice(graphs, _TASK_SIZE)), [])
    processes = min(workers, os.cpu_count() or 1)
    head = list(islice(tasks, 2)) if processes > 1 else []
    if len(head) < 2:
        return _sweep_task(family, audit, members_only, chain(*head, graphs))
    import multiprocessing  # only here: a serial run does not pay for the import

    with multiprocessing.Pool(processes) as pool:
        parts = pool.imap(partial(_sweep_task, family, audit, members_only), chain(head, tasks))
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
    report = _sweep_graphs(family, _hereditary_members(family, n_max), audit, workers,
                           members_only=True)
    # the graphs of a level that were not yielded were examined without a search
    for n in range(n_max + 1):
        members = report.per_n.get(n, {}).get("members", 0)
        report.count(n, examined=len(_canonical_level(n)) - members)
    report.n_max = n_max
    report.wall_time_s = time.monotonic() - start
    return report


def _hereditary_members(family: FamilySpec, n_max: int):
    """The members with at most ``n_max`` vertices, in enumeration order.

    Membership is decided level by level.  A graph's parent is the graph on
    its first n-1 vertices, which orderly extension built it from; since the
    family is hereditary, a child of a non-member is no member and is not
    tested.
    """
    # adjacency rows of the previous level's members; the empty graph's
    # parent rows are () too, so level 0 is always tested
    parents = {()}
    for n in range(n_max + 1):
        low = (1 << max(n - 1, 0)) - 1
        level = set()
        for g in _canonical_level(n):
            if (tuple(row & low for row in g.adj[:n - 1]) in parents
                    and in_family(g, family).member):
                level.add(g.adj)
                yield g
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
