"""Statement-by-statement audits of the minimal-counterexample machinery.

Each statement evaluates one structural claim on a concrete (graph,
coloring, apex vertex) instance and reports holds / violated /
hypotheses-unmet with a replayable certificate.  The gate check I is the
entry condition a smallest counterexample would have to satisfy at every
vertex (degree budget plus |R| >= omega + 1); real graphs are expected to
fail it, which is reported as the calmer status ``gate-failed``.
Statements that only make sense past the gate (1, 4, the completeness
claim and the final clique contradiction) are gated on it rather than
declared violated on instances outside their hypotheses.

Everything the statements read about one instance (the R/S/T
decomposition, the gate values, the substitute levels, the ordered
non-adjacent pairs of T and the set that CLAIM and FINAL test) is built
at most once, as vertex masks over the coloring's class masks, and the
levels, pairs and CLAIM set only when a statement first reads them.
Each statement is a pure function of that record that yields
(status, vertices, hypothesis_failed) outcomes; its info dict is built
from the record only when an outcome becomes an ``AuditFinding``.  The
statements live in one ordered registry, through which whole-graph
audits, single checks and replays dispatch.  The registry also holds the
gate: I and the statements past it carry the one outcome they report
where the gate fails, and the dispatcher reports it without running them.
A whole-graph audit counts every outcome but builds findings only for
violated ones; ``check`` and ``replay_finding`` build every finding.  It
builds an instance only where the gate holds or T has two vertices:
elsewhere every outcome is fixed (I gate-failed, the statements past the
gate hypotheses-unmet, S2 and S3 none) and is counted in bulk.  Over the
2,677 p5-flagc members with n <= 8 that leaves 8,793 of the 110,243
(coloring, apex) instances to build.

A whole-graph audit is handed the graph's invariant bundle, which a
sweep has already computed, and reads omega, chi and the Reed bound
from it; chi is not solved again, not even by the coloring policy.  The
policy audits every canonical optimal coloring for n <= 7, and the
first-fit colorings from every vertex rotation for 8 <= n <= 10.  A
single ``check`` computes only what its statement reads: omega and the
Reed bound, plus chi when the statement needs an optimal coloring.

Violated findings on hosts containing a forbidden pattern are expected
and kept: they demonstrate that the forbidden subgraphs are doing the
work.  Certificates serialize as JSON objects
``{statement, status, graph6, u, colors, tuple, ...}`` and re-running the
named statement on a certificate reproduces its finding exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby
from operator import itemgetter
from typing import Callable, NamedTuple

from .coloring import (
    Coloring,
    SequenceDecomposition,
    UniqueColorDecomposition,
    build_sequence,
    canonicalize_coloring,
    enumerate_optimal_colorings,
    find_bicolor_path4,
    greedy_coloring,
    is_proper,
    unique_color_neighbors,
)
from .graphs import Graph, graph_from_graph6, graph_to_graph6, iter_bits
from .invariants import (InvariantBundle, chromatic_number, clique_number, max_degree,
                         reed_bound)

STATUSES = ("holds", "violated", "hypotheses-unmet", "gate-failed")


@dataclass(frozen=True)
class AuditFinding:
    """Outcome of one check on one instance, with its replay certificate."""

    statement: str
    status: str
    graph6: str
    u: int
    colors: tuple[int, ...]
    vertices: tuple[int, ...] = ()
    hypothesis_failed: str | None = None
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "status": self.status,
            "graph6": self.graph6,
            "u": self.u,
            "colors": list(self.colors),
            "tuple": list(self.vertices),
            "hypothesis_failed": self.hypothesis_failed,
            "info": self.info,
        }


# ---------------------------------------------------------------------------
# one (coloring, apex) instance, on vertex masks
# ---------------------------------------------------------------------------

def _vertex_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def _single(mask: int) -> bool:
    return mask != 0 and not mask & (mask - 1)


def _is_clique(adj: tuple[int, ...], mask: int) -> bool:
    rest = mask
    while rest:
        low = rest & -rest
        if mask & ~adj[low.bit_length() - 1] != low:
            return False
        rest ^= low
    return True


class _Pair(NamedTuple):
    """An ordered non-adjacent pair (t, t') of T, as masks."""

    path: tuple[int, int, int, int] | None  # the least alternating 4-path t-V-W-t'
    of_t: int  # neighbors of t colored like t'
    of_t_prime: int  # neighbors of t' colored like t

    @property
    def unique_partners(self) -> bool:
        return _single(self.of_t) and _single(self.of_t_prime)


def _gate_conditions(g: Graph, d: UniqueColorDecomposition, omega: int,
                     reed_bound: int) -> tuple[bool, bool]:
    """The entry gate's degree and size conditions at ``d``'s apex u:
    deg u >= |R| + 2*(bound - |R|) and |R| >= omega + 1."""
    r = d.R_mask.bit_count()
    return g.adj[d.u].bit_count() >= r + 2 * (reed_bound - r), r >= omega + 1


class _Instance:
    """Everything the statements read about one (graph, coloring, apex).

    Vertex sets are masks.  The substitute levels, the ordered non-adjacent
    pairs of T and the set that CLAIM and FINAL test are built on first
    use, so an instance that fails the gate never builds the levels.
    """

    __slots__ = ("g", "graph6", "omega", "reed_bound", "c", "u", "d",
                 "degree_ok", "size_ok", "gate_holds", "_seq", "_pairs", "_claim")

    def __init__(self, g: Graph, graph6: str, omega: int, reed_bound: int,
                 c: Coloring, d: UniqueColorDecomposition):
        self.g = g
        self.graph6 = graph6
        self.omega = omega
        self.reed_bound = reed_bound
        self.c = c
        self.u = d.u
        self.d = d
        self.degree_ok, self.size_ok = _gate_conditions(g, d, omega, reed_bound)
        self.gate_holds = self.degree_ok and self.size_ok
        self._seq = self._pairs = self._claim = None

    @property
    def seq(self) -> SequenceDecomposition:
        """The substitute levels; level 0 is (T, T')."""
        if self._seq is None:
            self._seq = build_sequence(self.g, self.c, self.d)
        return self._seq

    @property
    def pairs(self) -> dict[tuple[int, int], _Pair]:
        """The ordered non-adjacent pairs of T, in sorted (t, t') order."""
        if self._pairs is None:
            adj, classes, colors = self.g.adj, self.c.classes, self.c.colors
            T = self.d.T_mask
            self._pairs = {} if not T & (T - 1) else {
                (t, t2): _Pair(find_bicolor_path4(self.g, self.c, t, t2),
                               adj[t] & classes[colors[t2]], adj[t2] & classes[colors[t]])
                for t in iter_bits(T)
                for t2 in iter_bits(T & ~adj[t] & ~(1 << t))
            }
        return self._pairs

    @property
    def claim(self) -> tuple[int, bool, bool]:
        """W plus all substitute levels, whether it is complete and whether
        its colors cover R's."""
        if self._claim is None:
            members = self.seq.W_mask | self.seq.primed_mask
            classes, colors = self.c.classes, self.c.colors
            covered = all(classes[colors[r]] & members for r in iter_bits(self.d.R_mask))
            self._claim = (members, _is_clique(self.g.adj, members), covered)
        return self._claim


# ---------------------------------------------------------------------------
# the statements: each yields (status, vertices, hypothesis_failed) outcomes
# of one instance, and builds a finding's info only when it is materialized
# ---------------------------------------------------------------------------

Outcome = tuple[str, tuple[int, ...], str | None]  # (status, vertices, hypothesis_failed)

_GATE_FAILED = ("gate-failed", (), None)
_GATE_UNMET = ("hypotheses-unmet", (), "gate-I")


def _gate(x: _Instance) -> list[Outcome]:
    """Entry gate (see ``_gate_conditions``).  The dispatcher reports
    ``gate-failed`` where it fails, so this runs only where it holds."""
    return [("holds", (), None)]


def _gate_info(x: _Instance, vertices, hypothesis_failed) -> dict:
    return {
        "R": _vertex_list(x.d.R_mask),
        "deg_u": x.g.adj[x.u].bit_count(),
        "reed_bound": x.reed_bound,
        "omega": x.omega,
        "degree_condition": x.degree_ok,
        "size_condition": x.size_ok,
    }


def _statement_1(x: _Instance) -> list[Outcome]:
    """Past the gate, |T| >= 2 unless T is empty and R already is a big clique.

    With the exact omega this always holds: the gate gives |R| >= omega + 1,
    and then |T| >= 3.  If T were empty, R and u would form a clique of
    |R| + 1 vertices.  |T| = 1 cannot happen: a vertex of T misses some r
    in R, and then r is in T too.  If |T| = 2, S, one vertex of T and u
    would form a clique of |R| vertices.  Both cliques exceed omega.
    """
    # the gate already gives |R| >= omega + 1
    T = x.d.T_mask
    ok = T.bit_count() >= 2 or (not T and _is_clique(x.g.adj, x.d.R_mask))
    return [("holds" if ok else "violated", (), None)]


def _statement_1_info(x: _Instance, vertices, hypothesis_failed) -> dict:
    return {"T": _vertex_list(x.d.T_mask), "R": _vertex_list(x.d.R_mask)}


def _statement_2(x: _Instance) -> list[Outcome]:
    """Each non-adjacent ordered pair in T with an alternating 4-path must
    have unique opposite-colored partners (one outcome per pair)."""
    return [("hypotheses-unmet", key, "bicolor-path4") if pair.path is None
            else ("holds" if pair.unique_partners else "violated", key, None)
            for key, pair in x.pairs.items()]


def _statement_2_info(x: _Instance, vertices, hypothesis_failed) -> dict:
    if hypothesis_failed:
        return {}
    pair = x.pairs[vertices]
    return {"path": list(pair.path),
            "opposite_neighbors_of_t": pair.of_t.bit_count(),
            "opposite_neighbors_of_t_prime": pair.of_t_prime.bit_count()}


def _statement_3(x: _Instance) -> list[Outcome]:
    """Two vertices of T non-adjacent to the same t must share their unique
    partner in t's color (one outcome per qualifying triple)."""
    pairs = x.pairs
    outcomes = []
    for t, keys in groupby(pairs, key=itemgetter(0)):
        for (_, t2), (_, t3) in combinations(keys, 2):
            first, second = pairs[t, t2], pairs[t, t3]
            vertices = (t, t2, t3)
            if first.path is None or second.path is None:
                outcomes.append(("hypotheses-unmet", vertices, "bicolor-path4"))
            elif not (first.unique_partners and second.unique_partners):
                outcomes.append(("hypotheses-unmet", vertices, "statement-2"))
            else:
                same = first.of_t_prime == second.of_t_prime
                outcomes.append(("holds" if same else "violated", vertices, None))
    return outcomes


def _statement_3_info(x: _Instance, vertices, hypothesis_failed) -> dict:
    if hypothesis_failed:
        return {}
    t, t2, t3 = vertices
    return {"partner_of_second": x.pairs[t, t2].of_t_prime.bit_length() - 1,
            "partner_of_third": x.pairs[t, t3].of_t_prime.bit_length() - 1}


def _s4_sets(x: _Instance) -> tuple[int, int]:
    levels = x.seq.level_masks
    return levels[0][1], levels[1][1] if len(levels) > 1 else 0


def _statement_4(x: _Instance) -> list[Outcome]:
    """Past the gate with substitutes present, T' and the level-1 substitutes
    must induce a complete graph.  The T'-completeness sub-check is always
    reported in the finding's info."""
    t_prime, s1_prime = _s4_sets(x)
    if not t_prime:
        return [("hypotheses-unmet", (), "T-prime-empty")]
    target = t_prime | s1_prime
    ok = _is_clique(x.g.adj, target)
    return [("holds" if ok else "violated", tuple(iter_bits(target)), None)]


def _statement_4_info(x: _Instance, vertices, hypothesis_failed) -> dict:
    t_prime, s1_prime = _s4_sets(x)
    return {
        "T_prime": _vertex_list(t_prime),
        "S1_prime": _vertex_list(s1_prime),
        "t_prime_complete": _is_clique(x.g.adj, t_prime),
    }


def _claim(x: _Instance) -> list[Outcome]:
    """Past the gate, W plus all substitute levels must induce a complete
    graph whose colors cover R's colors; since that would force a clique
    of size omega + 1, no instance can satisfy everything at once.  The
    completeness sub-check is always reported in the finding's info."""
    members, complete, covered = x.claim
    return [("holds" if complete and covered else "violated", tuple(iter_bits(members)), None)]


def _final(x: _Instance) -> list[Outcome]:
    """Closing contradiction: a complete W-plus-substitutes set covering R's
    colors would contain a clique on omega + 1 vertices, which cannot exist."""
    members, complete, covered = x.claim
    if not complete:
        return [("hypotheses-unmet", (), "claim-completeness")]
    return [("holds" if covered else "violated", tuple(iter_bits(members)), None)]


def _claim_info(x: _Instance, vertices, hypothesis_failed) -> dict:
    members, complete, covered = x.claim
    return {
        "members": _vertex_list(members),
        "complete": complete,
        "colors_cover_R": covered,
        "size": members.bit_count(),
        "R_size": x.d.R_mask.bit_count(),
        "omega": x.omega,
    }


class Statement(NamedTuple):
    """A registered statement: its one outcome on an instance that fails the
    gate (None if it runs on every instance), its (status, vertices,
    hypothesis_failed) outcomes on one instance, and the info of one
    outcome's finding.

    The gate is defined on colorings that achieve chi only, so a statement
    with a gate outcome needs such a coloring.  A statement without one
    reads only the ordered non-adjacent pairs of T, so it has no outcome
    where T has at most one vertex; ``_audit_instances`` relies on both.
    """

    on_failed_gate: Outcome | None
    outcomes: Callable[[_Instance], list[Outcome]]
    info: Callable[[_Instance, tuple[int, ...], str | None], dict]

    @property
    def needs_optimal(self) -> bool:
        return self.on_failed_gate is not None

    def run(self, x: _Instance) -> list[Outcome]:
        """The dispatcher: the statement's outcomes on ``x``, or its gate
        outcome when ``x`` fails the gate."""
        if self.on_failed_gate is not None and not x.gate_holds:
            return [self.on_failed_gate]
        return self.outcomes(x)


REGISTRY: dict[str, Statement] = {
    "I": Statement(_GATE_FAILED, _gate, _gate_info),
    "S1": Statement(_GATE_UNMET, _statement_1, _statement_1_info),
    "S2": Statement(None, _statement_2, _statement_2_info),
    "S3": Statement(None, _statement_3, _statement_3_info),
    "S4": Statement(_GATE_UNMET, _statement_4, _statement_4_info),
    "CLAIM": Statement(_GATE_UNMET, _claim, _claim_info),
    "FINAL": Statement(_GATE_UNMET, _final, _claim_info),
}
STATEMENTS = tuple(REGISTRY)


def _finding(statement: str, x: _Instance, status: str, vertices: tuple[int, ...],
             hypothesis_failed: str | None) -> AuditFinding:
    info = REGISTRY[statement].info(x, vertices, hypothesis_failed)
    return AuditFinding(statement, status, x.graph6, x.u, x.c.colors,
                        vertices, hypothesis_failed, info)


def check(statement: str, g: Graph, c: Coloring, u: int) -> list[AuditFinding]:
    """Findings of one registered statement on the instance (g, c, u).

    Raises ValueError for an unknown statement, an apex outside the graph,
    an improper coloring, or a coloring short of optimal when the statement
    needs an optimal one.
    """
    if statement not in REGISTRY:
        raise ValueError(f"unknown statement {statement!r}")
    if not 0 <= u < g.n:
        raise ValueError(f"apex {u} outside 0..{g.n - 1}")
    if not is_proper(g, c):
        raise ValueError("coloring is not proper")
    omega = clique_number(g)
    spec = REGISTRY[statement]
    if spec.needs_optimal:
        chi = chromatic_number(g, omega=omega)
        if c.color_count != chi:
            raise ValueError(
                f"coloring uses {c.color_count} colors but chi = {chi}; "
                f"statement {statement} needs an optimal coloring"
            )
    bound = reed_bound(max_degree(g), omega)
    x = _Instance(g, graph_to_graph6(g), omega, bound, c, unique_color_neighbors(g, c, u))
    return [_finding(statement, x, *outcome) for outcome in spec.run(x)]


# ---------------------------------------------------------------------------
# whole-graph audit
# ---------------------------------------------------------------------------

def audit_colorings(g: Graph, chi: int) -> tuple[tuple[Coloring, ...], bool]:
    """The audit coloring policy: all canonical optimal colorings for n <= 7
    (no such graph has more than 81), first-fit colorings from every vertex
    rotation above that.  ``chi`` must be the chromatic number of ``g``.
    The second item is always False; the benchmark's tracer unpacks it."""
    if g.n <= 7:
        return enumerate_optimal_colorings(g, chi=chi), False
    seen = []
    for shift in range(g.n):
        order = tuple((v + shift) % g.n for v in range(g.n))
        c = canonicalize_coloring(greedy_coloring(g, order))
        if c not in seen:
            seen.append(c)
    return tuple(seen), False


@dataclass(frozen=True)
class AuditReport:
    """Per-statement status counters over all (u, coloring) instances of one
    graph, plus every violated finding as a replayable certificate."""

    graph6: str
    chi: int
    colorings_used: int
    counters: dict
    violations: tuple[AuditFinding, ...]
    gate_full_pass_colorings: int

    def to_json(self) -> dict:
        return {
            "graph6": self.graph6,
            "chi": self.chi,
            "colorings_used": self.colorings_used,
            "counters": self.counters,
            "violations": [f.to_json() for f in self.violations],
            "gate_full_pass_colorings": self.gate_full_pass_colorings,
        }


def audit_graph(g: Graph, bundle: InvariantBundle) -> AuditReport:
    """Run every registered statement over all vertices and the coloring policy.

    ``bundle`` is ``invariant_bundle(g)``; omega, chi and the Reed bound
    are read from it.  Statements that need an optimal coloring (I, S1,
    S4, CLAIM, FINAL) only run on colorings that achieve chi; S2 and S3
    run on every proper policy coloring.  Every outcome is counted; only
    violated ones become findings, which follow the registry order within
    one instance.  An instance is built only where a statement can decide
    something on it (see ``_audit_instances``).
    """
    graph6 = graph_to_graph6(g)
    if g.n > 10:
        raise ValueError(f"audit is limited to 10 vertices, got n={g.n} in {graph6}")
    if (bundle.n, bundle.m) != (g.n, g.m):
        raise ValueError(f"invariant bundle with n={bundle.n}, m={bundle.m} given for {graph6}")
    colorings, _ = audit_colorings(g, bundle.chi)
    counters, violations, gate_full_pass = _audit_instances(g, graph6, bundle, colorings)
    return AuditReport(
        graph6=graph6,
        chi=bundle.chi,
        colorings_used=len(colorings),
        counters=counters,
        violations=violations,
        gate_full_pass_colorings=gate_full_pass,
    )


def _audit_instances(g: Graph, graph6: str, bundle: InvariantBundle,
                     colorings: tuple[Coloring, ...]) -> tuple[dict, tuple[AuditFinding, ...], int]:
    """The counters, the violated findings and the number of colorings that
    pass the gate at every vertex, over every (coloring, apex) instance.

    Where the gate fails, every statement with a gate outcome reports it, so
    those outcomes are counted in bulk and the instance runs only the other
    statements; a coloring short of chi runs only those too.  They read the
    pairs of T alone, so where T has at most one vertex no instance is built.
    """
    omega, reed_bound = bundle.omega, bundle.reed_bound
    counters = {s: {st: 0 for st in STATUSES} for s in STATEMENTS}
    everything = [(name, counters[name], spec.outcomes) for name, spec in REGISTRY.items()]
    ungated = [(name, counters[name], spec.outcomes) for name, spec in REGISTRY.items()
               if spec.on_failed_gate is None]
    violations: list[AuditFinding] = []
    gate_full_pass = failed_gates = 0

    for c in colorings:
        optimal = c.color_count == bundle.chi
        all_gates_hold = optimal and g.n > 0
        for u in range(g.n):
            d = unique_color_neighbors(g, c, u)
            if optimal and all(_gate_conditions(g, d, omega, reed_bound)):
                run = everything
            else:
                all_gates_hold = False
                failed_gates += optimal
                if not d.T_mask & (d.T_mask - 1):
                    continue
                run = ungated
            x = _Instance(g, graph6, omega, reed_bound, c, d)
            for name, counter, outcomes in run:
                for status, vertices, hypothesis_failed in outcomes(x):
                    counter[status] += 1
                    if status == "violated":
                        violations.append(_finding(name, x, status, vertices, hypothesis_failed))
        if all_gates_hold:
            gate_full_pass += 1

    for name, spec in REGISTRY.items():
        if spec.on_failed_gate is not None:
            counters[name][spec.on_failed_gate[0]] += failed_gates
    return counters, tuple(violations), gate_full_pass


def replay_finding(certificate: dict) -> AuditFinding:
    """Re-run the statement named by a serialized certificate and return the
    finding whose vertex tuple matches the certificate's."""
    g = graph_from_graph6(certificate["graph6"])
    colors = tuple(certificate["colors"])
    c = Coloring(colors, max(colors) + 1 if colors else 0)
    statement = certificate["statement"]
    key = tuple(certificate.get("tuple", ()))
    for finding in check(statement, g, c, certificate["u"]):
        if finding.vertices == key:
            return finding
    raise ValueError(f"certificate tuple {key} does not match any {statement} finding")
