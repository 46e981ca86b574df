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
at most once, and each statement is a pure function of that record.
The statements live in one ordered registry, through which whole-graph
audits, single checks and replays dispatch.

A whole-graph audit is handed the graph's invariant bundle, which a
sweep has already computed, and reads omega, chi and the Reed bound
from it; chi is not solved again, not even by the coloring policy.  The
policy audits every canonical optimal coloring (up to a cap) for
n <= 7, and the first-fit colorings from every vertex rotation for
8 <= n <= 10.  A single ``check`` computes only what its statement reads:
omega and the Reed bound, plus chi when the statement needs an optimal
coloring.

Violated findings on hosts containing a forbidden pattern are expected
and kept: they demonstrate that the forbidden subgraphs are doing the
work.  Certificates serialize as JSON objects
``{statement, status, graph6, u, colors, tuple, ...}`` and re-running the
named statement on a certificate reproduces its finding exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple

from .coloring import (
    BicolorPath,
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

DEFAULT_COLORING_CAP = 10_000


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


def _colored_neighbors(g: Graph, c: Coloring, v: int, color: int) -> tuple[int, ...]:
    return tuple(w for w in iter_bits(g.adj[v]) if c.colors[w] == color)


def _is_complete(g: Graph, vertices) -> bool:
    vs = sorted(vertices)
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            if not g.has_edge(vs[a], vs[b]):
                return False
    return True


# ---------------------------------------------------------------------------
# one (coloring, apex) instance, built once
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Pair:
    """An ordered non-adjacent pair (t, t') of T."""

    path: BicolorPath | None
    of_t: tuple[int, ...]  # neighbors of t colored like t'
    of_t_prime: tuple[int, ...]  # neighbors of t' colored like t

    @property
    def unique_partners(self) -> bool:
        return len(self.of_t) == 1 and len(self.of_t_prime) == 1


@dataclass(frozen=True)
class _Instance:
    """Everything the statements read about one (graph, coloring, apex)."""

    g: Graph
    graph6: str
    omega: int
    reed_bound: int
    c: Coloring
    u: int
    d: UniqueColorDecomposition
    seq: SequenceDecomposition  # level 0 is (T, T')
    deg_u: int
    degree_ok: bool
    size_ok: bool
    pairs: dict[tuple[int, int], _Pair]  # in sorted (t, t') order

    @property
    def gate_holds(self) -> bool:
        return self.degree_ok and self.size_ok

    @cached_property
    def claim_set(self) -> dict:
        """W plus all substitute levels, whether it is complete and whether
        its colors cover R's; CLAIM and FINAL both report it as their info."""
        colors = self.c.colors
        members = sorted(self.seq.W | self.seq.primed_union())
        colors_in_members = {colors[v] for v in members}
        return {
            "members": members,
            "complete": _is_complete(self.g, members),
            "colors_cover_R": all(colors[r] in colors_in_members for r in self.d.R),
            "size": len(members),
            "R_size": len(self.d.R),
            "omega": self.omega,
        }

    def finding(self, statement: str, status: str, **fields) -> AuditFinding:
        return AuditFinding(statement, status, self.graph6, self.u, self.c.colors, **fields)


def _instance(g: Graph, graph6: str, omega: int, bound: int, c: Coloring, u: int) -> _Instance:
    d = unique_color_neighbors(g, c, u)
    r = len(d.R)
    deg_u = g.degree(u)
    T = sorted(d.T)
    pairs = {
        (t, t2): _Pair(
            find_bicolor_path4(g, c, t, t2),
            _colored_neighbors(g, c, t, c.colors[t2]),
            _colored_neighbors(g, c, t2, c.colors[t]),
        )
        for t in T
        for t2 in T
        if t2 != t and not g.has_edge(t, t2)
    }
    return _Instance(
        g=g,
        graph6=graph6,
        omega=omega,
        reed_bound=bound,
        c=c,
        u=u,
        d=d,
        seq=build_sequence(g, c, d),
        deg_u=deg_u,
        degree_ok=deg_u >= r + 2 * (bound - r),
        size_ok=r >= omega + 1,
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# the statements, each a pure function of one instance
# ---------------------------------------------------------------------------

def _gate(x: _Instance) -> list[AuditFinding]:
    """Entry gate: deg u >= |R| + 2*(bound - |R|) and |R| >= omega + 1."""
    return [x.finding(
        "I", "holds" if x.gate_holds else "gate-failed",
        info={
            "R": sorted(x.d.R),
            "deg_u": x.deg_u,
            "reed_bound": x.reed_bound,
            "omega": x.omega,
            "degree_condition": x.degree_ok,
            "size_condition": x.size_ok,
        },
    )]


def _statement_1(x: _Instance) -> list[AuditFinding]:
    """Past the gate, |T| >= 2 unless T is empty and R already is a big clique."""
    d = x.d
    info = {"T": sorted(d.T), "R": sorted(d.R)}
    if not x.gate_holds:
        return [x.finding("S1", "hypotheses-unmet", hypothesis_failed="gate-I", info=info)]
    # the gate already gives |R| >= omega + 1
    ok = len(d.T) >= 2 or (not d.T and _is_complete(x.g, d.R))
    return [x.finding("S1", "holds" if ok else "violated", info=info)]


def _statement_2(x: _Instance) -> list[AuditFinding]:
    """Each non-adjacent ordered pair in T with an alternating 4-path must
    have unique opposite-colored partners (one finding per pair)."""
    findings = []
    for key, pair in x.pairs.items():
        if pair.path is None:
            findings.append(x.finding("S2", "hypotheses-unmet", vertices=key,
                                      hypothesis_failed="bicolor-path4"))
            continue
        findings.append(x.finding(
            "S2", "holds" if pair.unique_partners else "violated", vertices=key,
            info={"path": list(pair.path.vertices),
                  "opposite_neighbors_of_t": len(pair.of_t),
                  "opposite_neighbors_of_t_prime": len(pair.of_t_prime)}))
    return findings


def _statement_3(x: _Instance) -> list[AuditFinding]:
    """Two vertices of T non-adjacent to the same t must share their unique
    partner in t's color (one finding per qualifying triple)."""
    findings = []
    T = sorted(x.d.T)
    for t in T:
        others = [y for y in T if (t, y) in x.pairs]
        for t2, t3 in combinations(others, 2):
            first, second = x.pairs[t, t2], x.pairs[t, t3]
            vertices = (t, t2, t3)
            if first.path is None or second.path is None:
                findings.append(x.finding("S3", "hypotheses-unmet", vertices=vertices,
                                          hypothesis_failed="bicolor-path4"))
            elif not (first.unique_partners and second.unique_partners):
                findings.append(x.finding("S3", "hypotheses-unmet", vertices=vertices,
                                          hypothesis_failed="statement-2"))
            else:
                a, b = first.of_t_prime[0], second.of_t_prime[0]
                findings.append(x.finding(
                    "S3", "holds" if a == b else "violated", vertices=vertices,
                    info={"partner_of_second": a, "partner_of_third": b}))
    return findings


def _statement_4(x: _Instance) -> list[AuditFinding]:
    """Past the gate with substitutes present, T' and the level-1 substitutes
    must induce a complete graph.  The T'-completeness sub-check is always
    reported in the finding's info."""
    levels = x.seq.levels
    t_prime = levels[0][1]
    s1_prime = levels[1][1] if len(levels) > 1 else frozenset()
    target = t_prime | s1_prime
    info = {
        "T_prime": sorted(t_prime),
        "S1_prime": sorted(s1_prime),
        "t_prime_complete": _is_complete(x.g, t_prime),
    }
    if not x.gate_holds:
        return [x.finding("S4", "hypotheses-unmet", hypothesis_failed="gate-I", info=info)]
    if not t_prime:
        return [x.finding("S4", "hypotheses-unmet", hypothesis_failed="T-prime-empty", info=info)]
    ok = _is_complete(x.g, target)
    return [x.finding("S4", "holds" if ok else "violated",
                      vertices=tuple(sorted(target)), info=info)]


def _claim(x: _Instance) -> list[AuditFinding]:
    """Past the gate, W plus all substitute levels must induce a complete
    graph whose colors cover R's colors; since that would force a clique
    of size omega + 1, no instance can satisfy everything at once.  The
    completeness sub-check is always reported in the finding's info."""
    info = x.claim_set
    if not x.gate_holds:
        return [x.finding("CLAIM", "hypotheses-unmet", hypothesis_failed="gate-I", info=info)]
    ok = info["complete"] and info["colors_cover_R"]
    return [x.finding("CLAIM", "holds" if ok else "violated",
                      vertices=tuple(info["members"]), info=info)]


def _final(x: _Instance) -> list[AuditFinding]:
    """Closing contradiction: a complete W-plus-substitutes set covering R's
    colors would contain a clique on omega + 1 vertices, which cannot exist."""
    info = x.claim_set
    if not x.gate_holds:
        return [x.finding("FINAL", "hypotheses-unmet", hypothesis_failed="gate-I", info=info)]
    if not info["complete"]:
        return [x.finding("FINAL", "hypotheses-unmet",
                          hypothesis_failed="claim-completeness", info=info)]
    return [x.finding("FINAL", "holds" if info["colors_cover_R"] else "violated",
                      vertices=tuple(info["members"]), info=info)]


class Statement(NamedTuple):
    """A registered statement: whether it needs a coloring that achieves
    chi, and its findings on one instance."""

    needs_optimal: bool
    run: Callable[[_Instance], list[AuditFinding]]


REGISTRY: dict[str, Statement] = {
    "I": Statement(True, _gate),
    "S1": Statement(True, _statement_1),
    "S2": Statement(False, _statement_2),
    "S3": Statement(False, _statement_3),
    "S4": Statement(True, _statement_4),
    "CLAIM": Statement(True, _claim),
    "FINAL": Statement(True, _final),
}
STATEMENTS = tuple(REGISTRY)


def check(statement: str, g: Graph, c: Coloring, u: int) -> list[AuditFinding]:
    """Findings of one registered statement on the instance (g, c, u).

    Raises ValueError for an unknown statement, an improper coloring, or a
    coloring short of optimal when the statement needs an optimal one.
    """
    if statement not in REGISTRY:
        raise ValueError(f"unknown statement {statement!r}")
    if not is_proper(g, c):
        raise ValueError("coloring is not proper")
    omega = clique_number(g)
    needs_optimal, run = REGISTRY[statement]
    if needs_optimal:
        chi = chromatic_number(g, omega=omega)
        if c.color_count != chi:
            raise ValueError(
                f"coloring uses {c.color_count} colors but chi = {chi}; "
                f"statement {statement} needs an optimal coloring"
            )
    bound = reed_bound(max_degree(g), omega)
    return run(_instance(g, graph_to_graph6(g), omega, bound, c, u))


# ---------------------------------------------------------------------------
# whole-graph audit
# ---------------------------------------------------------------------------

def audit_colorings(g: Graph, chi: int,
                    cap: int = DEFAULT_COLORING_CAP) -> tuple[tuple[Coloring, ...], bool]:
    """The audit coloring policy: all canonical optimal colorings (capped)
    for n <= 7, first-fit colorings from every vertex rotation above that.
    ``chi`` must be the chromatic number of ``g``."""
    if cap < 1:
        raise ValueError(f"coloring cap must be at least 1, got {cap}")
    if g.n <= 7:
        enum = enumerate_optimal_colorings(g, cap=cap, chi=chi)
        return enum.colorings, enum.truncated
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
    truncated: bool
    counters: dict
    violations: tuple[AuditFinding, ...]
    gate_full_pass_colorings: int

    def to_json(self) -> dict:
        return {
            "graph6": self.graph6,
            "chi": self.chi,
            "colorings_used": self.colorings_used,
            "truncated": self.truncated,
            "counters": self.counters,
            "violations": [f.to_json() for f in self.violations],
            "gate_full_pass_colorings": self.gate_full_pass_colorings,
        }


def audit_graph(g: Graph, bundle: InvariantBundle,
                coloring_budget: int = DEFAULT_COLORING_CAP) -> AuditReport:
    """Run every registered statement over all vertices and the coloring policy.

    ``bundle`` is ``invariant_bundle(g)``; omega, chi and the Reed bound
    are read from it.  Statements that need an optimal coloring (I, S1,
    S4, CLAIM, FINAL) only run on colorings that achieve chi; S2 and S3
    run on every proper policy coloring.  Within one instance, findings
    follow the registry order.
    """
    graph6 = graph_to_graph6(g)
    if g.n > 10:
        raise ValueError(f"audit is limited to 10 vertices, got n={g.n} in {graph6}")
    if (bundle.n, bundle.m) != (g.n, g.m):
        raise ValueError(f"invariant bundle with n={bundle.n}, m={bundle.m} given for {graph6}")
    colorings, truncated = audit_colorings(g, bundle.chi, cap=coloring_budget)
    counters = {s: {st: 0 for st in STATUSES} for s in STATEMENTS}
    violations: list[AuditFinding] = []
    gate_full_pass = 0

    for c in colorings:
        optimal = c.color_count == bundle.chi
        all_gates_hold = optimal and g.n > 0
        for u in range(g.n):
            instance = _instance(g, graph6, bundle.omega, bundle.reed_bound, c, u)
            all_gates_hold = all_gates_hold and instance.gate_holds
            for needs_optimal, run in REGISTRY.values():
                if needs_optimal and not optimal:
                    continue
                for finding in run(instance):
                    counters[finding.statement][finding.status] += 1
                    if finding.status == "violated":
                        violations.append(finding)
        if all_gates_hold:
            gate_full_pass += 1

    return AuditReport(
        graph6=graph6,
        chi=bundle.chi,
        colorings_used=len(colorings),
        truncated=truncated,
        counters=counters,
        violations=tuple(violations),
        gate_full_pass_colorings=gate_full_pass,
    )


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
