import hashlib
import json
import random
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reedcheck as rc
from reedcheck.audit import (REGISTRY, STATEMENTS, STATUSES, AuditReport, _audit_instances,
                             _finding, _Instance, audit_colorings, check, replay_finding)
from reedcheck.coloring import Coloring, unique_color_neighbors
from reedcheck.graphs import Graph

C5 = Graph.cycle(5)
APEX = Coloring((0, 1, 2, 1, 2), 3)

# frozen regression fixtures discovered by sweeping non-member hosts
S2_VIOLATED_CERT = {
    "statement": "S2",
    "status": "violated",
    "graph6": "E@V_",
    "u": 2,
    "colors": [0, 0, 1, 0, 2, 2],
    "tuple": [5, 3],
}
# deliberately non-member host with an induced P5 at (0,2,4,5,7); the
# explicit proper 4-coloring puts three pairwise non-adjacent uniquely
# colored neighbors around u=0 with both alternating paths present
S3_HOST = Graph.from_edges(
    8, [(0, 1), (0, 2), (0, 3), (1, 5), (1, 6), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7)]
)
S3_COLORING = Coloring((0, 1, 2, 3, 1, 2, 3, 0), 4)


def test_gate_fails_on_c5():
    [finding] = check("I", C5, APEX, 0)
    assert finding.status == "gate-failed"
    assert finding.info["R"] == [1, 4]
    assert not finding.info["size_condition"]  # |R| = 2 < omega + 1 = 3


def test_gate_fails_on_k5():
    c = Coloring((0, 1, 2, 3, 4), 5)
    for u in range(5):
        [finding] = check("I", Graph.complete(5), c, u)
        assert finding.status == "gate-failed"
        assert not finding.info["size_condition"]  # |R| = 4 < omega + 1 = 6


def test_no_graph_with_n_le_8_can_pass_the_gate(graphs_by_n):
    # gate I needs |R| >= omega + 1 neighbors of u, each alone in its color
    # within N(u); with u's own color an optimal coloring then has chi >= omega + 2.
    # No class with n <= 8 comes that far, so under any coloring policy the
    # audits of such graphs decide only S2 and S3
    gaps = Counter(rc.chromatic_number(g, omega=omega) - omega
                   for n in range(9) for g in graphs_by_n[n]
                   for omega in [rc.clique_number(g)])
    assert sum(gaps.values()) == 13599
    assert max(gaps) == 1


def test_gate_rejects_non_optimal_coloring():
    with pytest.raises(ValueError):
        check("I", Graph.path(4), Coloring((0, 1, 2, 0), 3), 1)


def test_statement_1_hypotheses_unmet():
    [f] = check("S1", C5, APEX, 0)
    assert f.status == "hypotheses-unmet"
    assert f.hypothesis_failed == "gate-I"
    [f] = check("S1", Graph.complete(3), Coloring((0, 1, 2), 3), 0)
    assert f.status == "hypotheses-unmet"


def test_statement_2_on_c5_apex():
    findings = check("S2", C5, APEX, 0)
    by_pair = {f.vertices: f for f in findings}
    assert set(by_pair) == {(1, 4), (4, 1)}
    f = by_pair[(1, 4)]
    assert f.status == "holds"
    assert f.info["path"] == [1, 2, 3, 4]
    assert f.info["opposite_neighbors_of_t"] == 1


def test_statement_2_vacuous_on_k3():
    assert check("S2", Graph.complete(3), Coloring((0, 1, 2), 3), 0) == []


def test_statement_3_vacuous_when_T_small():
    for g in (Graph.complete(4), C5):
        for c in rc.enumerate_optimal_colorings(g):
            for u in range(g.n):
                d = rc.unique_color_neighbors(g, c, u)
                if d.T_mask.bit_count() <= 2:
                    assert check("S3", g, c, u) == []


def test_statement_3_regression_fixture():
    assert rc.has_induced(S3_HOST, rc.builtin_pattern("P5")) == (0, 2, 4, 5, 7)
    assert rc.is_proper(S3_HOST, S3_COLORING)
    findings = check("S3", S3_HOST, S3_COLORING, 0)
    by_triple = {f.vertices: f for f in findings}
    f = by_triple[(1, 2, 3)]
    assert f.status == "holds"
    assert f.info == {"partner_of_second": 4, "partner_of_third": 4}


def test_statement_4_c5_reports_informational_completeness():
    [f] = check("S4", C5, APEX, 0)
    assert f.status == "hypotheses-unmet"
    assert f.hypothesis_failed == "gate-I"
    assert f.info["T_prime"] == [2, 3]
    assert f.info["t_prime_complete"] is True  # edge 2-3 is present


def test_statement_4_empty_substitutes_on_complete_graphs():
    c = Coloring((0, 1, 2, 3), 4)
    [f] = check("S4", Graph.complete(4), c, 0)
    assert f.status == "hypotheses-unmet"
    assert f.info["T_prime"] == []


def test_claim_on_c5_and_isolated_vertex():
    [f] = check("CLAIM", C5, APEX, 0)
    assert f.status == "hypotheses-unmet"
    assert f.info["members"] == [2, 3]
    assert f.info["complete"] is True
    g = Graph.empty(2)
    [f] = check("CLAIM", g, Coloring((0, 0), 1), 0)
    assert f.status == "hypotheses-unmet"
    assert f.info["R_size"] == 0


def test_final_requires_gate_and_completeness():
    [f] = check("FINAL", C5, APEX, 0)
    assert f.status == "hypotheses-unmet"
    assert f.hypothesis_failed == "gate-I"


def test_audit_graph_c5():
    report = rc.audit_graph(C5, rc.invariant_bundle(C5))
    assert report.chi == 3
    assert report.colorings_used == 5
    assert report.counters["S2"]["holds"] >= 1
    assert report.counters["S2"]["violated"] == 0
    assert report.counters["I"]["gate-failed"] == 25
    assert report.violations == ()
    assert report.gate_full_pass_colorings == 0


def test_audit_graph_k4_all_vacuous():
    k4 = Graph.complete(4)
    report = rc.audit_graph(k4, rc.invariant_bundle(k4))
    assert report.violations == ()
    for statement in ("S1", "S4", "CLAIM", "FINAL"):
        assert report.counters[statement]["hypotheses-unmet"] == sum(
            report.counters[statement].values()
        )
    assert sum(report.counters["S2"].values()) == 0
    assert sum(report.counters["S3"].values()) == 0


def test_audit_graph_rejects_a_bundle_of_another_graph():
    with pytest.raises(ValueError, match="invariant bundle"):
        rc.audit_graph(C5, rc.invariant_bundle(Graph.complete(5)))


def test_audit_counters_sum_to_instances(graphs_by_n):
    for g in list(graphs_by_n[5])[:20]:
        report = rc.audit_graph(g, rc.invariant_bundle(g))
        instances = report.colorings_used * g.n
        for statement in ("I", "S1", "S4", "CLAIM", "FINAL"):
            assert sum(report.counters[statement].values()) == instances
        assert set(report.counters) == set(STATEMENTS)
        for counter in report.counters.values():
            assert set(counter) == set(STATUSES)


def test_hypotheses_unmet_always_names_the_hypothesis(graphs_by_n):
    for g in list(graphs_by_n[6])[:40]:
        for c in rc.enumerate_optimal_colorings(g)[:5]:
            for u in range(g.n):
                for f in (
                    check("S1", g, c, u) + check("S4", g, c, u)
                    + check("CLAIM", g, c, u) + check("FINAL", g, c, u)
                    + check("S2", g, c, u)
                    + check("S3", g, c, u)
                ):
                    if f.status == "hypotheses-unmet":
                        assert f.hypothesis_failed


def test_certificate_schema_and_replay():
    [finding] = check("S4", C5, APEX, 0)
    cert = finding.to_json()
    assert set(cert) == {
        "statement", "status", "graph6", "u", "colors", "tuple",
        "hypothesis_failed", "info",
    }
    assert cert["graph6"] == rc.graph_to_graph6(C5)
    replayed = replay_finding(cert)
    assert replayed.status == cert["status"]


def test_violated_certificate_replays_to_violated():
    f = replay_finding(S2_VIOLATED_CERT)
    assert f.status == "violated"
    assert f.info["opposite_neighbors_of_t"] == 2
    # the host is outside the family, as expected for a violation
    host = rc.graph_from_graph6(S2_VIOLATED_CERT["graph6"])
    assert not rc.in_family(host, rc.FAMILIES["p5-flagc"]).member
    assert rc.has_induced(host, rc.builtin_pattern("P5")) is not None


def test_replay_is_deterministic_on_audit_violations(graphs_by_n):
    # harvest a few violated findings from non-member hosts and replay them
    fam = rc.FAMILIES["p5-flagc"]
    replayed = 0
    for g in graphs_by_n[6]:
        if rc.in_family(g, fam).member:
            continue
        report = rc.audit_graph(g, rc.invariant_bundle(g))
        for f in report.violations[:2]:
            again = replay_finding(f.to_json())
            assert again.status == "violated"
            assert again.vertices == f.vertices
            replayed += 1
        if replayed >= 6:
            break
    assert replayed >= 1


def test_every_finding_replays_to_itself(graphs_by_n):
    statuses = set()
    for n in range(6):
        for g in graphs_by_n[n]:
            chi = rc.chromatic_number(g)
            for c in audit_colorings(g, chi)[0]:
                for u in range(n):
                    for statement, spec in REGISTRY.items():
                        if spec.needs_optimal and c.color_count != chi:
                            continue
                        for f in check(statement, g, c, u):
                            assert replay_finding(f.to_json()) == f
                            statuses.add(f.status)
    assert statuses == {"holds", "hypotheses-unmet", "gate-failed"}


def test_check_findings_are_pinned(graphs_by_n):
    # every finding of every statement, info included, on every policy
    # coloring and apex of the 209 graphs with n <= 6; a whole-graph audit
    # prints only the violated ones
    digest = hashlib.sha256()
    count = 0
    for n in range(7):
        for g in graphs_by_n[n]:
            chi = rc.chromatic_number(g)
            for c in audit_colorings(g, chi)[0]:
                for u in range(n):
                    for statement, spec in REGISTRY.items():
                        if spec.needs_optimal and c.color_count != chi:
                            continue
                        for f in check(statement, g, c, u):
                            digest.update(json.dumps(f.to_json()).encode() + b"\n")
                            count += 1
    assert count == 24213
    assert digest.hexdigest() == (
        "0a07f807a1c2168a73281aad5c78c49d496b96c8b149d755480b1c49d266a6bf")


def _mycielski(g):
    n = g.n
    edges = list(g.edges())
    for v, w in g.edges():
        edges += [(v, n + w), (w, n + v)]
    edges += [(n + v, 2 * n) for v in range(n)]
    return Graph.from_edges(2 * n + 1, edges)


# a 6-coloring of M^3(K3), the Mycielski graph of the Mycielski graph of the
# Mycielski graph of K3 (n = 31, omega 3, chi 6)
M3K3_COLORS = (0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 3, 4, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 0, 1, 2,
               3, 4, 5)
# the Mycielski graph of the Groetzsch graph (n = 23, omega 2, chi 5) and two
# 5-colorings under which its hub 22 passes the gate (shadows of one color
# but three, each of those colored like its original)
M2C5 = _mycielski(_mycielski(C5))
HUB_COLORS = ((1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4, 1, 2, 0, 0, 3, 0, 0, 0, 0, 0, 0, 4),
              (3, 4, 3, 1, 4, 0, 4, 0, 0, 0, 3, 2, 4, 2, 2, 2, 2, 1, 2, 2, 0, 2, 3))


def _star_gadget():
    # M2C5 sets chi = 5 (omega 2); a disjoint K1,11 sets Delta = 11 (bound
    # 7) and frees its center's neighborhood: leaves colored 1, 2, 3 and
    # eight times 4 give R = the first three leaves, an independent set,
    # and no substitutes at all
    center, leaves = 23, range(24, 35)
    g = Graph.from_edges(35, list(M2C5.edges()) + [(center, v) for v in leaves])
    return g, Coloring(HUB_COLORS[0] + (0, 1, 2, 3) + (4,) * 8, 5), center


# S is nonempty only if an edge inside R closes a triangle with u, so
# omega >= 3 and, past the gate, chi >= 6: M^3(K3) sets chi, and a disjoint
# gadget sets Delta = 16 (bound 10) at u = 31, where R = {s = 32} + T =
# {33, 34, 35} and s meets all of T; the path 33-48-49 gives T' = {48}
# (colored like 34, next to 33) and, since s misses 48, the level-1
# substitute 49 (colored like s).  With the edge s-48 added, s sees all of
# T', so no level 1 forms and s stays in the core: W = S = {32}
M3K3 = _mycielski(_mycielski(_mycielski(Graph.complete(3))))
S_GADGET_EXTRAS = ((), ((32, 48),))


def _s_gadget(extra):
    u, s, leaves = 31, 32, (33, 34, 35)
    g = Graph.from_edges(50, list(M3K3.edges()) + [(u, v) for v in range(32, 48)]
                         + [(s, v) for v in leaves] + [(33, 48), (48, 49), *extra])
    return g, Coloring(M3K3_COLORS + (0, 1, 2, 3, 4) + (5,) * 12 + (3, 1), 6), u


def _random_gadgets():
    # M^3(K3) plus a random gadget: an apex u = 31 whose neighbors are four
    # R-vertices colored 1..4 with random edges among them and twelve
    # leaves colored 5, and one to six outside vertices with random colors
    # and random edges to R and to each other, all properly colored.  A
    # draw with omega 3 and Delta 16 (bound 10) passes the gate at u; the
    # others of the 40 seeded draws are dropped.
    u, R = 31, range(32, 36)
    rnd = random.Random(1)
    for _ in range(40):
        outside = range(48, 48 + rnd.randint(1, 6))
        colors = (M3K3_COLORS + (0, 1, 2, 3, 4) + (5,) * 12
                  + tuple(rnd.randrange(6) for _ in outside))
        edges = list(M3K3.edges()) + [(u, v) for v in range(32, 48)]
        edges += [e for e in combinations(R, 2) if rnd.random() < 0.5]
        edges += [(r, x) for x in outside for r in R
                  if colors[r] != colors[x] and rnd.random() < 0.5]
        edges += [(x, y) for x, y in combinations(outside, 2)
                  if colors[x] != colors[y] and rnd.random() < 0.5]
        g = Graph.from_edges(48 + len(outside), edges)
        if rc.clique_number(g) == 3 and rc.max_degree(g) == 16:
            yield g, Coloring(colors, 6), u


def test_statements_past_the_gate():
    # passing the gate needs chi >= omega + 3 wherever the Reed bound holds,
    # and no graph audited at n <= 8 passes it; M2C5 does at its hub
    hub = 22
    cases = {
        HUB_COLORS[0]: ([11, 12, 15], tuple(range(10)), True),
        HUB_COLORS[1]: ([12, 17, 20], (3, 5, 7), False),
    }
    for colors, (R, substitutes, covered) in cases.items():
        c = Coloring(colors, 5)
        findings = {s: check(s, M2C5, c, hub) for s in ("I", "S1", "S4", "CLAIM", "FINAL")}
        assert [(s, f.status, f.hypothesis_failed) for s, [f] in findings.items()] == [
            ("I", "holds", None), ("S1", "holds", None), ("S4", "violated", None),
            ("CLAIM", "violated", None), ("FINAL", "hypotheses-unmet", "claim-completeness")]
        assert findings["I"][0].info["R"] == findings["S1"][0].info["T"] == R
        [s4] = findings["S4"]
        assert s4.vertices == substitutes
        assert s4.info == {"T_prime": list(substitutes), "S1_prime": [],
                           "t_prime_complete": False}
        [claim] = findings["CLAIM"]
        assert claim.vertices == substitutes
        assert claim.info == {"members": list(substitutes), "complete": False,
                              "colors_cover_R": covered, "size": len(substitutes),
                              "R_size": 3, "omega": 2}
        for [f] in findings.values():
            assert replay_finding(f.to_json()) == f


def test_final_violated_on_a_star_gadget():
    g, c, center = _star_gadget()
    findings = {s: check(s, g, c, center) for s in STATEMENTS}
    assert [(s, f.status, f.vertices, f.hypothesis_failed)
            for s, fs in findings.items() for f in fs] == [
        ("I", "holds", (), None), ("S1", "holds", (), None),
        *[("S2", "hypotheses-unmet", pair, "bicolor-path4")
          for pair in ((24, 25), (24, 26), (25, 24), (25, 26), (26, 24), (26, 25))],
        *[("S3", "hypotheses-unmet", triple, "bicolor-path4")
          for triple in ((24, 25, 26), (25, 24, 26), (26, 24, 25))],
        ("S4", "hypotheses-unmet", (), "T-prime-empty"),
        ("CLAIM", "violated", (), None), ("FINAL", "violated", (), None)]
    [gate] = findings["I"]
    assert gate.info == {"R": [24, 25, 26], "deg_u": 11, "reed_bound": 7, "omega": 2,
                         "degree_condition": True, "size_condition": True}
    assert findings["S1"][0].info == {"T": [24, 25, 26], "R": [24, 25, 26]}
    assert findings["S4"][0].info == {"T_prime": [], "S1_prime": [], "t_prime_complete": True}
    # the empty set counts as complete, so FINAL fails on coverage alone
    for s in ("CLAIM", "FINAL"):
        assert findings[s][0].info == {"members": [], "complete": True, "colors_cover_R": False,
                                       "size": 0, "R_size": 3, "omega": 2}
    for fs in findings.values():
        for f in fs:
            assert replay_finding(f.to_json()) == f


def test_statements_past_the_gate_with_S_nonempty():
    # see _s_gadget: W = S = {32} joins T' in CLAIM and FINAL once s-48 is in
    cases = {  # extra edges: (T', S1', W plus all substitutes)
        S_GADGET_EXTRAS[0]: ([48], [49], [48, 49]),
        S_GADGET_EXTRAS[1]: ([48], [], [32, 48]),
    }
    for extra, (t_prime, s1_prime, members) in cases.items():
        g, c, u = _s_gadget(extra)
        findings = {name: check(name, g, c, u) for name in STATEMENTS}
        assert [(name, f.status, f.vertices, f.hypothesis_failed)
                for name, fs in findings.items() for f in fs] == [
            ("I", "holds", (), None), ("S1", "holds", (), None),
            *[("S2", "hypotheses-unmet", pair, "bicolor-path4")
              for pair in ((33, 34), (33, 35), (34, 33), (34, 35), (35, 33), (35, 34))],
            *[("S3", "hypotheses-unmet", triple, "bicolor-path4")
              for triple in ((33, 34, 35), (34, 33, 35), (35, 33, 34))],
            ("S4", "holds", tuple(t_prime + s1_prime), None),
            ("CLAIM", "violated", tuple(members), None),
            ("FINAL", "violated", tuple(members), None)]
        [gate] = findings["I"]
        assert gate.info == {"R": [32, 33, 34, 35], "deg_u": 16, "reed_bound": 10, "omega": 3,
                             "degree_condition": True, "size_condition": True}
        assert findings["S1"][0].info == {"T": [33, 34, 35], "R": [32, 33, 34, 35]}
        # a level-1 substitute is part of S4's target, next to T'
        assert findings["S4"][0].info == {"T_prime": t_prime, "S1_prime": s1_prime,
                                          "t_prime_complete": True}
        for name in ("CLAIM", "FINAL"):
            assert findings[name][0].info == {"members": members, "complete": True,
                                              "colors_cover_R": False, "size": 2,
                                              "R_size": 4, "omega": 3}
        for fs in findings.values():
            for f in fs:
                assert replay_finding(f.to_json()) == f


def test_impossibility_arguments_on_random_gadgets():
    kept = 0
    reached = Counter()
    for g, c, u in _random_gadgets():
        kept += 1
        findings = {name: check(name, g, c, u) for name in STATEMENTS}
        assert [f.status for f in findings["I"]] == ["holds"]
        # S1 always holds past the gate (see _statement_1), and a complete
        # set covering R's colors would be a clique on omega + 1 vertices
        assert "violated" not in {f.status for f in findings["S1"]}
        assert "holds" not in {f.status for f in findings["CLAIM"] + findings["FINAL"]}
        for name, fs in findings.items():
            for f in fs:
                reached[name, f.status] += 1
                assert replay_finding(f.to_json()) == f
    assert kept == 22
    # the draws reach every S4 branch and both ways FINAL can fail
    assert {status for name, status in reached if name == "S4"} == {
        "holds", "violated", "hypotheses-unmet"}
    assert {status for name, status in reached if name == "FINAL"} == {
        "violated", "hypotheses-unmet"}


@pytest.mark.parametrize("u", [-1, 5])
def test_check_rejects_an_apex_outside_the_graph(u):
    with pytest.raises(ValueError, match="apex"):
        check("I", C5, APEX, u)
    certificate = {**check("I", C5, APEX, 0)[0].to_json(), "u": u}
    with pytest.raises(ValueError, match="apex"):
        replay_finding(certificate)


def test_registry_order_is_statements():
    assert STATEMENTS == ("I", "S1", "S2", "S3", "S4", "CLAIM", "FINAL")
    with pytest.raises(ValueError):
        check("S5", C5, APEX, 0)


# the audit against the loop it replaced --------------------------------------

def _oracle_outcomes(name, x):
    # the gate as each statement checked it before the registry dispatched it
    if name == "I":
        return [("holds" if x.gate_holds else "gate-failed", (), None)]
    if name in ("S1", "S4", "CLAIM", "FINAL") and not x.gate_holds:
        return [("hypotheses-unmet", (), "gate-I")]
    return REGISTRY[name].outcomes(x)


def _oracle_audit(g, bundle, colorings):
    """Counters, violated findings and gate full passes, building every
    instance and calling every statement that the coloring allows."""
    graph6 = rc.graph_to_graph6(g)
    counters = {s: {st: 0 for st in STATUSES} for s in STATEMENTS}
    violations = []
    gate_full_pass = 0
    for c in colorings:
        optimal = c.color_count == bundle.chi
        all_gates_hold = optimal and g.n > 0
        for u in range(g.n):
            x = _Instance(g, graph6, bundle.omega, bundle.reed_bound, c,
                          unique_color_neighbors(g, c, u))
            all_gates_hold = all_gates_hold and x.gate_holds
            for name in STATEMENTS:
                if not optimal and name not in ("S2", "S3"):
                    continue
                for status, vertices, hypothesis_failed in _oracle_outcomes(name, x):
                    counters[name][status] += 1
                    if status == "violated":
                        violations.append(_finding(name, x, status, vertices, hypothesis_failed))
        if all_gates_hold:
            gate_full_pass += 1
    return counters, tuple(violations), gate_full_pass


@st.composite
def _gnp(draw, n_min, n_max):
    n = draw(st.integers(n_min, n_max))
    p = draw(st.floats(0.1, 0.9))
    rnd = draw(st.randoms(use_true_random=False))
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rnd.random() < p])


@settings(max_examples=150, deadline=None)
@given(_gnp(1, 10))
def test_audit_equals_the_oracle_on_random_graphs(g):
    # members and non-members alike: the S2 and S3 violations of
    # non-members check that the findings keep their order
    bundle = rc.invariant_bundle(g)
    colorings, _ = audit_colorings(g, bundle.chi)
    expected = AuditReport(rc.graph_to_graph6(g), bundle.chi, len(colorings),
                           *_oracle_audit(g, bundle, colorings))
    assert rc.audit_graph(g, bundle).to_json() == expected.to_json()


def test_audit_equals_the_oracle_past_the_gate():
    # the graphs are too large for audit_graph, so the instances of the one
    # coloring run through its loop directly, at every apex
    cases = [(M2C5, Coloring(colors, 5), 22) for colors in HUB_COLORS]
    cases += [_star_gadget(), *map(_s_gadget, S_GADGET_EXTRAS), *_random_gadgets()]
    assert len(cases) == 27
    for g, c, u in cases:
        omega = rc.clique_number(g)
        bundle = SimpleNamespace(omega=omega, chi=c.color_count,
                                 reed_bound=rc.reed_bound(rc.max_degree(g), omega))
        expected = _oracle_audit(g, bundle, (c,))
        assert expected[0]["I"]["holds"] >= 1  # the gate holds at u at least
        assert _audit_instances(g, rc.graph_to_graph6(g), bundle, (c,)) == expected
