"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The heavyweight artifacts (the n <= 8 corpus and the audited family sweep)
are session fixtures shared across criteria.
"""

import json
from itertools import combinations, product
from math import factorial

import reedcheck as rc
from reedcheck.coloring import Coloring
from reedcheck.graphs import Graph

EXPECTED_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_theorem_sweep(audited_theorem_sweep):
    rep = audited_theorem_sweep
    ok = (
        rep.examined == sum(EXPECTED_COUNTS)
        and len(rep.violations) == 0
        and rep.wall_time_s < 300.0
    )
    report(
        "C1 theorem sweep n<=8",
        ok,
        f"{rep.examined} graphs, {rep.members} members, "
        f"{len(rep.violations)} violations, {rep.wall_time_s:.1f}s",
    )


def test_c02_subfamily_sweeps_and_inclusions(graphs_by_n, flagc_family):
    violations = {}
    for name in ("p5-c4", "3k1", "p3k1", "2k2-c4"):
        violations[name] = len(rc.sweep(rc.FAMILIES[name], 8, workers=4).violations)
    inclusion_failures = []
    for n in range(8):
        for g in graphs_by_n[n]:
            if not rc.in_family(g, flagc_family).member:
                for name in ("p5-c4", "3k1", "p3k1", "2k2-c4"):
                    if rc.in_family(g, rc.FAMILIES[name]).member:
                        inclusion_failures.append((name, rc.graph_to_graph6(g)))
    ok = all(v == 0 for v in violations.values()) and not inclusion_failures
    report(
        "C2 subfamily sweeps n<=8 + inclusions n<=7",
        ok,
        f"violations={violations}, inclusion failures={inclusion_failures[:3]}",
    )


def test_c03_tightness_exhibits(flagc_family):
    rows = []
    for g in [Graph.cycle(5)] + [Graph.complete(n) for n in range(1, 9)]:
        bundle = rc.invariant_bundle(g)
        rows.append((rc.in_family(g, flagc_family).member, bundle.slack))
    ok = all(member and slack == 0 for member, slack in rows)
    report("C3 tightness of C5 and K_n", ok, f"(member, slack) rows: {rows}")


def test_c04_oracle_equivalence(graphs_by_n):
    def oracle_clique(g):
        for r in range(g.n, 0, -1):
            for subset in combinations(range(g.n), r):
                if all(g.has_edge(v, w) for v, w in combinations(subset, 2)):
                    return r
        return 0

    def oracle_chromatic(g):
        edges = list(g.edges())
        for k in range(1, g.n + 1):
            for colors in product(range(k), repeat=g.n):
                if all(colors[v] != colors[w] for v, w in edges):
                    return k
        return 0

    checked = 0
    mismatches = []
    for n in range(1, 7):
        for g in graphs_by_n[n]:
            checked += 1
            if rc.clique_number(g) != oracle_clique(g):
                mismatches.append(("omega", rc.graph_to_graph6(g)))
            if rc.chromatic_number(g) != oracle_chromatic(g):
                mismatches.append(("chi", rc.graph_to_graph6(g)))
    ok = checked == 208 and not mismatches
    report("C4 oracle equivalence n<=6", ok, f"{checked} graphs, mismatches={mismatches[:3]}")


def test_c05_enumeration_counts(graphs_by_n):
    counts = tuple(len(graphs_by_n[n]) for n in range(9))

    # independent oracle: Burnside count over integer partitions of n
    def partitions(n, largest=None):
        if n == 0:
            yield ()
            return
        largest = n if largest is None else largest
        for part in range(min(n, largest), 0, -1):
            for rest in partitions(n - part, part):
                yield (part,) + rest

    def burnside_count(n):
        if n == 0:
            return 1
        total = 0
        for lam in partitions(n):
            size = factorial(n)
            for part in lam:
                size //= part
            mult: dict[int, int] = {}
            for part in lam:
                mult[part] = mult.get(part, 0) + 1
            for m in mult.values():
                size //= factorial(m)
            pair_cycles = sum(part // 2 for part in lam)
            for i in range(len(lam)):
                for j in range(i + 1, len(lam)):
                    a, b = lam[i], lam[j]
                    while b:
                        a, b = b, a % b
                    pair_cycles += a
            total += size * (1 << pair_cycles)
        return total // factorial(n)

    oracle = tuple(burnside_count(n) for n in range(9))
    ok = counts == EXPECTED_COUNTS and oracle == EXPECTED_COUNTS
    report("C5 enumeration counts n=0..8", ok, f"counts={counts}, burnside={oracle}")


def test_c06_kempe_properties(graphs_by_n):
    swaps = 0
    failures = 0
    for n in range(7):
        for g in graphs_by_n[n]:
            for c in rc.enumerate_optimal_colorings(g):
                for v in range(n):
                    for other in range(c.color_count):
                        if other == c.colors[v]:
                            continue
                        comp = rc.kempe_component(g, c, v, other)
                        pair = (c.colors[v], other)
                        swapped = rc.kempe_swap(g, c, comp, pair)
                        if not rc.is_proper(g, swapped):
                            failures += 1
                        if rc.kempe_swap(g, swapped, comp, pair) != c:
                            failures += 1
                        swaps += 1
    report("C6 kempe swap properties n<=6", failures == 0, f"{swaps} swaps, {failures} failures")


def test_c07_statement_2_3_audit(audited_theorem_sweep):
    inst = audited_theorem_sweep.audit["instances"]
    c5 = Graph.cycle(5)
    c5_report = rc.audit_graph(c5, rc.invariant_bundle(c5))
    ok = (
        inst["S2"]["violated"] == 0
        and inst["S3"]["violated"] == 0
        and inst["S2"]["holds"] >= 1
        and c5_report.counters["S2"]["holds"] >= 1
    )
    report(
        "C7 statement 2/3 audit (members n<=8 ⊇ n<=7)",
        ok,
        f"S2={inst['S2']}, S3={inst['S3']}, C5 apex holds={c5_report.counters['S2']['holds']}",
    )


def test_c08_gate_property(audited_theorem_sweep):
    full_pass = audited_theorem_sweep.audit["gate_full_pass_members"]
    [c5_gate] = rc.check("I", Graph.cycle(5), Coloring((0, 1, 2, 1, 2), 3), 0)
    ok = (
        full_pass == []
        and c5_gate.status == "gate-failed"
        and c5_gate.info["R"] == [1, 4]
        and not c5_gate.info["size_condition"]
    )
    report(
        "C8 gate property n<=8",
        ok,
        f"full-pass members={full_pass}, C5 gate={c5_gate.status} with |R|=2 < omega+1=3",
    )


def test_c09_odd_hole_note(graphs_by_n):
    p5 = rc.builtin_pattern("P5")
    scanned = 0
    offenders = []
    for n in range(9):
        for g in graphs_by_n[n]:
            if rc.has_induced(g, p5) is not None:
                continue
            scanned += 1
            lengths = rc.odd_hole_lengths(g)
            if any(length >= 7 for length in lengths):
                offenders.append(rc.graph_to_graph6(g))
    report(
        "C9 odd holes of P5-free graphs n<=8",
        not offenders,
        f"{scanned} P5-free graphs, offenders={offenders[:3]}",
    )


def test_c10_sweep_determinism(flagc_family):
    payloads = []
    for workers in (1, 2, 8):
        rep = rc.sweep(flagc_family, 8, workers=workers).to_json()
        rep.pop("wall_time_s")
        payloads.append(json.dumps(rep, sort_keys=True))
    ok = payloads[0] == payloads[1] == payloads[2]
    report("C10 sweep determinism (1/2/8 workers)", ok, f"byte-identical={ok}")


def test_c11_graph6_round_trip(graphs_by_n):
    failures = 0
    total = 0
    for n in range(8):
        for g in graphs_by_n[n]:
            total += 1
            if rc.graph_from_graph6(rc.graph_to_graph6(g)) != g:
                failures += 1
    hand = (
        rc.graph_from_graph6("A_") == Graph.complete(2)
        and rc.graph_from_graph6("@") == Graph.empty(1)
    )
    report(
        "C11 graph6 round-trip n<=7",
        failures == 0 and hand,
        f"{total} graphs round-tripped, hand vectors ok={hand}",
    )
