import hashlib
import json
import multiprocessing
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reedcheck as rc
from reedcheck import corpus
from reedcheck.corpus import Graph6Stream
from reedcheck.graphs import Graph, Graph6Error, graph_to_graph6, induced_subgraph, is_min_labeled


def test_enumeration_counts_small(graphs_by_n):
    assert [len(graphs_by_n[n]) for n in range(7)] == [1, 1, 2, 4, 11, 34, 156]


def test_enumeration_is_canonical_and_sorted(graphs_by_n):
    for n in range(7):
        codes = [graph_to_graph6(g) for g in graphs_by_n[n]]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)
        for g in graphs_by_n[n]:
            assert rc.canonical_code(g) == graph_to_graph6(g)


def _children(parent):
    # the new vertex n-1 meets vertex i iff bit n-2-i of the new column is set
    n = parent.n + 1
    for col in range(1 << (n - 1)):
        rows = [row | (((col >> (n - 2 - i)) & 1) << (n - 1)) for i, row in enumerate(parent.adj)]
        rows.append(sum(1 << i for i in range(n - 1) if (col >> (n - 2 - i)) & 1))
        yield col, rows


def test_first_child_threshold_is_sound(graphs_by_n):
    for n in range(1, 8):
        unthresholded = []
        for parent in graphs_by_n[n - 1]:
            start = corpus._first_child(parent)
            for col, rows in _children(parent):
                if col < start:
                    assert not is_min_labeled(rows, n), (graph_to_graph6(parent), col)
                elif is_min_labeled(rows, n):
                    unthresholded.append(Graph(n, rows))
        assert corpus._canonical_level(n) == tuple(unthresholded)


def _kept_by_filter(parent):
    # the reference: the per-candidate canonicity test above the threshold
    start = corpus._first_child(parent)
    return [Graph(parent.n + 1, rows) for col, rows in _children(parent)
            if col >= start and is_min_labeled(rows, parent.n + 1)]


def _kept_by_walk(parent):
    return list(corpus._children(parent, corpus._column_sets(parent.n)))


def test_level_8_equals_the_per_candidate_filter(graphs_by_n):
    assert corpus._canonical_level(8) == tuple(
        child for parent in graphs_by_n[7] for child in _kept_by_filter(parent))


def test_sampled_level_8_parents_keep_the_filtered_children(graphs_by_n):
    for parent in random.Random(9).sample(graphs_by_n[8], 30):
        assert _kept_by_walk(parent) == _kept_by_filter(parent), graph_to_graph6(parent)


@st.composite
def _canonical_parents(draw):
    # random graphs, and families whose large twin classes and automorphism
    # groups the walk must split by the new column
    kind = draw(st.sampled_from(["random", "empty", "complete", "Kab", "cocktail", "cycle"]))
    if kind == "random":
        m = draw(st.integers(0, 8))
        p = draw(st.floats(0, 1))
        rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
        g = Graph.from_edges(m, [(v, w) for v in range(m) for w in range(v + 1, m)
                                 if rnd.random() < p])
    elif kind in ("empty", "complete"):
        g = getattr(Graph, kind)(draw(st.integers(0, 8)))
    elif kind == "Kab":
        a = draw(st.integers(0, 8))
        b = draw(st.integers(0, 8 - a))
        g = Graph.from_edges(a + b, [(v, w) for v in range(a) for w in range(a, a + b)])
    elif kind == "cocktail":
        k = draw(st.integers(0, 4))
        g = rc.complement(Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]))
    else:
        g = Graph.cycle(draw(st.integers(3, 8)))
    return rc.canonical_form(g)


@settings(max_examples=80, deadline=None)
@given(_canonical_parents())
# parents with a child that only orders starting with the new vertex show not
# to be canonical: 3 of the 1,044 parents on 7 vertices, about 1 in 130 on 8
@example(rc.graph_from_graph6("FB]lg"))
@example(rc.graph_from_graph6("GB]d}w"))
def test_walk_keeps_the_filtered_columns(parent):
    assert _kept_by_walk(parent) == _kept_by_filter(parent)


def _prefix_columns(rows, order):
    # column j of a vertex order: order[j]'s adjacency to order[:j], order[0] highest
    return [sum(((rows[v] >> w) & 1) << (j - 1 - i) for i, w in enumerate(order[:j]))
            for j, v in enumerate(order)]


def test_walk_starts_tie_the_child_and_place_the_new_vertex_last(graphs_by_n):
    # a start is a node of the child's stop-mode tree that the walk did not
    # search below: the new vertex comes last, after distinct parent vertices
    starts = 0
    for parent in graphs_by_n[6]:
        m = parent.n
        bound = _prefix_columns(parent.adj, range(m))
        candidates = dict(_children(parent))
        for col, col_starts in corpus._surviving_columns(parent, bound, corpus._column_sets(m)):
            assert col_starts
            own = _prefix_columns(candidates[col], range(m + 1))
            for start in col_starts:
                assert start[-1] == m and len(set(start)) == len(start)
                assert _prefix_columns(candidates[col], start) == own[:len(start)]
            starts += len(col_starts)
    assert starts > 0


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        next(rc.enumerate_graphs(10))


def test_stream_reads_valid_lines():
    lines = ["A_\n", ">>graph6<<Bw\r\n", "DUW"]
    got = list(Graph6Stream(lines))
    assert [lineno for lineno, _, _ in got] == [1, 2, 3]
    assert [g6 for _, g6, _ in got] == ["A_", "Bw", "DUW"]
    assert got[0][2] == rc.graph_from_graph6("A_")


def test_stream_skips_headers():
    lines = [">>graph6<<\n", "A_\n"]
    assert len(list(Graph6Stream(lines))) == 1


def test_stream_lenient_skips_and_counts():
    stream = Graph6Stream(["A_\n", "!!bad\n", "Bw\n"], strict=False)
    graphs = list(stream)
    assert len(graphs) == 2
    assert len(stream.skipped) == 1
    assert stream.skipped[0][0] == 2


def test_stream_strict_aborts_with_line_number():
    with pytest.raises(Graph6Error) as err:
        list(Graph6Stream(["A_\n", "!!bad\n"], strict=True))
    assert "line 2" in str(err.value)


def test_sweep_family_members_n5(flagc_family):
    report = rc.sweep(flagc_family, 5)
    assert report.examined == 53
    assert report.members == 51  # only P5 itself and the banner drop out
    assert report.violations == []
    assert report.tight_count >= 2  # C5 and K5 at least
    assert report.per_n[5]["examined"] == 34


def test_sweep_empty_family_reports_everything():
    everything = rc.FamilySpec("all-graphs", ())
    report = rc.sweep(everything, 5)
    assert report.examined == 53
    assert report.members == 53
    # Reed violations are merely reported for unrestricted sweeps; none occur
    # at this size, but the sweep does not assert it
    assert isinstance(report.violations, list)


def test_sweep_rejects_big_n(flagc_family):
    with pytest.raises(ValueError):
        rc.sweep(flagc_family, 10)


def test_parallel_sweep_equals_serial(flagc_family):
    serial = rc.sweep(flagc_family, 6, workers=1).to_json()
    parallel = rc.sweep(flagc_family, 6, workers=3).to_json()
    serial.pop("wall_time_s")
    parallel.pop("wall_time_s")
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_sweep_stream_matches_internal(flagc_family, graphs_by_n):
    lines = [graph_to_graph6(g) + "\n" for n in range(6) for g in graphs_by_n[n]]
    from_stream = rc.sweep_stream(flagc_family, lines).to_json()
    internal = rc.sweep(flagc_family, 5).to_json()
    for key in ("examined", "members", "violation_count", "tight_count", "per_n"):
        assert from_stream[key] == internal[key]


def test_sweep_report_shape(flagc_family):
    payload = rc.sweep(flagc_family, 4, audit=True).to_json()
    assert payload["family"] == "p5-flagc"
    assert payload["violation_count"] == 0
    assert set(payload["audit"]["instances"]) == set(
        ("I", "S1", "S2", "S3", "S4", "CLAIM", "FINAL")
    )
    assert payload["audit"]["gate_full_pass_members"] == []
    json.dumps(payload)  # must be JSON-serializable as-is


def test_audited_sweep_output_is_pinned(audited_theorem_sweep):
    # every byte of the audited p5-flagc sweep with n <= 8 but its wall
    # time: the 2,052 members at n = 8 are audited on first-fit rotations
    payload = audited_theorem_sweep.to_json()
    payload.pop("wall_time_s")
    assert payload["members"] == 2677
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == (
        "91bc7025b2bef48596b620563108ae03118066e1ab1c3471afe949c5562747bb")


@pytest.fixture
def fake_pool(monkeypatch):
    """Run pool chunks in this process; returns the pool sizes requested."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, chunks, chunksize=1):
            return map(fn, chunks)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(corpus.os, "cpu_count", lambda: 3)
    return sizes


def test_pool_size_is_capped_by_cpu_count(flagc_family, graphs_by_n, fake_pool):
    graphs = [g for n in range(6) for g in graphs_by_n[n]]
    serial = corpus._sweep_graphs(flagc_family, graphs, False, 1)
    assert corpus._sweep_graphs(flagc_family, graphs, False, 8) == serial
    assert corpus._sweep_graphs(flagc_family, graphs, False, 2) == serial
    assert fake_pool == [3, 2]


def test_audit_totals_merge_across_chunks(graphs_by_n, fake_pool):
    everything = rc.FamilySpec("all-graphs", ())
    graphs = [g for n in range(8) for g in graphs_by_n[n]]
    assert len(graphs) == 1253
    serial = corpus._sweep_graphs(everything, graphs, True, 1)
    assert corpus._sweep_graphs(everything, graphs, True, 3) == serial
    assert fake_pool == [3]
    audit = serial.audit
    assert audit["violated_total"] == 304
    # the certificate cap keeps the first 100 certificates of the stream
    first = []
    for g in graphs:
        first += [f.to_json() for f in rc.audit_graph(g, rc.invariant_bundle(g)).violations]
        if len(first) >= 100:
            break
    assert audit["violated_certificates"] == first[:100]


def test_audited_sweep_solves_chi_once_per_member(flagc_family, monkeypatch):
    calls = []
    for name, module in list(sys.modules.items()):
        if (name == "reedcheck" or name.startswith("reedcheck.")) and hasattr(module, "chromatic_number"):
            def counted(g, *args, _solve=module.chromatic_number, **kwargs):
                calls.append(g)
                return _solve(g, *args, **kwargs)

            monkeypatch.setattr(module, "chromatic_number", counted)
    report = rc.sweep(flagc_family, 6, audit=True)
    assert report.members > 0
    assert len(calls) == report.members


_C5_3K1 = rc.FamilySpec(
    "c5-3k1", (("C5", rc.builtin_pattern("C5")), ("ThreeK1", rc.builtin_pattern("3K1"))))


@pytest.mark.parametrize("family", [*rc.FAMILIES.values(), _C5_3K1], ids=lambda f: f.name)
def test_hereditary_sweep_equals_filter_after_enumerate(family, graphs_by_n, fake_pool):
    graphs = [g for n in range(8) for g in graphs_by_n[n]]
    report = rc.sweep(family, 7)
    for n in range(8):
        assert report.per_n[n]["examined"] == len(graphs_by_n[n])
        assert report.per_n[n]["members"] == sum(
            rc.in_family(g, family).member for g in graphs_by_n[n])
    # the same totals as testing every enumerated graph inside the chunks
    filtered = corpus._sweep_graphs(family, graphs, False, 1)
    assert (report.examined, report.members, report.per_n, report.violations,
            report.tight_count, report.tight_exemplars) == (
        filtered.examined, filtered.members, filtered.per_n, filtered.violations,
        filtered.tight_count, filtered.tight_exemplars)
    serial = report.to_json()
    parallel = rc.sweep(family, 7, workers=3).to_json()
    assert fake_pool == [3]
    serial.pop("wall_time_s")
    parallel.pop("wall_time_s")
    assert json.dumps(serial) == json.dumps(parallel)


def test_sweep_tests_membership_only_on_children_of_members(flagc_family, graphs_by_n,
                                                             monkeypatch):
    graphs = [g for n in range(8) for g in graphs_by_n[n]]
    # a graph's parent is its subgraph on the first n-1 vertices
    with_member_parent = [
        g for g in graphs
        if rc.in_family(induced_subgraph(g, range(g.n - 1)), flagc_family).member
    ]
    calls = []

    def counted(g, family, _test=corpus.in_family):
        calls.append(g)
        return _test(g, family)

    monkeypatch.setattr(corpus, "in_family", counted)
    report = rc.sweep(flagc_family, 7)
    assert report.examined == len(graphs)
    assert calls == with_member_parent
    assert len(calls) < len(graphs)

    # a stream need not hold its graphs' parents: every line is tested
    calls.clear()
    lines = [graph_to_graph6(g) + "\n" for g in graphs]
    streamed = rc.sweep_stream(flagc_family, lines)
    assert len(calls) == len(lines)
    assert streamed.per_n == report.per_n


def _assert_totals_are_row_sums(report):
    rows = report.per_n.values()
    assert report.examined == sum(row["examined"] for row in rows)
    assert report.members == sum(row["members"] for row in rows)
    assert report.tight_count == sum(row["tight"] for row in rows)


@pytest.mark.parametrize("workers", [1, 3])
def test_totals_are_the_sums_of_their_per_n_rows(workers, flagc_family, graphs_by_n, fake_pool):
    for family in rc.FAMILIES.values():
        _assert_totals_are_row_sums(rc.sweep(family, 7, workers=workers))
    _assert_totals_are_row_sums(rc.sweep(flagc_family, 6, audit=True, workers=workers))
    lines = [graph_to_graph6(g) + "\n" for n in range(7) for g in graphs_by_n[n]]
    lines[100:100] = ["!!bad\n", "B\n"]
    for audit in (False, True):
        report = rc.sweep_stream(flagc_family, lines, strict=False, audit=audit, workers=workers)
        assert report.skipped_lines == 2
        assert report.examined == len(lines) - 2
        _assert_totals_are_row_sums(report)
    assert len(fake_pool) == (0 if workers == 1 else 8)


def test_stream_sweep_reads_lines_as_it_goes(graphs_by_n, monkeypatch):
    everything = rc.FamilySpec("all-graphs", ())
    codes = [graph_to_graph6(g) + "\n" for n in range(7) for g in graphs_by_n[n]]
    pulled = [0]

    def lines():
        for line in codes:
            pulled[0] += 1
            yield line

    bundles = []

    def counted(g, _bundle=corpus.invariant_bundle):
        # every line is a member, so every line pulled gets a bundle
        assert pulled[0] - len(bundles) <= corpus._CHUNK_SIZE
        bundles.append(g)
        return _bundle(g)

    monkeypatch.setattr(corpus, "invariant_bundle", counted)
    report = rc.sweep_stream(everything, lines())
    assert len(bundles) == report.members == len(codes) > 2 * corpus._CHUNK_SIZE


def test_serial_sweeps_do_not_import_multiprocessing():
    # a serial run, or a pooled one that fits in one chunk, starts no pool
    # and does not pay for importing multiprocessing
    code = """
import sys
import reedcheck as rc
family = rc.FAMILIES["p5-flagc"]
rc.sweep(family, 7, audit=True)
lines = [rc.graph_to_graph6(g) + "\\n" for n in range(8) for g in rc.enumerate_graphs(n)]
rc.sweep_stream(family, lines, audit=True)
rc.sweep_stream(family, lines[:rc.corpus._CHUNK_SIZE], workers=2)
print("multiprocessing" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=300).stdout
    assert out == "False\n"
