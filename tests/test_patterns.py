import gc
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

import reedcheck as rc
from reedcheck.graphs import Graph
from reedcheck.patterns import FAMILIES, FamilySpec, catalog_names


def _is_order_exact(host, pattern, image):
    """Pattern edge iff host edge, position by position."""
    return all(
        pattern.has_edge(i, j) == host.has_edge(image[i], image[j])
        for i, j in combinations(range(pattern.n), 2)
    )


def _least_embedding(host, pattern):
    """Brute-force oracle: the first order-exact embedding in tuple order."""
    for image in permutations(range(host.n), pattern.n):
        if _is_order_exact(host, pattern, image):
            return image
    return None


def _to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_catalog_shapes():
    p5 = rc.builtin_pattern("P5")
    assert (p5.n, p5.m) == (5, 4)
    assert set(p5.edges()) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    flagc = rc.builtin_pattern("FlagC")
    assert (flagc.n, flagc.m) == (5, 5)
    assert set(flagc.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)}

    assert rc.builtin_pattern("Flag") == rc.complement(flagc)
    assert rc.builtin_pattern("C4") == Graph.cycle(4)
    assert rc.builtin_pattern("C5") == Graph.cycle(5)
    assert rc.builtin_pattern("TwoK2").m == 2
    assert rc.builtin_pattern("ThreeK1") == Graph.empty(3)
    assert rc.builtin_pattern("P3uK1").m == 2
    assert rc.builtin_pattern("2K2") == rc.builtin_pattern("TwoK2")
    assert rc.builtin_pattern("3K1") == rc.builtin_pattern("ThreeK1")


def test_unknown_pattern_error_lists_keys():
    with pytest.raises(ValueError) as err:
        rc.builtin_pattern("Wheel")
    for name in catalog_names():
        assert name in str(err.value)


def test_flagc_matches_both_contradiction_subgraphs():
    # the two five-vertex obstructions that force the banner's adjacency:
    # a 4-cycle V-W-V'-t with a pendant u at t (vertices V,W,V',t,u = 0..4),
    # and a 4-cycle W-B-t''-t' with a pendant t at W (vertices t,W,B,t'',t')
    first = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    second = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    flagc = rc.builtin_pattern("FlagC")
    assert rc.is_isomorphic(first, flagc)
    assert rc.is_isomorphic(second, flagc)
    # and the banner is the complement of the catalog's Flag
    assert rc.is_isomorphic(rc.complement(rc.builtin_pattern("Flag")), flagc)


def test_has_induced_examples():
    c6 = Graph.cycle(6)
    assert rc.has_induced(c6, rc.builtin_pattern("P5")) == (0, 1, 2, 3, 4)
    assert rc.has_induced(Graph.cycle(5), rc.builtin_pattern("P5")) is None
    witness = rc.has_induced(rc.builtin_pattern("FlagC"), rc.builtin_pattern("C4"))
    assert witness == (0, 1, 2, 3)


def test_every_pattern_is_its_own_witness():
    for name in catalog_names():
        p = rc.builtin_pattern(name)
        assert rc.has_induced(p, p) == tuple(range(p.n))


def test_witness_is_induced_and_least(graphs_by_n):
    p5 = rc.builtin_pattern("P5")
    for g in graphs_by_n[6]:
        witness = rc.has_induced(g, p5)
        if witness is None:
            continue
        sub = rc.induced_subgraph(g, witness)
        assert rc.is_isomorphic(sub, p5)
        # order-exact embedding: pattern edge iff host edge, position by position
        for i in range(5):
            for j in range(i + 1, 5):
                assert p5.has_edge(i, j) == g.has_edge(witness[i], witness[j])
    # and least: the first embedding in tuple order, for every catalog pattern
    for name in catalog_names():
        pattern = rc.builtin_pattern(name)
        for n in range(7):
            for g in graphs_by_n[n]:
                expected = _least_embedding(g, pattern)
                assert rc.has_induced(g, pattern) == expected, (name, rc.graph_to_graph6(g))


def _gnp(draw, n, density):
    pairs = list(combinations(range(n), 2))
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, coin in zip(pairs, coins) if coin < density])


@st.composite
def _random_hosts(draw):
    return _gnp(draw, draw(st.integers(8, 14)), draw(st.floats(0.1, 0.95)))


@settings(max_examples=60, deadline=None)
@given(_random_hosts())
def test_has_induced_agrees_with_networkx(host):
    h = _to_networkx(host)
    for name in catalog_names():
        pattern = rc.builtin_pattern(name)
        witness = rc.has_induced(host, pattern)
        found = GraphMatcher(h, _to_networkx(pattern)).subgraph_is_isomorphic()
        assert (witness is not None) == found, name
        if witness is not None:
            assert len(set(witness)) == pattern.n
            assert _is_order_exact(host, pattern, witness), name


def _oracle_has_induced(host, pattern):
    """The search with the one-sided degree filter: host degree >= pattern degree."""
    k, n = pattern.n, host.n
    if k > n:
        return None
    if k == 0:
        return ()
    hadj = host.adj
    padj = pattern.adj
    full = (1 << n) - 1
    non_adj = [full & ~(hadj[w] | (1 << w)) for w in range(n)]
    at_least = [0] * (n + 1)
    for w in range(n):
        at_least[hadj[w].bit_count()] |= 1 << w
    for d in range(n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    allowed = [at_least[padj[v].bit_count()] for v in range(k)]
    image = [0] * k

    def extend(v):
        cand = allowed[v]
        row = padj[v]
        for u in range(v):
            cand &= hadj[image[u]] if (row >> u) & 1 else non_adj[image[u]]
        while cand:
            low = cand & -cand
            image[v] = low.bit_length() - 1
            if v + 1 == k or extend(v + 1):
                return True
            cand ^= low
        return False

    found = extend(0)
    del extend
    return tuple(image) if found else None


@st.composite
def _dense_hosts_and_patterns(draw):
    host = _gnp(draw, draw(st.integers(8, 14)), draw(st.floats(0.6, 1.0)))
    k = draw(st.sampled_from((6, 5, 4, 3, 2, 1)))  # larger patterns first
    pattern = _gnp(draw, k, draw(st.floats(0, 1)))
    # an isolated or a universal vertex sits at either end of the window
    extreme = draw(st.sampled_from((None, "isolated", "universal")))
    if extreme is not None:
        v = draw(st.integers(0, k - 1))
        edges = [e for e in pattern.edges() if v not in e]
        if extreme == "universal":
            edges += [(v, w) for w in range(k) if w != v]
        pattern = Graph.from_edges(k, edges)
    return host, pattern


@settings(max_examples=300, deadline=None)
@given(_dense_hosts_and_patterns())
def test_has_induced_matches_the_one_sided_oracle(case):
    # the two-sided degree window drops only vertices no embedding uses, so
    # the least witness is the one the one-sided filter finds
    host, pattern = case
    assert rc.has_induced(host, pattern) == _oracle_has_induced(host, pattern)


def test_in_family_examples():
    fam = FAMILIES["p5-flagc"]
    assert rc.in_family(Graph.cycle(5), fam).member
    for n in range(1, 9):
        assert rc.in_family(Graph.complete(n), fam).member
    check = rc.in_family(Graph.cycle(6), fam)
    assert not check.member
    assert check.pattern == "P5"
    assert check.witness == (0, 1, 2, 3, 4)


def test_family_spec_rejects_oversized_patterns():
    with pytest.raises(ValueError):
        FamilySpec("bad", (("big", Graph.empty(11)),))
    with pytest.raises(ValueError):
        FamilySpec("bad", (("nothing", Graph.empty(0)),))


def test_family_inclusions_up_to_6(graphs_by_n):
    main = FAMILIES["p5-flagc"]
    for name in ("p5-c4", "3k1", "p3k1", "2k2-c4"):
        sub = FAMILIES[name]
        for n in range(7):
            for g in graphs_by_n[n]:
                if rc.in_family(g, sub).member:
                    assert rc.in_family(g, main).member, (name, rc.graph_to_graph6(g))


def test_hereditarity(graphs_by_n):
    fam = FAMILIES["p5-flagc"]
    for n in range(6):
        for g in graphs_by_n[n]:
            if not rc.in_family(g, fam).member:
                continue
            for mask in range(1 << n):
                sub = rc.induced_subgraph(g, [v for v in range(n) if (mask >> v) & 1])
                assert rc.in_family(sub, fam).member


def test_searches_leave_no_reference_cycles(graphs_by_n, flagc_family):
    # the recursive searches are closures that name themselves; each call
    # must drop that cycle, or every search leaves garbage for the collector
    graphs = [g for n in range(7) for g in graphs_by_n[n]]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            rc.in_family(g, flagc_family)
            rc.enumerate_optimal_colorings(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_odd_hole_lengths_examples():
    assert rc.odd_hole_lengths(Graph.cycle(5)) == (5,)
    assert rc.odd_hole_lengths(Graph.cycle(7)) == (7,)
    assert rc.odd_hole_lengths(Graph.cycle(9)) == (9,)
    assert rc.odd_hole_lengths(Graph.cycle(6)) == ()
    assert rc.odd_hole_lengths(Graph.complete(6)) == ()
    two_c5 = Graph.from_edges(
        10,
        [(v, (v + 1) % 5) for v in range(5)]
        + [(5 + v, 5 + (v + 1) % 5) for v in range(5)],
    )
    assert rc.odd_hole_lengths(two_c5) == (5, 5)
    with pytest.raises(ValueError):
        rc.odd_hole_lengths(Graph.empty(13))


def test_p5_free_graphs_have_no_long_odd_holes(graphs_by_n):
    # n <= 8 is the acceptance run; spot-check n <= 7 here
    p5 = rc.builtin_pattern("P5")
    for n in range(8):
        for g in graphs_by_n[n]:
            if rc.has_induced(g, p5) is None:
                assert all(length == 5 for length in rc.odd_hole_lengths(g))
