from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reedcheck as rc
from reedcheck.graphs import Graph


def _to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# blunt exhaustive oracles, deliberately sharing no logic with the solvers

def oracle_clique(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for subset in combinations(range(g.n), r):
            if all(g.has_edge(v, w) for v, w in combinations(subset, 2)):
                return r
    return best


def oracle_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[v] != assignment[w] for v, w in edges):
                return k
    raise AssertionError("unreachable")


def oracle_backtracking_chromatic(g: Graph) -> int:
    """Plain vertex-order backtracking upward from networkx's clique size."""
    n, adj = g.n, g.adj
    if n == 0:
        return 0

    def colorable(k: int) -> bool:
        classes = [0] * k

        def assign(v: int, used: int) -> bool:
            if v == n:
                return True
            for c in range(min(used + 1, k)):
                if classes[c] & adj[v]:
                    continue
                classes[c] |= 1 << v
                if assign(v + 1, max(used, c + 1)):
                    return True
                classes[c] &= ~(1 << v)
            return False

        return assign(0, 0)

    k = max(len(c) for c in nx.find_cliques(_to_networkx(g)))
    while not colorable(k):
        k += 1
    return k


def oracle_independence(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for subset in combinations(range(g.n), r):
            if not any(g.has_edge(v, w) for v, w in combinations(subset, 2)):
                return r
    return best


def test_max_degree_examples():
    assert rc.max_degree(Graph.complete(5)) == 4
    assert rc.max_degree(Graph.cycle(5)) == 2
    assert rc.max_degree(Graph.empty(4)) == 0
    assert rc.max_degree(Graph.empty(0)) == 0


def test_clique_number_examples():
    assert rc.clique_number(Graph.complete(5)) == 5
    assert rc.clique_number(Graph.cycle(5)) == 2
    assert rc.clique_number(Graph.path(5)) == 2
    assert rc.clique_number(Graph.empty(0)) == 0


def test_chromatic_number_examples():
    assert rc.chromatic_number(Graph.cycle(5)) == 3
    assert rc.chromatic_number(Graph.complete(5)) == 5
    assert rc.chromatic_number(Graph.empty(3)) == 1


def test_independence_number_examples():
    assert rc.independence_number(Graph.cycle(5)) == 2
    assert rc.independence_number(Graph.complete(5)) == 1
    assert rc.independence_number(Graph.empty(4)) == 4


def test_reed_bound_examples():
    assert rc.reed_bound(4, 5) == 5
    assert rc.reed_bound(2, 2) == 3
    assert rc.reed_bound(0, 1) == 1
    with pytest.raises(ValueError):
        rc.reed_bound(-1, 0)


def test_reed_bound_is_exact_ceiling():
    for delta in range(11):
        for omega in range(11):
            total = delta + omega + 1
            assert rc.reed_bound(delta, omega) == -(-total // 2)


def test_bundle_examples():
    c5 = rc.invariant_bundle(Graph.cycle(5))
    assert (c5.delta, c5.omega, c5.chi, c5.reed_bound, c5.slack) == (2, 2, 3, 3, 0)
    k5 = rc.invariant_bundle(Graph.complete(5))
    assert (k5.delta, k5.omega, k5.chi, k5.reed_bound, k5.slack) == (4, 5, 5, 5, 0)
    p4 = rc.invariant_bundle(Graph.path(4))
    assert (p4.delta, p4.omega, p4.chi, p4.reed_bound, p4.slack) == (2, 2, 2, 3, 1)


def test_oracle_equivalence_up_to_5(graphs_by_n):
    # the full 208-graph n <= 6 run lives in the acceptance suite
    for n in range(1, 6):
        for g in graphs_by_n[n]:
            assert rc.clique_number(g) == oracle_clique(g)
            assert rc.chromatic_number(g) == oracle_chromatic(g)
            assert rc.independence_number(g) == oracle_independence(g)


def test_edge_addition_monotonicity(graphs_by_n):
    for n in range(2, 6):
        for g in graphs_by_n[n]:
            omega, chi = rc.clique_number(g), rc.chromatic_number(g)
            for v in range(n):
                for w in range(v + 1, n):
                    if g.has_edge(v, w):
                        continue
                    bigger = Graph.from_edges(n, list(g.edges()) + [(v, w)])
                    assert rc.clique_number(bigger) >= omega
                    assert rc.chromatic_number(bigger) >= chi


def test_omega_at_most_chi_up_to_7(graphs_by_n):
    for n in range(8):
        for g in graphs_by_n[n]:
            assert rc.clique_number(g) <= rc.chromatic_number(g)


def test_bundle_sanity_guard():
    with pytest.raises(ValueError):
        rc.InvariantBundle(n=3, m=0, delta=0, omega=2, chi=1, alpha=3, reed_bound=2, slack=1)


# properties on random G(n, p) past the exhaustive range ---------------------

@st.composite
def _gnp(draw, n_min, n_max):
    n = draw(st.integers(n_min, n_max))
    p = draw(st.floats(0.2, 0.8))
    rnd = draw(st.randoms(use_true_random=False))
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rnd.random() < p])


@settings(max_examples=100, deadline=None)
@given(_gnp(9, 18))
def test_omega_and_alpha_match_networkx_cliques(g):
    h = _to_networkx(g)
    assert rc.clique_number(g) == max(len(c) for c in nx.find_cliques(h))
    assert rc.independence_number(g) == max(len(c) for c in nx.find_cliques(nx.complement(h)))


@settings(max_examples=100, deadline=None)
@given(_gnp(9, 18))
def test_chi_matches_backtracking_oracle(g):
    assert rc.chromatic_number(g) == oracle_backtracking_chromatic(g)


@settings(max_examples=100, deadline=None)
@given(_gnp(9, 18))
def test_chi_between_omega_and_greedy_dsatur(g):
    greedy = nx.greedy_color(_to_networkx(g), strategy="DSATUR")
    chi = rc.chromatic_number(g)
    assert rc.clique_number(g) <= chi <= len(set(greedy.values()))
    assert rc.chromatic_number(g, omega=rc.clique_number(g)) == chi
