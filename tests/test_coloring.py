import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reedcheck as rc
from reedcheck.coloring import Coloring, canonicalize_coloring
from reedcheck.graphs import Graph, iter_bits

C5 = Graph.cycle(5)
APEX = Coloring((0, 1, 2, 1, 2), 3)  # u=0, t=1, x=2, y=3, t'=4


def vertex_set(mask):
    return frozenset(iter_bits(mask))


def rst(d):
    """(R, S, T) of a decomposition, as vertex sets."""
    return vertex_set(d.R_mask), vertex_set(d.S_mask), vertex_set(d.T_mask)


def level_sets(seq):
    """The substitute levels (S_l, S_l') of a sequence, as vertex sets."""
    return tuple((vertex_set(level), vertex_set(primed)) for level, primed in seq.level_masks)


def t_prime(g, c, d):
    """T', the primed set of level 0."""
    return vertex_set(rc.build_sequence(g, c, d).level_masks[0][1])


def test_coloring_requires_contiguous_colors():
    with pytest.raises(ValueError):
        Coloring((0, 2), 3)
    with pytest.raises(ValueError):
        Coloring((0, 1), 1)


def test_is_proper():
    assert rc.is_proper(C5, Coloring((0, 1, 0, 1, 2), 3))
    assert not rc.is_proper(Graph.complete(2), Coloring((0, 0), 1))
    with pytest.raises(ValueError):
        rc.is_proper(C5, Coloring((0, 1), 2))


def test_greedy_coloring_examples():
    assert rc.greedy_coloring(Graph.complete(3), (0, 1, 2)).color_count == 3
    c = rc.greedy_coloring(C5, (0, 1, 2, 3, 4))
    assert c.colors == (0, 1, 0, 1, 2)
    assert rc.greedy_coloring(Graph.empty(4), (3, 2, 1, 0)).color_count == 1
    with pytest.raises(ValueError):
        rc.greedy_coloring(C5, (0, 1, 2, 3, 3))


def test_greedy_is_always_proper(graphs_by_n):
    for n in range(7):
        for g in graphs_by_n[n]:
            for shift in range(max(1, n)):
                order = tuple((v + shift) % n for v in range(n))
                assert rc.is_proper(g, rc.greedy_coloring(g, order))


def test_canonicalize_coloring():
    assert canonicalize_coloring(Coloring((2, 0, 2, 1), 3)).colors == (0, 1, 0, 2)


def test_enumerate_optimal_colorings_examples():
    assert len(rc.enumerate_optimal_colorings(Graph.complete(3))) == 1
    c5 = rc.enumerate_optimal_colorings(C5)
    assert len(c5) == 5
    assert APEX in c5
    c4 = rc.enumerate_optimal_colorings(Graph.cycle(4))
    assert [c.colors for c in c4] == [(0, 1, 0, 1)]


def test_enumerated_colorings_are_proper_optimal_and_canonical(graphs_by_n):
    for n in range(6):
        for g in graphs_by_n[n]:
            enum = rc.enumerate_optimal_colorings(g)
            chi = rc.chromatic_number(g)
            seen = set()
            for c in enum:
                assert rc.is_proper(g, c)
                assert c.color_count == chi
                assert canonicalize_coloring(c) == c
                seen.add(c.colors)
            assert len(seen) == len(enum)


def test_enumeration_keeps_every_optimal_coloring():
    # triangle plus three isolated vertices: each isolated vertex takes any
    # of the three colors
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2)])
    assert len(rc.enumerate_optimal_colorings(g)) == 27


# Kempe machinery -------------------------------------------------------------

def test_kempe_component_examples():
    k2 = Graph.complete(2)
    assert rc.kempe_component(k2, Coloring((0, 1), 2), 0, 1) == {0, 1}
    c = Coloring((0, 1, 0, 1, 2), 3)
    assert rc.kempe_component(C5, c, 4, 0) == {0, 4}
    lonely = Graph.from_edges(3, [(0, 1)])
    assert rc.kempe_component(lonely, Coloring((0, 1, 0), 2), 2, 1) == {2}
    with pytest.raises(ValueError):
        rc.kempe_component(k2, Coloring((0, 1), 2), 0, 0)


def test_kempe_swap_examples():
    k2 = Graph.complete(2)
    c = Coloring((0, 1), 2)
    swapped = rc.kempe_swap(k2, c, frozenset({0, 1}), (0, 1))
    assert swapped.colors == (1, 0)
    assert rc.kempe_swap(k2, swapped, frozenset({0, 1}), (0, 1)) == c


def test_kempe_swap_rejects_open_component():
    p3 = Graph.path(3)
    c = Coloring((0, 1, 0), 2)
    with pytest.raises(ValueError):
        rc.kempe_swap(p3, c, frozenset({0, 1}), (0, 1))  # vertex 2 also bicolored
    with pytest.raises(ValueError):
        rc.kempe_swap(p3, c, frozenset({0}), (1, 2))  # color outside the pair


def test_kempe_swap_properness_and_involution(graphs_by_n):
    for n in range(6):
        for g in graphs_by_n[n]:
            for c in rc.enumerate_optimal_colorings(g):
                for v in range(n):
                    for other in range(c.color_count):
                        if other == c.colors[v]:
                            continue
                        comp = rc.kempe_component(g, c, v, other)
                        pair = (c.colors[v], other)
                        swapped = rc.kempe_swap(g, c, comp, pair)
                        assert rc.is_proper(g, swapped)
                        assert rc.kempe_swap(g, swapped, comp, pair) == c


@settings(max_examples=100, deadline=None)
@given(st.integers(9, 12), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
def test_kempe_swap_involution_on_random_first_fit_colorings(n, p, seed):
    rnd = random.Random(seed)
    g = Graph.from_edges(n, [(v, w) for v in range(n) for w in range(v + 1, n)
                             if rnd.random() < p])
    order = list(range(n))
    rnd.shuffle(order)
    c = rc.greedy_coloring(g, order)
    for v in range(n):
        for other in range(c.color_count):
            if other == c.colors[v]:
                continue
            comp = rc.kempe_component(g, c, v, other)
            pair = (c.colors[v], other)
            swapped = rc.kempe_swap(g, c, comp, pair)
            assert rc.is_proper(g, swapped)
            assert all(swapped.colors[w] == c.colors[w] for w in range(n) if w not in comp)
            assert rc.kempe_swap(g, swapped, comp, pair) == c


def test_find_bicolor_path4_examples():
    path = rc.find_bicolor_path4(C5, APEX, 1, 4)
    assert path == (1, 2, 3, 4)
    assert [APEX.colors[v] for v in path] == [1, 2, 1, 2]
    # endpoints in different components: no path
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    c = Coloring((0, 1, 1, 0), 2)
    assert rc.find_bicolor_path4(two_edges, c, 0, 2) is None
    with pytest.raises(ValueError):
        rc.find_bicolor_path4(C5, APEX, 1, 3)  # same color
    with pytest.raises(ValueError):
        rc.find_bicolor_path4(C5, APEX, 0, 4)  # adjacent


def test_bicolor_path_induces_p4(graphs_by_n):
    p4 = Graph.path(4)
    for n in range(7):
        for g in graphs_by_n[n]:
            for c in rc.enumerate_optimal_colorings(g):
                for t in range(n):
                    for t2 in range(n):
                        if t == t2 or g.has_edge(t, t2) or c.colors[t] == c.colors[t2]:
                            continue
                        found = rc.find_bicolor_path4(g, c, t, t2)
                        if found is None:
                            continue
                        sub = rc.induced_subgraph(g, found)
                        assert rc.is_isomorphic(sub, p4)


# unique-color decompositions --------------------------------------------------

def test_unique_color_neighbors_examples():
    # path a-u-b colored (1,0,2)
    p3 = Graph.path(3)
    d = rc.unique_color_neighbors(p3, Coloring((1, 0, 2), 3), 1)
    assert rst(d) == ({0, 2}, frozenset(), {0, 2})

    k3 = Graph.complete(3)
    d = rc.unique_color_neighbors(k3, Coloring((0, 1, 2), 3), 0)
    assert rst(d) == ({1, 2}, {1, 2}, frozenset())

    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    d = rc.unique_color_neighbors(star, Coloring((0, 1, 1, 1), 2), 0)
    assert rst(d)[0] == frozenset()


def test_r_partition_property(graphs_by_n):
    for n in range(6):
        for g in graphs_by_n[n]:
            for c in rc.enumerate_optimal_colorings(g):
                for u in range(n):
                    d = rc.unique_color_neighbors(g, c, u)
                    R, S, T = rst(d)
                    assert S | T == R
                    assert not S & T


def test_derive_T_prime_examples():
    # path c-a-u-b colored (2,1,0,2): T = {a,b}, c substitutes for b
    p4 = Graph.path(4)
    c = Coloring((2, 1, 0, 2), 3)
    d = rc.unique_color_neighbors(p4, c, 2)
    assert rst(d)[2] == {1, 3}
    assert t_prime(p4, c, d) == {0}

    k3 = Graph.complete(3)
    ck3 = Coloring((0, 1, 2), 3)
    assert t_prime(k3, ck3, rc.unique_color_neighbors(k3, ck3, 0)) == frozenset()

    d5 = rc.unique_color_neighbors(C5, APEX, 0)
    assert t_prime(C5, APEX, d5) == {2, 3}


def test_build_sequence_examples():
    seq = rc.build_sequence(C5, APEX, rc.unique_color_neighbors(C5, APEX, 0))
    assert level_sets(seq) == ((frozenset({1, 4}), frozenset({2, 3})),)
    assert vertex_set(seq.W_mask) == frozenset()

    k4 = Graph.complete(4)
    ck4 = Coloring((0, 1, 2, 3), 4)
    seq = rc.build_sequence(k4, ck4, rc.unique_color_neighbors(k4, ck4, 0))
    assert level_sets(seq)[0] == (frozenset(), frozenset())
    assert vertex_set(seq.W_mask) == {1, 2, 3}  # W = S = N(u)


def test_build_sequence_structural_properties(graphs_by_n, flagc_family):
    for n in range(7):
        for g in graphs_by_n[n]:
            if not rc.in_family(g, flagc_family).member:
                continue
            for c in rc.enumerate_optimal_colorings(g):
                for u in range(n):
                    d = rc.unique_color_neighbors(g, c, u)
                    _, S, T = rst(d)
                    seq = rc.build_sequence(g, c, d)
                    levels, W = level_sets(seq), vertex_set(seq.W_mask)
                    assert len(levels) - 1 <= len(S) + 1
                    assert levels[0][0] == T
                    consumed = set()
                    for l, (level, primed) in enumerate(levels):
                        if l == 0:
                            continue
                        assert level <= S and not (level & consumed)
                        assert level, "only a trailing level may be empty"
                        consumed |= level
                        # substitutes carry colors of their level and live
                        # outside the closed neighborhood
                        level_colors = {c.colors[x] for x in level}
                        for z in primed:
                            assert z != u and not g.has_edge(u, z)
                            assert c.colors[z] in level_colors
                    assert W == S - consumed
                    # the core is adjacent to every substitute, at every level
                    for x in W:
                        for z in vertex_set(seq.primed_mask):
                            assert g.has_edge(x, z)


def test_level_color_coverage_is_not_universal():
    # on this family member the only substitute candidate for the level-1
    # vertex (color 2) is missing, so the forward color-coverage direction
    # fails outside the counterexample hypotheses; the reverse direction
    # (substitute colors come from the level) is structural and always holds
    g = rc.graph_from_graph6("F@P|w")
    c = Coloring((0, 0, 0, 1, 1, 2, 3), 4)
    assert rc.is_proper(g, c) and c.color_count == rc.chromatic_number(g)
    seq = rc.build_sequence(g, c, rc.unique_color_neighbors(g, c, 4))
    s1, s1p = level_sets(seq)[1]
    assert s1 == {5} and s1p == frozenset()


# test-local oracle: the decompositions as plain set computations ----------------

def oracle_unique_color_neighbors(g, c, u):
    """(R, S, T) around u, from color counts inside N(u)."""
    neighbors = list(iter_bits(g.adj[u]))
    counts = {}
    for w in neighbors:
        counts[c.colors[w]] = counts.get(c.colors[w], 0) + 1
    R = frozenset(w for w in neighbors if counts[c.colors[w]] == 1)
    S = frozenset(x for x in R if all(g.has_edge(x, y) for y in R if y != x))
    return R, S, R - S


def oracle_derive_T_prime(g, c, u, T):
    outside = [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
    result = set()
    for x_prime in outside:
        for x in T:
            if not g.has_edge(x_prime, x):
                continue
            for y in T:
                if y != x and not g.has_edge(x, y) and c.colors[x_prime] == c.colors[y]:
                    result.add(x_prime)
                    break
            if x_prime in result:
                break
    return frozenset(result)


def oracle_build_sequence(g, c, u, S, T):
    """(levels, W) of the substitute construction."""
    t_prime = oracle_derive_T_prime(g, c, u, T)
    levels = [(T, t_prime)]
    pool = set(S)
    outside = [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
    prev_primed = t_prime
    while prev_primed:
        level = {x for x in pool if any(not g.has_edge(x, y) for y in prev_primed)}
        if not level:
            break
        primed = set()
        for x in level:
            beta = c.colors[x]
            for y in prev_primed:
                if g.has_edge(x, y):
                    continue
                for z in outside:
                    if c.colors[z] == beta and g.has_edge(z, y):
                        primed.add(z)
        pool -= level
        levels.append((frozenset(level), frozenset(primed)))
        if not primed:
            break
        prev_primed = frozenset(primed)
    return tuple(levels), frozenset(pool)


def oracle_find_bicolor_path4(g, c, t, t_prime):
    j, i = c.colors[t], c.colors[t_prime]
    for v in iter_bits(g.adj[t]):
        if c.colors[v] != i or v == t_prime:
            continue
        for w in iter_bits(g.adj[v]):
            if c.colors[w] != j or w == t:
                continue
            if g.has_edge(w, t_prime):
                return (t, v, w, t_prime), (j, i)
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(9, 12), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
def test_decompositions_match_the_set_oracle(n, p, seed):
    rnd = random.Random(seed)
    g = Graph.from_edges(n, [(v, w) for v in range(n) for w in range(v + 1, n)
                             if rnd.random() < p])
    order = list(range(n))
    rnd.shuffle(order)
    c = rc.greedy_coloring(g, order)
    for u in range(n):
        d = rc.unique_color_neighbors(g, c, u)
        R, S, T = oracle_unique_color_neighbors(g, c, u)
        assert (d.u, *rst(d)) == (u, R, S, T)
        seq = rc.build_sequence(g, c, d)
        assert vertex_set(seq.level_masks[0][1]) == oracle_derive_T_prime(g, c, u, T)
        levels, W = oracle_build_sequence(g, c, u, S, T)
        assert (level_sets(seq), vertex_set(seq.W_mask)) == (levels, W)
        assert vertex_set(seq.primed_mask) == frozenset().union(*(primed for _, primed in levels))
    for t in range(n):
        for t2 in range(n):
            if t == t2 or g.has_edge(t, t2) or c.colors[t] == c.colors[t2]:
                continue
            path = rc.find_bicolor_path4(g, c, t, t2)
            expected = oracle_find_bicolor_path4(g, c, t, t2)
            if expected is None:
                assert path is None
            else:
                vertices, (j, i) = expected
                assert path == vertices
                assert [c.colors[v] for v in path] == [j, i, j, i]
