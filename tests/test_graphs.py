import itertools
import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reedcheck as rc
from reedcheck.graphs import Graph, Graph6Error


def test_graph_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loops
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # bit beyond n-1
    with pytest.raises(ValueError):
        Graph(1, (0, 0))  # row count mismatch


def test_pickled_graphs_are_not_checked_again(monkeypatch):
    # a pool sends every graph to a worker by pickle; it was checked when built
    graphs = [Graph.empty(0), Graph.cycle(5), rc.graph_from_graph6("G~~~~{")]
    data = pickle.dumps(graphs)

    def checked(*args):
        raise AssertionError("Graph.__init__ called")

    monkeypatch.setattr(Graph, "__init__", checked)
    assert pickle.loads(data) == graphs


def test_degenerate_graphs_are_legal():
    assert Graph.empty(0).n == 0
    assert Graph.empty(1).m == 0
    assert rc.graph_from_graph6(rc.graph_to_graph6(Graph.empty(0))) == Graph.empty(0)


# graph6 codec ---------------------------------------------------------------

def test_hand_decoded_vectors():
    k2 = rc.graph_from_graph6("A_")
    assert k2 == Graph.complete(2)
    assert rc.graph_from_graph6("?") == Graph.empty(0)
    assert rc.graph_from_graph6("@") == Graph.empty(1)
    assert rc.graph_to_graph6(Graph.complete(2)) == "A_"
    assert rc.graph_to_graph6(Graph.empty(1)) == "@"


def test_header_is_tolerated():
    assert rc.graph_from_graph6(">>graph6<<A_") == Graph.complete(2)


def test_encoding_rejects_oversized_graphs():
    with pytest.raises(Graph6Error):
        rc.graph_to_graph6(Graph.empty(63))


@pytest.mark.parametrize(
    "text, offset",
    [
        (">", 0),            # length byte below '?'
        ("~", 0),            # multi-byte size marker
        ("A", 1),            # truncated body
        ("A_?", 2),          # trailing garbage
        ("A" + chr(20), 1),  # out of range data character
        ("B" + chr(63 + 0b000100), 1),  # nonzero padding bit for n=3
        # n = 20, 32 data bytes: a byte above '~' at offset 6, one below '?' at 16
        ("S" + "?" * 5 + "\x7f" + "?" * 9 + chr(20) + "?" * 16, 6),
        ("D?é", 2),          # non-ASCII latin-1 data character
    ],
)
def test_parse_errors_name_the_byte_offset(text, offset):
    with pytest.raises(Graph6Error) as err:
        rc.graph_from_graph6(text)
    assert err.value.offset == offset


def test_enumerated_levels_pass_the_validating_constructor():
    for n in range(8):
        for g in rc.corpus._canonical_level(n):
            assert Graph(g.n, g.adj) == g


def test_roundtrip_all_graphs_up_to_6(graphs_by_n):
    for n in range(7):
        for g in graphs_by_n[n]:
            assert rc.graph_from_graph6(rc.graph_to_graph6(g)) == g


def test_codec_agrees_with_networkx(graphs_by_n):
    # independent reference implementation of the same wire format
    for n in range(6):
        for g in graphs_by_n[n]:
            g6 = rc.graph_to_graph6(g)
            h = nx.from_graph6_bytes(g6.encode())
            assert set(h.edges()) == set(g.edges())
            assert nx.to_graph6_bytes(h, header=False).decode().strip() == g6


# complement / induced subgraph ----------------------------------------------

def test_complement_examples():
    assert rc.complement(Graph.complete(3)) == Graph.empty(3)
    c5 = Graph.cycle(5)
    assert rc.is_isomorphic(rc.complement(c5), c5)


def test_complement_is_an_involution(graphs_by_n):
    for n in range(8):
        for g in graphs_by_n[n]:
            assert rc.complement(rc.complement(g)) == g


def test_complement_preserves_isomorphism_classes(graphs_by_n):
    for n in range(6):
        level = graphs_by_n[n]
        for a in level:
            for b in level:
                assert rc.is_isomorphic(a, b) == rc.is_isomorphic(
                    rc.complement(a), rc.complement(b)
                )


def test_induced_subgraph_examples():
    c5 = Graph.cycle(5)
    assert rc.induced_subgraph(c5, range(5)) == c5
    p4 = rc.induced_subgraph(c5, [0, 1, 2, 3])
    assert rc.is_isomorphic(p4, Graph.path(4))
    with pytest.raises(ValueError):
        rc.induced_subgraph(c5, [0, 7])


def test_induced_subgraph_edge_monotonicity(graphs_by_n):
    for n in range(7):
        for g in graphs_by_n[n]:
            for mask in range(1 << n):
                sub = rc.induced_subgraph(g, [v for v in range(n) if (mask >> v) & 1])
                assert sub.m <= g.m


# canonical codes / isomorphism ----------------------------------------------

def _permuted(g: Graph, perm):
    return Graph.from_edges(g.n, [(perm[v], perm[w]) for v, w in g.edges()])


def _to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_canonical_code_on_relabelings():
    c5 = Graph.cycle(5)
    code = rc.canonical_code(c5)
    assert rc.canonical_code(_permuted(c5, (3, 1, 4, 0, 2))) == code
    assert rc.canonical_code(Graph.path(5)) != code


def test_canonical_code_is_permutation_invariant(graphs_by_n):
    rng = random.Random(20240817)
    for n in range(7):
        for g in graphs_by_n[n]:
            code = rc.canonical_code(g)
            for _ in range(100):
                perm = list(range(n))
                rng.shuffle(perm)
                assert rc.canonical_code(_permuted(g, perm)) == code


def test_labeled_graphs_n4_give_11_codes():
    codes = set()
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for mask in range(1 << 6):
        g = Graph.from_edges(4, [pairs[b] for b in range(6) if (mask >> b) & 1])
        codes.add(rc.canonical_code(g))
    assert len(codes) == 11


def test_is_isomorphic_examples():
    c5 = Graph.cycle(5)
    assert rc.is_isomorphic(c5, rc.complement(c5))
    assert not rc.is_isomorphic(Graph.path(5), c5)
    assert rc.is_isomorphic(c5, c5)


def test_is_isomorphic_matches_code_equality(graphs_by_n):
    for n in range(6):
        level = graphs_by_n[n]
        codes = [rc.canonical_code(g) for g in level]
        for i, a in enumerate(level):
            for j, b in enumerate(level):
                assert rc.is_isomorphic(a, b) == (codes[i] == codes[j])


# independent oracles for the canonical search ---------------------------------

def _brute_force_canonical_form(g: Graph) -> Graph:
    # the least column string x(0,1), x(0,2), x(1,2), x(0,3), ... over every
    # vertex order; the strings have one length, so tuples compare as strings
    pairs = [(i, j) for j in range(1, g.n) for i in range(j)]
    least = min(
        tuple(g.has_edge(order[i], order[j]) for i, j in pairs)
        for order in itertools.permutations(range(g.n))
    )
    return Graph.from_edges(g.n, [pair for pair, bit in zip(pairs, least) if bit])


def test_canonical_form_matches_brute_force(graphs_by_n):
    rng = random.Random(20261018)
    sample = rng.sample(graphs_by_n[7], 40)
    graphs = [g for n in range(7) for g in graphs_by_n[n]] + sample
    assert len(graphs) == 209 + 40
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = _permuted(g, perm)
        assert rc.canonical_form(h) == _brute_force_canonical_form(h), rc.graph_to_graph6(g)


@st.composite
def _random_graphs(draw, n_min, n_max):
    n = draw(st.integers(n_min, n_max))
    density = draw(st.floats(0.05, 0.95))
    pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, coin in zip(pairs, coins) if coin < density])


@settings(max_examples=40, deadline=None)
@given(_random_graphs(9, 10), st.randoms(use_true_random=False))
def test_canonical_code_is_invariant_at_9_and_10(g, rnd):
    code = rc.canonical_code(g)
    for _ in range(3):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert rc.canonical_code(_permuted(g, perm)) == code


@settings(max_examples=100, deadline=None)
@given(_random_graphs(1, 9), st.randoms(use_true_random=False), st.booleans())
def test_is_isomorphic_agrees_with_networkx(g, rnd, move_an_edge):
    # b is a relabeled copy of g, or of g with one edge moved to a non-edge
    edges = list(g.edges())
    non_edges = [(v, w) for v in range(g.n) for w in range(v + 1, g.n) if not g.has_edge(v, w)]
    if move_an_edge and edges and non_edges:
        edges.remove(rnd.choice(edges))
        edges.append(rnd.choice(non_edges))
    perm = list(range(g.n))
    rnd.shuffle(perm)
    b = _permuted(Graph.from_edges(g.n, edges), perm)
    expected = nx.is_isomorphic(_to_networkx(g), _to_networkx(b))
    assert rc.is_isomorphic(g, b) == expected
    assert (rc.canonical_code(g) == rc.canonical_code(b)) == expected


def _symmetric_graphs_on_10():
    matching = Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    prism = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return {
        "empty": Graph.empty(10),
        "complete": Graph.complete(10),
        "5K2": matching,
        "cocktail-party": rc.complement(matching),
        "Petersen": Graph.from_edges(10, outer + inner + spokes),
        "prism-C5xK2": Graph.from_edges(10, outer + prism + spokes),
        "C10": Graph.cycle(10),
    }


@pytest.mark.parametrize("name", list(_symmetric_graphs_on_10()))
def test_symmetric_graphs_on_10_keep_one_code(name):
    g = _symmetric_graphs_on_10()[name]
    assert nx.is_isomorphic(_to_networkx(g), _to_networkx(rc.canonical_form(g)))
    code = rc.canonical_code(g)
    rng = random.Random(name)
    for _ in range(5):
        perm = list(range(10))
        rng.shuffle(perm)
        assert rc.canonical_code(_permuted(g, perm)) == code


def test_enumerated_levels_are_pairwise_non_isomorphic(graphs_by_n):
    # isomorphic graphs share a degree sequence, so only graphs within one
    # degree-sequence bucket need networkx's exact test
    for n in range(8):
        buckets: dict[tuple[int, ...], list[nx.Graph]] = {}
        for g in graphs_by_n[n]:
            h = _to_networkx(g)
            bucket = buckets.setdefault(tuple(sorted(g.degree(v) for v in range(n))), [])
            assert not any(nx.is_isomorphic(h, other) for other in bucket), rc.graph_to_graph6(g)
            bucket.append(h)


# the graph6 codec against networkx, up to the single-byte size limit --------

@st.composite
def _seeded_graphs(draw, n_min, n_max):
    # edges from a seeded Random, so a 62-vertex graph stays one small draw
    n = draw(st.integers(n_min, n_max))
    p = draw(st.floats(0.0, 1.0))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph.from_edges(n, [(v, w) for v in range(n) for w in range(v + 1, n)
                                if rnd.random() < p])


@settings(max_examples=100, deadline=None)
@given(_seeded_graphs(0, 62))
def test_graph6_round_trip_agrees_with_networkx(g):
    g6 = rc.graph_to_graph6(g)
    h = nx.from_graph6_bytes(g6.encode())
    assert h.number_of_nodes() == g.n
    assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges())
    assert nx.to_graph6_bytes(_to_networkx(g), header=False).rstrip(b"\n") == g6.encode()
    assert rc.graph_from_graph6(g6) == g


@st.composite
def _graph6_like_bytes(draw):
    # a valid encoding with one byte possibly overwritten, cut short or
    # extended, and an optional header and line ending; or plain noise
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    data = bytearray(rc.graph_to_graph6(draw(_seeded_graphs(0, 62))).encode())
    edit = draw(st.sampled_from(["none", "overwrite", "cut", "extend"]))
    if edit == "overwrite":
        # any byte, or one in the graph6 range, which can set padding bits
        data[draw(st.integers(0, len(data) - 1))] = draw(
            st.one_of(st.integers(0, 255), st.integers(63, 126)))
    elif edit == "cut":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif edit == "extend":
        data += draw(st.binary(min_size=1, max_size=3))
    header = b">>graph6<<" if draw(st.booleans()) else b""
    return header + bytes(data) + draw(st.sampled_from([b"", b"\n", b"\r\n"]))


def _bitwise_graph6_decode(text: str) -> Graph:
    # the decoder one bit at a time, with the same checks in the same order:
    # the reference for the word-parallel one's graphs, messages and offsets
    s = text.rstrip("\r\n")
    base = len(">>graph6<<") if s.startswith(">>graph6<<") else 0
    s = s[base:]
    if not s:
        raise Graph6Error("missing length byte", offset=base)
    if s[0] == "~":
        raise Graph6Error("multi-byte vertex counts (n > 62) unsupported", offset=base)
    if not "?" <= s[0] <= "}":
        raise Graph6Error(f"bad length byte {s[0]!r}", offset=base)
    n = ord(s[0]) - 63
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    need = (len(pairs) + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise Graph6Error(f"truncated: expected {need} data bytes, found {len(body)}",
                          offset=base + 1 + len(body))
    if len(body) > need:
        raise Graph6Error("trailing garbage after graph data", offset=base + 1 + need)
    edges = []
    for idx, ch in enumerate(body):
        if not "?" <= ch <= "~":
            raise Graph6Error(f"character {ch!r} out of graph6 range", offset=base + 1 + idx)
        for shift in range(5, -1, -1):
            if (ord(ch) - 63) >> shift & 1:
                if 6 * idx + 5 - shift >= len(pairs):
                    raise Graph6Error("nonzero padding bits", offset=base + 1 + idx)
                edges.append(pairs[6 * idx + 5 - shift])
    return Graph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(_graph6_like_bytes())
def test_graph6_decoder_accepts_only_what_networkx_decodes_alike(raw):
    # lines are read as latin-1, so every byte string reaches the decoder
    text = raw.decode("latin-1")
    try:
        expected = _bitwise_graph6_decode(text)
    except Graph6Error as exc:
        expected = exc
    try:
        g = rc.graph_from_graph6(text)
    except Graph6Error as exc:
        assert (str(exc), exc.offset) == (str(expected), expected.offset)
        return
    assert g == expected
    h = nx.from_graph6_bytes(raw.rstrip(b"\r\n"))
    assert h.number_of_nodes() == g.n
    assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges())
    # an accepted line is its graph's own encoding, so the CLI need not encode it again
    assert rc.graph_to_graph6(g) == text.rstrip("\r\n").removeprefix(">>graph6<<")


@settings(max_examples=100, deadline=None)
@given(_seeded_graphs(0, 62), st.randoms(use_true_random=False))
def test_unchecked_graphs_pass_the_validating_constructor(g, rnd):
    # the decoder, complement, induced_subgraph and canonical_form skip the
    # checks of Graph(): their rows must pass them unchanged
    decoded = rc.graph_from_graph6(rc.graph_to_graph6(g))
    assert decoded == g
    # canonical_form on at most 10 vertices: it is slow on large symmetric graphs
    sub = rc.induced_subgraph(decoded, rnd.sample(range(g.n), min(g.n, rnd.randint(0, 10))))
    for h in (decoded, rc.complement(decoded), sub, rc.canonical_form(sub)):
        assert Graph(h.n, h.adj) == h
