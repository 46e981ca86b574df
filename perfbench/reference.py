"""Answers computed apart from reedcheck, used to check its outputs.

Everything here uses networkx (graph6 codec, VF2 induced-subgraph
matching, clique enumeration) or plain Python written for this benchmark
(an exact DSATUR coloring search).  Nothing imports reedcheck.
"""

from __future__ import annotations

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

# Forbidden patterns, defined from scratch rather than read from the program.
P5 = nx.path_graph(5)
C4 = nx.cycle_graph(4)
BANNER = nx.Graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])  # C4 plus a pendant
TWO_K2 = nx.Graph([(0, 1), (2, 3)])
THREE_K1 = nx.empty_graph(3)
P3_K1 = nx.Graph([(0, 1), (1, 2)])
P3_K1.add_node(3)

FAMILY_PATTERNS = {
    "p5-flagc": (P5, BANNER),
    "p5-c4": (P5, C4),
    "3k1": (THREE_K1,),
    "p3k1": (P3_K1,),
    "2k2-c4": (TWO_K2, C4),
}

# Orders of A000088: isomorphism classes of graphs on n = 0..8 vertices.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def has_induced(host: nx.Graph, pattern: nx.Graph) -> bool:
    """GraphMatcher.subgraph_is_isomorphic tests node-induced subgraphs."""
    return GraphMatcher(host, pattern).subgraph_is_isomorphic()


def is_member(g: nx.Graph, family: str) -> bool:
    return not any(has_induced(g, p) for p in FAMILY_PATTERNS[family])


def is_member_dense(g: nx.Graph, family: str) -> bool:
    """Same answer as :func:`is_member`; searches the complements instead,
    which is faster on dense hosts (H is induced in G iff the complement
    of H is induced in the complement of G)."""
    co = nx.complement(g)
    return not any(has_induced(co, nx.complement(p)) for p in FAMILY_PATTERNS[family])


def decode(line: str) -> nx.Graph:
    return nx.from_graph6_bytes(line.encode("ascii"))


def encode(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def atlas_member_counts(n_max: int = 7) -> dict[str, list[int]]:
    """Members per family and per n <= 7, filtered from the graph atlas."""
    counts = {f: [0] * (n_max + 1) for f in FAMILY_PATTERNS}
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() > n_max:
            continue
        for family in FAMILY_PATTERNS:
            if is_member(g, family):
                counts[family][g.number_of_nodes()] += 1
    return counts


def clique_number(g: nx.Graph) -> int:
    if g.number_of_nodes() == 0:
        return 0
    return max(len(c) for c in nx.find_cliques(g))


def chromatic_number(g: nx.Graph, lower: int = 1) -> int:
    """Exact chromatic number: DSATUR-ordered backtracking for k = lower, lower+1, ..."""
    nodes = list(g.nodes())
    n = len(nodes)
    if n == 0:
        return 0
    index = {v: i for i, v in enumerate(nodes)}
    nbrs = [[index[w] for w in g.neighbors(v)] for v in nodes]
    k = max(lower, 1)
    while not _k_colorable(nbrs, k):
        k += 1
    return k


def _k_colorable(nbrs: list[list[int]], k: int) -> bool:
    n = len(nbrs)
    color = [-1] * n
    blocked = [0] * n  # bitmask of colors already on a neighbor
    degree = [len(a) for a in nbrs]

    def search(left: int, used: int) -> bool:
        if left == 0:
            return True
        # most saturated uncolored vertex, ties broken by degree
        v, best = -1, (-1, -1)
        for u in range(n):
            if color[u] < 0:
                key = (blocked[u].bit_count(), degree[u])
                if key > best:
                    v, best = u, key
        # a color never used yet is interchangeable with every other unused one
        for c in range(min(used + 1, k)):
            if (blocked[v] >> c) & 1:
                continue
            color[v] = c
            marked = [w for w in nbrs[v] if color[w] < 0 and not (blocked[w] >> c) & 1]
            for w in marked:
                blocked[w] |= 1 << c
            if search(left - 1, max(used, c + 1)):
                return True
            for w in marked:
                blocked[w] &= ~(1 << c)
        color[v] = -1
        return False

    return search(n, 0)


def bundle(g: nx.Graph) -> dict:
    """The invariant bundle reedcheck reports, computed independently."""
    n = g.number_of_nodes()
    delta = max((d for _, d in g.degree()), default=0)
    omega = clique_number(g)
    chi = chromatic_number(g, lower=omega)
    bound = (delta + omega + 2) // 2  # ceil((delta + omega + 1) / 2)
    return {
        "n": n,
        "m": g.number_of_edges(),
        "delta": delta,
        "omega": omega,
        "chi": chi,
        "alpha": clique_number(nx.complement(g)),
        "reed_bound": bound,
        "slack": bound - chi,
    }
