"""Proper colorings, Kempe machinery, and the unique-color decompositions.

The decompositions mirror the structure used to rule out a minimal
counterexample to the Reed bound: around an apex vertex ``u`` one takes
R, the neighbors whose color is unique inside N(u); splits it into S
(adjacent to all of R) and T = R - S; collects substitutes T' outside
the closed neighborhood; and iterates the substitute construction into
levels (S_l, S_l') until it dries up, leaving the core W.  All of these
are plain set computations over one graph and one proper coloring, so
they can be audited on any concrete instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, iter_bits
from .invariants import chromatic_number


@dataclass(frozen=True)
class Coloring:
    """A vertex coloring using exactly ``color_count`` colors 0..count-1."""

    colors: tuple[int, ...]
    color_count: int

    def __post_init__(self):
        used = set(self.colors)
        if used != set(range(self.color_count)):
            raise ValueError(
                f"colors must cover 0..{self.color_count - 1} exactly, got {sorted(used)}"
            )


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge joins two vertices of equal color."""
    if len(c.colors) != g.n:
        raise ValueError(f"coloring covers {len(c.colors)} vertices, graph has {g.n}")
    for v, w in g.edges():
        if c.colors[v] == c.colors[w]:
            return False
    return True


def greedy_coloring(g: Graph, order: tuple[int, ...] | list[int]) -> Coloring:
    """First-fit along ``order`` (must be a permutation of the vertices)."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    colors = [-1] * g.n
    for v in order:
        taken = {colors[w] for w in iter_bits(g.adj[v]) if colors[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    count = max(colors) + 1 if g.n else 0
    return Coloring(tuple(colors), count)


def canonicalize_coloring(c: Coloring) -> Coloring:
    """Relabel colors by first occurrence so classes are ordered by least vertex."""
    relabel: dict[int, int] = {}
    out = []
    for col in c.colors:
        if col not in relabel:
            relabel[col] = len(relabel)
        out.append(relabel[col])
    return Coloring(tuple(out), c.color_count)


@dataclass(frozen=True)
class OptimalColorings:
    """Canonical optimal colorings, possibly truncated at the requested cap."""

    colorings: tuple[Coloring, ...]
    truncated: bool
    chi: int


def enumerate_optimal_colorings(g: Graph, cap: int | None = None, *,
                                chi: int | None = None) -> OptimalColorings:
    """All proper colorings with exactly chi(g) colors, one per color-permutation
    class (canonical: color classes ordered by least vertex), in lexicographic
    order of the color vector.

    ``chi``, when given, must be ``chromatic_number(g)``; it saves
    recomputing it.
    """
    if g.n > 10:
        raise ValueError("optimal-coloring enumeration is limited to 10 vertices")
    k = chromatic_number(g) if chi is None else chi
    if g.n == 0:
        return OptimalColorings((Coloring((), 0),), False, 0)
    adj = g.adj
    n = g.n
    found: list[Coloring] = []
    truncated = False
    class_masks = [0] * k
    colors = [0] * n

    def assign(v: int, used: int) -> bool:
        nonlocal truncated
        if used + (n - v) < k:
            return True  # cannot reach k colors anymore
        if v == n:
            found.append(Coloring(tuple(colors), k))
            if cap is not None and len(found) >= cap:
                truncated = True
                return False
            return True
        for c in range(min(used + 1, k)):
            if class_masks[c] & adj[v]:
                continue
            class_masks[c] |= 1 << v
            colors[v] = c
            keep_going = assign(v + 1, max(used, c + 1))
            class_masks[c] &= ~(1 << v)
            if not keep_going:
                return False
        return True

    assign(0, 0)
    return OptimalColorings(tuple(found), truncated, k)


# ---------------------------------------------------------------------------
# Kempe machinery
# ---------------------------------------------------------------------------

def kempe_component(g: Graph, c: Coloring, start: int, other: int) -> frozenset[int]:
    """Connected component of ``start`` in the subgraph induced by the two
    color classes {color(start), other}."""
    mine = c.colors[start]
    if other == mine:
        raise ValueError("other color must differ from the start vertex's color")
    if not 0 <= other < c.color_count:
        raise ValueError(f"color {other} out of range 0..{c.color_count - 1}")
    pair = {mine, other}
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in iter_bits(g.adj[v]):
            if w not in seen and c.colors[w] in pair:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def kempe_swap(g: Graph, c: Coloring, component: frozenset[int], pair: tuple[int, int]) -> Coloring:
    """Exchange the two colors of ``pair`` inside a maximal bicolor component.

    The component must be closed under bicolored adjacency, otherwise the
    swap could make an edge monochromatic and the call is rejected.
    """
    i, j = pair
    swap = {i: j, j: i}
    for v in component:
        if c.colors[v] not in swap:
            raise ValueError(f"vertex {v} in component has color {c.colors[v]}, not in {pair}")
        for w in iter_bits(g.adj[v]):
            if c.colors[w] in swap and w not in component:
                raise ValueError(
                    f"component not closed under bicolored adjacency: {v}-{w} leaves it"
                )
    colors = list(c.colors)
    for v in component:
        colors[v] = swap[colors[v]]
    return Coloring(tuple(colors), c.color_count)


@dataclass(frozen=True)
class BicolorPath:
    """Alternating 4-vertex path (t, V, W, t'); t,W share one color, V,t' the
    other, so by properness the four vertices always induce a P4."""

    vertices: tuple[int, int, int, int]
    colors: tuple[int, int]  # (color of t, color of t')


def find_bicolor_path4(g: Graph, c: Coloring, t: int, t_prime: int) -> BicolorPath | None:
    """Least alternating path t-V-W-t' with V colored like t' and W like t.

    Requires t, t' non-adjacent with different colors.  The path lies inside
    the Kempe component of t for the color pair by construction.
    """
    j = c.colors[t]
    i = c.colors[t_prime]
    if i == j:
        raise ValueError("endpoints must have different colors")
    if g.has_edge(t, t_prime):
        raise ValueError("endpoints must be non-adjacent")
    for v in iter_bits(g.adj[t]):
        if c.colors[v] != i or v == t_prime:
            continue
        for w in iter_bits(g.adj[v]):
            if c.colors[w] != j or w == t:
                continue
            if g.has_edge(w, t_prime):
                return BicolorPath((t, v, w, t_prime), (j, i))
    return None


# ---------------------------------------------------------------------------
# unique-color decompositions around an apex vertex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniqueColorDecomposition:
    """R, S, T around an apex vertex for one proper coloring.

    R holds the neighbors of u whose color appears exactly once in N(u);
    S those adjacent to every other vertex of R; T is the rest of R.
    """

    u: int
    R: frozenset[int]
    S: frozenset[int]
    T: frozenset[int]


def unique_color_neighbors(g: Graph, c: Coloring, u: int) -> UniqueColorDecomposition:
    neighbors = list(iter_bits(g.adj[u]))
    counts: dict[int, int] = {}
    for w in neighbors:
        counts[c.colors[w]] = counts.get(c.colors[w], 0) + 1
    R = frozenset(w for w in neighbors if counts[c.colors[w]] == 1)
    S = frozenset(x for x in R if all(g.has_edge(x, y) for y in R if y != x))
    return UniqueColorDecomposition(u=u, R=R, S=S, T=R - S)


def derive_T_prime(g: Graph, c: Coloring, d: UniqueColorDecomposition) -> frozenset[int]:
    """Substitute vertices outside the closed neighborhood of u: every x'
    adjacent to some x in T whose color matches another y in T with xy
    not an edge."""
    outside = [
        v for v in range(g.n)
        if v != d.u and not g.has_edge(d.u, v)
    ]
    T = d.T
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


@dataclass(frozen=True)
class SequenceDecomposition:
    """The iterated substitute levels (S_l, S_l') plus the core W.

    Level 0 is (T, T').  For l >= 1, S_l takes the so-far unconsumed
    vertices of S having a non-neighbor in the previous primed set, and
    S_l' collects their same-colored substitutes outside the closed
    neighborhood.  Iteration stops at the first empty S_l or S_l'; W is
    what remains of S.
    """

    u: int
    levels: tuple[tuple[frozenset[int], frozenset[int]], ...]
    W: frozenset[int]

    @property
    def k(self) -> int:
        return len(self.levels) - 1

    def primed_union(self) -> frozenset[int]:
        out: set[int] = set()
        for _, primed in self.levels:
            out |= primed
        return frozenset(out)


def build_sequence(g: Graph, c: Coloring, d: UniqueColorDecomposition) -> SequenceDecomposition:
    """The substitute levels around the apex of the decomposition ``d``."""
    u = d.u
    t_prime = derive_T_prime(g, c, d)
    levels = [(d.T, t_prime)]
    pool = set(d.S)
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
    return SequenceDecomposition(u=u, levels=tuple(levels), W=frozenset(pool))
