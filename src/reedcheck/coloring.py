"""Proper colorings, Kempe machinery, and the unique-color decompositions.

The decompositions mirror the structure used to rule out a minimal
counterexample to the Reed bound: around an apex vertex ``u`` one takes
R, the neighbors whose color is unique inside N(u); splits it into S
(adjacent to all of R) and T = R - S; collects substitutes T' outside
the closed neighborhood; and iterates the substitute construction into
levels (S_l, S_l') until it dries up, leaving the core W.  All of these
are computed over one graph and one proper coloring, so they can be
audited on any concrete instance.  They work on vertex masks: a
coloring builds the mask of each color class once, and R, S, T, T', the
levels and W are ANDs and ORs of those masks with adjacency rows.  The
decomposition records hold only those masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

    @cached_property
    def classes(self) -> tuple[int, ...]:
        """The vertex mask of each color class, indexed by color."""
        masks = [0] * self.color_count
        for v, col in enumerate(self.colors):
            masks[col] |= 1 << v
        return tuple(masks)


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
    adj = g.adj
    colors = [0] * g.n
    classes: list[int] = []
    for v in order:
        row = adj[v]
        c = 0
        while c < len(classes) and classes[c] & row:
            c += 1
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
        colors[v] = c
    return Coloring(tuple(colors), len(classes))


def canonicalize_coloring(c: Coloring) -> Coloring:
    """Relabel colors by first occurrence so classes are ordered by least vertex."""
    relabel: dict[int, int] = {}
    out = []
    for col in c.colors:
        if col not in relabel:
            relabel[col] = len(relabel)
        out.append(relabel[col])
    return Coloring(tuple(out), c.color_count)


def enumerate_optimal_colorings(g: Graph, *, chi: int | None = None) -> tuple[Coloring, ...]:
    """All proper colorings with exactly chi(g) colors, one per color-permutation
    class (canonical: color classes ordered by least vertex), in lexicographic
    order of the color vector.

    ``chi``, when given, must be ``chromatic_number(g)``; it saves
    recomputing it.  The 10-vertex limit bounds the output: K4 plus six
    isolated vertices, with 4,096 colorings, is enumerated in about 0.01 s.
    """
    if g.n > 10:
        raise ValueError("optimal-coloring enumeration is limited to 10 vertices")
    k = chromatic_number(g) if chi is None else chi
    adj = g.adj
    n = g.n
    found: list[Coloring] = []
    class_masks = [0] * k
    colors = [0] * n

    def assign(v: int, used: int) -> None:
        if used + (n - v) < k:
            return  # cannot reach k colors anymore
        if v == n:
            found.append(Coloring(tuple(colors), k))
            return
        for c in range(min(used + 1, k)):
            if class_masks[c] & adj[v]:
                continue
            class_masks[c] |= 1 << v
            colors[v] = c
            assign(v + 1, max(used, c + 1))
            class_masks[c] &= ~(1 << v)

    assign(0, 0)
    del assign  # the closure refers to itself; dropping the name breaks the cycle
    return tuple(found)


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


def find_bicolor_path4(g: Graph, c: Coloring, t: int,
                       t_prime: int) -> tuple[int, int, int, int] | None:
    """Least alternating path (t, V, W, t') with V colored like t' and W
    like t, or None.

    Requires t, t' non-adjacent with different colors.  By properness the
    four vertices always induce a P4, and the path lies inside the Kempe
    component of t for the color pair by construction.
    """
    j = c.colors[t]
    i = c.colors[t_prime]
    if i == j:
        raise ValueError("endpoints must have different colors")
    adj = g.adj
    if (adj[t] >> t_prime) & 1:
        raise ValueError("endpoints must be non-adjacent")
    # V ranges over t's neighbors colored i (t' is not one of them), and
    # W over V's neighbors colored j that also see t' (t is not one of them)
    ends = c.classes[j] & adj[t_prime]
    for v in iter_bits(c.classes[i] & adj[t]):
        ws = ends & adj[v]
        if ws:
            return t, v, (ws & -ws).bit_length() - 1, t_prime
    return None


# ---------------------------------------------------------------------------
# unique-color decompositions around an apex vertex
# ---------------------------------------------------------------------------

class UniqueColorDecomposition(NamedTuple):
    """R, S, T around an apex vertex for one proper coloring, as vertex masks.

    R holds the neighbors of u whose color appears exactly once in N(u);
    S those adjacent to every other vertex of R; T is the rest of R.  A
    tuple, as an audit builds one per instance: cheaper than a dataclass.
    """

    u: int
    R_mask: int
    S_mask: int
    T_mask: int


def unique_color_neighbors(g: Graph, c: Coloring, u: int) -> UniqueColorDecomposition:
    adj = g.adj
    neighbors = adj[u]
    R = 0
    for cls in c.classes:
        hit = cls & neighbors
        if hit and not hit & (hit - 1):
            R |= hit
    S = 0
    rest = R
    while rest:
        low = rest & -rest
        if R & ~adj[low.bit_length() - 1] == low:
            S |= low
        rest ^= low
    return UniqueColorDecomposition(u, R, S, R & ~S)


@dataclass(frozen=True)
class SequenceDecomposition:
    """The iterated substitute levels (S_l, S_l') plus the core W, as vertex
    masks.

    Level 0 is (T, T').  For l >= 1, S_l takes the so-far unconsumed
    vertices of S having a non-neighbor in the previous primed set, and
    S_l' collects their same-colored substitutes outside the closed
    neighborhood.  Iteration stops at the first empty S_l or S_l'; W is
    what remains of S.
    """

    level_masks: tuple[tuple[int, int], ...]
    W_mask: int

    @property
    def primed_mask(self) -> int:
        out = 0
        for _, primed in self.level_masks:
            out |= primed
        return out


def build_sequence(g: Graph, c: Coloring, d: UniqueColorDecomposition) -> SequenceDecomposition:
    """The substitute levels around the apex of the decomposition ``d``.

    T' holds the vertices outside the closed neighborhood of u that are
    adjacent to some x in T and colored like a vertex of T that x does
    not see.
    """
    adj, classes, colors = g.adj, c.classes, c.colors
    outside = ((1 << g.n) - 1) & ~(adj[d.u] | (1 << d.u))
    T = d.T_mask
    prev_primed = 0
    for x in iter_bits(T):
        for y in iter_bits(T & ~adj[x] & ~(1 << x)):
            prev_primed |= adj[x] & classes[colors[y]]
    prev_primed &= outside
    levels = [(T, prev_primed)]
    pool = d.S_mask
    while prev_primed:
        level = primed = 0
        for x in iter_bits(pool):
            # substitutes for x: its color, next to a primed vertex x does not see
            for y in iter_bits(prev_primed & ~adj[x]):
                level |= 1 << x
                primed |= classes[colors[x]] & adj[y]
        if not level:
            break
        primed &= outside
        pool &= ~level
        levels.append((level, primed))
        prev_primed = primed
    return SequenceDecomposition(level_masks=tuple(levels), W_mask=pool)
