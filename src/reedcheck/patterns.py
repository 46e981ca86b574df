"""Forbidden-pattern catalog and induced-subgraph detection.

Hereditary families are specified by a list of forbidden induced
patterns; a host belongs to the family iff none of the patterns occurs
as an induced subgraph (edges AND non-edges must match).  The catalog
carries the five-vertex banner (a 4-cycle with one pendant vertex) under
the name ``FlagC`` together with its complement ``Flag``, plus the usual
small patterns P5, C4, C5, 2K2, 3K1 and P3+K1.

Detection is a backtracking search over bitset candidate sets: the
candidates for the next pattern vertex are the host vertices whose degree
lies in the vertex's two-sided window, ANDed with the neighbor row of each
placed image the pattern vertex is adjacent to and with the non-neighbor
row of every other placed image.  A pattern vertex of degree d in a
k-vertex pattern needs a host vertex with at least d neighbors (its
neighbors' images) and at least k-1-d non-neighbors (its non-neighbors'
images), so in an n-vertex host its degree lies in [d, n-k+d] (Ullmann's
degree refinement, taken from both sides as an induced copy allows).
Candidates are taken lowest bit first, so the search returns the
lexicographically least witness, which keeps certificates reproducible;
the window removes only host vertices that no induced embedding uses, so
it leaves that witness unchanged.  Patterns here have at most 10 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, complement

_FLAGC = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])

_CATALOG: dict[str, Graph] = {
    "P5": Graph.path(5),
    "FlagC": _FLAGC,
    "Flag": complement(_FLAGC),
    "C4": Graph.cycle(4),
    "C5": Graph.cycle(5),
    "TwoK2": Graph.from_edges(4, [(0, 1), (2, 3)]),
    "ThreeK1": Graph.empty(3),
    "P3uK1": Graph.from_edges(4, [(0, 1), (1, 2)]),
}

_ALIASES = {"2K2": "TwoK2", "3K1": "ThreeK1"}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def builtin_pattern(name: str) -> Graph:
    """Look up a catalog pattern by name (aliases 2K2 and 3K1 accepted)."""
    key = _ALIASES.get(name, name)
    if key not in _CATALOG:
        valid = ", ".join(sorted(_CATALOG) + sorted(_ALIASES))
        raise ValueError(f"unknown pattern {name!r}; valid names: {valid}")
    return _CATALOG[key]


def has_induced(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """Lexicographically least induced embedding of ``pattern`` in ``host``.

    Returns the ordered host vertices that the pattern vertices 0..k-1 map
    to, or None when no induced copy exists.
    """
    k, n = pattern.n, host.n
    if k > n:
        return None
    if k == 0:
        return ()
    hadj = host.adj
    padj = pattern.adj
    full = (1 << n) - 1
    # neither mask of a host vertex contains the vertex itself, so the
    # candidates never include a vertex already placed
    non_adj = [full & ~(hadj[w] | (1 << w)) for w in range(n)]
    at_least = [0] * (n + 1)  # at_least[d]: host vertices of degree >= d
    for w in range(n):
        at_least[hadj[w].bit_count()] |= 1 << w
    for d in range(n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    # an induced copy maps a pattern vertex of degree d to a host vertex
    # adjacent to the d images of its neighbors and non-adjacent to the
    # k-1-d images of its non-neighbors, so the host degree lies in
    # [d, n-k+d] (and n-k+d+1 <= n).  The window drops only vertices that no
    # embedding uses, so the embeddings, their order and the least witness
    # are unchanged.
    allowed = [at_least[d] & ~at_least[n - k + d + 1]
               for d in (row.bit_count() for row in padj)]
    image = [0] * k

    def extend(v: int) -> bool:
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
    del extend  # the closure refers to itself; dropping the name breaks the cycle
    return tuple(image) if found else None


@dataclass(frozen=True)
class FamilySpec:
    """A hereditary family defined by forbidden induced patterns."""

    name: str
    forbidden: tuple[tuple[str, Graph], ...]

    def __post_init__(self):
        for label, pattern in self.forbidden:
            if not 1 <= pattern.n <= 10:
                raise ValueError(f"pattern {label!r} must have 1..10 vertices")


@dataclass(frozen=True)
class FamilyCheck:
    """Membership verdict; on rejection carries the violating witness."""

    member: bool
    pattern: str | None = None
    witness: tuple[int, ...] | None = None


def in_family(g: Graph, family: FamilySpec) -> FamilyCheck:
    """Membership test: true iff no forbidden pattern occurs induced."""
    for label, pattern in family.forbidden:
        witness = has_induced(g, pattern)
        if witness is not None:
            return FamilyCheck(member=False, pattern=label, witness=witness)
    return FamilyCheck(member=True)


FAMILIES: dict[str, FamilySpec] = {
    "p5-flagc": FamilySpec("p5-flagc", (("P5", _CATALOG["P5"]), ("FlagC", _CATALOG["FlagC"]))),
    "p5-c4": FamilySpec("p5-c4", (("P5", _CATALOG["P5"]), ("C4", _CATALOG["C4"]))),
    "3k1": FamilySpec("3k1", (("ThreeK1", _CATALOG["ThreeK1"]),)),
    "p3k1": FamilySpec("p3k1", (("P3uK1", _CATALOG["P3uK1"]),)),
    "2k2-c4": FamilySpec("2k2-c4", (("TwoK2", _CATALOG["TwoK2"]), ("C4", _CATALOG["C4"]))),
}


def odd_hole_lengths(g: Graph) -> tuple[int, ...]:
    """Sorted multiset of induced odd cycle lengths >= 5.

    Exhaustive: grows chordless paths from each minimal start vertex and
    records closures back to it.  Sized for n <= 12.
    """
    if g.n > 12:
        raise ValueError("odd hole enumeration is limited to 12 vertices")
    adj = g.adj
    lengths: list[int] = []

    def grow(start: int, path: list[int], path_mask: int) -> None:
        last = path[-1]
        first_step = len(path) == 1
        for w in range(start + 1, g.n):
            if (path_mask >> w) & 1 or not (adj[last] >> w) & 1:
                continue
            if first_step:
                path.append(w)
                grow(start, path, path_mask | (1 << w))
                path.pop()
                continue
            # w may touch the path only at `last`, except a final hop to start
            inner = path_mask & ~(1 << start) & ~(1 << last)
            if adj[w] & inner:
                continue
            if (adj[w] >> start) & 1:
                cycle_len = len(path) + 1
                if cycle_len >= 5 and cycle_len % 2 == 1 and path[1] < w:
                    lengths.append(cycle_len)
                continue
            path.append(w)
            grow(start, path, path_mask | (1 << w))
            path.pop()

    for v in range(g.n):
        grow(v, [v], 1 << v)
    return tuple(sorted(lengths))
