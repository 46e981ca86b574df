"""Exact graph invariants: maximum degree, clique number, chromatic number,
independence number, and the Reed bound ceil((delta + omega + 1) / 2).

Everything here is exact and deterministic.  The clique solver is a
bitset branch-and-bound (Tomita & Seki 2003) whose upper bound greedily
colors the candidates in index order, lowest bit first.  The chromatic
solver tries k upward from the clique number and decides k-colorability
by an exact DSATUR search (Brelaz 1979; San Segundo 2012): it branches on
the uncolored vertex that sees the most distinct colors, ties broken by
degree into the uncolored set, and tries the colors its neighbors lack
plus at most one new color.  The saturation levels are bit masks carried
down the search: coloring v with c raises only v's uncolored neighbors
that see c for the first time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, complement


def max_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(row.bit_count() for row in g.adj)


def clique_number(g: Graph) -> int:
    """Exact size of a maximum clique."""
    n = g.n
    if n == 0:
        return 0
    adj = g.adj
    best = 1

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        order: list[int] = []
        bound: list[int] = []
        uncolored = cand
        k = 0
        while uncolored:
            k += 1
            cls = uncolored
            while cls:
                low = cls & -cls
                v = low.bit_length() - 1
                order.append(v)
                bound.append(k)
                uncolored ^= low
                cls = (cls ^ low) & ~adj[v]
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= best:
                return
            v = order[i]
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    del expand  # the closure refers to itself; dropping the name breaks the cycle
    return best


def _k_colorable(adj: tuple[int, ...], n: int, k: int) -> bool:
    # near[c]: the vertices adjacent to some vertex of color c; 0 for unused c
    near = [0] * k

    def extend(uncolored: int, used: int, sat: list[int]) -> bool:
        # sat[j]: the uncolored vertices adjacent to more than j colors
        if not uncolored:
            return True
        if len(sat) == k:
            return False  # some vertex sees all k colors
        top = sat[-1] if sat else uncolored
        best = -1
        while top:
            low = top & -top
            w = low.bit_length() - 1
            degree = (adj[w] & uncolored).bit_count()
            if degree > best:
                best, v = degree, w
            top ^= low
        rest = uncolored & ~(1 << v)
        row = adj[v]
        for c in range(min(used + 1, k)):
            mask = near[c]
            if (mask >> v) & 1:
                continue
            near[c] = mask | row
            # the neighbors that see color c for the first time rise one level
            up = row & rest & ~mask
            below = rest
            levels = []
            for level in sat:
                levels.append((level | up & below) & rest)
                below = level
            if up & below:
                levels.append(up & below)
            while levels and not levels[-1]:
                levels.pop()
            if extend(rest, used + (c == used), levels):
                return True
            near[c] = mask
        return False

    colorable = extend((1 << n) - 1, 0, [])
    del extend  # the closure refers to itself; dropping the name breaks the cycle
    return colorable


def chromatic_number(g: Graph, *, omega: int | None = None) -> int:
    """Exact chromatic number, searched upward from the clique number.

    ``omega``, when given, must be ``clique_number(g)``; it saves
    recomputing it.
    """
    if g.n == 0:
        return 0
    k = clique_number(g) if omega is None else omega
    while not _k_colorable(g.adj, g.n, k):
        k += 1
    return k


def independence_number(g: Graph) -> int:
    """Largest pairwise non-adjacent vertex set, via the complement clique."""
    return clique_number(complement(g))


def reed_bound(delta: int, omega: int) -> int:
    """ceil((delta + omega + 1) / 2) with exact integer arithmetic."""
    if delta < 0 or omega < 0:
        raise ValueError("delta and omega must be nonnegative")
    return (delta + omega + 2) // 2


@dataclass(frozen=True)
class InvariantBundle:
    """All exact invariants of one graph plus its Reed-bound slack.

    ``slack = reed_bound - chi`` is nonnegative on every graph of a
    verified family; it is not asserted here for arbitrary graphs.
    """

    n: int
    m: int
    delta: int
    omega: int
    chi: int
    alpha: int
    reed_bound: int
    slack: int

    def __post_init__(self):
        if not (self.omega <= self.chi <= max(self.n, 0)):
            raise ValueError(f"impossible invariants: omega={self.omega}, chi={self.chi}")
        if self.chi > self.delta + 1:
            raise ValueError(f"chi={self.chi} exceeds delta+1={self.delta + 1}")

    def to_json(self) -> dict:
        # the fields are ints: a shallow copy, without asdict's deep copy of each
        return dict(vars(self))


def invariant_bundle(g: Graph) -> InvariantBundle:
    delta = max_degree(g)
    omega = clique_number(g)
    chi = chromatic_number(g, omega=omega)
    bound = reed_bound(delta, omega)
    return InvariantBundle(
        n=g.n,
        m=g.m,
        delta=delta,
        omega=omega,
        chi=chi,
        alpha=independence_number(g),
        reed_bound=bound,
        slack=bound - chi,
    )
