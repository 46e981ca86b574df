"""The member corpus of the audit-members-n8 workload: every p5-flagc
member with n <= 8, one graph6 line each, in reedcheck's enumeration order.

    python3 perfbench/members.py write   # regenerate members_n8.g6 with reedcheck
    python3 perfbench/members.py check   # verify it with networkx alone (about a minute)

The check does not import reedcheck.  It decodes every line, looks for an
induced P5 or banner, checks that the lines are pairwise non-isomorphic,
compares n <= 7 with a filter of networkx's graph atlas, and compares
n = 8 with all one-vertex extensions of the atlas members, reduced to one
graph per isomorphism class and filtered.
"""

from __future__ import annotations

import sys
import warnings
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
MEMBERS_FILE = HERE / "members_n8.g6"


def read_lines(path: Path = MEMBERS_FILE) -> list[str]:
    return path.read_text(encoding="ascii").splitlines()


def write() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from reedcheck import FAMILIES, enumerate_graphs, graph_to_graph6, in_family

    family = FAMILIES["p5-flagc"]
    lines = [graph_to_graph6(g) for n in range(9) for g in enumerate_graphs(n)
             if in_family(g, family).member]
    MEMBERS_FILE.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines)} lines to {MEMBERS_FILE.name}")


def _classes(graphs):
    """One graph per isomorphism class, bucketed by a Weisfeiler-Lehman hash."""
    import networkx as nx

    warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)

    buckets = defaultdict(list)
    for g in graphs:
        bucket = buckets[(g.number_of_nodes(), g.number_of_edges(),
                          nx.weisfeiler_lehman_graph_hash(g))]
        if not any(nx.is_isomorphic(g, h) for h in bucket):
            bucket.append(g)
    return buckets


def _same_classes(ours, theirs) -> bool:
    """True iff two lists of pairwise non-isomorphic graphs hold the same classes."""
    if len(ours) != len(theirs):
        return False
    merged = _classes(list(ours) + list(theirs))
    return sum(len(b) for b in merged.values()) == len(ours)


def check(path: Path = MEMBERS_FILE) -> list[str]:
    """Problems found in the member file; an empty list means it is right."""
    import networkx as nx

    import reference as ref

    problems = []
    lines = read_lines(path)
    graphs = []
    for lineno, line in enumerate(lines, start=1):
        try:
            g = ref.decode(line)
        except (nx.NetworkXError, ValueError) as exc:
            problems.append(f"line {lineno}: {line!r} does not decode: {exc}")
            continue
        if not ref.is_member(g, "p5-flagc"):
            problems.append(f"line {lineno}: {line!r} has an induced P5 or banner")
        graphs.append(g)
    if problems:
        return problems

    if sum(len(b) for b in _classes(graphs).values()) != len(graphs):
        problems.append("two lines are isomorphic")

    by_n = defaultdict(list)
    for g in graphs:
        by_n[g.number_of_nodes()].append(g)
    if max(by_n, default=0) > 8:
        problems.append("lines with more than 8 vertices")

    atlas = defaultdict(list)
    for g in nx.graph_atlas_g():
        if ref.is_member(g, "p5-flagc"):
            atlas[g.number_of_nodes()].append(g)
    for n in range(8):
        if not _same_classes(by_n[n], atlas[n]):
            problems.append(f"n={n}: {len(by_n[n])} lines, atlas filter gives {len(atlas[n])}")

    extensions = []
    for parent in atlas[7]:
        for mask in range(1 << 7):
            g = nx.Graph(parent)
            g.add_node(7)
            g.add_edges_from((7, v) for v in range(7) if (mask >> v) & 1)
            extensions.append(g)
    # reduce to isomorphism classes first: far fewer matcher calls
    expected = [g for bucket in _classes(extensions).values() for g in bucket
                if ref.is_member(g, "p5-flagc")]
    if not _same_classes(by_n[8], expected):
        problems.append(f"n=8: {len(by_n[8])} lines, extensions of the atlas give {len(expected)}")
    return problems


def main(argv: list[str]) -> int:
    if argv == ["write"]:
        write()
        return 0
    if argv == ["check"]:
        problems = check()
        for p in problems:
            print(p)
        print("member file OK" if not problems else f"{len(problems)} problem(s)")
        return 1 if problems else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
