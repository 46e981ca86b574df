"""Inputs, reference answers and output checks for the four workloads.

Inputs are made from the seed alone; reference answers come from
:mod:`reference` (networkx plus an exact coloring search written here),
never from reedcheck.  Seeded corpora and their answers are cached per
seed under the work directory, outside any timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref
from members import MEMBERS_FILE, read_lines

# Bump when a generator or a reference changes, so stale caches are not read.
CACHE_VERSION = 1

FAMILY_N_MAX = 8
DENSE_N = range(10, 21)
DENSE_P = (0.6, 0.97)
DENSE_QUOTA = 45       # members and as many non-members per n
SPARSE_N = range(16, 20)
SPARSE_P = (0.3, 0.6)
SPARSE_GRAPHS = 3500
EXEMPLAR_CAP = 20      # tight exemplars a sweep report lists

# Tiny sizes for the self-check.
TINY = {"n_max": 5, "members": 40, "dense_n": range(8, 11), "dense_quota": 3,
        "sparse_n": range(8, 11), "sparse_graphs": 24}


@dataclass
class Prepared:
    source: str | None   # graph6 file handed to the program, if any
    n_max: int
    ops: int             # graphs examined per round
    bundles: int         # invariant bundles (Reed checks) per round; 0: the reports' members
    expected: dict


def _cached(path: Path, key: dict, build) -> dict:
    """``build()``'s value, stored at ``path`` under ``key``."""
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored.get("key") == key:
            return stored["value"]
    value = build()
    path.write_text(json.dumps({"key": key, "value": value}), encoding="utf-8")
    return value


def _write_corpus(path: Path, lines: list[str]) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return str(path)


# ---------------------------------------------------------------------------
# families-n8: the five built-in families, internal enumeration
# ---------------------------------------------------------------------------

def _families_reference() -> dict:
    member_graphs = [ref.decode(line) for line in read_lines()]
    flagc_by_n = [0] * (FAMILY_N_MAX + 1)
    c4_free_by_n = [0] * (FAMILY_N_MAX + 1)
    for g in member_graphs:
        flagc_by_n[g.number_of_nodes()] += 1
        c4_free_by_n[g.number_of_nodes()] += not ref.has_induced(g, ref.C4)
    return {"atlas": ref.atlas_member_counts(), "flagc_by_n": flagc_by_n,
            "c4_free_by_n": c4_free_by_n}


def prepare_families(seed: int, work: Path, tiny: bool) -> Prepared:
    n_max = TINY["n_max"] if tiny else FAMILY_N_MAX
    digest = hashlib.sha256(MEMBERS_FILE.read_bytes()).hexdigest()
    expected = _cached(work / "families-reference.json",
                       {"version": CACHE_VERSION, "members": digest}, _families_reference)
    ops = len(ref.FAMILY_PATTERNS) * sum(ref.A000088[: n_max + 1])
    # bundles = members of all five families, read from the checked reports
    return Prepared(None, n_max, ops, 0, expected)


def check_families(prep: Prepared, reports: list[dict], out: Path) -> list[str]:
    problems = []
    by_family = {r["family"]: r for r in reports}
    if sorted(by_family) != sorted(ref.FAMILY_PATTERNS):
        return [f"families swept: {sorted(by_family)}"]
    exp = prep.expected
    for name, r in sorted(by_family.items()):
        per_n = {int(n): row for n, row in r["per_n"].items()}
        examined = [per_n.get(n, {}).get("examined", 0) for n in range(prep.n_max + 1)]
        if examined != list(ref.A000088[: prep.n_max + 1]):
            problems.append(f"{name}: examined per n {examined}, A000088 gives "
                            f"{list(ref.A000088[: prep.n_max + 1])}")
        if r["violation_count"] or r["violations"]:
            problems.append(f"{name}: {r['violation_count']} Reed violations")
        members = [per_n.get(n, {}).get("members", 0) for n in range(prep.n_max + 1)]
        atlas = exp["atlas"][name][: min(prep.n_max, 7) + 1]
        if members[: len(atlas)] != atlas:
            problems.append(f"{name}: members per n {members}, atlas filter gives {atlas}")
        if name == "p5-flagc" and members != exp["flagc_by_n"][: prep.n_max + 1]:
            problems.append(f"p5-flagc: members per n {members}, member file gives "
                            f"{exp['flagc_by_n'][: prep.n_max + 1]}")
        if name == "p5-c4" and members != exp["c4_free_by_n"][: prep.n_max + 1]:
            problems.append(f"p5-c4: members per n {members}, C4-free lines of the "
                            f"member file give {exp['c4_free_by_n'][: prep.n_max + 1]}")
        if sum(members) != r["members"]:
            problems.append(f"{name}: members {r['members']} != sum per n {sum(members)}")
    flagc = by_family["p5-flagc"]["per_n"]
    for n, row in by_family["p5-c4"]["per_n"].items():
        if row["members"] > flagc.get(n, {}).get("members", 0):
            problems.append(f"n={n}: more p5-c4 members than p5-flagc members")
    return problems


# ---------------------------------------------------------------------------
# audit-members-n8: audited stream over the checked member file
# ---------------------------------------------------------------------------

def prepare_audit(seed: int, work: Path, tiny: bool) -> Prepared:
    lines = read_lines()
    if tiny:
        lines = lines[: TINY["members"]]
    source = _write_corpus(work / ("tiny-members.g6" if tiny else "members.g6"), lines)
    return Prepared(source, 0, len(lines), len(lines), {"lines": len(lines)})


def check_audit(prep: Prepared, reports: list[dict], out: Path) -> list[str]:
    (r,) = reports
    lines = prep.expected["lines"]
    problems = []
    if r["examined"] != lines or r["members"] != lines or r["skipped_lines"]:
        problems.append(f"examined {r['examined']}, members {r['members']}, skipped "
                        f"{r['skipped_lines']}; the file has {lines} member lines")
    if r["violation_count"]:
        problems.append(f"{r['violation_count']} Reed violations")
    audit = r["audit"] or {}
    for statement in ("S2", "S3"):
        violated = audit.get("instances", {}).get(statement, {}).get("violated")
        if violated != 0:
            problems.append(f"{statement}: {violated} violated findings")
    if audit.get("gate_full_pass_members") != []:
        problems.append(f"members passing the gate at every vertex: "
                        f"{audit.get('gate_full_pass_members')}")
    return problems


# ---------------------------------------------------------------------------
# stream-dense: unaudited stream over seeded dense random graphs
# ---------------------------------------------------------------------------

def _gnp(rng: random.Random, n: int, p: float):
    g = ref.nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, j) for j in range(n) for i in range(j) if rng.random() < p)
    return g


def _dense_corpus(seed: int, n_range: range, quota: int) -> dict:
    """G(n, p) with p uniform in DENSE_P, drawn until every n has ``quota``
    members and ``quota`` non-members; then shuffled."""
    rng = random.Random(f"stream-dense:{seed}")
    rows = []
    for n in n_range:
        need = {True: quota, False: quota}
        while need[True] or need[False]:
            g = _gnp(rng, n, rng.uniform(*DENSE_P))
            member = ref.is_member_dense(g, "p5-flagc")
            if need[member]:
                need[member] -= 1
                rows.append((ref.encode(g), member, g))
    rng.shuffle(rows)
    per_n: dict[str, dict[str, int]] = {}
    tight = []
    violations = 0
    for line, member, g in rows:
        row = per_n.setdefault(str(g.number_of_nodes()), {"examined": 0, "members": 0, "tight": 0})
        row["examined"] += 1
        if not member:
            continue
        row["members"] += 1
        slack = ref.bundle(g)["slack"]
        violations += slack < 0
        if slack == 0:
            row["tight"] += 1
            tight.append(line)
    return {"lines": [line for line, _, _ in rows], "per_n": per_n,
            "members": sum(row["members"] for row in per_n.values()),
            "violations": violations, "tight_count": len(tight),
            "tight_exemplars": tight[:EXEMPLAR_CAP]}


def prepare_dense(seed: int, work: Path, tiny: bool) -> Prepared:
    n_range, quota = (TINY["dense_n"], TINY["dense_quota"]) if tiny else (DENSE_N, DENSE_QUOTA)
    name = f"{'tiny-' if tiny else ''}dense-{seed}"
    key = {"version": CACHE_VERSION, "seed": seed, "n": [n_range.start, n_range.stop],
           "quota": quota}
    exp = _cached(work / f"{name}.json", key, lambda: _dense_corpus(seed, n_range, quota))
    source = _write_corpus(work / f"{name}.g6", exp.pop("lines"))
    ops = sum(row["examined"] for row in exp["per_n"].values())
    return Prepared(source, 0, ops, exp["members"], exp)


def check_dense(prep: Prepared, reports: list[dict], out: Path) -> list[str]:
    (r,) = reports
    exp = prep.expected
    got = {"per_n": r["per_n"], "members": r["members"], "violations": r["violation_count"],
           "tight_count": r["tight_count"], "tight_exemplars": r["tight_exemplars"]}
    problems = [f"{k}: program {got[k]}, reference {exp[k]}" for k in got if got[k] != exp[k]]
    if r["examined"] != prep.ops or r["skipped_lines"]:
        problems.append(f"examined {r['examined']} of {prep.ops}, skipped {r['skipped_lines']}")
    return problems


# ---------------------------------------------------------------------------
# invariants-sparse: the invariants subcommand over seeded sparser graphs
# ---------------------------------------------------------------------------

def _sparse_corpus(seed: int, n_range: range, count: int) -> dict:
    """G(n, p): n cycles through ``n_range``, p uniform in SPARSE_P."""
    rng = random.Random(f"invariants-sparse:{seed}")
    lines, bundles = [], []
    for i in range(count):
        g = _gnp(rng, n_range[i % len(n_range)], rng.uniform(*SPARSE_P))
        lines.append(ref.encode(g))
        bundles.append(ref.bundle(g))
    return {"lines": lines, "bundles": bundles}


def prepare_sparse(seed: int, work: Path, tiny: bool) -> Prepared:
    n_range, count = ((TINY["sparse_n"], TINY["sparse_graphs"]) if tiny
                      else (SPARSE_N, SPARSE_GRAPHS))
    name = f"{'tiny-' if tiny else ''}sparse-{seed}"
    key = {"version": CACHE_VERSION, "seed": seed, "n": [n_range.start, n_range.stop],
           "count": count}
    exp = _cached(work / f"{name}.json", key, lambda: _sparse_corpus(seed, n_range, count))
    source = _write_corpus(work / f"{name}.g6", exp["lines"])
    return Prepared(source, 0, count, count, exp)


def check_sparse(prep: Prepared, reports: list[dict], out: Path) -> list[str]:
    (r,) = reports
    if r["exit_code"] != 0:
        return [f"invariants exited {r['exit_code']}"]
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    exp = prep.expected
    if len(rows) != len(exp["lines"]):
        return [f"{len(rows)} output lines for {len(exp['lines'])} graphs"]
    problems = []
    for i, (row, line, bundle) in enumerate(zip(rows, exp["lines"], exp["bundles"]), start=1):
        if row != {"graph6": line, **bundle}:
            problems.append(f"line {i}: program {row}, reference {bundle}")
    return problems[:5]


WORKLOADS = {
    "families-n8": (prepare_families, check_families),
    "audit-members-n8": (prepare_audit, check_audit),
    "stream-dense": (prepare_dense, check_dense),
    "invariants-sparse": (prepare_sparse, check_sparse),
}
