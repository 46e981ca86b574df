"""Repeatable mutation checks: each mutant must be killed by the tests named for it.

Each entry of ``MUTANTS`` names a file, an exact source fragment that must
occur in it exactly once, the fragment's replacement and the tests that
must fail once the replacement is in.  The script copies the repository
into a temporary directory and runs every named test there unpatched,
where each must pass.  Then it patches in one mutant at a time and runs
each of its tests in a pytest process of its own; each must fail.  A
fragment found zero times or more than once is an error, so a refactor
that moves the code must update the entry.

Three mutants are equivalent: they change no output, so they have no entry.

* S1 requiring |T| >= 3 instead of 2: past the gate |T| >= 3 always holds
  (the argument is in ``audit._statement_1``), so S1 is never ``violated``.
* The walk of ``graphs._surviving_columns`` recording starts without the
  new vertex: a child's search then also runs below prefixes of parent
  vertices alone, a superset of the nodes it must search, so every level
  is the same and only built more slowly.
  ``test_walk_starts_tie_the_child_and_place_the_new_vertex_last`` checks
  the starts themselves, not the levels.
* A node of ``graphs._least_order`` always narrowing from the root
  instead of from its parent's tied vertices: both give the same tied
  vertices and column (see its docstring), so the search tree is the same.

Usage, from the repository root (standard library and pytest only):

    python3 tools/mutants.py

The exit code is 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# seconds per pytest process; unpatched, every named test takes a few
_TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


_GRAPHS = "src/reedcheck/graphs.py"
_WALK = "tests/test_corpus.py::test_walk_keeps_the_filtered_columns"
_LEVELS = "tests/test_corpus.py::test_levels_up_to_7_equal_the_per_candidate_filter"
_LEVEL_8 = "tests/test_corpus.py::test_level_8_equals_the_per_candidate_filter"
_DIGESTS = "tests/test_corpus.py::test_enumeration_is_pinned_by_digest"
_MIN_LABELED = "tests/test_graphs.py::test_is_min_labeled_matches_brute_force"
_FORM = "tests/test_graphs.py::test_canonical_form_matches_brute_force"
# these two need no enumerated level, which a broken narrowing step cannot build in time
_CODES_N4 = "tests/test_graphs.py::test_labeled_graphs_n4_give_11_codes"
_RELABELED_C5 = "tests/test_graphs.py::test_canonical_code_on_relabelings"
_INVARIANTS = "src/reedcheck/invariants.py"
_OMEGA_EXAMPLES = "tests/test_invariants.py::test_clique_number_examples"
_CHI_EXAMPLES = "tests/test_invariants.py::test_chromatic_number_examples"
# has chi > omega everywhere, so it cannot see a search started at omega + 1;
# a saturation counted too high makes some of its graphs take minutes
_KNOWN = "tests/test_invariants.py::test_known_answers_with_chi_above_omega"
_CLIQUES = "tests/test_invariants.py::test_omega_and_alpha_match_networkx_cliques"
_CHI_ORACLE = "tests/test_invariants.py::test_chi_matches_backtracking_oracle"
_BUNDLES = "tests/test_cli.py::test_invariants_source_output_is_pinned_on_random_graphs"
_CORPUS = "src/reedcheck/corpus.py"
_NO_IMPORT = "tests/test_corpus.py::test_serial_sweeps_do_not_import_multiprocessing"
_HEREDITARY = "tests/test_corpus.py::test_hereditary_sweep_equals_filter_after_enumerate"
_CHILDREN_OF_MEMBERS = ("tests/test_corpus.py::"
                        "test_sweep_tests_membership_only_on_children_of_members")
_STREAM = "tests/test_corpus.py::test_stream_reads_valid_lines"
_OFFSETS = "tests/test_graphs.py::test_parse_errors_name_the_byte_offset"
_DECODER = "tests/test_graphs.py::test_graph6_decoder_accepts_only_what_networkx_decodes_alike"
_AUDIT = "src/reedcheck/audit.py"
_ORACLE = "tests/test_audit.py::test_audit_equals_the_oracle_on_random_graphs"
_ORACLE_PAST_GATE = "tests/test_audit.py::test_audit_equals_the_oracle_past_the_gate"
_PAST_GATE = "tests/test_audit.py::test_statements_past_the_gate"
_PINNED_FINDINGS = "tests/test_audit.py::test_check_findings_are_pinned"
_S_NONEMPTY = "tests/test_audit.py::test_statements_past_the_gate_with_S_nonempty"

MUTANTS = (
    # the canonical search and the walk of a parent's tied tree
    Mutant("walk-no-leaf-comparison", _GRAPHS,
           "            alive &= ~lt\n            return\n",
           "            return\n",
           (_WALK, _LEVELS, _LEVEL_8, _DIGESTS)),
    Mutant("walk-no-depth-0-tie-entry", _GRAPHS,
           "        if eq:\n            entries.append",
           "        if eq and depth:\n            entries.append",
           (_WALK, _LEVEL_8)),
    Mutant("walk-rel-keeps-unsplit-twins", _GRAPHS,
           "r &= holds[v] ^ holds[w]",
           "r &= ~(holds[v] ^ holds[w])",
           (_WALK, _LEVELS, _LEVEL_8, _DIGESTS)),
    Mutant("twin-check-inverted", _GRAPHS,
           "            if not lower[v] & ~placed:\n",
           "            if lower[v] & ~placed:\n",
           (_MIN_LABELED, _FORM, _LEVELS, _DIGESTS)),
    Mutant("child-narrows-without-lower-tied", _GRAPHS,
           "ok = search(placed | low, cell ^ low, b)",
           "ok = search(placed | low, tied ^ low, b)",
           (_MIN_LABELED, _FORM, _LEVELS)),
    Mutant("narrow-neighbors-first", _GRAPHS,
           "        off = tied & ~adj[p]\n"
           "        if off:\n"
           "            tied = off\n"
           "            column <<= 1\n"
           "        else:\n"
           "            tied &= adj[p]\n"
           "            column = (column << 1) | 1\n",
           "        on = tied & adj[p]\n"
           "        if on:\n"
           "            tied = on\n"
           "            column = (column << 1) | 1\n"
           "        else:\n"
           "            tied &= ~adj[p]\n"
           "            column <<= 1\n",
           (_MIN_LABELED, _CODES_N4, _RELABELED_C5)),
    # the clique bound and the DSATUR search
    Mutant("clique-class-keeps-neighbors", _INVARIANTS,
           "cls = (cls ^ low) & ~adj[v]",
           "cls ^= low",
           (_OMEGA_EXAMPLES, _KNOWN, _CLIQUES, _BUNDLES)),
    Mutant("chi-search-from-omega-plus-1", _INVARIANTS,
           "k = clique_number(g) if omega is None else omega",
           "k = (clique_number(g) if omega is None else omega) + 1",
           (_CHI_EXAMPLES, _CHI_ORACLE, _BUNDLES)),
    Mutant("dsatur-never-tries-last-color", _INVARIANTS,
           "for c in range(min(used + 1, k)):",
           "for c in range(min(used + 1, k - 1)):",
           (_CHI_EXAMPLES, _KNOWN, _CHI_ORACLE, _BUNDLES)),
    Mutant("dsatur-fails-at-k-minus-1-colors", _INVARIANTS,
           "if len(sat) == k:",
           "if len(sat) >= k - 1:",
           (_CHI_EXAMPLES, _KNOWN, _CHI_ORACLE, _BUNDLES)),
    Mutant("saturation-rises-on-seen-colors", _INVARIANTS,
           "up = row & rest & ~mask",
           "up = row & rest",
           (_CHI_ORACLE, _BUNDLES)),
    # sweep plumbing: the pool and the untested tally
    Mutant("module-level-multiprocessing-import", _CORPUS,
           "import os\nimport time\n",
           "import multiprocessing\nimport os\nimport time\n",
           (_NO_IMPORT,)),
    Mutant("pool-for-a-single-task", _CORPUS,
           "if len(head) < 2:",
           "if len(head) < 1:",
           (_NO_IMPORT,)),
    Mutant("tally-one-level-short", _CORPUS,
           "    for n in range(n_max + 1):\n        members = report",
           "    for n in range(n_max):\n        members = report",
           (_HEREDITARY, _CHILDREN_OF_MEMBERS)),
    # the graph6 stream and codec; a --source file is read with universal
    # newlines, so only a stream of lines given as they are sees a '\r'
    Mutant("stream-strips-only-newline", _CORPUS,
           'line = raw.rstrip("\\r\\n")',
           'line = raw.rstrip("\\n")',
           (_STREAM,)),
    Mutant("padding-offset-plus-one", _GRAPHS,
           '"nonzero padding bits", offset=base + need)',
           '"nonzero padding bits", offset=base + need + 1)',
           (_OFFSETS, _DECODER)),
    # the audit
    Mutant("bulk-counts-T-of-two", _AUDIT,
           "if not d.T_mask & (d.T_mask - 1):",
           "if d.T_mask.bit_count() <= 2:",
           (_ORACLE, _ORACLE_PAST_GATE)),
    Mutant("is-clique-always-true", _AUDIT,
           "def _is_clique(adj: tuple[int, ...], mask: int) -> bool:\n",
           "def _is_clique(adj: tuple[int, ...], mask: int) -> bool:\n    return True\n",
           (_PAST_GATE, _PINNED_FINDINGS)),
    Mutant("s4-target-without-s1-prime", _AUDIT,
           "target = t_prime | s1_prime",
           "target = t_prime",
           (_S_NONEMPTY,)),
)


def _pytest(copy: Path, tests) -> int | None:
    """pytest's exit code on ``tests`` in ``copy``, or None past the time limit."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.fragment)
        if found != 1:
            print(f"{m.name}: fragment found {found} times in {m.path}, not once",
                  file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work"))
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(copy, tests) != 0:
            print("the named tests do not all pass on the unpatched copy", file=sys.stderr)
            return 1
        survivors = 0
        for m in MUTANTS:
            target = copy / m.path
            source = target.read_text()
            target.write_text(source.replace(m.fragment, m.replacement))
            # exit code 1: the test ran and failed; anything else did not kill it
            spared = [t for t in m.tests if _pytest(copy, [t]) != 1]
            target.write_text(source)
            survivors += bool(spared)
            print(f"{m.name}: " + (f"SURVIVED {', '.join(spared)}" if spared
                                   else f"killed by {len(m.tests)} of {len(m.tests)}"), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
