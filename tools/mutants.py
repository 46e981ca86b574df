"""Repeatable mutation checks: each mutant must be killed by the tests named for it.

Each entry of ``MUTANTS`` names a file, an exact source fragment that must
occur in it exactly once, the fragment's replacement and the tests that
must fail once the replacement is in.  The script copies the repository
into a temporary directory and runs every named test there unpatched,
where each must pass.  Then it patches in one mutant at a time and runs
each of its tests in a pytest process of its own; each must fail.  A
fragment found zero times or more than once is an error, so a refactor
that moves the code must update the entry.

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
