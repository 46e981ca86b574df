"""Fast self-check of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/selfcheck.py

For every workload it checks that a tiny run is correct and prints every
end-to-end metric, that two traced runs give identical counts, and that
a corrupted program output fails the correctness check.  It also checks
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

END_TO_END = ["wall_s", "verified_per_s", "setup_s", "peak_rss_mb"]


def _corrupt(workload: str, reports: list[dict], out: Path) -> list[dict]:
    """A copy of the reports (or the output file) with one wrong answer."""
    bad = copy.deepcopy(reports)
    if workload == "families-n8":
        flagc = next(r for r in bad if r["family"] == "p5-flagc")
        flagc["per_n"]["4"]["members"] += 1
    elif workload == "audit-members-n8":
        bad[0]["audit"]["instances"]["S3"]["violated"] = 1
    elif workload == "stream-dense":
        bad[0]["tight_count"] += 1
    else:
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        rows[0]["chi"] += 1
        out.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return bad


def check_workload(workload: str) -> list[str]:
    problems = []
    result = run.measure(workload, seed=1, seconds=0, trace=False, tiny=True)
    if not result["correct"] or result["attempted"] < 1 or result["failed"]:
        problems.append(f"tiny run not correct: {result}")
    if sorted(result["metrics"]) != sorted(END_TO_END):
        problems.append(f"metrics {sorted(result['metrics'])}")

    counts = []
    for _ in range(2):
        traced = run.measure(workload, seed=1, seconds=0, trace=True, tiny=True)
        counts.append({k: v["value"] for k, v in traced["metrics"].items() if v["unit"] == "count"})
    if counts[0] != counts[1]:
        problems.append(f"traced counts differ: {counts}")

    prepare, check = workloads.WORKLOADS[workload]
    prep = prepare(1, run.WORK, True)
    out = run.WORK / "selfcheck-out.ndjson"
    try:
        reports = run.run_round(workload, prep, False, out)["reports"]
        if check(prep, reports, out):
            problems.append("an honest round fails its check")
        if not check(prep, _corrupt(workload, reports, out), out):
            problems.append("a corrupted output passes its check")
    finally:
        for name in ("selfcheck-out.ndjson", f"spec-{os.getpid()}.json",
                     f"result-{os.getpid()}.json"):
            (run.WORK / name).unlink(missing_ok=True)
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's directory: the run must fail."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "stream-dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run without the program exited {proc.returncode} with {proc.stdout!r}"]
    return []


def main() -> int:
    failures = 0
    for workload in workloads.WORKLOADS:
        problems = check_workload(workload)
        failures += bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"bare directory: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
