"""reedcheck benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs and their reference answers
are made first, outside any timed region.  Then every round of the
workload runs in a fresh interpreter (see worker.py), with workers=1,
one round after another.  With ``--trace 0`` rounds repeat while the next
one is expected to end within S seconds, and the last line of standard
output is a JSON object with the end-to-end metrics: median wall time of
the timed calls, invariant bundles per wall second, median set-up time
and median peak memory.  With ``--trace 1`` the run makes one untraced
and one traced round and reports the per-layer metrics of the traced one.
Every round's output is checked against the reference answers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

SETUP_SAMPLES = 11       # set-up-only launches per run, on top of one per round
ROUND_TIMEOUT_S = 160


class BenchError(Exception):
    """The run cannot produce a result (missing program, crashed round)."""


def run_round(workload: str, prep, trace: bool, out: Path) -> dict:
    """Launch one worker; return its result plus the measured set-up time."""
    spec_path = WORK / f"spec-{os.getpid()}.json"
    result_path = WORK / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    spec = {"workload": workload, "root": str(ROOT), "n_max": prep.n_max if prep else 0,
            "source": prep.source if prep else None, "out": str(out), "trace": trace,
            "result": str(result_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    launch = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=ROOT, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - launch
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    if not (ROOT / "src" / "reedcheck" / "__init__.py").is_file():
        raise BenchError(f"no reedcheck sources under {ROOT / 'src'}")
    prepare, check = workloads.WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    prep = prepare(seed, WORK, tiny)
    try:
        return _measure(workload, prep, check, seconds, trace)
    finally:
        for name in ("spec", "result", "out"):
            for path in WORK.glob(f"{name}-{os.getpid()}.*"):
                path.unlink()


def _measure(workload: str, prep, check, seconds: float, trace: bool) -> dict:
    out = WORK / f"out-{os.getpid()}.ndjson"

    setups = [run_round("setup", None, False, out)["setup_s"] for _ in range(SETUP_SAMPLES)]
    rounds, problems = [], []
    start = time.monotonic()
    while True:
        # a traced run is one untraced round, then one traced round
        rounds.append(run_round(workload, prep, trace and len(rounds) == 1, out))
        problems += check(prep, rounds[-1]["reports"], out)
        print(f"round {len(rounds)}: wall {rounds[-1]['wall_s']:.3f} s, "
              f"set-up {rounds[-1]['setup_s']:.3f} s", file=sys.stderr)
        if trace:
            if len(rounds) == 2:
                break
        else:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rounds) > seconds:  # the next round would end late
                break
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if trace:
        untraced, traced = rounds
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"],
                                       "unit": "s"}
    else:
        wall = statistics.median(r["wall_s"] for r in rounds)
        bundles = prep.bundles or sum(rep["members"] for rep in rounds[0]["reports"])
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "verified_per_s": {"value": bundles / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in rounds]),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    return {"correct": not problems, "attempted": prep.ops * len(rounds), "failed": 0,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
