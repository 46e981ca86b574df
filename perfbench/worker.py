"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the workload, the checkout root, the input and output files,
whether to trace, and where to write the result.  The result holds the
moment reedcheck was imported and ready (time.monotonic, comparable with
the parent's launch time), the wall time of the timed calls, the peak
resident memory, the program's reports and, when traced, the per-layer
metrics.  A fresh interpreter per round matters: the program keeps its
enumeration cache for the life of the process.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import reedcheck
    import reedcheck.cli  # noqa: F401  (the CLI is part of what a user loads)
    ready = time.monotonic()
    if Path(reedcheck.__file__).resolve().parent != (src / "reedcheck").resolve():
        print(f"reedcheck was imported from {reedcheck.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"ready": ready}
    workload = spec["workload"]
    if workload != "setup":
        tracer = None
        if spec["trace"]:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        wall, reports = WORKLOADS[workload](spec)
        result.update(
            wall_s=wall,
            peak_rss_mb=_peak_rss_mb(),
            reports=reports,
        )
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _peak_rss_mb() -> float:
    """This process's high-water resident memory.  Not ru_maxrss: Linux
    carries the launching parent's peak across exec into that figure."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# Each workload looks layer entry points up on their modules at call time,
# so that the traced round sees the tracer's wrappers.

def _families(spec):
    from reedcheck import FAMILIES, corpus

    start = time.perf_counter()
    reports = [corpus.sweep(FAMILIES[name], spec["n_max"], workers=1) for name in sorted(FAMILIES)]
    wall = time.perf_counter() - start
    return wall, [r.to_json() for r in reports]


def _stream(audit: bool):
    def run(spec):
        from reedcheck import FAMILIES, corpus

        lines = Path(spec["source"]).read_text(encoding="ascii").splitlines(keepends=True)
        start = time.perf_counter()
        report = corpus.sweep_stream(FAMILIES["p5-flagc"], lines, audit=audit, workers=1)
        wall = time.perf_counter() - start
        return wall, [report.to_json()]
    return run


def _invariants(spec):
    from reedcheck import cli

    argv = ["invariants", "--source", spec["source"], "--out", spec["out"]]
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    return wall, [{"exit_code": code}]


WORKLOADS = {
    "families-n8": _families,
    "audit-members-n8": _stream(audit=True),
    "stream-dense": _stream(audit=False),
    "invariants-sparse": _invariants,
}


if __name__ == "__main__":
    sys.exit(main())
