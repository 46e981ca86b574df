"""Batch command-line front end.

Subcommands: ``invariants`` (exact invariant bundles), ``classify``
(family membership with witnesses), ``sweep`` (corpus verification of
the Reed bound), ``audit`` (statement checks), ``patterns`` (builtin
catalog).  Output is newline-delimited JSON with sorted keys, so runs
are byte-identical for identical inputs regardless of worker count;
``--pretty`` switches to a human-readable rendering.

Exit codes: 0 success / no violations, 1 violation certificates emitted,
2 usage, input or OS error (such as a pool that cannot start).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from itertools import starmap

from .audit import audit_graph
from .corpus import MAX_ENUMERATION_N, Graph6Stream, sweep, sweep_stream
from .graphs import Graph6Error, graph_from_graph6, graph_to_graph6
from .invariants import invariant_bundle
from .patterns import FAMILIES, FamilySpec, builtin_pattern, catalog_names, in_family


class UsageError(ValueError):
    """A bad option or input; ``main`` reports it like any other ValueError."""


def _source_lines(path: str):
    """The lines of the --source file ``path``, read as they are asked for.

    Only an error while opening or reading the file is reported as unreadable
    input; latin-1 decodes every byte, so a non-ASCII line reaches the graph6
    decoder and is rejected (or skipped under --lenient) as a malformed line.
    """
    try:
        with open(path, encoding="latin-1") as handle:
            yield from handle
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _add_io_flags(p: argparse.ArgumentParser, with_graphs: bool = True) -> None:
    if with_graphs:
        p.add_argument("graphs", nargs="*", help="graph6 strings")
        p.add_argument("--source", help="file with one graph6 string per line")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=True,
                      help="abort on malformed input lines (default)")
    mode.add_argument("--lenient", dest="strict", action="store_false",
                      help="skip malformed input lines instead of aborting")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--pretty", action="store_true", help="human-readable output")


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(FAMILIES), default=None,
                   help="named forbidden-pattern family")
    p.add_argument("--forbid", nargs="+", metavar="G6", default=None,
                   help="custom forbidden patterns as graph6 strings")


def _resolve_family(args) -> FamilySpec:
    if args.family and args.forbid:
        raise UsageError("--family and --forbid are mutually exclusive")
    if args.forbid:
        try:
            patterns = tuple((g6, graph_from_graph6(g6)) for g6 in args.forbid)
        except Graph6Error as exc:
            raise UsageError(f"bad --forbid pattern: {exc}") from exc
        return FamilySpec("custom", patterns)
    return FAMILIES[args.family or "p5-flagc"]


def _input_graphs(args):
    """(graph6, Graph) per input graph: the arguments, then --source as it is read.

    An argument is encoded again, so a header or line ending given with it
    does not reach the output; a --source line is passed on as the stream
    yields it, which equals its encoding.
    """
    graphs = []
    for text in args.graphs:
        try:
            graphs.append(graph_from_graph6(text))
        except Graph6Error as exc:
            if args.strict:
                raise UsageError(f"bad graph6 argument {text!r}: {exc}") from exc
    # all arguments are decoded before the first is yielded, so a bad one
    # stops a command before it writes anything
    for g in graphs:
        yield graph_to_graph6(g), g
    given = bool(args.graphs)
    if args.source:
        stream = Graph6Stream(_source_lines(args.source), strict=args.strict)
        for _, g6, g in stream:
            given = True
            yield g6, g
        given = given or bool(stream.skipped)
    if not given:
        raise UsageError("no input graphs; pass graph6 strings or --source FILE")


def _open_out(path: str | None):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(lines, out) -> None:
    for line in lines:
        out.write(line + "\n")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands: each writes its lines to ``out`` and returns the exit code
# ---------------------------------------------------------------------------

def cmd_invariants(args, out) -> int:
    def line(g6, g):
        bundle = invariant_bundle(g)
        if args.pretty:
            return (f"{g6}  n={bundle.n} m={bundle.m} delta={bundle.delta} "
                    f"omega={bundle.omega} chi={bundle.chi} alpha={bundle.alpha} "
                    f"reed_bound={bundle.reed_bound} slack={bundle.slack}")
        return _dumps({"graph6": g6, **bundle.to_json()})

    _emit(starmap(line, _input_graphs(args)), out)
    return 0


def cmd_classify(args, out) -> int:
    family = _resolve_family(args)

    def line(g6, g):
        check = in_family(g, family)
        if args.pretty:
            verdict = "member" if check.member else f"not a member (induced {check.pattern} at {list(check.witness)})"
            return f"{g6}  {family.name}: {verdict}"
        row = {"graph6": g6, "family": family.name, "member": check.member}
        if not check.member:
            row["witness"] = {"pattern": check.pattern, "vertices": list(check.witness)}
        return _dumps(row)

    _emit(starmap(line, _input_graphs(args)), out)
    return 0


def cmd_sweep(args, out) -> int:
    family = _resolve_family(args)
    if args.source is not None and args.n_max is not None:
        raise UsageError("--n-max and --source are mutually exclusive")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.source is None:
        n_max = args.n_max if args.n_max is not None else 7
        if not 0 <= n_max <= MAX_ENUMERATION_N:
            raise UsageError(f"--n-max must be within 0..{MAX_ENUMERATION_N} "
                             "(use --source for larger corpora)")
        report = sweep(family, n_max, audit=args.audit, workers=args.workers)
    else:
        report = sweep_stream(family, _source_lines(args.source), strict=args.strict,
                              audit=args.audit, workers=args.workers)
    if args.pretty:
        lines = [
            f"family {report.family}: examined {report.examined}, "
            f"members {report.members}, violations {len(report.violations)}, "
            f"tight {report.tight_count} ({report.wall_time_s:.2f}s)"
        ]
        for n in sorted(report.per_n):
            row = report.per_n[n]
            lines.append(
                f"  n={n}: examined {row['examined']}, members {row['members']}, "
                f"tight {row['tight']}"
            )
        if report.violations:
            lines.append("VIOLATIONS:")
            lines.extend(f"  {_dumps(v)}" for v in report.violations)
    else:
        lines = [_dumps(report.to_json())]
    _emit(lines, out)
    return 1 if report.violations else 0


def cmd_audit(args, out) -> int:
    family = _resolve_family(args)
    member_violations = 0

    def line(g6, g):
        nonlocal member_violations
        member = in_family(g, family).member
        report = audit_graph(g, invariant_bundle(g))
        if member:
            member_violations += len(report.violations)
        if args.pretty:
            summary = ", ".join(
                f"{s}:{sum(report.counters[s].values())}" for s in report.counters
            )
            return (f"{g6}  member={member} colorings={report.colorings_used} "
                    f"violated={len(report.violations)}  [{summary}]")
        return _dumps({"member": member, "family": family.name, **report.to_json()})

    _emit(starmap(line, _input_graphs(args)), out)
    return 1 if member_violations else 0


def cmd_patterns(args, out) -> int:
    def line(name):
        g = builtin_pattern(name)
        g6 = graph_to_graph6(g)
        if args.pretty:
            return f"{name:8s} {g6:10s} n={g.n} m={g.m}"
        return _dumps({"name": name, "graph6": g6, "n": g.n, "m": g.m})

    _emit(map(line, catalog_names()), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reedcheck",
        description="Exact verification of the Reed bound over hereditary graph families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="exact invariant bundle per graph")
    _add_io_flags(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("classify", help="family membership per graph")
    _add_io_flags(p)
    _add_family_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="verify the bound over a graph corpus")
    _add_io_flags(p, with_graphs=False)
    p.add_argument("--source", help="graph6 file to sweep instead of internal enumeration")
    _add_family_flags(p)
    p.add_argument("--n-max", type=int, default=None,
                   help=f"enumerate all graphs up to this size (default 7, max {MAX_ENUMERATION_N})")
    p.add_argument("--audit", action="store_true", help="run statement audits on members")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="statement-by-statement audit per graph")
    _add_io_flags(p)
    _add_family_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("patterns", help="list the builtin pattern catalog")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_patterns)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _open_out(args.out) as out:
            return args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # rows are written as they are computed: a reader that stops early (`| head`)
    # ends the run by SIGPIPE, as it ends other filters, not by exit code 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
