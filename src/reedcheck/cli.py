"""Batch command-line front end.

Subcommands: ``invariants`` (exact invariant bundles), ``classify``
(family membership with witnesses), ``sweep`` (corpus verification of
the Reed bound), ``audit`` (statement checks), ``patterns`` (builtin
catalog).  Output is newline-delimited JSON with sorted keys, so runs
are byte-identical for identical inputs regardless of worker count;
``--pretty`` switches to a human-readable rendering.

Exit codes: 0 success / no violations, 1 violation certificates emitted,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import audit_graph
from .corpus import MAX_ENUMERATION_N, Graph6Stream, sweep, sweep_stream
from .graphs import Graph6Error, graph_from_graph6, graph_to_graph6
from .invariants import invariant_bundle
from .patterns import FAMILIES, FamilySpec, builtin_pattern, catalog_names, in_family


class UsageError(ValueError):
    """A bad option or input; ``main`` reports it like any other ValueError."""


# latin-1 decodes every byte, so a non-ASCII line reaches the graph6
# decoder and is rejected (or skipped under --lenient) as a malformed line
_SOURCE_ENCODING = "latin-1"


def _add_io_flags(p: argparse.ArgumentParser, with_graphs: bool = True) -> None:
    if with_graphs:
        p.add_argument("graphs", nargs="*", help="graph6 strings")
        p.add_argument("--source", help="file with one graph6 string per line")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=True,
                      help="abort on malformed input lines (default)")
    mode.add_argument("--lenient", dest="strict", action="store_false",
                      help="skip malformed input lines and count them")
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
            patterns = tuple(
                (g6, graph_from_graph6(g6)) for g6 in args.forbid
            )
        except Graph6Error as exc:
            raise UsageError(f"bad --forbid pattern: {exc}") from exc
        return FamilySpec("custom", patterns)
    return FAMILIES[args.family or "p5-flagc"]


def _input_graphs(args) -> tuple[list[tuple[str, object]], int]:
    """Labeled (graph6, Graph) inputs from args and/or --source, plus skip count."""
    labeled = []
    skipped = 0
    for text in args.graphs:
        try:
            g = graph_from_graph6(text)
        except Graph6Error as exc:
            if args.strict:
                raise UsageError(f"bad graph6 argument {text!r}: {exc}") from exc
            skipped += 1
            continue
        labeled.append((graph_to_graph6(g), g))
    if args.source:
        try:
            with open(args.source, encoding=_SOURCE_ENCODING) as handle:
                stream = Graph6Stream(handle, strict=args.strict)
                for _, g in stream:
                    labeled.append((graph_to_graph6(g), g))
                skipped += len(stream.skipped)
        except OSError as exc:
            raise UsageError(f"cannot read {args.source}: {exc}") from exc
    if not labeled and skipped == 0:
        raise UsageError("no input graphs; pass graph6 strings or --source FILE")
    return labeled, skipped


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_invariants(args) -> int:
    labeled, _ = _input_graphs(args)
    lines = []
    for g6, g in labeled:
        bundle = invariant_bundle(g)
        row = {"graph6": g6, **bundle.to_json()}
        if args.pretty:
            lines.append(
                f"{g6}  n={bundle.n} m={bundle.m} delta={bundle.delta} "
                f"omega={bundle.omega} chi={bundle.chi} alpha={bundle.alpha} "
                f"reed_bound={bundle.reed_bound} slack={bundle.slack}"
            )
        else:
            lines.append(_dumps(row))
    _emit(lines, args.out)
    return 0


def cmd_classify(args) -> int:
    family = _resolve_family(args)
    labeled, _ = _input_graphs(args)
    lines = []
    for g6, g in labeled:
        check = in_family(g, family)
        row = {"graph6": g6, "family": family.name, "member": check.member}
        if not check.member:
            row["witness"] = {"pattern": check.pattern, "vertices": list(check.witness)}
        if args.pretty:
            verdict = "member" if check.member else f"not a member (induced {check.pattern} at {list(check.witness)})"
            lines.append(f"{g6}  {family.name}: {verdict}")
        else:
            lines.append(_dumps(row))
    _emit(lines, args.out)
    return 0


def cmd_sweep(args) -> int:
    family = _resolve_family(args)
    if args.source is not None and args.n_max is not None:
        raise UsageError("--n-max and --source are mutually exclusive")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.source is None:
        n_max = args.n_max if args.n_max is not None else 7
        if not 0 <= n_max <= MAX_ENUMERATION_N:
            raise UsageError(
                f"--n-max must be within 0..{MAX_ENUMERATION_N} "
                "(use --source for larger corpora)"
            )
        report = sweep(family, n_max, audit=args.audit, workers=args.workers)
    else:
        try:
            with open(args.source, encoding=_SOURCE_ENCODING) as handle:
                report = sweep_stream(family, handle, strict=args.strict,
                                      audit=args.audit, workers=args.workers)
        except OSError as exc:
            raise UsageError(f"cannot read {args.source}: {exc}") from exc
    payload = report.to_json()
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
        lines = [_dumps(payload)]
    _emit(lines, args.out)
    return 1 if report.violations else 0


def cmd_audit(args) -> int:
    family = _resolve_family(args)
    labeled, _ = _input_graphs(args)
    lines = []
    member_violations = 0
    for g6, g in labeled:
        member = in_family(g, family).member
        report = audit_graph(g, invariant_bundle(g))
        if member:
            member_violations += len(report.violations)
        row = {"member": member, "family": family.name, **report.to_json()}
        if args.pretty:
            summary = ", ".join(
                f"{s}:{sum(report.counters[s].values())}" for s in report.counters
            )
            lines.append(
                f"{g6}  member={member} colorings={report.colorings_used} "
                f"violated={len(report.violations)}  [{summary}]"
            )
        else:
            lines.append(_dumps(row))
    _emit(lines, args.out)
    return 1 if member_violations else 0


def cmd_patterns(args) -> int:
    lines = []
    for name in catalog_names():
        g = builtin_pattern(name)
        row = {"name": name, "graph6": graph_to_graph6(g), "n": g.n, "m": g.m}
        if args.pretty:
            lines.append(f"{name:8s} {row['graph6']:10s} n={g.n} m={g.m}")
        else:
            lines.append(_dumps(row))
    _emit(lines, args.out)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
