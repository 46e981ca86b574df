"""Layer spans for the traced run.

The tracer replaces module-level names of reedcheck (the names a sweep
and the CLI look up when they call into a layer) with wrappers that time
each call and count work.  Spans are aggregated as they close rather
than stored one by one, since an audited sweep closes about two million
of them:

* self time per layer: a span's duration minus the time covered by the
  spans opened inside it, so the layers' self times add up to the
  traced wall time of the outermost spans;
* inclusive time per wrapped name, counting only the outermost call of a
  recursive name;
* work counts, some taken from the wrapped call's arguments or result.

Nothing here changes what the program computes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []  # per open span: time covered by its children
        self._depth: Counter[str] = Counter()

    def span(self, module, attr: str, layer: str, count: str | None = None, after=None) -> None:
        """Time every call of ``module.attr`` as a span of ``layer``."""
        fn = getattr(module, attr)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        stack, depth, self_s, inclusive_s, counts = (
            self._stack, self._depth, self.self_s, self.inclusive_s, self.counts)

        def wrapper(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            depth[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[key] -= 1
                self_s[layer] += elapsed - covered[0]
                if stack:
                    stack[-1][0] += elapsed
                if not depth[key]:
                    inclusive_s[key] += elapsed
            if count:
                counts[count] += 1
            if after:
                after(args, result)
            return result

        setattr(module, attr, wrapper)

    def tally(self, module, attr: str, after) -> None:
        """Count calls of ``module.attr`` without opening a span."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points that sweeps and the CLI call."""
    from reedcheck import audit, cli, coloring, corpus, invariants, patterns

    counts = tracer.counts

    # corpus: the sweeps themselves and orderly enumeration
    tracer.span(corpus, "sweep", "corpus.sweep")
    tracer.span(corpus, "sweep_stream", "corpus.sweep")

    level = corpus._canonical_level  # lru_cache: count the classes of levels built, not hits

    def counted_level(n):
        misses = level.cache_info().misses
        result = level(n)
        if level.cache_info().misses > misses:
            counts["corpus.classes"] += len(result)
        return result

    corpus._canonical_level = counted_level
    tracer.span(corpus, "_canonical_level", "corpus.enumerate")

    def candidate(args, kept):
        counts["corpus.candidates"] += 1
        counts["corpus.kept"] += bool(kept)

    tracer.tally(corpus, "is_min_labeled", candidate)

    # graphs: the graph6 codec, wherever a layer calls it
    for module in (corpus, cli, audit):
        tracer.span(module, "graph_from_graph6", "graphs.codec", count="graphs.decodes")
        tracer.span(module, "graph_to_graph6", "graphs.codec", count="graphs.encodes")

    # patterns: family membership and the induced-pattern searches inside it
    def membership(args, check):
        counts["patterns.membership_calls"] += 1
        counts["patterns.members"] += check.member

    tracer.span(corpus, "in_family", "patterns.membership", after=membership)

    def searched(args, witness):
        counts["patterns.pattern_searches"] += 1

    tracer.tally(patterns, "has_induced", searched)

    # invariants: bundles, and the exact chromatic solver inside them
    for module in (corpus, cli):
        tracer.span(module, "invariant_bundle", "invariants", count="invariants.bundles")
    tracer.span(invariants, "chromatic_number", "invariants")

    # coloring: the audit's coloring policy and the unique-color decompositions
    def policy(args, result):
        colorings, truncated = result
        counts["coloring.colorings"] += len(colorings)
        counts["coloring.truncations"] += truncated
        counts["coloring.apex_pairs"] += len(colorings) * args[0].n

    tracer.span(audit, "audit_colorings", "coloring.policy", after=policy)
    for module in (audit, coloring):
        tracer.span(module, "unique_color_neighbors", "coloring.decompose",
                    count="coloring.decompositions")

    # audit: whole-graph audits
    def instances(args, report):
        counts["audit.instances"] += sum(sum(row.values()) for row in report.counters.values())

    tracer.span(corpus, "audit_graph", "audit", after=instances)

    # cli: the front end and its output writer
    tracer.span(cli, "main", "cli")
    tracer.span(cli, "_emit", "cli.output")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    s, inc, c = tracer.self_s, tracer.inclusive_s, tracer.counts
    return {
        "corpus.enumerate_s": (s["corpus.enumerate"], "s"),
        "corpus.candidates": (c["corpus.candidates"], "count"),
        "corpus.classes": (c["corpus.classes"], "count"),
        "corpus.kept_ratio": (_ratio(c["corpus.kept"], c["corpus.candidates"]), "ratio"),
        "corpus.sweep_self_s": (s["corpus.sweep"], "s"),
        "graphs.codec_s": (s["graphs.codec"], "s"),
        "graphs.decodes": (c["graphs.decodes"], "count"),
        "graphs.encodes": (c["graphs.encodes"], "count"),
        "patterns.membership_s": (s["patterns.membership"], "s"),
        "patterns.membership_calls": (c["patterns.membership_calls"], "count"),
        "patterns.pattern_searches": (c["patterns.pattern_searches"], "count"),
        "patterns.member_ratio": (
            _ratio(c["patterns.members"], c["patterns.membership_calls"]), "ratio"),
        "invariants.bundle_s": (s["invariants"], "s"),
        "invariants.chromatic_s": (inc["invariants.chromatic_number"], "s"),
        "invariants.bundles": (c["invariants.bundles"], "count"),
        "coloring.policy_s": (s["coloring.policy"], "s"),
        "coloring.colorings": (c["coloring.colorings"], "count"),
        "coloring.truncations": (c["coloring.truncations"], "count"),
        "coloring.decompose_s": (s["coloring.decompose"], "s"),
        "coloring.decompositions": (c["coloring.decompositions"], "count"),
        "coloring.decompositions_per_apex": (
            _ratio(c["coloring.decompositions"], c["coloring.apex_pairs"]), "ratio"),
        "audit.audit_s": (s["audit"], "s"),
        "audit.instances": (c["audit.instances"], "count"),
        "audit.instances_per_s": (_ratio(c["audit.instances"], inc["corpus.audit_graph"]), "1/s"),
        "cli.self_s": (s["cli"], "s"),
        "cli.output_s": (s["cli.output"], "s"),
    }
