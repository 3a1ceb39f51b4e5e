"""In-memory spans around the calls into each planmark layer.

`Tracer.install` replaces the module attributes that `planmark.pipeline`,
`planmark.marker`, `planmark.bayes` and `planmark.cli` call with wrappers
that record a span (name, start, end, parent span, call id) or bump a
count; `Tracer.uninstall` puts the originals back.  Nothing inside the
package changes, so a layer's time is what its callers see.

Functions the marker calls thousands of times per call get no span of
their own, because one each would cost more memory and time than the work
they measure: `extend_half` and `combine` are only counted, and the seam
`validate` and cleave-check `score_path` are leaves, whose time and count
are summed per (name, call) and charged to the enclosing span as child
time.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program runs on one thread.
"""

from __future__ import annotations

import gzip
from collections import Counter, defaultdict
from time import perf_counter

import planmark
from planmark import bayes, cli, marker, pipeline

# Wrapped with a span: (module, attribute, span name).
SPANNED = [
    (planmark, "run", "pipeline.run"),
    (cli, "run", "pipeline.run"),
    (cli, "load_kb", "kb.load_kb"),
    (pipeline, "parse_stream", "pipeline.parse_stream"),
    (pipeline.RunReport, "render", "pipeline.render"),
    (pipeline, "relevant_statements", "semantics.relevant_statements"),
    (pipeline, "score_path", "scoring.score_path"),
    (pipeline, "build_network", "bayes.build_network"),
    (pipeline, "default_cpts", "bayes.default_cpts"),
    (bayes, "relevant_statements", "semantics.relevant_statements"),
]


class Tracer:
    """Spans, leaf totals and counts of one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.leaves: dict[tuple[str, int], list] = defaultdict(lambda: [0.0, 0])
        self._leaf_child: dict[int, float] = defaultdict(float)
        self.nodes_max = 0
        self.engines: list = []
        self.call = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.call)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def leaf(self, name: str, fn):
        leaves, leaf_child, stack = self.leaves, self._leaf_child, self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                leaf_child[stack[-1] if stack else -1] += seconds
                total = leaves[name, self.call]
                total[0] += seconds
                total[1] += 1
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return traced

    def _observe_filter(self, args, passed) -> None:
        self.counts["bayes.filter_passes"] += bool(passed)

    def _observe_eval(self, args, result) -> None:
        self.counts["bayes.evals"] += 1
        self.nodes_max = max(self.nodes_max, args[0].non_evidence_count)

    def _observe_approve(self, args, approved) -> None:
        self.counts["bayes.approvals"] += bool(approved)

    def _engine_class(self, base):
        tracer = self

        class TracedEngine(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.engines.append(self)

            seed = tracer.span("marker.seed", base.seed)
            spread = tracer.span("marker.spread", base.spread)
        return TracedEngine

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        assert not self._saved, "tracer already installed"
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        self._patch(pipeline, "evidence_filter", self.span(
            "bayes.evidence_filter", pipeline.evidence_filter, self._observe_filter))
        self._patch(pipeline, "exact_posterior", self.span(
            "bayes.exact_posterior", pipeline.exact_posterior, self._observe_eval))
        self._patch(pipeline, "approve", self.span(
            "bayes.approve", pipeline.approve, self._observe_approve))
        self._patch(pipeline, "MarkerEngine", self._engine_class(pipeline.MarkerEngine))
        self._patch(marker, "score_path", self.leaf("scoring.score_path", marker.score_path))
        self._patch(marker, "extend_half", self.counted(
            "marker.extensions", marker.extend_half))
        self._patch(marker, "combine", self.counted(
            "scoring.combine_calls", marker.combine))
        self._patch(marker, "validate", self.leaf("paths.validate", marker.validate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------------

    def self_times(self, calls: set[int]) -> dict[str, list]:
        """[total self seconds, span or leaf count] per name over the given
        call ids."""
        child = [self._leaf_child.get(sid, 0.0) for sid in range(len(self.spans))]
        for name, start, end, parent, call in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for sid, (name, start, end, parent, call) in enumerate(self.spans):
            if call in calls:
                totals[name][0] += end - start - child[sid]
                totals[name][1] += 1
        for (name, call), (seconds, count) in self.leaves.items():
            if call in calls:
                totals[name][0] += seconds
                totals[name][1] += count
        return totals

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tcall\n")
            for sid, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\t{call}\n")
