"""Spans and counts at the boundaries between botmatch's modules.

The traced run replaces each public function that one library module imports
from another, in the importing module's namespace only, plus the benchmark's
own calls into the library and the `Arrangement` methods the upper layers
call (on the class). No library file changes. Each wrapper records a span
(name, start, end, parent span) while the tracer is active and passes
straight through otherwise, so answer checks leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time

LAYERS = ("arrangement", "diagram", "matching", "geom", "applications")

# Arrangement methods that diagram and applications call. iter_faces is a
# generator: a span around it would time only its creation.
ARRANGEMENT_METHODS = (
    "cell_bounds_float",
    "cell_centroid",
    "cell_neighbors",
    "cell_polygon",
    "edge_endpoints",
    "face_sample_triple",
    "locate",
    "vertex_point",
)

# The diagram's own labellers, reached by build_diagram through its globals.
DIAGRAM_LABELLERS = ("label_cells_incremental", "label_cells_recompute", "label_faces_lex")

# per-layer metric -> span whose summed duration (_s) or call count (_calls) it is
SPAN_TIMES = {
    "arrangement.all_bisectors_s": "arrangement.all_bisectors",
    "arrangement.used_bisectors_s": "arrangement.used_bisectors",
    "arrangement.build_s": "arrangement.build_arrangement",
    "arrangement.cell_polygon_s": "arrangement.cell_polygon",
    "diagram.build_diagram_s": "diagram.build_diagram",
    "diagram.label_incremental_s": "diagram.label_cells_incremental",
    "diagram.label_lex_s": "diagram.label_faces_lex",
    "diagram.eval_E_s": "diagram.eval_E",
    "matching.prune_candidates_s": "matching.prune_candidates",
    "matching.bottleneck_matching_s": "matching.bottleneck_matching",
    "matching.cross_bisector_s": "matching.cross_bisector",
    "matching.assignment_by_cost_s": "matching.assignment_by_cost",
    "geom.min_envelope_on_segment_s": "geom.min_envelope_on_segment",
    "geom.erode_polygon_s": "geom.erode_polygon",
}
SPAN_CALLS = {
    "arrangement.cell_polygon_calls": "arrangement.cell_polygon",
    "diagram.build_diagram_calls": "diagram.build_diagram",
    "diagram.eval_E_calls": "diagram.eval_E",
    "matching.prune_candidates_calls": "matching.prune_candidates",
    "matching.bottleneck_matching_calls": "matching.bottleneck_matching",
    "matching.cross_bisector_calls": "matching.cross_bisector",
    "matching.assignment_by_cost_calls": "matching.assignment_by_cost",
    "geom.min_envelope_on_segment_calls": "geom.min_envelope_on_segment",
    "geom.closest_point_in_polygon_calls": "geom.closest_point_in_polygon",
}
SELF_TIMES = {
    "applications.optimal_translation_self_s": "applications.optimal_translation",
    "applications.bottleneck_path_self_s": "applications.bottleneck_path",
    "applications.cover_radius_self_s": "applications.cover_radius",
}
# counts taken from the values the wrapped calls return
RESULT_COUNTS = (
    "arrangement.lines_total",
    "arrangement.lines_kept",
    "arrangement.cells",
    "arrangement.edges",
    "arrangement.vertices",
    "diagram.distinct_labels",
    "diagram.lex_faces",
    "diagram.distinct_lex_matchings",
)


def current_rss_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _layer(module_name: str) -> str | None:
    head, _, tail = module_name.rpartition(".")
    return tail if head == "botmatch" and tail in LAYERS else None


def wrap_targets(bench_module) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every boundary the trace covers."""
    targets = []
    for layer in LAYERS:
        mod = importlib.import_module(f"botmatch.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            src = _layer(obj.__module__)
            if src is not None and src != layer:
                targets.append((mod, attr, f"{src}.{attr}"))
    diagram = importlib.import_module("botmatch.diagram")
    for attr in DIAGRAM_LABELLERS:
        targets.append((diagram, attr, f"diagram.{attr}"))
    for attr, obj in vars(bench_module).items():
        if inspect.isfunction(obj) and _layer(obj.__module__) is not None:
            targets.append((bench_module, attr, f"{_layer(obj.__module__)}.{attr}"))
    arrangement = importlib.import_module("botmatch.arrangement")
    for attr in ARRANGEMENT_METHODS:
        targets.append((arrangement.Arrangement, attr, f"arrangement.{attr}"))
    return targets


class Tracer:
    """In-memory spans plus the counts read off wrapped calls' results."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._after = {
            "arrangement.all_bisectors": self._count_total,
            "arrangement.used_bisectors": self._count_kept,
            "arrangement.build_arrangement": self._count_arrangement,
            "diagram.label_cells_incremental": self._count_labels,
            "diagram.label_faces_lex": self._count_lex,
        }
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = {name: 0 for name in RESULT_COUNTS}
        self.counts["arrangement.rss_mb"] = 0.0
        self.counts["labelled_cells"] = 0
        self.counts["label_steps"] = 0

    # -- counts read off results ------------------------------------------------

    def _count_total(self, out) -> None:
        self.counts["arrangement.lines_total"] += len(out)

    def _count_kept(self, out) -> None:
        self.counts["arrangement.lines_kept"] += len(out)

    def _count_arrangement(self, arr) -> None:
        c = self.counts
        c["arrangement.cells"] += arr.n_cells
        c["arrangement.edges"] += arr.n_edges
        c["arrangement.vertices"] += arr.n_vertices
        c["arrangement.rss_mb"] = max(c["arrangement.rss_mb"], current_rss_mb())

    def _count_labels(self, diag) -> None:
        c = self.counts
        c["diagram.distinct_labels"] += len({label.matching for label in diag.cells})
        c["labelled_cells"] += diag.arrangement.n_cells
        c["label_steps"] += diag.arrangement.n_cells - 1

    def _count_lex(self, diag) -> None:
        c = self.counts
        c["diagram.lex_faces"] += len(diag.faces)
        c["diagram.distinct_lex_matchings"] += len({f.matching for f in diag.faces.values()})

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[sid] = (idx, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def install(self, bench_module) -> None:
        for owner, attr, name in wrap_targets(bench_module):
            original = getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- metrics ----------------------------------------------------------------

    def round_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child = [0.0] * len(spans)
        for idx, start, end, parent in spans:
            total[idx] += end - start
            calls[idx] += 1
            if parent >= first_span:
                child[parent - first_span] += end - start
        self_time = [0.0] * len(self.names)
        for j, (idx, start, end, _parent) in enumerate(spans):
            self_time[idx] += end - start - child[j]

        def by_name(values, name):
            return sum(v for i, v in enumerate(values) if self.names[i] == name)

        out: dict[str, float] = {}
        for metric, name in SPAN_TIMES.items():
            out[metric] = by_name(total, name)
        for metric, name in SPAN_CALLS.items():
            out[metric] = by_name(calls, name)
        for metric, name in SELF_TIMES.items():
            out[metric] = by_name(self_time, name)
        c = self.counts
        for name in RESULT_COUNTS:
            out[name] = c[name]
        out["arrangement.rss_mb"] = c["arrangement.rss_mb"]

        def ratio(num, den):
            return num / den if den else 0.0

        out["arrangement.kept_ratio"] = ratio(c["arrangement.lines_kept"], c["arrangement.lines_total"])
        out["applications.scan_ratio"] = ratio(out["geom.closest_point_in_polygon_calls"], c["arrangement.cells"])
        out["diagram.label_share"] = ratio(c["diagram.distinct_labels"], c["labelled_cells"])
        out["matching.lex_miss_ratio"] = ratio(out["matching.assignment_by_cost_calls"], c["diagram.lex_faces"])
        out["matching.update_ratio"] = ratio(out["matching.cross_bisector_calls"], c["label_steps"])
        return out

    def dump(self, path: str) -> None:
        """Write every span, times relative to the first span's start."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": self.names,
                    "spans": [[i, a - t0, b - t0, p] for i, a, b, p in self.spans],
                },
                fh,
            )


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
