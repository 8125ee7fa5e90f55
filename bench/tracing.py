"""Span recording around equigraph's public functions, from outside.

A Tracer replaces each traced function of the imported package with a
wrapper that records one span (name, start, end, parent) per call into
flat arrays; the benchmark imports the package afresh for every call, so
the wrappers never outlive it.  Self time of a span is its duration minus
the durations of its direct children.  Nothing here is imported by the
untraced runs, so they run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

# (module, attribute, span name).  An attribute "Class.method" is patched
# on the class; a plain function is patched at every module binding that
# holds it, since modules import names directly (apply is bound in group,
# graph, pathcert and dynamics; cli holds its own verify_lemma,
# random_kmatching and run_dynamics).
SPANS = (
    ("equigraph.algebra", "AlphaContext.sign", "algebra.sign"),
    ("equigraph.algebra", "AlphaContext.in_interval", "algebra.in_interval"),
    ("equigraph.group", "apply", "group.apply"),
    ("equigraph.group", "enumerate_ball", "group.enumerate_ball"),
    ("equigraph.graph", "IntervalGraph.neighbors", "graph.neighbors"),
    ("equigraph.graph", "IntervalGraph.explore_component", "graph.explore_component"),
    ("equigraph.graph", "IntervalGraph.bfs_distance", "graph.bfs_distance"),
    ("equigraph.pathcert", "verify_lemma", "pathcert.verify_lemma"),
    ("equigraph.pathcert", "build_path", "pathcert.build_path"),
    ("equigraph.pathcert", "CertifiedPath.validate", "pathcert.validate"),
    ("equigraph.dynamics", "random_kmatching", "dynamics.random_kmatching"),
    ("equigraph.dynamics", "run_dynamics", "dynamics.run_dynamics"),
    ("equigraph.dynamics", "improve", "dynamics.improve"),
    ("equigraph.dynamics", "phi_pairs", "dynamics.phi_pairs"),
    ("equigraph.dynamics", "KMatching.cost", "dynamics.cost"),
    ("equigraph.dynamics", "KMatching.validate", "dynamics.validate"),
    ("equigraph.cli", "cmd_explore", "cli.cmd"),
    ("equigraph.cli", "cmd_verify_lemma", "cli.cmd"),
    ("equigraph.cli", "cmd_dynamics", "cli.cmd"),
)

# Counted without a span: too frequent and too cheap to time one by one.
COUNTS = (("equigraph.algebra", "AlgebraicPoint.__init__", "algebra.point_new"),)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.neighbor_keys: set = set()
        self.graphs: dict[int, object] = {}  # held so that ids stay unique
        self.verify_reports: list[dict] = []
        self.missing: set[str] = set()
        self._hooks = {
            "graph.neighbors": self._on_neighbors,
            "graph.explore_component": self._on_explore,
            "graph.bfs_distance": self._on_bfs,
            "pathcert.verify_lemma": self._on_verify,
        }

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        """Wrap every traced function of the currently imported package."""
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, lambda fn, n=name: self._span(n, fn))
        for module_name, attr, name in COUNTS:
            self._patch(module_name, attr, lambda fn, n=name: self._counter(n, fn))

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = sys.modules.get(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = owner.__dict__.get(leaf) if owner is not None else None
        if original is None:
            self.missing.add(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        if owner_name:
            owners = [owner]
        else:
            owners = [
                mod
                for key, mod in sys.modules.items()
                if (key == "equigraph" or key.startswith("equigraph."))
                and getattr(mod, leaf, None) is original
            ]
        for target in owners:
            setattr(target, leaf, wrapper)

    def _span(self, name: str, fn: Callable) -> Callable:
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = self.current
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            self.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self.current = parent
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_neighbors(self, args, edges) -> None:
        graph, vertex = args[0], args[1]
        self.graphs[id(graph)] = graph
        self.neighbor_keys.add((id(graph), vertex))

    def _on_explore(self, args, view) -> None:
        self.counts["graph.explore_component.vertices"] += view.to_record()["budget"]

    def _on_bfs(self, args, dist) -> None:
        if dist is None:
            self.counts["graph.bfs_distance.undecided"] += 1

    def _on_verify(self, args, report) -> None:
        self.verify_reports.append(report)

    # ------------------------------------------------------------------
    # summary

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, max nesting."""
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        depth = [1] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                if names[p] == names[i]:
                    depth[i] = depth[p] + 1
        by_id = {nid: name for name, nid in self.name_ids.items()}
        totals = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_depth": 0}
            for name in self.name_ids
        }
        for i in range(n):
            t = totals[by_id[names[i]]]
            dur = ends[i] - starts[i]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child[i]
            t["max_depth"] = max(t["max_depth"], depth[i])
        return totals

    def counters(self) -> dict[str, int]:
        """Every count this pass made; each must repeat exactly on a rerun."""
        out = {f"{name}.calls": int(t["calls"]) for name, t in self.span_totals().items()}
        out.update(self.counts)
        out["graph.neighbors.distinct"] = len(self.neighbor_keys)
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    Which end-to-end figure each layer should move, and where:
      algebra   wall_s on walk and certify; nothing on dynamics
      group     wall_s on certify and walk
      graph     wall_s and peak_rss_mb on walk; wall_s on certify
      pathcert  wall_s on certify
      dynamics  wall_s on dynamics only
      cli       wall_s on dynamics (1.6 MB of CSV per pass)
    A layer a workload never calls reads 0 on it.
    """
    t = tracer.span_totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "max_depth": 0}

    def span(name: str) -> dict:
        return t.get(name, zero)

    c = tracer.counts
    reports = tracer.verify_reports
    checks = sum(r["checks"] for r in reports)
    # verify_lemma tries its sampled base anchors (at least two) plus six
    # threshold anchors on every ball element.
    tried = sum(r["ball_size"] * (max(r["samples"], 2) + 6) for r in reports)
    return {
        "algebra.sign.calls": span("algebra.sign")["calls"],
        "algebra.sign.self_s": span("algebra.sign")["self_s"],
        "algebra.in_interval.calls": span("algebra.in_interval")["calls"],
        "algebra.in_interval.self_s": span("algebra.in_interval")["self_s"],
        "algebra.point_new.calls": c["algebra.point_new"],
        "group.apply.calls": span("group.apply")["calls"],
        "group.apply.self_s": span("group.apply")["self_s"],
        "group.enumerate_ball.s": span("group.enumerate_ball")["s"],
        "graph.neighbors.calls": span("graph.neighbors")["calls"],
        "graph.neighbors.self_s": span("graph.neighbors")["self_s"],
        "graph.neighbors.distinct_ratio": ratio(
            len(tracer.neighbor_keys), span("graph.neighbors")["calls"]
        ),
        "graph.explore_component.us_per_vertex": 1e6
        * ratio(
            span("graph.explore_component")["s"],
            c["graph.explore_component.vertices"],
        ),
        "graph.bfs_distance.calls": span("graph.bfs_distance")["calls"],
        "graph.bfs_distance.self_s": span("graph.bfs_distance")["self_s"],
        "graph.bfs_distance.undecided": c["graph.bfs_distance.undecided"],
        "pathcert.verify_lemma.s": span("pathcert.verify_lemma")["s"],
        "pathcert.build_path.calls": span("pathcert.build_path")["calls"],
        "pathcert.build_path.max_depth": span("pathcert.build_path")["max_depth"],
        "pathcert.build_path.self_s": span("pathcert.build_path")["self_s"],
        "pathcert.validate.self_s": span("pathcert.validate")["self_s"],
        "pathcert.anchor_hit_ratio": ratio(checks, tried),
        "pathcert.element_coverage": ratio(
            sum(r["elements_checked"] for r in reports),
            sum(r["ball_size"] for r in reports),
        ),
        "dynamics.random_kmatching.s": span("dynamics.random_kmatching")["s"],
        "dynamics.run_dynamics.s": span("dynamics.run_dynamics")["s"],
        "dynamics.improve.calls": span("dynamics.improve")["calls"],
        "dynamics.improve.self_s": span("dynamics.improve")["self_s"],
        "dynamics.phi_pairs.calls": span("dynamics.phi_pairs")["calls"],
        "dynamics.phi_pairs.self_s": span("dynamics.phi_pairs")["self_s"],
        "dynamics.cost.calls": span("dynamics.cost")["calls"],
        "dynamics.validate.calls": span("dynamics.validate")["calls"],
        "cli.self_s": span("cli.cmd")["self_s"],
    }
