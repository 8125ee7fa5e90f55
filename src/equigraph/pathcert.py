"""Constructive distance certificates between I-vertices.

For any group element g = (a, b, c) and anchor y with both y and g(y)
in [0, 1], the two I-vertices are within graph distance 2|b|.  The
construction works by induction on |b|: pick an intermediate point z
that a reduced element (with |b| smaller by one) sends y to, then close
the gap from z to g(y) with a connector of at most two edges.  The
connector is discovered by bounded search, never hard-coded, so a
missing connector is a loud Finding rather than a silent wrong path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import ALPHA, ONE, ZERO, AlgebraicPoint, point
from .errors import CONNECTOR_MISSING, EquigraphError, Finding
from .graph import GVertex, IntervalGraph, Side
from .group import GroupElement, apply, enumerate_ball, inverse

TWO_ALPHA = ALPHA + ALPHA
ONE_MINUS_TWO_ALPHA = ONE - TWO_ALPHA
TWO = point(2)


@dataclass(frozen=True)
class CertifiedPath:
    """A concrete walk in the graph witnessing dist <= 2|b|.

    vertices alternates I/J, starts at (I, y), ends at (I, g(y)); for
    b = 0 the walk is the single vertex (I, y).
    """

    vertices: tuple[GVertex, ...]
    element: GroupElement
    anchor: AlgebraicPoint

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def validate(self, graph: IntervalGraph) -> list[str]:
        """Return a list of defects; empty means the certificate is good."""
        problems: list[str] = []
        first, last = self.vertices[0], self.vertices[-1]
        if first != GVertex(Side.I, self.anchor):
            problems.append("first vertex is not the anchor")
        if last != GVertex(Side.I, apply(self.element, self.anchor)):
            problems.append("last vertex is not the image of the anchor")
        for k, v in enumerate(self.vertices):
            expected = Side.I if k % 2 == 0 else Side.J
            if v.side is not expected:
                problems.append(f"vertex {k} breaks I/J alternation")
        for k in range(self.length):
            v, w = self.vertices[k], self.vertices[k + 1]
            if w not in [e.other(v) for e in graph.neighbors(v)]:
                problems.append(f"vertices {k} and {k + 1} are not adjacent")
        if self.length > 2 * abs(self.element.b):
            problems.append(
                f"length {self.length} exceeds bound {2 * abs(self.element.b)}"
            )
        return problems


def _reduced_step(
    graph: IntervalGraph, g: GroupElement, gy: AlgebraicPoint
) -> tuple[AlgebraicPoint, GroupElement]:
    """Pick the intermediate z and the element sending y to z.

    The inequality splits follow the inductive construction verbatim.
    For alpha > 1/2 the prescribed z can leave [0, 1]; the complementary
    translate two units away is then forced, and still lowers |b|.
    """
    ctx = graph.ctx
    a, b, c = g.a, g.b, g.c
    if b < 0:
        if ctx.compare(gy, ONE_MINUS_TWO_ALPHA) <= 0:
            z = gy + TWO_ALPHA
            reduced = GroupElement(a, b + 1, c)
        else:
            z = TWO - gy - TWO_ALPHA
            reduced = GroupElement(-a, -(b + 1), 1 - c)
            if not ctx.in_interval(z, ZERO, ONE):
                z = gy + TWO_ALPHA - TWO
                reduced = GroupElement(a, b + 1, c - 1)
    else:
        if ctx.compare(TWO_ALPHA, gy) < 0:
            z = gy - TWO_ALPHA
            reduced = GroupElement(a, b - 1, c)
        else:
            z = TWO_ALPHA - gy
            reduced = GroupElement(-a, 1 - b, -c)
            if not ctx.in_interval(z, ZERO, ONE):
                z = gy + TWO - TWO_ALPHA
                reduced = GroupElement(a, b - 1, c + 1)
    return z, reduced


def _connector(
    graph: IntervalGraph, z: AlgebraicPoint, gy: AlgebraicPoint
) -> Optional[list[GVertex]]:
    """Vertices appended after (I, z) to reach (I, gy) in <= 2 edges."""
    if z == gy:
        return []
    shared = None
    z_edges = {e.j_point: e for e in graph.neighbors(GVertex(Side.I, z))}
    for e in graph.neighbors(GVertex(Side.I, gy)):
        if e.j_point in z_edges:
            if shared is None or graph.ctx.compare(e.j_point, shared) < 0:
                shared = e.j_point
    if shared is None:
        return None
    return [GVertex(Side.J, shared), GVertex(Side.I, gy)]


def build_path(
    graph: IntervalGraph, g: GroupElement, y: AlgebraicPoint
) -> CertifiedPath:
    """Certificate that (I, y) and (I, g(y)) are within distance 2|b|.

    Reduces g one step of |b| at a time down to b = 0, then closes each
    step's gap with a connector, innermost first, so the path grows from
    (I, y) outwards; nothing here depends on the recursion limit.
    """
    ctx = graph.ctx
    if not ctx.in_interval(y, ZERO, ONE):
        raise EquigraphError(f"anchor {y} outside [0, 1]")
    steps: list[tuple[GroupElement, AlgebraicPoint, AlgebraicPoint]] = []
    element = g
    gy = apply(g, y)
    while True:
        if not ctx.in_interval(gy, ZERO, ONE):
            raise EquigraphError(f"image {gy} outside [0, 1]")
        if element.b == 0:
            break
        z, reduced = _reduced_step(graph, element, gy)
        if abs(reduced.b) != abs(element.b) - 1 or apply(reduced, y) != z:
            raise EquigraphError(
                f"reduction of {element} produced inconsistent step {reduced}"
            )  # pragma: no cover - construction is checked by tests
        steps.append((element, z, gy))
        element, gy = reduced, z
    # With both y and g(y) in [0, 1] and no alpha shift, the element fixes
    # y: the identity, or a reflection anchored at y in {0, 1}.
    if gy != y:  # pragma: no cover - impossible under the precondition
        raise EquigraphError(f"b=0 element moved {y} to {gy}")
    vertices = [GVertex(Side.I, y)]
    for element, z, gy in reversed(steps):
        tail = _connector(graph, z, gy)
        if tail is None:
            raise Finding(
                CONNECTOR_MISSING,
                f"no <=2-edge connection from {z} to {gy}",
                witness={
                    "element": [element.a, element.b, element.c],
                    "anchor": str(y),
                    "z": str(z),
                    "image": str(gy),
                },
            )
        vertices.extend(tail)
    return CertifiedPath(tuple(vertices), g, y)


# ----------------------------------------------------------------------
# sweep verification


def _threshold_anchors(
    graph: IntervalGraph, g: GroupElement, wiggle: Fraction
) -> list[AlgebraicPoint]:
    """Anchors whose images straddle the case-split thresholds."""
    out = []
    ginv = inverse(g)
    for threshold in (TWO_ALPHA, ONE_MINUS_TWO_ALPHA):
        for eps in (-wiggle, Fraction(0), wiggle):
            out.append(apply(ginv, threshold + point(eps)))
    return out


def verify_lemma(
    graph: IntervalGraph,
    ball_radius: int,
    n_samples: int,
    seed: int,
    bfs_budget: Optional[int] = None,
) -> dict:
    """Sweep every ball element against sampled anchors; report violations.

    For each element g and each anchor y with y and g(y) both in [0, 1],
    checks that BFS distance and the constructed certificate both respect
    the 2|b| bound.  Violations are collected with full witnesses rather
    than raised, so one failure does not hide the rest of the sweep.
    """
    ctx = graph.ctx
    elements = sorted(enumerate_ball(ball_radius))
    if bfs_budget is None:
        bfs_budget = 16 * ball_radius + 64
    rng = random.Random(seed)
    base: list[AlgebraicPoint] = [ZERO, ONE]
    while len(base) < max(n_samples, 2):
        base.append(point(graph.sample_unit_rational(rng)))
    # 0, 1 and the samples lie in [0, 1] already; test them once, not per element
    base = [y for y in base if ctx.in_interval(y, ZERO, ONE)]

    checks = 0
    elements_checked = 0
    max_dist_by_b: dict[int, int] = {}
    max_len_by_b: dict[int, int] = {}
    violations: list[dict] = []
    for g in elements:
        anchors = base + [
            y
            for y in _threshold_anchors(graph, g, Fraction(1, 1000))
            if ctx.in_interval(y, ZERO, ONE)
        ]
        bound = 2 * abs(g.b)
        hit = False
        for y in anchors:
            gy = apply(g, y)
            if not ctx.in_interval(gy, ZERO, ONE):
                continue
            hit = True
            checks += 1
            witness = {"element": [g.a, g.b, g.c], "anchor": str(y), "bound": bound}
            dist = graph.bfs_distance(
                GVertex(Side.I, y), GVertex(Side.I, gy), bfs_budget
            )
            if dist is None or dist > bound:
                violations.append(
                    {**witness, "defect": "bfs", "distance": dist}
                )
            else:
                k = abs(g.b)
                max_dist_by_b[k] = max(max_dist_by_b.get(k, 0), dist)
            try:
                cert = build_path(graph, g, y)
                defects = cert.validate(graph)
                if defects:
                    violations.append(
                        {**witness, "defect": "certificate", "problems": defects}
                    )
                else:
                    k = abs(g.b)
                    max_len_by_b[k] = max(max_len_by_b.get(k, 0), cert.length)
            except Finding as f:
                violations.append(
                    {**witness, "defect": f.kind, "finding": f.witness}
                )
        if hit:
            elements_checked += 1
    return {
        "ball_radius": ball_radius,
        "ball_size": len(elements),
        "elements_checked": elements_checked,
        "checks": checks,
        "samples": n_samples,
        "seed": seed,
        "max_dist_by_b": {str(k): max_dist_by_b[k] for k in sorted(max_dist_by_b)},
        "max_path_len_by_b": {str(k): max_len_by_b[k] for k in sorted(max_len_by_b)},
        "violations": violations,
    }
