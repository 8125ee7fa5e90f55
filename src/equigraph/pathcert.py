"""Constructive distance certificates between I-vertices.

For any group element g = (a, b, c) and anchor y with both y and g(y)
in [0, 1], the two I-vertices are within graph distance 2|b|.  The
construction works by induction on |b|: pick an intermediate point z
that a reduced element (with |b| smaller by one) sends y to, then close
the gap from z to g(y) with a connector of at most two edges.  The
connector is discovered by bounded search, never hard-coded, so a
missing connector is a loud Finding rather than a silent wrong path.
The construction runs on the integer keys of y's frame (graph.Frame): a
point is a pair (u, v) of ints for (u + v*alpha)/den, den fixed by y.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ONE, ZERO, AlgebraicPoint, AlphaContext, point
from .errors import CONNECTOR_MISSING, EquigraphError, Finding
from .graph import Frame, GVertex, IntervalGraph, Side, frame_den
from .group import GroupElement, apply, enumerate_ball, inverse

THRESHOLDS = (point(0, 2), point(1, -2))  # 2*alpha, 1 - 2*alpha: the case splits


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

    def validate(self, graph: IntervalGraph, frame: Frame | None = None) -> list[str]:
        """Return a list of defects; empty means the certificate is good.

        A true edge joins points with equal denominators, so one frame over
        every vertex's denominators decides every edge exactly: frame when
        its den is that lcm (a sweep passes its anchor's), else a new one.
        """
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
        if frame is None or frame.den != frame_den(*self.vertices):
            frame = graph.frame(*self.vertices)
        keys = list(map(frame.key, self.vertices))
        for k in range(len(keys) - 1):
            frame.check(keys[k])
            if keys[k + 1] not in [far for far, _labels in frame.adjacent(keys[k])]:
                problems.append(f"vertices {k} and {k + 1} are not adjacent")
        if self.length > 2 * abs(self.element.b):
            problems.append(
                f"length {self.length} exceeds bound {2 * abs(self.element.b)}"
            )
        return problems


def _reduced_step(
    frame: Frame, g: GroupElement, u: int, v: int
) -> tuple[tuple[int, int], GroupElement]:
    """Pick the intermediate z and the element sending y to z; g(y) is (u, v).

    The inequality splits follow the inductive construction verbatim.
    For alpha > 1/2 the prescribed z can leave [0, 1]; the complementary
    translate two units away is then forced, and still lowers |b|.
    """
    a, b, c = g.a, g.b, g.c
    sign, den, two = frame.sign, frame.den, 2 * frame.den
    if b < 0:
        if sign(u - den, v + two) <= 0:  # g(y) <= 1 - 2*alpha
            return (u, v + two), GroupElement(a, b + 1, c)
        z = (two - u, -v - two)  # 2 - g(y) - 2*alpha
        if frame.inside(0, *z):
            return z, GroupElement(-a, -(b + 1), 1 - c)
        return (u - two, v + two), GroupElement(a, b + 1, c - 1)
    if sign(-u, two - v) < 0:  # 2*alpha < g(y)
        return (u, v - two), GroupElement(a, b - 1, c)
    z = (-u, two - v)  # 2*alpha - g(y)
    if frame.inside(0, *z):
        return z, GroupElement(-a, 1 - b, -c)
    return (u + two, v - two), GroupElement(a, b - 1, c + 1)


def build_path(
    graph: IntervalGraph, g: GroupElement, y: AlgebraicPoint, frame: Frame | None = None
) -> CertifiedPath:
    """Certificate that (I, y) and (I, g(y)) are within distance 2|b|.

    Reduces g one step of |b| at a time down to b = 0, then closes each
    step's gap with a connector, innermost first, so the path grows from
    (I, y) outwards; nothing here depends on the recursion limit.
    It runs on frame, y's frame, built here when not given.
    Points are built only for the returned certificate and for errors.
    """
    frame = frame or graph.frame(GVertex(Side.I, y))
    adjacent, vertex_of = frame.adjacent, frame.vertex
    _, yu, yv = frame.key(GVertex(Side.I, y))
    if not frame.inside(0, yu, yv):
        raise EquigraphError(f"anchor {y} outside [0, 1]")
    steps: list[tuple[GroupElement, tuple[int, int], tuple[int, int]]] = []
    element, gy = g, frame.image(g, yu, yv)
    while True:
        if not frame.inside(0, *gy):
            raise EquigraphError(f"image {vertex_of((0, *gy)).point} outside [0, 1]")
        if element.b == 0:
            break
        z, reduced = _reduced_step(frame, element, *gy)
        if abs(reduced.b) != abs(element.b) - 1 or frame.image(reduced, yu, yv) != z:
            raise EquigraphError(
                f"reduction of {element} produced inconsistent step {reduced}"
            )  # pragma: no cover - construction is checked by tests
        steps.append((element, z, gy))
        element, gy = reduced, z
    # With both y and g(y) in [0, 1] and no alpha shift, the element fixes
    # y: the identity, or a reflection anchored at y in {0, 1}.
    if gy != (yu, yv):  # pragma: no cover - impossible under the precondition
        raise EquigraphError(f"b=0 element moved {y} to {vertex_of((0, *gy)).point}")
    keys = [(0, yu, yv)]
    for element, z, gy in reversed(steps):
        if z == gy:
            continue
        # far keys come sorted by far point, so the first one at (I, g(y))
        # that (I, z) shares is the lowest J-vertex joining them
        z_far = {far for far, _labels in adjacent((0, *z))}
        shared = next((far for far, _ in adjacent((0, *gy)) if far in z_far), None)
        if shared is None:
            zp, gp = vertex_of((0, *z)).point, vertex_of((0, *gy)).point
            raise Finding(
                CONNECTOR_MISSING,
                f"no <=2-edge connection from {zp} to {gp}",
                witness={
                    "element": [element.a, element.b, element.c],
                    "anchor": str(y),
                    "z": str(zp),
                    "image": str(gp),
                },
            )
        keys += [shared, (0, *gy)]
    return CertifiedPath(tuple(map(vertex_of, keys)), g, y)


# ----------------------------------------------------------------------
# sweep verification


def _threshold_images(ctx: AlphaContext, wiggle: Fraction) -> list[AlgebraicPoint]:
    """The points on and next to the case-split thresholds that lie in [0, 1].

    An anchor g^-1(x) yields a check only when its image x lies in [0, 1].
    """
    images = [
        threshold + point(eps)
        for threshold in THRESHOLDS
        for eps in (-wiggle, Fraction(0), wiggle)
    ]
    return [x for x in images if ctx.sign(x) >= 0 and ctx.sign(ONE - x) >= 0]


def verify_lemma(
    graph: IntervalGraph,
    ball_radius: int,
    n_samples: int,
    seed: int,
    bfs_budget: int,
) -> dict:
    """Sweep every ball element against sampled anchors; report violations.

    For each element g and each anchor y with y and g(y) both in [0, 1],
    checks that BFS distance and the constructed certificate both respect
    the 2|b| bound.  Violations are collected with full witnesses rather
    than raised, so one failure does not hide the rest of the sweep.
    """
    elements = sorted(enumerate_ball(ball_radius))
    rng = random.Random(seed)
    base: list[AlgebraicPoint] = [ZERO, ONE]
    while len(base) < max(n_samples, 2):
        base.append(point(graph.sample_unit_rational(rng)))

    def screened(anchors: list[AlgebraicPoint]) -> list[tuple]:
        """(y, frame, u, v) for each anchor y in [0, 1], over y's denominators."""
        out = []
        for y in anchors:
            frame = graph.frame(GVertex(Side.I, y))
            side, u, v = frame.key(GVertex(Side.I, y))
            if frame.inside(side, u, v):
                # y's checks share this memo; they expand keys within 2*|b| <=
                # 2*ball_radius of y, at most 4*ball_radius + 1 of them
                frame.remember(4 * ball_radius + 2)
                out.append((y, frame, u, v))
        return out

    # 0, 1 and the samples lie in [0, 1] already; test them once, not per element
    base_anchors = screened(base)
    images = _threshold_images(graph.ctx, Fraction(1, 1000))

    checks = 0
    elements_checked = 0
    max_dist_by_b: dict[int, int] = {}
    max_len_by_b: dict[int, int] = {}
    violations: list[dict] = []
    for g in elements:
        ginv = inverse(g)
        anchors = base_anchors + screened([apply(ginv, x) for x in images])
        k = abs(g.b)
        bound = 2 * k
        hit = False
        for y, frame, u, v in anchors:
            gu, gv = frame.image(g, u, v)
            if not frame.inside(0, gu, gv):
                continue  # screened on ints; the vertex g(y) is built past here
            hit = True
            checks += 1
            witness = {"element": [g.a, g.b, g.c], "anchor": str(y), "bound": bound}
            dist = graph.bfs_distance(
                GVertex(Side.I, y), frame.vertex((0, gu, gv)), bfs_budget, frame
            )
            if dist is None or dist > bound:
                violations.append({**witness, "defect": "bfs", "distance": dist})
            else:
                max_dist_by_b[k] = max(max_dist_by_b.get(k, 0), dist)
            try:
                cert = build_path(graph, g, y, frame)
                defects = cert.validate(graph, frame)
                if defects:
                    violations.append(
                        {**witness, "defect": "certificate", "problems": defects}
                    )
                else:
                    max_len_by_b[k] = max(max_len_by_b.get(k, 0), cert.length)
            except Finding as f:
                violations.append({**witness, "defect": f.kind, "finding": f.witness})
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
