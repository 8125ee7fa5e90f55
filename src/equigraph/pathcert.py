"""Constructive distance certificates between I-vertices.

For any group element g = (a, b, c) and anchor y with both y and g(y)
in [0, 1], the two I-vertices are within graph distance 2|b|.  The
construction works by induction on |b|: pick an intermediate point z
that a reduced element (with |b| smaller by one) sends y to, then close
the gap from z to g(y) with a connector of at most two edges.  The
connector is discovered by bounded search, never hard-coded, so a
missing connector is a loud Finding rather than a silent wrong path.
The construction runs on the integer keys of IntervalGraph._adjacency:
a point is a pair (u, v) of ints for (u + v*alpha)/den, den fixed by y.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .algebra import ONE, ZERO, AlgebraicPoint, point
from .errors import CONNECTOR_MISSING, EquigraphError, Finding
from .graph import GVertex, IntervalGraph, Side
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
            graph.check_vertex(v)  # raises for v outside its side interval
            key_of, adjacent, _ = graph._adjacency(v)
            # a w off v's denominator has key None, which no edge carries
            if key_of(w) not in [far for far, _labels in adjacent(key_of(v))]:
                problems.append(f"vertices {k} and {k + 1} are not adjacent")
        if self.length > 2 * abs(self.element.b):
            problems.append(
                f"length {self.length} exceeds bound {2 * abs(self.element.b)}"
            )
        return problems


def _cleared(y: AlgebraicPoint) -> tuple[AlgebraicPoint, int, int, int]:
    """(y, den, u, v) with den the lcm of y's denominators, as in _adjacency."""
    ud, vd = y.u.denominator, y.v.denominator
    den = lcm(ud, vd)
    return y, den, y.u.numerator * den // ud, y.v.numerator * den // vd


def _image(g: GroupElement, den: int, u: int, v: int) -> tuple[int, int]:
    """apply(g, .) on (u, v): a*x + 2c + 2b*alpha."""
    return g.a * u + 2 * g.c * den, g.a * v + 2 * g.b * den


def _in_unit(sign: Callable[[int, int], int], den: int, u: int, v: int) -> bool:
    """Whether (u, v) lies in [0, 1]; sign(u, v) is the exact sign of u + v*alpha."""
    return sign(u, v) >= 0 and sign(den - u, -v) >= 0


def _reduced_step(
    sign: Callable[[int, int], int], den: int, g: GroupElement, u: int, v: int
) -> tuple[tuple[int, int], GroupElement]:
    """Pick the intermediate z and the element sending y to z; g(y) is (u, v).

    The inequality splits follow the inductive construction verbatim.
    For alpha > 1/2 the prescribed z can leave [0, 1]; the complementary
    translate two units away is then forced, and still lowers |b|.
    """
    a, b, c = g.a, g.b, g.c
    two = 2 * den
    if b < 0:
        if sign(u - den, v + two) <= 0:  # g(y) <= 1 - 2*alpha
            return (u, v + two), GroupElement(a, b + 1, c)
        z = (two - u, -v - two)  # 2 - g(y) - 2*alpha
        if _in_unit(sign, den, *z):
            return z, GroupElement(-a, -(b + 1), 1 - c)
        return (u - two, v + two), GroupElement(a, b + 1, c - 1)
    if sign(-u, two - v) < 0:  # 2*alpha < g(y)
        return (u, v - two), GroupElement(a, b - 1, c)
    z = (-u, two - v)  # 2*alpha - g(y)
    if _in_unit(sign, den, *z):
        return z, GroupElement(-a, 1 - b, -c)
    return (u + two, v - two), GroupElement(a, b - 1, c + 1)


def build_path(
    graph: IntervalGraph, g: GroupElement, y: AlgebraicPoint
) -> CertifiedPath:
    """Certificate that (I, y) and (I, g(y)) are within distance 2|b|.

    Reduces g one step of |b| at a time down to b = 0, then closes each
    step's gap with a connector, innermost first, so the path grows from
    (I, y) outwards; nothing here depends on the recursion limit.
    Points are built only for the returned certificate and for errors.
    """
    if not graph.ctx.in_interval(y, ZERO, ONE):
        raise EquigraphError(f"anchor {y} outside [0, 1]")
    sign = graph.ctx.sign_scaled
    _, adjacent, vertex_of = graph._adjacency(GVertex(Side.I, y))
    _, den, yu, yv = _cleared(y)
    steps: list[tuple[GroupElement, tuple[int, int], tuple[int, int]]] = []
    element, gy = g, _image(g, den, yu, yv)
    while True:
        if not _in_unit(sign, den, *gy):
            raise EquigraphError(f"image {vertex_of((0, *gy)).point} outside [0, 1]")
        if element.b == 0:
            break
        z, reduced = _reduced_step(sign, den, element, *gy)
        if abs(reduced.b) != abs(element.b) - 1 or _image(reduced, den, yu, yv) != z:
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


def _threshold_anchors(g: GroupElement, wiggle: Fraction) -> list[AlgebraicPoint]:
    """Anchors whose images straddle the case-split thresholds."""
    ginv = inverse(g)
    return [
        apply(ginv, threshold + point(eps))
        for threshold in THRESHOLDS
        for eps in (-wiggle, Fraction(0), wiggle)
    ]


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
    sign = graph.ctx.sign_scaled
    elements = sorted(enumerate_ball(ball_radius))
    rng = random.Random(seed)
    base: list[AlgebraicPoint] = [ZERO, ONE]
    while len(base) < max(n_samples, 2):
        base.append(point(graph.sample_unit_rational(rng)))
    # 0, 1 and the samples lie in [0, 1] already; test them once, not per element
    base_anchors = [t for t in map(_cleared, base) if _in_unit(sign, *t[1:])]

    checks = 0
    elements_checked = 0
    max_dist_by_b: dict[int, int] = {}
    max_len_by_b: dict[int, int] = {}
    violations: list[dict] = []
    for g in elements:
        thresholds = map(_cleared, _threshold_anchors(g, Fraction(1, 1000)))
        anchors = base_anchors + [t for t in thresholds if _in_unit(sign, *t[1:])]
        bound = 2 * abs(g.b)
        hit = False
        for y, den, u, v in anchors:
            gu, gv = _image(g, den, u, v)
            if not _in_unit(sign, den, gu, gv):
                continue  # screened on ints; the point g(y) is built past here
            gy = AlgebraicPoint(Fraction(gu, den), Fraction(gv, den))
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
