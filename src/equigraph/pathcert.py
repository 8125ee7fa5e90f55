"""Constructive distance certificates between I-vertices.

For any group element g = (a, b, c) and anchor y with both y and g(y)
in [0, 1], the two I-vertices are within graph distance 2|b|.  The
construction is the proof's induction on |b|, and its connectors come
from the proof's table of the inductive step, _STEP, not from a search.
A wrong row is still loud: validate() checks each edge on the frame's
adjacency, and a connector vertex outside J raises a CONNECTOR_MISSING
Finding.  The construction runs on the integer keys of y's frame
(graph.Frame): a point is a pair (u, v) of ints for (u + v*alpha)/den,
den fixed by y.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import CONNECTOR_MISSING, EquigraphError, Finding
from .graph import Frame, IntervalGraph, Key, VertexChain
from .group import (
    GENERATOR_ELEMENTS,
    IDENTITY,
    GroupElement,
    compose,
    enumerate_ball,
    inverse,
)

ID, T, R2, R2A = GENERATOR_ELEMENTS.values()


def _case(split, signs, m, *h2s):
    return split, signs, m, inverse(m), h2s  # build_path applies m^-1


# The inductive step of the 2|b| lemma, three cases for b > 0 and then three
# for b < 0, none depending on b.  A case takes s = g(y) when the sign of
# s - split, split = (U, V) for U + V*alpha, is in signs (the last case takes
# every s left); then z = m^-1(s) lies in [0, 1] and m^-1 g has |b| one less.
# Each h2 in turn gives the connector (h2 m, h2), joining (I, z) and (I, s)
# through the J-vertex h2(s), where that lies in J.
_STEP = (
    (
        _case((0, 2), (1,), GroupElement(1, 1, 0), ID),  # s > 2a: x + 2a
        _case((-1, 2), (0, 1), GroupElement(-1, 1, 0), ID, R2A),  # s >= 2a - 1: 2a - x
        _case(None, (), GroupElement(1, 1, -1), R2A),  # s < 2a - 1: x + 2a - 2
    ),
    (
        _case((1, -2), (-1, 0), GroupElement(1, -1, 0), T),  # s <= 1 - 2a: x - 2a
        _case((2, -2), (-1, 0), GroupElement(-1, -1, 1), T, R2),  # 2 - 2a - x
        _case(None, (), GroupElement(1, -1, 1), R2),  # s > 2 - 2a: x - 2a + 2
    ),
)


class CertifiedPath(NamedTuple):
    """A concrete walk in the graph witnessing dist <= 2|b|.

    vertices alternates I/J, starts at (I, y), ends at (I, g(y)); for
    b = 0 the walk is the single vertex (I, y).  It keeps the keys of the
    frame that built it, start the key of (I, y), and builds a vertex only
    when one is read.
    """

    vertices: VertexChain
    element: GroupElement
    start: Key

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def validate(self) -> list[str]:
        """Return a list of defects; empty means the certificate is good.

        Every check is decided on the chain's keys and frame.
        """
        frame, keys, start = self.vertices.frame, self.vertices.keys, self.start
        problems: list[str] = []
        if keys[0] != start:
            problems.append("first vertex is not the anchor")
        if keys[-1] != (0, *frame.image(self.element, *start[1:])):
            problems.append("last vertex is not the image of the anchor")
        for k, key in enumerate(keys):
            frame.check(key)
            if key[0] != k % 2:
                problems.append(f"vertex {k} breaks I/J alternation")
        adjacent = frame.adjacent
        for k, (key, nxt) in enumerate(zip(keys, keys[1:])):
            for far, _labels in adjacent(key):
                if far == nxt:
                    break
            else:
                problems.append(f"vertices {k} and {k + 1} are not adjacent")
        if self.length > 2 * abs(self.element.b):
            problems.append(
                f"length {self.length} exceeds bound {2 * abs(self.element.b)}"
            )
        return problems


def build_path(
    frame: Frame,
    g: GroupElement,
    start: Key,
    known: dict[GroupElement, tuple] | None = None,
) -> CertifiedPath:
    """Certificate that (I, y) and (I, g(y)) are within distance 2|b|.

    Reduces g one step of |b| at a time down to b = 0, by _STEP's case
    for s = g(y), then closes each step's gap with its connector,
    innermost first, so the path grows from (I, y) outwards; nothing here
    depends on the recursion limit.  Only y and g(y) are tested for
    [0, 1]: each case keeps z there, and then b = 0 fixes y.  It runs on
    the keys of frame, start the key of (I, y), and the certificate keeps
    them; points are built only for errors.

    known maps elements to the keys of their certificates from start on
    frame.  The reduction stops at the first element known there: the
    certificate of an element is that of its reduced element plus one
    connector.  Each element certified on the way is added to known.
    """
    known = {} if known is None else known
    sign, den, vertex_of = frame.sign, frame.den, frame.vertex
    side, yu, yv = start
    if side != 0:
        raise EquigraphError(f"anchor key {start} is not on side I")
    if not frame.inside(0, yu, yv):
        raise EquigraphError(f"anchor {vertex_of(start).point} outside [0, 1]")
    element, s = g, frame.image(g, yu, yv)
    if g not in known and not frame.inside(0, *s):
        raise EquigraphError(f"image {vertex_of((0, *s)).point} outside [0, 1]")
    steps: list[tuple[GroupElement, tuple[int, int], tuple[int, int], tuple]] = []
    while (keys := known.get(element)) is None:
        if element.b == 0:
            keys = (start,)
            break
        u, v = s
        for split, signs, _m, back, h2s in _STEP[element.b < 0]:
            if split is None or sign(u - split[0] * den, v - split[1] * den) in signs:
                break
        z = frame.image(back, u, v)
        steps.append((element, z, s, h2s))
        element, s = compose(back, element), z
    for element, z, s, h2s in reversed(steps):
        if z != s:  # z = s only in a reflection case, at s = alpha or 1 - alpha
            for h2 in h2s:
                far = frame.image(h2, *s)
                if frame.inside(1, *far):
                    break
            else:
                zp, sp = vertex_of((0, *z)).point, vertex_of((0, *s)).point
                raise Finding(
                    CONNECTOR_MISSING,
                    f"no <=2-edge connection from {zp} to {sp}",
                    witness={
                        "element": [element.a, element.b, element.c],
                        "anchor": str(vertex_of(start).point),
                        "z": str(zp),
                        "image": str(sp),
                    },
                )
            keys += ((1, *far), (0, *s))
        known[element] = keys
    return CertifiedPath(VertexChain(keys, frame), g, start)


# ----------------------------------------------------------------------
# sweep verification

SAMPLE_DENOMINATOR = 10**6


def sample_unit_rational(rng: random.Random) -> Fraction:
    """A random rational in [0, 1], reduced, with denominator <= SAMPLE_DENOMINATOR."""
    den = rng.randint(1, SAMPLE_DENOMINATOR)
    num = rng.randint(0, den)
    return Fraction(num, den)


def verify_lemma(
    graph: IntervalGraph, ball_radius: int, n_samples: int, seed: int
) -> dict:
    """Sweep every ball element against sampled anchors; report violations.

    For each element g and each anchor y with y and g(y) both in [0, 1],
    checks that BFS distance and the constructed certificate both respect
    the 2|b| bound.  Violations are collected with full witnesses rather
    than raised, so one failure does not hide the rest of the sweep.

    Every key has at most two edges, so a BFS finds a goal at distance d
    within its first 2d - 1 expansions, and every distance the lemma
    bounds is at most 2|b| <= 2*ball_radius.  So each BFS gets the least
    budget that decides every check, 4*ball_radius - 1 expansions (at
    least 1), and a bfs violation with a null distance means the goal is
    farther than 2*ball_radius.

    The sweep runs one lazy stream of anchors: each base anchor against
    every screened element, then each threshold anchor g^-1(x) against
    its g alone.  An anchor (den, U, V), the point (U + V*alpha)/den, is
    keyed from ints on the frame over den.  Its checks share the frame's
    caches of adjacency and interval tests, its BFS and known, the table
    of its certificates, and all four go with the anchor, so the sweep
    holds one anchor's state at a time: O(ball_radius) keys, and a few
    more per ball element.  Each element lists its violations in anchor
    order, and the report joins the lists in ball order.  The base
    anchors are 0, 1 and max(n_samples, 2) - 2 random ones, each drawn
    as the stream reaches it, so n_samples counts 0 and 1.
    """
    elements = sorted(enumerate_ball(ball_radius))
    budget = max(1, 4 * ball_radius - 1)
    ctx = graph.ctx
    sign = ctx.sign_scaled
    # g([0, 1]) = [2c + min(0, a), 2c + max(0, a)] + 2b*alpha; when it misses
    # [0, 1], no anchor yields a check
    screened = [
        g
        for g in elements
        if sign(2 * g.c + max(0, g.a), 2 * g.b) >= 0
        and sign(2 * g.c + min(0, g.a) - 1, 2 * g.b) <= 0
    ]
    checks: dict[GroupElement, int] = dict.fromkeys(screened, 0)
    violations: dict[GroupElement, list[dict]] = {g: [] for g in screened}
    max_dist_by_b: dict[int, int] = {}
    max_len_by_b: dict[int, int] = {}

    def violation(g: GroupElement, frame: Frame, key: Key, **defect) -> None:
        """Record g's defect at the anchor key; built only when a check finds one."""
        anchor = str(frame.vertex(key).point)
        witness = {"element": [g.a, g.b, g.c], "anchor": anchor, "bound": 2 * abs(g.b)}
        violations[g].append(witness | defect)

    def check_anchor(
        den: int, u: int, v: int, back: GroupElement, targets: list[GroupElement]
    ) -> None:
        """Check targets from the anchor back((u + v*alpha)/den)."""
        frame = Frame(ctx, den)
        key = (0, *frame.image(back, u, v))
        if not frame.inside(*key):
            return
        frame.remember(key)
        known: dict[GroupElement, tuple] = {}
        for g in targets:
            goal = (0, *frame.image(g, *key[1:]))
            if not frame.inside(*goal):
                continue  # screened on ints; no vertex is built
            checks[g] += 1
            k = abs(g.b)
            dist = graph.bfs_distance(frame, key, goal, budget)
            if dist is None or dist > 2 * k:
                violation(g, frame, key, defect="bfs", distance=dist)
            else:
                max_dist_by_b[k] = max(max_dist_by_b.get(k, 0), dist)
            try:
                cert = build_path(frame, g, key, known)
                defects = cert.validate()
                if defects:
                    violation(g, frame, key, defect="certificate", problems=defects)
                else:
                    max_len_by_b[k] = max(max_len_by_b.get(k, 0), cert.length)
            except Finding as f:
                violation(g, frame, key, defect=f.kind, finding=f.witness)

    # x on each of _STEP's first splits (p, q), 2a and 1 - 2a, and 1/1000 to
    # either side, as (den, U, V) for (U + V*alpha)/den, where x is in [0, 1]
    images = [
        (den, u, v)
        for p, q in (cases[0][0] for cases in _STEP)
        for k, den in ((-1, 1000), (0, 1), (1, 1000))
        for u, v in [(den * p + k, den * q)]
        if sign(u, v) >= 0 and sign(den - u, -v) >= 0
    ]
    rng = random.Random(seed)
    samples = (sample_unit_rational(rng) for _ in range(max(n_samples, 2) - 2))
    base = chain((Fraction(0), Fraction(1)), samples)
    base_anchors = ((y.denominator, y.numerator, 0, IDENTITY, screened) for y in base)
    threshold_anchors = ((*x, inverse(g), [g]) for g in screened for x in images)
    for anchor in chain(base_anchors, threshold_anchors):
        check_anchor(*anchor)
    return {
        "ball_radius": ball_radius,
        "ball_size": len(elements),
        "elements_checked": sum(n > 0 for n in checks.values()),
        "checks": sum(checks.values()),
        "samples": n_samples,
        "seed": seed,
        "max_dist_by_b": {str(k): max_dist_by_b[k] for k in sorted(max_dist_by_b)},
        "max_path_len_by_b": {str(k): max_len_by_b[k] for k in sorted(max_len_by_b)},
        "violations": [v for listed in violations.values() for v in listed],
    }
