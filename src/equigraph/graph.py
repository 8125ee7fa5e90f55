"""The bipartite graph linking [0, 1] to [alpha, 1 + alpha].

An I-vertex y and a J-vertex z are adjacent when z is the image of y
under one of the four generating isometries.  Coinciding images are a
single edge carrying every generator that realizes it; this is what
makes the four extreme vertices degree one while every other vertex has
degree two.  The graph is uncountable, so it is never materialized:
every operation expands neighbors lazily from exact points.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key, partial
from math import lcm
from typing import Callable, Hashable, Optional

from .algebra import ALPHA, ONE, ZERO, AlgebraicPoint, AlphaContext
from .errors import EVEN_PATH_COMPONENT, EquigraphError, Finding
from .group import (
    GENERATOR_ELEMENTS,
    IDENTITY,
    Generator,
    GroupElement,
    apply,
    compose,
    inverse,
)

SAMPLE_DENOMINATOR = 10**6

_GEN_ORDER = {gen: i for i, gen in enumerate(Generator)}


class Side(Enum):
    I = "I"
    J = "J"


@dataclass(frozen=True)
class GVertex:
    side: Side
    point: AlgebraicPoint


@dataclass(frozen=True)
class GEdge:
    """One edge; labels is the full set of generators realizing it."""

    i_point: AlgebraicPoint
    j_point: AlgebraicPoint
    labels: frozenset[Generator]

    def canonical_label(self) -> Generator:
        return min(self.labels, key=_GEN_ORDER.__getitem__)


@dataclass(frozen=True)
class ComponentView:
    """Result of walking a component from an origin vertex.

    visited is in path order (cycle order for cycles) and edges[k] joins
    visited[k] to visited[k+1]; for cycles the last edge wraps around to
    visited[0].  kind is "even_cycle", "finite_path", or "partial"; a
    partial view carries the unexpanded frontier tips.
    """

    kind: str
    visited: tuple[GVertex, ...]
    edges: tuple[GEdge, ...]
    origin_index: int
    frontier: tuple[GVertex, ...]
    budget_used: int

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def cycle_length(self) -> Optional[int]:
        return len(self.edges) if self.kind == "even_cycle" else None

    def to_record(self) -> dict:
        rec = {
            "kind": self.kind,
            "size": len(self.visited),
            "budget": self.budget_used,
            "edge_count": self.edge_count,
            "frontier": [vertex_record(v) for v in self.frontier],
        }
        if self.kind == "even_cycle":
            rec["cycle_length"] = self.cycle_length
        return rec


def vertex_record(v: GVertex) -> dict:
    return {"side": v.side.value, "u": str(v.point.u), "v": str(v.point.v)}


Key = tuple[int, int, int]


class Frame:
    """Keys (side, U, V) for (U + V*alpha)/den, side 0 for I and 1 for J.

    The generator maps have integer coefficients, so the frame of a vertex
    keys its whole component.  adjacent(key) lists (far key, generator
    labels) sorted by far point; sign(U, V) is the exact sign of U + V*alpha.
    """

    def __init__(self, sign: Callable[[int, int], int], den: int):
        self.sign, self.den = sign, den
        # a bound partial: a method reading self.den and self.sign costs
        # 4-5% more per call, and a walk makes one call per vertex
        self.adjacent = partial(_integer_step, sign, den)

    def key(self, v: GVertex) -> Optional[Key]:
        """The key of v, or None for a vertex off this denominator."""
        u, w = v.point.u, v.point.v
        su, ru = divmod(self.den, u.denominator)
        sw, rw = divmod(self.den, w.denominator)
        if ru or rw:
            return None
        return _SIDE_INDEX[v.side], u.numerator * su, w.numerator * sw

    def vertex(self, key: Key) -> GVertex:
        side, u, v = key
        pt = AlgebraicPoint(Fraction(u, self.den), Fraction(v, self.den))
        return GVertex(_SIDES[side], pt)

    def inside(self, side: int, u: int, v: int) -> bool:
        """Whether (u, v) lies in side's interval [side*alpha, 1 + side*alpha]."""
        sign, den, shift = self.sign, self.den, side * self.den
        return sign(u, v - shift) >= 0 and sign(den - u, shift - v) >= 0

    def image(self, g: GroupElement, u: int, v: int) -> tuple[int, int]:
        """apply(g, .) on (u, v): a*x + 2c + 2b*alpha."""
        return g.a * u + 2 * g.c * self.den, g.a * v + 2 * g.b * self.den


class IntervalGraph:
    """Lazy view of the graph for one validated alpha."""

    def __init__(self, ctx: AlphaContext):
        self.ctx = ctx
        self.i_lo, self.i_hi = ZERO, ONE
        self.j_lo, self.j_hi = ALPHA, ONE + ALPHA

    # ------------------------------------------------------------------
    # vertices and adjacency

    def check_vertex(self, v: GVertex) -> None:
        lo, hi = (self.i_lo, self.i_hi) if v.side is Side.I else (self.j_lo, self.j_hi)
        if not self.ctx.in_interval(v.point, lo, hi):
            raise EquigraphError(f"{v.point} outside {v.side.value} interval")

    def vertex(self, side: Side, pt: AlgebraicPoint) -> GVertex:
        v = GVertex(side, pt)
        self.check_vertex(v)
        return v

    def frame(self, *vertices: GVertex) -> Frame:
        """The integer frame over the lcm of the vertices' denominators."""
        den = lcm(*(x.denominator for v in vertices for x in (v.point.u, v.point.v)))
        return Frame(self.ctx.sign_scaled, den)

    def neighbors(self, v: GVertex) -> list[GEdge]:
        """Edges at v, deduplicated by far point, sorted by far point."""
        self.check_vertex(v)
        frame = self.frame(v)
        edges = frame.adjacent(frame.key(v))
        return [_edge(v, frame.vertex(far), labels) for far, labels in edges]

    def degree(self, v: GVertex) -> int:
        return len(self.neighbors(v))

    # ------------------------------------------------------------------
    # traversal

    def bfs_distance(self, u: GVertex, v: GVertex, budget: int) -> Optional[int]:
        """Exact graph distance, or None if not reached within budget.

        budget bounds the number of expanded vertices; exhaustion and
        true unreachability both surface as None.
        """
        self.check_vertex(u)
        self.check_vertex(v)
        if budget <= 0:
            raise EquigraphError(f"budget must be positive, got {budget}")
        if u == v:
            return 0
        frame = self.frame(u)
        start, goal = frame.key(u), frame.key(v)
        if goal is None:
            return None  # off u's denominators, so off u's component
        seen = {start}
        queue: deque[tuple[Key, int]] = deque([(start, 0)])
        expanded = 0
        while queue:
            if expanded >= budget:
                return None
            cur, dist = queue.popleft()
            expanded += 1
            for w, _labels in frame.adjacent(cur):
                if w == goal:
                    return dist + 1
                if w not in seen:
                    seen.add(w)
                    queue.append((w, dist + 1))
        return None

    def explore_component(self, v: GVertex, budget: int) -> ComponentView:
        """Walk the component of v in both directions.

        Degrees are 1 or 2, so components are paths or cycles and a walk
        suffices.  A finite path with an even edge count is raised as a
        Finding rather than returned: it would contradict the structure
        this graph is built to exhibit.  The walk runs on the keys of v's
        frame; points are built only for the returned view.
        """
        self.check_vertex(v)
        frame = self.frame(v)
        return walk_component(frame, frame.key(v), budget)

    # ------------------------------------------------------------------
    # sampling

    def sample_unit_rational(self, rng: random.Random) -> Fraction:
        den = rng.randint(1, SAMPLE_DENOMINATOR)
        num = rng.randint(0, den)
        return Fraction(num, den)


# ----------------------------------------------------------------------
# the component walker


def walk_component(frame: Frame, origin: Hashable, budget: int) -> ComponentView:
    """Walk and classify the component of origin, whatever its keys are.

    frame.adjacent(key) lists (far key, labels) sorted by far point; the
    first direction walked is the first edge at origin.  frame.vertex turns
    a key into its vertex, for the returned view and for error witnesses.
    """
    adjacent, vertex_of = frame.adjacent, frame.vertex
    if budget <= 0:
        v = vertex_of(origin)
        return ComponentView("partial", (v,), (), 0, (v,), 0)
    chain: deque[Hashable] = deque([origin])
    chain_labels: deque[frozenset[Generator]] = deque()
    frontier: list[Hashable] = []
    seen = {origin}
    cycle = False
    origin_edges = adjacent(origin)
    expanded = 1
    if len(origin_edges) > 2:
        raise EquigraphError(
            f"vertex of degree {len(origin_edges)} at {vertex_of(origin)}"
        )
    # give the first direction half the budget so the view is centered on
    # the origin; the second direction takes whatever remains
    limits = ((budget + 1) // 2 if len(origin_edges) == 2 else budget, budget)
    for direction, (cur, via) in enumerate(origin_edges):
        if cycle:
            break
        prev = origin
        while True:
            if cur in seen:
                # met the explored region again: the closing edge of a
                # cycle (2-regularity leaves no other way back); it joins
                # the two chain ends, so it always goes last
                chain_labels.append(via)
                cycle = True
                break
            seen.add(cur)
            if direction == 0:
                chain.append(cur)
                chain_labels.append(via)
            else:
                chain.appendleft(cur)
                chain_labels.appendleft(via)
            if expanded >= limits[direction]:
                frontier.append(cur)
                break
            edges = adjacent(cur)
            expanded += 1
            onward = [e for e in edges if e[0] != prev]
            if len(onward) > 1:
                raise EquigraphError(f"vertex of degree >2 at {vertex_of(cur)}")
            if not onward:
                break  # degree-one endpoint
            prev = cur
            cur, via = onward[0]

    edge_count = len(chain_labels)
    if cycle:
        kind = "even_cycle"
        if edge_count % 2 != 0:
            raise EquigraphError(
                f"odd cycle of length {edge_count} at {vertex_of(origin)}"
            )
    elif frontier:
        kind = "partial"
    else:
        kind = "finite_path"
    visited = tuple(map(vertex_of, chain))
    if kind == "finite_path" and edge_count % 2 == 0:
        raise Finding(
            EVEN_PATH_COMPONENT,
            f"finite component with even edge count {edge_count}",
            witness={
                "origin": vertex_record(vertex_of(origin)),
                "edge_count": edge_count,
                "endpoints": [vertex_record(visited[0]), vertex_record(visited[-1])],
            },
        )
    # edges[k] joins visited[k] to visited[k+1]; a cycle's last edge wraps
    n = len(visited)
    edges = tuple(
        _edge(visited[k], visited[(k + 1) % n], labels)
        for k, labels in enumerate(chain_labels)
    )
    tips = tuple(map(vertex_of, frontier)) if kind == "partial" else ()
    return ComponentView(kind, visited, edges, chain.index(origin), tips, expanded)


def _edge(a: GVertex, b: GVertex, labels: frozenset[Generator]) -> GEdge:
    if a.side is Side.I:
        return GEdge(a.point, b.point, labels)
    return GEdge(b.point, a.point, labels)


# ----------------------------------------------------------------------
# adjacency in integer coordinates

_SIDES = (Side.I, Side.J)
_SIDE_INDEX = {side: k for k, side in enumerate(_SIDES)}
# _LABELS[mask] holds the generators whose bits are set in mask
_LABELS = tuple(
    frozenset(gen for k, gen in enumerate(GENERATOR_ELEMENTS) if mask >> k & 1)
    for mask in range(1 << len(GENERATOR_ELEMENTS))
)


# per side: (bit, a, 2c, 2b) of each generator map for I, of its inverse for J
_MAPS = (
    tuple(
        (1 << k, g.a, 2 * g.c, 2 * g.b)
        for k, g in enumerate(GENERATOR_ELEMENTS.values())
    ),
    tuple(
        (1 << k, g.a, -2 * g.a * g.c, -2 * g.a * g.b)
        for k, g in enumerate(GENERATOR_ELEMENTS.values())
    ),
)


def _integer_step(
    sign: Callable[[int, int], int], den: int, key: Key
) -> list[tuple[Key, frozenset[Generator]]]:
    """Adjacency on keys (side, U, V), side 0 for I and 1 for J.

    An I-vertex steps by each generator x -> a*x + 2b*alpha + 2c, a
    J-vertex by its inverse; an image is kept when it lies in the far
    interval, all in units of 1/den, and coinciding images merge into one
    edge carrying every generator that realizes them.  sign(U, V) is the
    exact sign of U + V*alpha.
    """
    side, u, v = key
    # the far interval is [s*alpha, 1 + s*alpha]: s = 1 for J, 0 for I.
    # Frame.inside's test, inlined: a call per image costs about 7% here
    shift = den if side == 0 else 0
    found: dict[tuple[int, int], int] = {}
    for bit, a, c2, b2 in _MAPS[side]:
        x, y = a * u + c2 * den, a * v + b2 * den
        if sign(x, y - shift) >= 0 and sign(den - x, shift - y) >= 0:
            found[x, y] = found.get((x, y), 0) | bit
    far = 1 - side
    out = [((far, x, y), _LABELS[mask]) for (x, y), mask in found.items()]
    if len(out) > 1:

        def order(e1: tuple, e2: tuple) -> int:
            return sign(e1[0][1] - e2[0][1], e1[0][2] - e2[0][2])

        out.sort(key=cmp_to_key(order))
    return out


# ----------------------------------------------------------------------
# chain arithmetic over explored components


def chain_element(view: ComponentView, i: int, j: int) -> GroupElement:
    """Element mapping visited[i]'s point to visited[j]'s point.

    Composes canonical edge labels along the chain; requires indices into
    the non-wrapping part of the view.
    """
    n = len(view.visited)
    if not (0 <= i < n and 0 <= j < n):
        raise EquigraphError(f"indices ({i}, {j}) outside view of size {n}")
    step = 1 if j >= i else -1
    acc = IDENTITY
    pos = i
    while pos != j:
        nxt = pos + step
        edge = view.edges[min(pos, nxt)]
        el = GENERATOR_ELEMENTS[edge.canonical_label()]
        src = view.visited[pos]
        if src.side is Side.I:
            acc = compose(el, acc)  # I -> J applies the label
        else:
            acc = compose(inverse(el), acc)  # J -> I applies its inverse
        pos = nxt
    return acc


# ----------------------------------------------------------------------
# edge-set geometry


def generator_domain(
    ctx: AlphaContext, gen: Generator
) -> tuple[AlgebraicPoint, AlgebraicPoint]:
    """The closed subinterval of [0, 1] that gen maps into [alpha, 1+alpha]."""
    el = GENERATOR_ELEMENTS[gen]
    shift = AlgebraicPoint(2 * el.c, 2 * el.b)
    j_lo, j_hi = ALPHA, ONE + ALPHA
    if el.a == 1:
        lo, hi = j_lo - shift, j_hi - shift
    else:
        lo, hi = shift - j_hi, shift - j_lo
    if ctx.compare(lo, ZERO) < 0:
        lo = ZERO
    if ctx.compare(ONE, hi) < 0:
        hi = ONE
    if ctx.compare(hi, lo) < 0:
        raise EquigraphError(f"{gen.value} has empty domain")  # pragma: no cover
    return lo, hi


Corner = tuple[AlgebraicPoint, AlgebraicPoint]


def edge_polygon(ctx: AlphaContext) -> list[Corner]:
    """Corners of the closed polygon traced by the four generator graphs.

    Each generator contributes the segment {(y, gen(y))} over its domain;
    the segments chain into one closed loop with unit slopes.  Corners are
    returned in traversal order, starting from the lexicographically
    smallest (i, j) corner.
    """
    segments: list[tuple[Corner, Corner]] = []
    for gen, el in GENERATOR_ELEMENTS.items():
        lo, hi = generator_domain(ctx, gen)
        segments.append(((lo, apply(el, lo)), (hi, apply(el, hi))))

    ends: dict[Corner, list[tuple[int, int]]] = {}
    for si, seg in enumerate(segments):
        for ei in (0, 1):
            ends.setdefault(seg[ei], []).append((si, ei))
    bad = [c for c, v in ends.items() if len(v) != 2]
    if bad:
        raise EquigraphError(f"segments do not chain into a loop: {bad}")

    def exact_order(c1: Corner, c2: Corner) -> int:
        first = ctx.compare(c1[0], c2[0])
        return first if first != 0 else ctx.compare(c1[1], c2[1])

    start = min(ends, key=cmp_to_key(exact_order))
    loop: list[Corner] = []
    corner = start
    si, ei = ends[corner][0]
    while True:
        loop.append(corner)
        corner = segments[si][1 - ei]
        if corner == start:
            break
        a, b = ends[corner]
        si, ei = b if a == (si, 1 - ei) else a
    if len(loop) != len(segments):
        raise EquigraphError("polygon chaining did not visit every segment")
    return loop
