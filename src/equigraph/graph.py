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
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import lcm
from typing import Callable, Hashable, Optional

from .algebra import AlgebraicPoint, AlphaContext, point
from .errors import EVEN_PATH_COMPONENT, EquigraphError, Finding
from .group import (
    GENERATOR_ELEMENTS,
    IDENTITY,
    Generator,
    GroupElement,
    compose,
    inverse,
)

SAMPLE_DENOMINATOR = 10**6

class Side(Enum):
    I = "I"
    J = "J"


@dataclass(frozen=True)
class GVertex:
    side: Side
    point: AlgebraicPoint


class VertexChain(Sequence):
    """A read-only sequence of vertices, kept as keys of frame and built when read.

    Indexing gives frame.vertex(keys[k]), a slice a tuple of vertices, and a
    chain equals a tuple (or chain) of the same vertices.
    """

    def __init__(self, keys: Sequence[Hashable], frame: Frame):
        self.keys, self.frame = tuple(keys), frame

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.frame.vertex, self.keys[k]))
        return self.frame.vertex(self.keys[k])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, (tuple, VertexChain)) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class ComponentView:
    """Result of walking a component from an origin vertex.

    visited is in path order (cycle order for cycles) and labels[k] is the
    generator set of the edge from visited[k] to visited[k+1]; for cycles
    the last edge wraps around to visited[0].  kind is "even_cycle",
    "finite_path", or "partial"; a partial view carries the unexpanded
    frontier tips.  visited keeps the walk's keys and builds each vertex
    when it is read.
    """

    kind: str
    visited: VertexChain
    labels: tuple[frozenset[Generator], ...]
    origin_index: int
    frontier: tuple[GVertex, ...]
    budget_used: int

    @property
    def edge_count(self) -> int:
        return len(self.labels)

    @property
    def cycle_length(self) -> Optional[int]:
        return len(self.labels) if self.kind == "even_cycle" else None

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
    labels) sorted by far point; inside(side, U, V) tells whether (U, V)
    lies in side's interval [side*alpha, 1 + side*alpha]; sign(U, V) is the
    exact sign of U + V*alpha.  adjacent and inside are built once by
    _frame_step: a float filter that decides most keys' threshold and
    endpoint signs, in front of the exact sign, which decides a key on or
    next to a threshold or an endpoint, and a key too large for a float.
    """

    def __init__(self, ctx: AlphaContext, den: int):
        self.sign, self.den = ctx.sign_scaled, den
        self.adjacent, self.inside = _frame_step(ctx, den)
        self.bfs: Optional[_Search] = None  # kept by remember

    def key(self, v: GVertex) -> Optional[Key]:
        """The key of v, or None for a vertex off this denominator."""
        u, w = v.point.u, v.point.v
        su, ru = divmod(self.den, u.denominator)
        sw, rw = divmod(self.den, w.denominator)
        if ru or rw:
            return None
        # tuple.index compares by identity first, so no Enum hash is taken
        return _SIDES.index(v.side), u.numerator * su, w.numerator * sw

    def vertex(self, key: Key) -> GVertex:
        side, u, v = key
        pt = AlgebraicPoint(Fraction(u, self.den), Fraction(v, self.den))
        return GVertex(_SIDES[side], pt)

    def check(self, key: Key) -> None:
        """Raise unless key's vertex lies in its side's interval."""
        if not self.inside(*key):
            v = self.vertex(key)
            raise EquigraphError(f"{v.point} outside {v.side.value} interval")

    def image(self, g: GroupElement, u: int, v: int) -> tuple[int, int]:
        """apply(g, .) on (u, v): a*x + 2c + 2b*alpha."""
        return g.a * u + 2 * g.c * self.den, g.a * v + 2 * g.b * self.den

    def remember(self, origin: Key) -> None:
        """Keep adjacent's lists as tuples in memo, and one breadth-first
        search from origin, which bfs_distance resumes.

        Both grow as the frame is used and die with it.  Walks keep the bare
        adjacency: a walk never revisits a vertex.
        """
        step, memo = self.adjacent, {}

        def adjacent(key: Key) -> tuple[tuple[Key, frozenset[Generator]], ...]:
            edges = memo.get(key)
            if edges is None:
                edges = memo[key] = tuple(step(key))
            return edges

        self.adjacent, self.memo = adjacent, memo
        self.bfs = _Search(adjacent, origin)


class _Search:
    """A breadth-first search from start that each call resumes.

    reached[key] is (distance, n) when key was found while expanding the
    n-th vertex.  The expansion order from one start is fixed, so a search
    with budget B finds key exactly when n <= B.
    """

    def __init__(self, adjacent: Callable, start: Key):
        self.adjacent, self.start = adjacent, start
        self.reached = {start: (0, 0)}
        self.queue = deque([start])
        self.expanded = 0

    def distance(self, goal: Key, budget: int) -> Optional[int]:
        """The distance to goal, or None if budget expansions do not find it."""
        adjacent, reached, queue = self.adjacent, self.reached, self.queue
        while goal not in reached and queue and self.expanded < budget:
            cur = queue.popleft()
            self.expanded = expanded = self.expanded + 1
            dist = reached[cur][0] + 1
            for w, _labels in adjacent(cur):
                if w not in reached:
                    reached[w] = dist, expanded
                    queue.append(w)
        found = reached.get(goal)
        return found[0] if found is not None and found[1] <= budget else None


class IntervalGraph:
    """Lazy view of the graph for one validated alpha."""

    def __init__(self, ctx: AlphaContext):
        self.ctx = ctx

    # ------------------------------------------------------------------
    # vertices and adjacency

    def check_vertex(self, v: GVertex) -> tuple[Frame, Key]:
        """v's frame and key; raises unless v lies in its side's interval."""
        frame = self.frame(v)
        key = frame.key(v)
        frame.check(key)
        return frame, key

    def vertex(self, side: Side, pt: AlgebraicPoint) -> GVertex:
        v = GVertex(side, pt)
        self.check_vertex(v)
        return v

    def frame(self, *vertices: GVertex) -> Frame:
        """The integer frame over the lcm of the vertices' denominators."""
        den = lcm(*(x.denominator for v in vertices for x in (v.point.u, v.point.v)))
        return Frame(self.ctx, den)

    def neighbors(self, v: GVertex) -> list[tuple[GVertex, frozenset[Generator]]]:
        """(far vertex, labels) of each edge at v, sorted by far point."""
        frame, key = self.check_vertex(v)
        return [(frame.vertex(far), labels) for far, labels in frame.adjacent(key)]

    def degree(self, v: GVertex) -> int:
        return len(self.neighbors(v))

    # ------------------------------------------------------------------
    # traversal

    def bfs_distance(
        self, frame: Frame, start: Key, goal: Key, budget: int
    ) -> Optional[int]:
        """Exact graph distance between two keys of frame, or None if goal
        is not reached within budget.

        budget bounds the number of expanded vertices; exhaustion and
        true unreachability both surface as None.  A frame that remembers
        resumes the search it keeps from start, with the answer of a new one.
        """
        frame.check(start)
        frame.check(goal)
        if budget <= 0:
            raise EquigraphError(f"budget must be positive, got {budget}")
        search = frame.bfs
        if search is None or search.start != start:
            search = _Search(frame.adjacent, start)
        return search.distance(goal, budget)

    def explore_component(self, v: GVertex, budget: int) -> ComponentView:
        """Walk the component of v in both directions.

        Degrees are 1 or 2, so components are paths or cycles and a walk
        suffices.  A finite path with an even edge count is raised as a
        Finding rather than returned: it would contradict the structure
        this graph is built to exhibit.  The walk runs on the keys of v's
        frame; points are built only for the returned view.
        """
        return walk_component(*self.check_vertex(v), budget)

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
    a key into its vertex, for the view's reads and for error witnesses.
    """
    adjacent, vertex_of = frame.adjacent, frame.vertex
    if budget <= 0:
        visited = VertexChain((origin,), frame)
        return ComponentView("partial", visited, (), 0, (visited[0],), 0)
    arms: tuple[tuple[list, list], ...] = (([], []), ([], []))  # keys, labels
    frontier: list[Hashable] = []
    seen = {origin}
    closing: list[frozenset[Generator]] = []
    origin_edges = adjacent(origin)
    expanded = 1
    if len(origin_edges) > 2:
        raise EquigraphError(
            f"vertex of degree {len(origin_edges)} at {vertex_of(origin)}"
        )
    # give the first direction half the budget so the view is centered on
    # the origin; the second direction takes whatever remains
    limits = ((budget + 1) // 2 if len(origin_edges) == 2 else budget, budget)
    for (keys, labels), limit, (cur, via) in zip(arms, limits, origin_edges):
        if closing:
            break
        prev = origin
        while True:
            if cur in seen:
                # met the explored region again: the closing edge of a
                # cycle (2-regularity leaves no other way back)
                closing.append(via)
                break
            seen.add(cur)
            keys.append(cur)
            labels.append(via)
            if expanded >= limit:
                frontier.append(cur)
                break
            expanded += 1
            onward = None  # the one edge at cur that does not lead back
            for edge in adjacent(cur):
                if edge[0] != prev:
                    if onward is not None:
                        raise EquigraphError(
                            f"vertex of degree >2 at {vertex_of(cur)}"
                        )
                    onward = edge
            if onward is None:
                break  # degree-one endpoint
            prev = cur
            cur, via = onward

    # the chain runs back along arm 1, through origin and out along arm 0;
    # a cycle's closing edge joins the two chain ends, so it goes last
    (keys0, labels0), (keys1, labels1) = arms
    chain_labels = (*reversed(labels1), *labels0, *closing)
    edge_count = len(chain_labels)
    kind = "even_cycle" if closing else "partial" if frontier else "finite_path"
    if closing and edge_count % 2 != 0:
        raise EquigraphError(f"odd cycle of length {edge_count} at {vertex_of(origin)}")
    visited = VertexChain((*reversed(keys1), origin, *keys0), frame)
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
    tips = tuple(map(vertex_of, frontier)) if kind == "partial" else ()
    return ComponentView(kind, visited, chain_labels, len(keys1), tips, expanded)


# ----------------------------------------------------------------------
# adjacency in integer coordinates

_SIDES = (Side.I, Side.J)
# _LABELS[mask] holds the generators whose bits are set in mask
_LABELS = tuple(
    frozenset(gen for k, gen in enumerate(GENERATOR_ELEMENTS) if mask >> k & 1)
    for mask in range(1 << len(GENERATOR_ELEMENTS))
)


def _least(e: int, f: int, h: int, side: int) -> int:
    """Least e*x + f + h*alpha over x = side*alpha + t; t, alpha in [0, 1]."""
    return f + min(e, 0) + min(e * side + h, 0)


def _side_tables(side: int) -> tuple[tuple, tuple]:
    """The side's thresholds, and (bit, a, 2c, 2b, k, direction) per generator.

    The map is the generator's for I, its inverse's for J: x -> a*x + 2c +
    2b*alpha.  With x = side*alpha + t, t in [0, 1], and s = 1 - side, the
    image lies in [s*alpha, 1 + s*alpha] iff both bounds e*x + f + h*alpha >=
    0, (e, f, h) = (a, 2c, 2b - s) and (-a, 1 - 2c, s - 2b), hold.  One bound
    always holds: its _least is >= 0.  The other is the map's test:
    direction*(x - threshold) >= 0, with threshold (-e*f, -e*h), direction e.
    """
    s, thresholds, maps = 1 - side, {}, []
    for n, el in enumerate(GENERATOR_ELEMENTS.values()):
        el = inverse(el) if side else el
        a, c2, b2 = el.a, 2 * el.c, 2 * el.b
        ((threshold, direction),) = [  # unpacking fails unless one bound is open
            ((-e * f, -e * h), e)
            for e, f, h in ((a, c2, b2 - s), (-a, 1 - c2, s - b2))
            if _least(e, f, h, side) < 0
        ]
        k = thresholds.setdefault(threshold, len(thresholds))
        maps.append((1 << n, a, c2, b2, k, direction))
    return tuple(thresholds), tuple(maps)


def _sign_table(side: int, thresholds: tuple, maps: tuple) -> tuple:
    """The side's _TABLES item: one entry per pair of threshold signs.

    Entry 3*s0 + s1 is (edge, edge, union).  An edge is (a, 2c, 2b, labels)
    of the maps facing one threshold: both at a sign of 0, which must agree
    there, and the other threshold's edge again where none does.  The edges
    are in far-point order, which _least must fix for every pair of maps on
    the two thresholds and every alpha; union labels the one edge they make
    where the images coincide.  A derivation that fails raises.
    """
    on = [[m for m in maps if m[4] == k] for k in (0, 1)]
    if not all(on):
        raise EquigraphError(f"side {side}: a threshold has no map")
    for (p, q), ms in zip(thresholds, on):
        if len({(a * p + c2, a * q + b2) for _, a, c2, b2, *_ in ms}) > 1:
            raise EquigraphError(f"side {side}: maps disagree at threshold {p, q}")
    up = [[y - x for x, y in zip(m0[1:4], m1[1:4])] for m0 in on[0] for m1 in on[1]]
    # 1 when threshold 0's images never exceed threshold 1's, -1 when never below
    orders = [
        o for o in (1, -1) if min(_least(*(o * n for n in d), side) for d in up) >= 0
    ]
    if not orders:
        raise EquigraphError(f"side {side}: far-point order of the edges not fixed")
    table = [None] * 9
    for s0, s1 in product((-1, 0, 1), repeat=2):
        facing = [[m for m in ms if m[5] * s >= 0] for ms, s in zip(on, (s0, s1))]
        edges = [(*ms[0][1:4], _LABELS[sum(m[0] for m in ms)]) for ms in facing if ms]
        if not edges:
            raise EquigraphError(f"side {side}: no map faces signs {s0, s1}")
        union = _LABELS[sum(m[0] for ms in facing for m in ms)]
        table[3 * s0 + s1] = (*(edges[0], edges[-1])[:: orders[0]], union)
    return tuple(table)


# the thresholds come out as alpha and 1 - alpha on I, 1 and 2*alpha on J
_THRESHOLDS, _MAPS = zip(_side_tables(0), _side_tables(1))
_TABLES = tuple(map(_sign_table, (0, 1), _THRESHOLDS, _MAPS))


def _frame_step(ctx: AlphaContext, den: int) -> tuple[Callable, Callable]:
    """Adjacency and the interval test on the keys (side, U, V) of the
    frame over den: the pair (step, inside) that Frame binds.

    step(key) lists key's edges.  An I-vertex steps by each generator
    x -> a*x + 2b*alpha + 2c, a J-vertex by its inverse; an image is kept
    when it lies in the far interval, all in units of 1/den, and
    coinciding images merge into one edge carrying every generator that
    realizes them.  A key must lie in its side's interval (inside).  Then
    its two signs against the side's thresholds T = (p + q*alpha)*den pick
    its _TABLES item, and the two edges are in order unless their images
    coincide, at the four endpoints.

    inside(side, U, V) is X >= lo and X <= hi for the side's endpoints
    side*alpha*den and (1 + side*alpha)*den, which are forms (p + q*alpha)*den
    as well: (0, 0) and (1, 0) on I, (0, 1) and (1, 1) on J.

    Each sign is that of D = X - T, X = U + V*alpha, T a threshold or an
    endpoint, and one float position x = fl(U + V*a), a = ctx.approx,
    decides them all: the sign of d = fl(x - fl((p + q*a)*den)) is D's
    when |d| > e, where

        e = (|U| + |V| + 2*den) * 2**-46,

    and sign_scaled decides it otherwise.  With eps = 2**-53, |a - alpha|
    < 2**-48 = 32eps (checked exactly by AlphaContext) and |p| + |q| <= 2
    for all four thresholds and all four endpoints, so |q| <= 2 and
    |a| <= 1 + 32eps:
      - x is off X by 32eps*|V| from a, and by 2eps*|U| + 3eps*|a|*|V| +
        O(eps**2) from rounding U, V, V*a and the sum;
      - T's float is off by 32eps*|q|*den from a (q*a itself is exact),
        and by 3eps*(|p| + |q|*|a|)*den + O(eps**2) from rounding p + q*a,
        den and the product;
      - the subtraction adds eps*|x - T| <= 1.01eps*(|U| + |V| + 2*den).
    So |d - D| < 37eps*(|U| + |V| + 2*den), under e = 128eps*(...) even
    after e's own rounding, and |d| > e leaves D nonzero with d's sign; a
    tie D = 0, at a threshold or on an endpoint, always takes the exact
    path.  Underflow adds at most 2**-1070 in all, far under e >=
    2*den*2**-46.  e is formed as float(4*(|U| + |V| + 2*den)) * 2**-48,
    and that conversion raises OverflowError from 2**1024 on; below it
    every float above is finite.  A key that raises takes the exact path
    for every sign.
    """
    sign, approx, den2 = ctx.sign_scaled, ctx.approx, 2 * den
    sides, ends = [], []  # per side: the step's thresholds, inside's endpoints
    for side in (0, 1):
        (p0, q0), (p1, q1) = forms = _THRESHOLDS[side]
        try:
            t0, t1, lo, hi = [
                (p + q * approx) * den for p, q in (*forms, (0, side), (1, side))
            ]
        except OverflowError:  # every key's e overflows too: never read
            t0 = t1 = lo = hi = 0
        sides.append((p0 * den, q0 * den, p1 * den, q1 * den, t0, t1, _TABLES[side]))
        ends.append((side * den, lo, hi))

    def step(key: Key) -> list[tuple[Key, frozenset[Generator]]]:
        side, u, v = key
        p0, q0, p1, q1, t0, t1, table = sides[side]
        try:
            x = u + v * approx
            e = (abs(u) + abs(v) + den2 << 2) * 2**-48
        except OverflowError:
            s0, s1 = sign(u - p0, v - q0), sign(u - p1, v - q1)
        else:
            d = x - t0
            s0 = 1 if d > e else -1 if d < -e else sign(u - p0, v - q0)
            d = x - t1
            s1 = 1 if d > e else -1 if d < -e else sign(u - p1, v - q1)
        (a0, c0, b0, l0), (a1, c1, b1, l1), union = table[3 * s0 + s1]
        far = 1 - side
        k0 = far, a0 * u + c0 * den, a0 * v + b0 * den
        k1 = far, a1 * u + c1 * den, a1 * v + b1 * den
        return [(k0, l0), (k1, l1)] if k0 != k1 else [(k0, union)]

    def inside(side: int, u: int, v: int) -> bool:
        shift, lo, hi = ends[side]
        try:
            x = u + v * approx
            e = (abs(u) + abs(v) + den2 << 2) * 2**-48
        except OverflowError:
            return sign(u, v - shift) >= 0 and sign(den - u, shift - v) >= 0
        d0, d1 = x - lo, hi - x  # hi - x is -(x - hi), exactly
        return (d0 > e or d0 >= -e and sign(u, v - shift) >= 0) and (
            d1 > e or d1 >= -e and sign(den - u, shift - v) >= 0
        )

    return step, inside


# ----------------------------------------------------------------------
# chain arithmetic over explored components


def chain_element(view: ComponentView, i: int, j: int) -> GroupElement:
    """Element mapping visited[i]'s point to visited[j]'s point.

    Composes, along the chain, each edge's lowest label in Generator order;
    requires indices into the non-wrapping part of the view.  Each step's
    side is read from the chain's keys, so no vertex is built.
    """
    keys = view.visited.keys
    n = len(keys)
    if not (0 <= i < n and 0 <= j < n):
        raise EquigraphError(f"indices ({i}, {j}) outside view of size {n}")
    step = 1 if j >= i else -1
    acc = IDENTITY
    for pos in range(i, j, step):
        labels = view.labels[min(pos, pos + step)]
        el = GENERATOR_ELEMENTS[next(gen for gen in Generator if gen in labels)]
        # I -> J applies the label, J -> I its inverse
        acc = compose(el if keys[pos][0] == 0 else inverse(el), acc)
    return acc


# ----------------------------------------------------------------------
# edge-set geometry


Corner = tuple[AlgebraicPoint, AlgebraicPoint]


def edge_polygon(ctx: AlphaContext) -> list[Corner]:
    """Corners of the closed polygon traced by the four generator graphs.

    Each generator contributes the segment {(y, gen(y))} over its domain,
    the part of [0, 1] that its _MAPS entry maps into J; the segments
    chain into one closed loop with unit slopes, on integer forms (p, q)
    for p + q*alpha.  Corners are returned as points in traversal order,
    starting from the lexicographically smallest (i, j) corner.
    """
    segments = []
    for _bit, a, c2, b2, k, direction in _MAPS[0]:
        threshold = _THRESHOLDS[0][k]
        domain = (threshold, (1, 0)) if direction > 0 else ((0, 0), threshold)
        segments.append(tuple((x, (a * x[0] + c2, a * x[1] + b2)) for x in domain))

    ends: dict[tuple, list[tuple[int, int]]] = {}
    for si, seg in enumerate(segments):
        for ei in (0, 1):
            ends.setdefault(seg[ei], []).append((si, ei))
    bad = [c for c, v in ends.items() if len(v) != 2]
    if bad:
        raise EquigraphError(f"segments do not chain into a loop: {bad}")

    sign = ctx.sign_scaled

    def exact_order(c1: tuple, c2: tuple) -> int:
        signs = (sign(x[0] - y[0], x[1] - y[1]) for x, y in zip(c1, c2))
        return next(filter(None, signs), 0)

    start = min(ends, key=cmp_to_key(exact_order))
    loop = []
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
    return [(point(*i), point(*j)) for i, j in loop]
