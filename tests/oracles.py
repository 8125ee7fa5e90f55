"""Independent reference implementations used to freeze expected values.

Nothing here imports the package's group or algebra logic: group elements
are fingerprinted by their images of two rational points under hand-written
per-generator rules, interval membership is decided with 60-digit Decimal
arithmetic (exact equality detected on the rational/irrational parts first),
signs are also decided in plain Fraction arithmetic, the facing-pair
set is recomputed by a literal all-pairs ray walk, random matchings
are drawn through Random.randrange and Random.randint, and every small
K-matching is enumerated by a depth-first search.  A matching's
partners, ray directions, nested-ray test and extraction to the unit
matching are plain functions of a package KMatching here: the package
checks convergence by is_standard alone.

The exceptions are the point API and the dict-form round that the
package once shipped: sign and in_interval, the exact sign and interval
test of a point, by AlphaContext.sign_scaled, apply, the image of a point
under a group element, and improve and _rewire, the improvement round on
a KMatching's deviations dict, the replay reference for run_dynamics,
which names a failed check by the package's _refuse.  Then come
build_path_points, the package's earlier distance
certificate construction on exact points (apply, sign, in_interval and
neighbors), kept verbatim as the reference for the integer construction,
verify_lemma_reference, the sweep with no frame shared between calls and
its own point-level thresholds,
bfs_points and build_path_at, the point forms of bfs_distance and
build_path, which key their vertices on a frame they build,
integer_step_reference, the package's earlier adjacency kernel, which tests
both far-interval bounds of all four generator maps, inside_reference, the
earlier interval test, with an exact sign for each endpoint,
chain_element_points, the earlier chain_element, which reads each step's
side from its vertex, kmatching_from_assignment_points, the earlier
kmatching_from_assignment, which applies each piece to the vertex's point,
and generator_domain, the domains that graph.edge_polygon once read as
points.  ZERO, ONE and ALPHA are the points 0, 1 and alpha, and to_float
draws a point as cli.render_figure does.
"""

from __future__ import annotations

import random
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterator, Optional, Sequence

from equigraph import graph as graph_module
from equigraph.algebra import AlgebraicPoint, AlgebraicPoint as point, AlphaContext
from equigraph.dynamics import (
    KMatching,
    _canonical_window,
    _refuse,
    bridge_k_bound,
    phi_pairs,
)
from equigraph.errors import (
    CLAIM1_VIOLATION,
    CONNECTOR_MISSING,
    EquigraphError,
    Finding,
)
from equigraph.graph import Frame, GVertex, IntervalGraph, Side, VertexChain
from equigraph.group import (
    GENERATOR_ELEMENTS,
    IDENTITY,
    Generator,
    GroupElement,
    compose,
    enumerate_ball,
    inverse,
)
from equigraph.pathcert import CertifiedPath, build_path, sample_unit_rational

getcontext().prec = 60

ZERO = point(0)
ONE = point(1)
ALPHA = point(0, 1)


def to_float(ctx: AlphaContext, x: AlgebraicPoint) -> float:
    """x as a float, with alpha = ctx.scaled / 2**64 as the figure reads it."""
    return float(x.u) + float(x.v) * (ctx.scaled / 2**64)


def sign(ctx: AlphaContext, x: AlgebraicPoint) -> int:
    """Exact sign of u + v*alpha, one of -1, 0, 1."""
    u, v = x.u, x.v
    return ctx.sign_scaled(u.numerator * v.denominator, v.numerator * u.denominator)


def in_interval(
    ctx: AlphaContext, x: AlgebraicPoint, lo: AlgebraicPoint, hi: AlgebraicPoint
) -> bool:
    """Exact membership of x in [lo, hi]; empty when lo > hi."""
    return sign(ctx, x - lo) >= 0 and sign(ctx, hi - x) >= 0


def apply(g: GroupElement, x: AlgebraicPoint) -> AlgebraicPoint:
    """Image of u + v*alpha: (a*u + 2c) + (a*v + 2b)*alpha."""
    return AlgebraicPoint(g.a * x.u + 2 * g.c, g.a * x.v + 2 * g.b)


# image of the point u + v*alpha under each generator, as (u, v)
GEN_IMAGE_RULES = {
    "Id": lambda u, v: (u, v),
    "T": lambda u, v: (u, v + 2),
    "R2": lambda u, v: (2 - u, -v),
    "R2a": lambda u, v: (-u, 2 - v),
}

# preimage rules (each generator is an involution or a shift)
GEN_PREIMAGE_RULES = {
    "Id": lambda u, v: (u, v),
    "T": lambda u, v: (u, v - 2),
    "R2": lambda u, v: (2 - u, -v),
    "R2a": lambda u, v: (-u, 2 - v),
}

Point = tuple[Fraction, Fraction]
Fingerprint = tuple[Point, Point]

_BASE: Fingerprint = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
)


def ball_fingerprints(radius: int) -> set[Fingerprint]:
    """All distinct maps reachable by words of length <= radius.

    A map is identified by its images of the points 0 and 1: the maps are
    affine in x with slope +-1, so two images pin the map down.
    """
    seen = {_BASE}
    frontier = {_BASE}
    for _ in range(radius):
        nxt = set()
        for fp in frontier:
            for rule in GEN_IMAGE_RULES.values():
                new = (rule(*fp[0]), rule(*fp[1]))
                if new not in seen:
                    seen.add(new)
                    nxt.add(new)
        frontier = nxt
    return seen


def ball_sizes(max_radius: int) -> list[int]:
    return [len(ball_fingerprints(radius)) for radius in range(max_radius + 1)]


def element_fingerprint(apply_fn) -> Fingerprint:
    """Fingerprint of a package GroupElement via a caller-supplied apply."""
    img0 = apply_fn(Fraction(0), Fraction(0))
    img1 = apply_fn(Fraction(1), Fraction(0))
    return (img0, img1)


# ----------------------------------------------------------------------
# interval graph oracle


def alpha_decimal(p: int, q: int, d: int, r: int) -> Decimal:
    return (Decimal(p) + Decimal(q) * Decimal(d).sqrt()) / Decimal(r)


def point_decimal(alpha: Decimal, u: Fraction, v: Fraction) -> Decimal:
    return (
        Decimal(u.numerator) / Decimal(u.denominator)
        + Decimal(v.numerator) / Decimal(v.denominator) * alpha
    )


def sign_fraction(p: int, q: int, d: int, r: int, u: Fraction, v: Fraction) -> int:
    """Exact sign of u + v*alpha, alpha = (p + q*sqrt(d)) / r, in rationals.

    u + v*alpha = s + t*sqrt(d) with s = u + v*p/r and t = v*q/r; when s
    and t differ in sign, s*s against t*t*d decides (d is not a square).
    """
    s = u + v * Fraction(p, r)
    t = v * Fraction(q, r)
    if t == 0:
        return (s > 0) - (s < 0)
    if s == 0 or (s > 0) == (t > 0):
        return 1 if t > 0 else -1
    if s * s > t * t * d:
        return 1 if s > 0 else -1
    return -1 if s > 0 else 1


def in_closed(alpha: Decimal, pt: Point, lo: Point, hi: Point) -> bool:
    # exact tie detection first: equality of (u, v) pairs is equality of
    # points since alpha is irrational
    if pt == lo or pt == hi:
        return True
    val = point_decimal(alpha, *pt)
    return point_decimal(alpha, *lo) < val < point_decimal(alpha, *hi)


I_LO: Point = (Fraction(0), Fraction(0))
I_HI: Point = (Fraction(1), Fraction(0))
J_LO: Point = (Fraction(0), Fraction(1))
J_HI: Point = (Fraction(1), Fraction(1))


def neighbors(alpha: Decimal, side: str, pt: Point) -> list[tuple[str, Point]]:
    """Deduplicated neighbor list [(far_side, far_point)], unsorted."""
    out: dict[Point, None] = {}
    if side == "I":
        rules, lo, hi, far_side = GEN_IMAGE_RULES, J_LO, J_HI, "J"
    else:
        rules, lo, hi, far_side = GEN_PREIMAGE_RULES, I_LO, I_HI, "I"
    for rule in rules.values():
        far = rule(*pt)
        if in_closed(alpha, far, lo, hi):
            out[far] = None
    return [(far_side, far) for far in out]


def bfs_distance(
    alpha: Decimal, start: tuple[str, Point], goal: tuple[str, Point], cap: int
) -> int | None:
    """Breadth-first distance over the oracle adjacency, None past cap."""
    if start == goal:
        return 0
    frontier = [start]
    seen = {start}
    dist = 0
    while frontier and dist < cap:
        dist += 1
        nxt = []
        for side, pt in frontier:
            for w in neighbors(alpha, side, pt):
                if w == goal:
                    return dist
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return None


# ----------------------------------------------------------------------
# rays of a matching, and its extraction


def partner(m: KMatching, coord: int) -> int:
    """Matched coordinate; standard outside the stored deviations.

    An odd coordinate is answered by a scan of the deviations.
    """
    if coord % 2 == 0:
        return m.deviations.get(coord, coord + 1)
    return next((a for a, t in m.deviations.items() if t == coord), coord - 1)


def direction(m: KMatching, coord: int) -> int:
    """Ray direction at coord: sign of (partner - coord), never 0."""
    return 1 if partner(m, coord) > coord else -1


def check_nested_rays(m: KMatching) -> bool:
    """Whether every A-ray points the same way.

    Outside the window all rays point +1, so on a bi-infinite path the
    directions are uniform iff no stored pair points left.
    """
    return all(t > a for a, t in m.deviations.items())


def extract_matching(m: KMatching) -> KMatching:
    """Collapse a converged matching to distance-1 pairs a -> a + dir(a).

    Requires the facing-pair set to be empty; for an eventually-standard
    matching that forces every direction to +1, so the result is the
    standard matching, returned as a K=1 matching.
    """
    if phi_pairs(m):
        raise EquigraphError("facing pairs remain; run the dynamics first")
    dev = {a: a - 1 for a in m.deviations if direction(m, a) == -1}
    result = KMatching(1, _canonical_window(dev, m.window), dev)
    result.validate()
    return result


# ----------------------------------------------------------------------
# the dict-form improvement round


def _rewire(dev: dict[int, int], k: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Swap the partners of every facing pair of one round, in place.

    The dict-form reference that improve() replays, written as the rule
    reads rather than for speed.  Returns the round's cost drop.  Before
    a pair is written, an old partner beyond K is raised as the input's
    EquigraphError, and a new partner beyond K or a combined displacement
    that drops by less than 2 as a Finding, so a returned drop is at
    least |S|.  Each end is written as an entry only when it is not
    standard, and then the parity of the ends and partners is checked.
    Ends that share a partner keep their displacements, so the drop test
    refuses them; injectivity as a whole is left to validate().  A failed
    check is named by the package's _refuse, as the list kernel names it.
    """
    drop = 0
    for x, y in pairs:
        mx, my = dev.get(x, x + 1), dev.get(y, y + 1)
        odx, ody, ndx, ndy = abs(mx - x), abs(my - y), abs(my - x), abs(mx - y)
        if odx > k or ody > k or ndx > k or ndy > k or ndx + ndy > odx + ody - 2:
            _refuse(k, x, y, mx, my)
        for a, t in ((x, my), (y, mx)):
            if t == a + 1:
                dev.pop(a, None)
            else:
                dev[a] = t
        if x % 2 or y % 2 or not (mx % 2 and my % 2):
            _refuse(k, x, y, mx, my)
        drop += odx + ody - ndx - ndy
    return drop


def improve(m: KMatching) -> KMatching:
    """Rewire every facing pair simultaneously.

    For each pair, the two vertices swap partners.  Each rewired pair
    lowers its combined displacement by at least 2 and stays within K;
    both facts are checked and a failure is raised as a Finding.  A round
    that empties the path keeps m's window.
    """
    pairs = phi_pairs(m)
    if not pairs:
        raise EquigraphError("no facing pairs to rewire")
    dev = dict(m.deviations)
    _rewire(dev, m.k, pairs)
    result = KMatching(m.k, m.window, dev)
    result.validate()
    drop_needed = 2 * len(pairs)
    if result.cost() > m.cost() - drop_needed:
        raise Finding(
            CLAIM1_VIOLATION,
            "improvement round dropped cost by less than |S|",
            witness={"before": m.cost(), "after": result.cost(), "s": drop_needed},
        )
    return result


# ----------------------------------------------------------------------
# facing-pair oracle


def facing_pairs_bruteforce(m: KMatching) -> set[int]:
    """All members of facing pairs by a literal all-pairs ray walk.

    m is a package KMatching; only its window and direction() are used.
    For every ordered pair of even coordinates in (a margin around) the
    window, the two rays are walked step by step and mutual containment
    is tested literally.
    """
    lo, hi = m.window
    if lo > hi:
        return set()
    span = hi - lo + 8
    evens = [c for c in range(lo - 4, hi + 5) if c % 2 == 0]

    def ray_contains(start: int, target: int) -> bool:
        step = direction(m, start)
        coord = start
        for _ in range(span + 4):
            if coord == target:
                return True
            coord += step
        return False

    members: set[int] = set()
    for x in evens:
        for y in evens:
            if x == y or abs(x - y) != 2:
                continue
            if ray_contains(x, y) and ray_contains(y, x):
                members.add(x)
                members.add(y)
    return members


# ----------------------------------------------------------------------
# random matching oracle


def kmatching_targets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every bijection of A-vertices 0, 2, ..., 2n - 2 onto B-vertices 1, 3,
    ..., 2n - 1 with |t[i] - 2i| <= k, as its targets t, once each and in
    lexicographic order.

    A depth-first search gives A-vertex 2i each unused B-vertex within k in
    turn (Lehmer's permutations with restricted displacements), so it walks
    only the matchings, not all n! orders.
    """
    targets: list[int] = []
    used: set[int] = set()

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(targets)
            return
        for t in range(max(1, (2 * i - k) | 1), min(2 * n, 2 * i + k + 1), 2):
            if t not in used:
                targets.append(t)
                used.add(t)
                yield from extend(i + 1)
                used.remove(t)
                targets.pop()

    return extend(0)


def random_deviations(window: int, k: int, seed: int) -> dict[int, int]:
    """The deviations of random_kmatching(window, k, seed).

    The package's earlier generator, drawing through Random.randrange and
    Random.randint; only its KMatching wrapping is left out.
    """
    rng = random.Random(seed)
    top = 2 * (window - 1)
    cur: dict[int, int] = {}

    def partner_of(a: int) -> int:
        return cur.get(a, a + 1)

    for _ in range(window):
        a1 = 2 * rng.randrange(window)
        delta = 2 * rng.randint(1, (k + 1) // 2)
        a2 = a1 + (delta if rng.randrange(2) else -delta)
        if a2 < 0 or a2 > top or a2 == a1:
            continue
        p1, p2 = partner_of(a1), partner_of(a2)
        if abs(a1 - p2) > k or abs(a2 - p1) > k:
            continue
        for a, t in ((a1, p2), (a2, p1)):
            if t == a + 1:
                cur.pop(a, None)
            else:
                cur[a] = t
    return dict(sorted(cur.items()))


# ----------------------------------------------------------------------
# point-based distance certificates

TWO_ALPHA = ALPHA + ALPHA
ONE_MINUS_TWO_ALPHA = ONE - TWO_ALPHA
TWO = point(2)
# the sweep's thresholds, 2a and 1 - 2a, kept here as points
THRESHOLDS = (TWO_ALPHA, ONE_MINUS_TWO_ALPHA)


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
        if sign(ctx, gy - ONE_MINUS_TWO_ALPHA) <= 0:
            z = gy + TWO_ALPHA
            reduced = GroupElement(a, b + 1, c)
        else:
            z = TWO - gy - TWO_ALPHA
            reduced = GroupElement(-a, -(b + 1), 1 - c)
            if not in_interval(ctx, z, ZERO, ONE):
                z = gy + TWO_ALPHA - TWO
                reduced = GroupElement(a, b + 1, c - 1)
    else:
        if sign(ctx, TWO_ALPHA - gy) < 0:
            z = gy - TWO_ALPHA
            reduced = GroupElement(a, b - 1, c)
        else:
            z = TWO_ALPHA - gy
            reduced = GroupElement(-a, 1 - b, -c)
            if not in_interval(ctx, z, ZERO, ONE):
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
    z_far = {far.point for far, _labels in graph.neighbors(GVertex(Side.I, z))}
    for far, _labels in graph.neighbors(GVertex(Side.I, gy)):
        if far.point in z_far:
            if shared is None or sign(graph.ctx, far.point - shared) < 0:
                shared = far.point
    if shared is None:
        return None
    return [GVertex(Side.J, shared), GVertex(Side.I, gy)]


def build_path_points(
    graph: IntervalGraph, g: GroupElement, y: AlgebraicPoint
) -> CertifiedPath:
    """Certificate that (I, y) and (I, g(y)) are within distance 2|b|.

    Reduces g one step of |b| at a time down to b = 0, then closes each
    step's gap with a connector, innermost first, so the path grows from
    (I, y) outwards; nothing here depends on the recursion limit.
    """
    ctx = graph.ctx
    if not in_interval(ctx, y, ZERO, ONE):
        raise EquigraphError(f"anchor {y} outside [0, 1]")
    steps: list[tuple[GroupElement, AlgebraicPoint, AlgebraicPoint]] = []
    element = g
    gy = apply(g, y)
    while True:
        if not in_interval(ctx, gy, ZERO, ONE):
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
    frame = graph.frame(vertices[0])  # keyed as the package keeps certificates
    chain = VertexChain(map(frame.key, vertices), frame)
    return CertifiedPath(chain, g, chain.keys[0])


# ----------------------------------------------------------------------
# the point forms of bfs_distance and build_path


def bfs_points(
    graph: IntervalGraph,
    u: GVertex,
    v: GVertex,
    budget: int,
    frame: Optional[Frame] = None,
) -> Optional[int]:
    """graph.bfs_distance from the vertex u to the vertex v, on u's frame
    unless frame is given.  A goal off the frame's denominators gets its
    own interval check and is answered None at once: it cannot share u's
    component."""
    frame = frame or graph.frame(u)
    start, goal = frame.key(u), frame.key(v)
    if start is None:
        raise EquigraphError(f"start {u.point} not on the frame over 1/{frame.den}")
    if goal is not None:
        return graph.bfs_distance(frame, start, goal, budget)
    frame.check(start)
    graph.check_vertex(v)
    if budget <= 0:
        raise EquigraphError(f"budget must be positive, got {budget}")
    return None


def build_path_at(
    graph: IntervalGraph,
    g: GroupElement,
    y: AlgebraicPoint,
    frame: Optional[Frame] = None,
    known: Optional[dict] = None,
) -> CertifiedPath:
    """build_path from the anchor point y, on y's frame unless frame is given."""
    anchor = GVertex(Side.I, y)
    frame = frame or graph.frame(anchor)
    start = frame.key(anchor)
    if start is None:
        raise EquigraphError(f"anchor {y} is not on the frame over 1/{frame.den}")
    return build_path(frame, g, start, known)


# ----------------------------------------------------------------------
# the distance-lemma sweep, one fresh frame per call


def verify_lemma_reference(
    graph: IntervalGraph, ball_radius: int, n_samples: int, seed: int, bfs_budget: int
) -> dict:
    """The report of verify_lemma, from the point API alone.

    Anchors and images are screened with in_interval, and bfs_points and
    build_path_at each build their own frame, with no cache.
    """
    ctx = graph.ctx
    elements = sorted(enumerate_ball(ball_radius))
    rng = random.Random(seed)
    base: list[AlgebraicPoint] = [ZERO, ONE]
    while len(base) < max(n_samples, 2):
        base.append(point(sample_unit_rational(rng)))
    checks = 0
    elements_checked = 0
    max_dist_by_b: dict[int, int] = {}
    max_len_by_b: dict[int, int] = {}
    violations: list[dict] = []
    for g in elements:
        ginv = inverse(g)
        thresholds = [
            apply(ginv, threshold + point(eps))
            for threshold in THRESHOLDS
            for eps in (Fraction(-1, 1000), Fraction(0), Fraction(1, 1000))
        ]
        k = abs(g.b)
        hit = False
        for y in base + [y for y in thresholds if in_interval(ctx, y, ZERO, ONE)]:
            gy = apply(g, y)
            if not in_interval(ctx, gy, ZERO, ONE):
                continue
            hit = True
            checks += 1
            witness = {"element": [g.a, g.b, g.c], "anchor": str(y), "bound": 2 * k}
            u, v = GVertex(Side.I, y), GVertex(Side.I, gy)
            dist = bfs_points(graph, u, v, bfs_budget)
            if dist is None or dist > 2 * k:
                violations.append({**witness, "defect": "bfs", "distance": dist})
            else:
                max_dist_by_b[k] = max(max_dist_by_b.get(k, 0), dist)
            try:
                cert = build_path_at(graph, g, y)
                defects = cert.validate()
                if defects:
                    violations.append(
                        {**witness, "defect": "certificate", "problems": defects}
                    )
                else:
                    max_len_by_b[k] = max(max_len_by_b.get(k, 0), cert.length)
            except Finding as f:
                violations.append({**witness, "defect": f.kind, "finding": f.witness})
        elements_checked += hit
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


# ----------------------------------------------------------------------
# chain arithmetic on vertices


def chain_element_points(view, i: int, j: int) -> GroupElement:
    """chain_element with each step's side read from visited[pos]'s vertex."""
    step = 1 if j >= i else -1
    acc = IDENTITY
    for pos in range(i, j, step):
        labels = view.labels[min(pos, pos + step)]
        el = GENERATOR_ELEMENTS[next(gen for gen in Generator if gen in labels)]
        if view.visited[pos].side is Side.I:
            acc = compose(el, acc)  # I -> J applies the label
        else:
            acc = compose(inverse(el), acc)  # J -> I applies its inverse
    return acc


def kmatching_from_assignment_points(view, assignment) -> KMatching:
    """kmatching_from_assignment with each piece applied to visited's points."""
    if view.visited[view.origin_index].side is not Side.I:
        raise EquigraphError("assignment views must originate at an I-vertex")
    origin = view.origin_index
    point_at = {idx - origin: v.point for idx, v in enumerate(view.visited)}
    j_coord = {pt: coord for coord, pt in point_at.items() if coord % 2 != 0}
    k = bridge_k_bound(max((abs(el.b) for _, _, el in assignment), default=0))
    targets: dict[int, int] = {}
    for lo, hi, el in assignment:
        for a in range(lo + lo % 2, hi + 1, 2):
            if a in targets:
                raise EquigraphError(f"pieces overlap at coordinate {a}")
            y = point_at.get(a)
            if y is None:
                raise EquigraphError(f"coordinate {a} outside the explored window")
            t = j_coord.get(apply(el, y))
            if t is None:
                raise EquigraphError(
                    f"image of coordinate {a} is not a J-vertex of the window"
                )
            if abs(t - a) > k:
                raise EquigraphError(
                    f"displacement {t - a} at coordinate {a} exceeds K={k}"
                )
            targets[a] = t
    if len(set(targets.values())) != len(targets):
        raise EquigraphError("two pieces share a target J-vertex")
    dev = {a: t for a, t in targets.items() if t != a + 1}
    matching = KMatching(k, _canonical_window(dev, (0, -1)), dev)
    matching.validate()
    return matching


# ----------------------------------------------------------------------
# the adjacency kernel with all eight far-interval bounds

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


def inside_reference(
    sign: Callable[[int, int], int], den: int, key: tuple[int, int, int]
) -> bool:
    """Whether key (side, U, V) lies in side's interval [side*alpha, 1 +
    side*alpha], in units of 1/den, by two exact signs: the package's
    earlier Frame.inside."""
    side, u, v = key
    shift = side * den
    return sign(u, v - shift) >= 0 and sign(den - u, shift - v) >= 0


def integer_step_reference(
    sign: Callable[[int, int], int], den: int, key: tuple[int, int, int]
) -> list[tuple[tuple[int, int, int], frozenset[Generator]]]:
    """Adjacency on keys (side, U, V), side 0 for I and 1 for J.

    An I-vertex steps by each generator x -> a*x + 2b*alpha + 2c, a
    J-vertex by its inverse; an image is kept when it lies in the far
    interval, all in units of 1/den, and coinciding images merge into one
    edge carrying every generator that realizes them.  sign(U, V) is the
    exact sign of U + V*alpha.
    """
    side, u, v = key
    # the far interval is [s*alpha, 1 + s*alpha]: s = 1 for J, 0 for I.
    # inside_reference's test, inlined: a call per image costs about 7% here
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


def generator_domain(gen: Generator) -> tuple[AlgebraicPoint, AlgebraicPoint]:
    """The closed subinterval of [0, 1] that gen maps into [alpha, 1+alpha].

    It is gen's far-interval test on I (the package's _MAPS entry), for
    every alpha.
    """
    *_, k, direction = graph_module._MAPS[0][list(GENERATOR_ELEMENTS).index(gen)]
    threshold = point(*graph_module._THRESHOLDS[0][k])
    return (threshold, ONE) if direction > 0 else (ZERO, threshold)
