import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import isqrt
from types import SimpleNamespace

import pytest

from equigraph import graph as graph_module
from equigraph.algebra import ALPHA, ONE, ZERO, AlphaContext, AlphaSpec, point
from equigraph.cli import _bridge_suite, load_config
from equigraph.errors import EVEN_PATH_COMPONENT, EquigraphError, Finding
from equigraph.graph import (
    Frame,
    GVertex,
    IntervalGraph,
    Side,
    chain_element,
    edge_polygon,
    vertex_record,
)
from equigraph.group import (
    GENERATOR_ELEMENTS,
    Generator,
    GroupElement,
    IDENTITY,
    apply,
    inverse,
)
from equigraph.pathcert import verify_lemma

from conftest import ALL_ALPHAS, KERNEL_ALPHAS, SQRT2_MINUS_1
import oracles
from oracles import (
    alpha_decimal,
    bfs_distance as oracle_bfs,
    bfs_points,
    build_path_at,
    generator_domain,
    inside_reference,
    integer_step_reference,
    neighbors as oracle_neighbors,
    point_decimal,
)

TWO_ALPHA = point(0, 2)


def extreme_vertices() -> list[GVertex]:
    """The four vertices of degree one, one per side endpoint."""
    return [
        GVertex(Side.I, ZERO),
        GVertex(Side.I, ONE),
        GVertex(Side.J, ALPHA),
        GVertex(Side.J, ONE + ALPHA),
    ]


def test_degree_one_exactly_at_extremes():
    for spec in ALL_ALPHAS:
        g = IntervalGraph(AlphaContext(spec))
        extremes = extreme_vertices()
        assert [(v.side, v.point) for v in extremes] == [
            (Side.I, ZERO),
            (Side.I, ONE),
            (Side.J, ALPHA),
            (Side.J, ONE + ALPHA),
        ]
        for v in extremes:
            assert g.degree(v) == 1
        rng = random.Random(11)
        for _ in range(40):
            y = g.sample_unit_rational(rng)
            if y == 0 or y == 1:
                continue
            assert g.degree(g.vertex(Side.I, point(y))) == 2
            assert g.degree(g.vertex(Side.J, point(y) + ALPHA)) == 2


def test_neighbors_of_interior_point(graph):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    edges = graph.neighbors(v)
    assert [far for far, _labels in edges] == [
        GVertex(Side.J, point(Fraction(1, 2))),
        GVertex(Side.J, point(Fraction(1, 2)) + TWO_ALPHA),
    ]
    assert [sorted(x.value for x in labels) for _, labels in edges] == [["Id"], ["T"]]


def test_neighbors_merge_coinciding_images(graph):
    # at y = 0 the T and R2a images coincide at 2a: one edge, two labels
    origin = graph.vertex(Side.I, ZERO)
    edges = graph.neighbors(origin)
    assert len(edges) == 1
    far, labels = edges[0]
    assert far.point == TWO_ALPHA
    assert labels == frozenset({Generator.T, Generator.R2A})
    # a chain crosses a merged edge by its lowest label in Generator order
    view = graph.explore_component(origin, 4)
    o = view.origin_index
    assert chain_element(view, o, o + 1) == GENERATOR_ELEMENTS[Generator.T]


def test_neighbors_match_decimal_oracle(graph):
    alpha = alpha_decimal(-1, 1, 2, 1)
    rng = random.Random(5)
    for _ in range(25):
        y = Fraction(rng.randint(1, 999), 1000)
        got = {
            (far.point.u, far.point.v)
            for far, _ in graph.neighbors(graph.vertex(Side.I, point(y)))
        }
        want = {far for _, far in oracle_neighbors(alpha, "I", (y, Fraction(0)))}
        assert got == want
        vq = point(y) + ALPHA
        got_j = {
            (far.point.u, far.point.v)
            for far, _ in graph.neighbors(GVertex(Side.J, vq))
        }
        want_j = {far for _, far in oracle_neighbors(alpha, "J", (vq.u, vq.v))}
        assert got_j == want_j


def test_bfs_distances(graph):
    origin = graph.vertex(Side.I, ZERO)
    assert bfs_points(graph, origin, graph.vertex(Side.J, TWO_ALPHA), 100) == 1
    assert bfs_points(graph, origin, graph.vertex(Side.I, TWO_ALPHA), 100) == 2
    assert bfs_points(graph, origin, origin, 100) == 0
    # a point outside the origin's orbit is never reached
    other = graph.vertex(Side.I, point(Fraction(1, 3)))
    assert bfs_points(graph, origin, other, 30) is None
    with pytest.raises(EquigraphError, match="budget must be positive"):
        bfs_points(graph, origin, other, 0)


def test_bfs_checks_origin_then_goal_then_budget(graph):
    half = graph.vertex(Side.I, point(Fraction(1, 2)))
    third = GVertex(Side.I, point(Fraction(1, 3)))  # off half's denominators
    with pytest.raises(EquigraphError, match="^2 outside I interval$"):
        bfs_points(graph, GVertex(Side.I, point(2)), GVertex(Side.J, ZERO), 0)
    with pytest.raises(EquigraphError, match="^0 outside J interval$"):
        bfs_points(graph, half, GVertex(Side.J, ZERO), 0)
    # a goal off the origin's frame still gets its own interval check
    with pytest.raises(EquigraphError, match="^1/3 outside J interval$"):
        bfs_points(graph, half, GVertex(Side.J, point(Fraction(1, 3))), 0)
    with pytest.raises(EquigraphError, match="^budget must be positive, got 0$"):
        bfs_points(graph, half, third, 0)
    # a given frame must key the origin
    with pytest.raises(EquigraphError, match="^start 1/3 not on the frame over 1/2$"):
        bfs_points(graph, third, half, 0, graph.frame(half))
    # the key form checks its start, then its goal, then the budget
    frame = graph.frame(half)
    start = frame.key(half)
    with pytest.raises(EquigraphError, match="^2 outside I interval$"):
        graph.bfs_distance(frame, (0, 4, 0), (1, 0, 0), 0)
    with pytest.raises(EquigraphError, match="^0 outside J interval$"):
        graph.bfs_distance(frame, start, (1, 0, 0), 0)
    with pytest.raises(EquigraphError, match="^budget must be positive, got 0$"):
        graph.bfs_distance(frame, start, start, 0)


def test_bfs_distance_given_its_frame_builds_none(graph, monkeypatch):
    frames = []
    frame_init = Frame.__init__

    def counted(self, *args):
        frames.append(args)
        frame_init(self, *args)

    origin = graph.vertex(Side.I, ZERO)
    goal = graph.vertex(Side.I, TWO_ALPHA)
    frame = graph.frame(origin)
    monkeypatch.setattr(Frame, "__init__", counted)
    assert graph.bfs_distance(frame, frame.key(origin), frame.key(goal), 100) == 2
    assert frames == []


def test_bfs_builds_one_frame_for_a_goal_on_the_origin_frame(graph, monkeypatch):
    frames = []
    make_frame = IntervalGraph.frame

    def counted(self, *vertices):
        frames.append(vertices)
        return make_frame(self, *vertices)

    origin = graph.vertex(Side.I, ZERO)
    goal = graph.vertex(Side.I, TWO_ALPHA)
    monkeypatch.setattr(IntervalGraph, "frame", counted)
    assert bfs_points(graph, origin, goal, 100) == 2
    assert frames == [(origin,)]


def test_bfs_off_origin_denominators_expands_nothing(graph, monkeypatch):
    # every vertex of a component has its origin's denominators, so a goal
    # off them is unreachable before any expansion
    calls = []
    make_frame = IntervalGraph.frame

    def spied(self, *vertices):
        frame = make_frame(self, *vertices)
        adjacent = frame.adjacent

        def spy(key):
            calls.append(key)
            return adjacent(key)

        frame.adjacent = spy
        return frame

    monkeypatch.setattr(IntervalGraph, "frame", spied)
    origin = graph.vertex(Side.I, point(Fraction(1, 2)))
    third = graph.vertex(Side.I, point(Fraction(1, 3)))
    assert bfs_points(graph, origin, third, 10_000) is None
    assert calls == []
    # a goal on the origin's denominators is searched for, through the spy
    zero = graph.vertex(Side.I, ZERO)
    assert bfs_points(graph, origin, zero, 10) is None
    assert len(calls) == 10


def test_bfs_against_decimal_oracle(graph):
    alpha = alpha_decimal(-1, 1, 2, 1)
    y = Fraction(1, 5)
    origin = graph.vertex(Side.I, point(y))
    cases = [
        (Side.J, point(y) + TWO_ALPHA, 1),
        (Side.I, point(2 - y) - TWO_ALPHA, 2),
        (Side.J, point(2 - y) - TWO_ALPHA, 3),
    ]
    for side, target, expected in cases:
        got = bfs_points(graph, origin, graph.vertex(side, target), 500)
        want = oracle_bfs(
            alpha,
            ("I", (y, Fraction(0))),
            (side.value, (target.u, target.v)),
            12,
        )
        assert got == want == expected


def _oracle_walk(alpha, start, first, steps):
    """Follow the oracle adjacency from start through first, never turning back."""
    out, prev, cur = [], start, first
    for _ in range(steps):
        out.append(cur)
        onward = [w for w in oracle_neighbors(alpha, *cur) if w != prev]
        assert len(onward) == 1  # interior vertices have degree two
        prev, cur = cur, onward[0]
    return out


@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
def test_integer_walk_matches_decimal_oracle_step_by_step(spec):
    g = IntervalGraph(AlphaContext(spec))
    alpha = alpha_decimal(spec.p, spec.q, spec.d, spec.r)
    rng = random.Random(17)
    for side in (Side.I, Side.J):
        y = Fraction(rng.randint(1, 10**6 - 1), 10**6)
        pt = point(y) if side is Side.I else point(y) + ALPHA
        view = g.explore_component(g.vertex(side, pt), 500)
        assert view.kind == "partial" and len(view.visited) - 1 >= 400
        walked = [(w.side.value, (w.point.u, w.point.v)) for w in view.visited]
        o = view.origin_index
        start = walked[o]
        # the first direction leaves by the far point of lowest value
        firsts = sorted(
            oracle_neighbors(alpha, *start), key=lambda w: point_decimal(alpha, *w[1])
        )
        assert [walked[o + 1], walked[o - 1]] == firsts
        right, left = walked[o + 1 :], walked[o - 1 :: -1]
        assert _oracle_walk(alpha, start, firsts[0], len(right)) == right
        assert _oracle_walk(alpha, start, firsts[1], len(left)) == left


def test_far_tests_are_derived_once_per_generator():
    # (threshold as (u, v) for u + v*alpha, direction): a map's image lies in
    # the far interval iff direction * sign(x - threshold) >= 0
    alpha, one_minus_alpha, one, two_alpha = (0, 1), (1, -1), (1, 0), (0, 2)
    assert set(graph_module._THRESHOLDS[0]) == {alpha, one_minus_alpha}
    assert set(graph_module._THRESHOLDS[1]) == {one, two_alpha}
    tests = {}
    for side, maps in enumerate(graph_module._MAPS):
        assert [m[:4] for m in maps] == list(oracles._MAPS[side])
        for gen, (_bit, _a, _c2, _b2, k, direction) in zip(GENERATOR_ELEMENTS, maps):
            tests[side, gen.value] = graph_module._THRESHOLDS[side][k], direction
    assert tests == {
        (0, "Id"): (alpha, 1),
        (0, "T"): (one_minus_alpha, -1),
        (0, "R2"): (one_minus_alpha, 1),
        (0, "R2a"): (alpha, -1),
        (1, "Id"): (one, -1),
        (1, "T"): (two_alpha, 1),
        (1, "R2"): (one, 1),
        (1, "R2a"): (two_alpha, -1),
    }


# 0, 1, alpha, 1 - alpha, 2*alpha, 1 + alpha, 2*alpha - 1 and 2 - 2*alpha
SPECIAL_POINTS = ((0, 0), (1, 0), (0, 1), (1, -1), (0, 2), (1, 1), (-1, 2), (2, -2))


def _inside_keys(spec, den: int, keys: list) -> list:
    """The keys of den's frame that lie inside their interval."""
    sign = AlphaContext(spec).sign_scaled
    return [key for key in keys if inside_reference(sign, den, key)]


def _kernel_keys(spec, den: int, n_random: int, rng: random.Random) -> list:
    """Keys of den's frame, inside their interval or next to it: special
    points, their neighbours 1/den away, and random keys anywhere along
    the component."""
    approx = AlphaContext(spec).to_float(ALPHA)
    keys = [
        (side, u * den + nudge, v * den)
        for side in (0, 1)
        for u, v in SPECIAL_POINTS
        for nudge in (-1, 0, 1)
    ]
    for side in (0, 1):
        for _ in range(n_random):
            v = rng.randint(-50 * den, 50 * den)
            u = round((side * den - v) * approx) + rng.randint(-1, den + 1)
            keys.append((side, u, v))
    return keys


def _reference_keys(spec) -> list:
    """(den, key) for each key test_integer_step_matches_eight_test_reference
    checks."""
    rng = random.Random(23)
    return [
        (den, key)
        for den in (1, 7, 10**6)
        for key in _inside_keys(spec, den, _kernel_keys(spec, den, 2000, rng))
    ]


def _floor_times_alpha(spec, v: int) -> int:
    """floor(v * alpha), exactly: w*sqrt(d) is irrational for w = v*q != 0."""
    w = v * spec.q
    root = isqrt(w * w * spec.d)
    return (v * spec.p + (root if w >= 0 else -root - 1)) // spec.r


def _far_keys(spec, den: int, n: int, rng: random.Random) -> list:
    """Keys of den's frame, inside their interval or next to it, with |V|
    up to 2**40*den, half of them within 2/den of a threshold or an
    endpoint, where a float position of U + V*alpha cannot tell the sign."""
    keys = []
    for k in range(n):
        side = k % 2
        v = rng.randint(-(2**40) * den, 2**40 * den)
        if k % 4 < 2:  # anywhere in the interval
            (p, q), nudge = (0, side), rng.randint(-1, den + 1)
        else:  # next to an endpoint or a threshold
            near = [(0, side), (1, side), *graph_module._THRESHOLDS[side]]
            (p, q), nudge = rng.choice(near), rng.randint(-2, 2)
        u = p * den + _floor_times_alpha(spec, q * den - v) + nudge
        keys.append((side, u, v))
    return keys


@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
def test_integer_step_matches_eight_test_reference(spec):
    # far keys, label sets and their order, on keys inside their interval:
    # 1/den from the special points, far along the component next to the
    # thresholds, where the frame step's float filter must leave the sign
    # to sign_scaled, and a key and a frame too large for a float, which
    # take the exact path for both signs
    ctx = AlphaContext(spec)
    sign = ctx.sign_scaled
    rng = random.Random(29)
    cases = _reference_keys(spec)
    for den in (1, 7, 10**6, 2**40 + 1):
        far = _far_keys(spec, den, 1000, rng)
        cases += [(den, key) for key in _inside_keys(spec, den, far)]
    v = -(10**400)
    huge = (0, -_floor_times_alpha(spec, v), v)
    assert inside_reference(sign, 1, huge)
    checked = Counter()
    for den, key in [*cases, (1, huge), (2**1100, (0, 2**1099, 0))]:
        want = integer_step_reference(sign, den, key)
        assert Frame(ctx, den).adjacent(key) == want, (den, key)
        checked[den, len(want)] += 1
    # degree one occurs only at the four endpoints, all special points
    assert {degree for _den, degree in checked} == {1, 2}
    assert sum(checked.values()) > 7000 + 1500


@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
def test_filtered_inside_matches_the_two_sign_test(spec):
    # Frame.inside decides by the frame's float filter, and by sign_scaled
    # where it cannot: on the step test's keys before they are screened, on
    # keys within 2/den of each endpoint on both sides, near and far along
    # the component, and on a key and a frame too large for a float, it
    # answers as two exact signs do
    ctx = AlphaContext(spec)
    sign = ctx.sign_scaled
    rng, far_rng, near_rng = random.Random(23), random.Random(29), random.Random(31)
    cases = [
        (den, key)
        for den in (1, 7, 10**6)
        for key in _kernel_keys(spec, den, 2000, rng)
    ]
    for den in (1, 7, 10**6, 2**40 + 1):
        cases += [(den, key) for key in _far_keys(spec, den, 1000, far_rng)]
        # the endpoint (p + side*alpha)*den, from V = side*den and far along
        for side, p in product((0, 1), (0, 1)):
            far_vs = [near_rng.randint(-(2**40), 2**40) * den for _ in range(3)]
            for v in (side * den, *far_vs):
                u = p * den + _floor_times_alpha(spec, side * den - v)
                cases += [(den, (side, u + nudge, v)) for nudge in range(-2, 3)]
    v = -(10**400)
    huge = -_floor_times_alpha(spec, v)
    cases += [(1, (0, huge, v)), (1, (0, huge - 1, v))]
    cases += [(2**1100, (0, 2**1099, 0)), (2**1100, (0, 2**1100 + 1, 0))]
    frames = {den: Frame(ctx, den) for den in {den for den, _key in cases}}
    answers = Counter()
    for den, key in cases:
        want = inside_reference(sign, den, key)
        assert frames[den].inside(*key) == want, (den, key)
        answers[want] += 1
    assert answers[True] > 10000 and answers[False] > 5000


@pytest.mark.parametrize("spec", ALL_ALPHAS)
def test_walks_take_the_exact_sign_only_where_the_filter_cannot_decide(
    monkeypatch, spec
):
    # a walk from 1/2 decides check_vertex's interval test and every
    # threshold sign by the float filter; a walk from 0 falls back twice on
    # the frame over 1: the interval test at the origin, on the endpoint 0,
    # and the step at (J, 2*alpha), on its threshold 2*alpha, each with
    # sign_scaled(0, 0)
    g = IntervalGraph(AlphaContext(spec))
    calls = []
    sign_scaled = AlphaContext.sign_scaled

    def recorded(self, u, v):
        calls.append((sys._getframe(1).f_code.co_name, u, v))
        return sign_scaled(self, u, v)

    monkeypatch.setattr(AlphaContext, "sign_scaled", recorded)
    at_zero = [("inside", 0, 0), ("step", 0, 0)]
    for y, fallbacks in ((Fraction(1, 2), []), (Fraction(0), at_zero)):
        calls.clear()
        view = g.explore_component(GVertex(Side.I, point(y)), 4000)
        assert view.budget_used == 4000
        assert calls == fallbacks
        assert fallbacks == [] or view.visited[1] == GVertex(Side.J, TWO_ALPHA)


def test_huge_coefficient_spec_walks_like_its_reduced_form():
    # sqrt(2) - 1 with every coefficient times 10**400: approx comes from
    # integers, so nothing overflows, and every walk keys the same vertices
    huge = IntervalGraph(AlphaContext(AlphaSpec(-(10**400), 10**400, 2, 10**400)))
    small = IntervalGraph(AlphaContext(SQRT2_MINUS_1))
    for side, pt in ((Side.I, ZERO), (Side.I, point(Fraction(2, 7))), (Side.J, ONE)):
        walks = [
            g.explore_component(GVertex(side, pt), 400) for g in (huge, small)
        ]
        assert walks[0].visited.keys == walks[1].visited.keys
        assert walks[0].labels == walks[1].labels


@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
def test_reference_keys_meet_every_sign_pattern(spec):
    # the kernel's _TABLES entry is picked by the signs of x minus the side's
    # two thresholds; every pattern that occurs on a side, found from its
    # endpoints, thresholds and the midpoints between them, must be met by
    # the keys compared with the reference at each denominator
    ctx = AlphaContext(spec)
    met = {}
    for den, (side, u, v) in _reference_keys(spec):
        signs = tuple(
            ctx.sign_scaled(u - p * den, v - q * den)
            for p, q in graph_module._THRESHOLDS[side]
        )
        met.setdefault((den, side), set()).add(signs)
    for side in (0, 1):
        lo = point(0, side)
        thresholds = [point(*t) for t in graph_module._THRESHOLDS[side]]
        cuts = sorted([lo, lo + ONE, *thresholds], key=cmp_to_key(lambda x, y: ctx.sign(x - y)))
        halves = [
            point((x.u + y.u) / 2, (x.v + y.v) / 2) for x, y in zip(cuts, cuts[1:])
        ]
        occurs = {tuple(ctx.sign(x - t) for t in thresholds) for x in cuts + halves}
        # both thresholds lie inside: three pieces, two thresholds
        assert len(occurs) == 5
        for den in (1, 7, 10**6):
            assert occurs <= met[den, side], (den, side)


def test_sign_table_derivation_raises_where_it_does_not_hold():
    thresholds, maps = graph_module._THRESHOLDS[0], graph_module._MAPS[0]
    # Id shifted by 2 no longer meets R2a at their threshold alpha
    bit, a, c2, *rest = maps[0]
    shifted = ((bit, a, c2 + 2, *rest), *maps[1:])
    with pytest.raises(EquigraphError, match=r"maps disagree at threshold \(0, 1\)"):
        graph_module._sign_table(0, thresholds, shifted)
    # I's maps on J's interval [alpha, 1 + alpha]: R2 minus Id is 2 - 2x,
    # which changes sign at 1, so their images have no fixed order
    with pytest.raises(EquigraphError, match="far-point order of the edges not fixed"):
        graph_module._sign_table(1, thresholds, maps)
    # every map facing up leaves no edge below both thresholds
    up = tuple((*m[:5], 1) for m in maps)
    with pytest.raises(EquigraphError, match=r"side 0: no map faces signs \(-1, -1\)"):
        graph_module._sign_table(0, thresholds, up)
    # Id alone leaves the threshold 1 - alpha with no map
    with pytest.raises(EquigraphError, match="^side 0: a threshold has no map$"):
        graph_module._sign_table(0, thresholds, maps[:1])
    # the real maps derive, to the tables the kernel reads
    derived = zip((0, 1), graph_module._THRESHOLDS, graph_module._MAPS)
    assert tuple(graph_module._sign_table(*d) for d in derived) == graph_module._TABLES


@pytest.fixture
def kernel_keys(monkeypatch):
    """Every key a frame's step receives, and those outside their interval."""
    frame_step = graph_module._frame_step
    seen, outside = [], []

    def guarded_step(ctx, den):
        step, inside = frame_step(ctx, den)

        def guarded(key):
            seen.append(key)
            if not inside_reference(ctx.sign_scaled, den, key):
                outside.append((den, key))
            return step(key)

        return guarded, inside

    monkeypatch.setattr(graph_module, "_frame_step", guarded_step)
    return seen, outside


def test_integer_step_only_sees_keys_inside_their_interval(graph, kernel_keys):
    seen, outside = kernel_keys
    graph.explore_component(graph.vertex(Side.I, point(Fraction(2, 7))), 400)
    graph.explore_component(graph.vertex(Side.J, point(Fraction(2, 7), 1)), 400)
    origin = graph.vertex(Side.I, ZERO)
    assert bfs_points(graph, origin, graph.vertex(Side.I, TWO_ALPHA), 100) == 2
    cert = build_path_at(graph, GroupElement(1, 3, -1), point(Fraction(1, 10)))
    assert cert.validate() == []
    assert verify_lemma(graph, 4, 10, seed=0, bfs_budget=16 * 4 + 64)["checks"] > 0
    assert _bridge_suite(load_config(None))["extracted_standard"]
    assert len(seen) > 1000
    assert outside == []


def test_visited_builds_points_only_when_read(graph, monkeypatch):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    built = []
    make_vertex = Frame.vertex

    def counted(self, key):
        built.append(key)
        return make_vertex(self, key)

    monkeypatch.setattr(Frame, "vertex", counted)
    view = graph.explore_component(v, 64)
    assert len(built) == 2  # the two frontier tips
    visited = view.visited
    assert len(visited) == 66 and len(built) == 2
    o = view.origin_index
    assert visited[o] == v and visited[-1] == visited[len(visited) - 1]
    head = visited[:3]
    assert type(head) is tuple and len(head) == 3 and head[0] == visited[0]
    assert visited[o - 1 : o + 2] == (visited[o - 1], v, visited[o + 1])
    assert len(set(visited)) == 66
    assert all(a.side != b.side for a, b in zip(visited, visited[1:]))
    assert visited == tuple(visited) and tuple(visited) == visited[:]
    assert graph.explore_component(v, 0).visited == (v,)
    assert graph.explore_component(v, 0).visited != [v]
    with pytest.raises(IndexError):
        visited[66]
    with pytest.raises(TypeError):
        visited[0] = v


def test_vertex_range_checked(graph):
    with pytest.raises(EquigraphError, match="2 outside I interval"):
        graph.vertex(Side.I, point(2))
    with pytest.raises(EquigraphError, match="0 outside J interval"):
        graph.vertex(Side.J, ZERO)
    with pytest.raises(EquigraphError, match="-a outside I interval"):
        graph.vertex(Side.I, ZERO - ALPHA)


def test_neighbors_and_walks_check_their_vertex(graph):
    with pytest.raises(EquigraphError, match="^2 outside I interval$"):
        graph.neighbors(GVertex(Side.I, point(2)))
    with pytest.raises(EquigraphError, match="^0 outside J interval$"):
        graph.explore_component(GVertex(Side.J, ZERO), 10)


def test_explore_partial_and_centered(graph):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 64)
    assert view.kind == "partial"
    assert view.visited[view.origin_index] == v
    assert len(view.visited) == 66
    assert view.origin_index == 33
    assert len(view.frontier) == 2
    rec = view.to_record()
    assert rec["kind"] == "partial" and rec["size"] == 66
    # the chain alternates sides, and labels[k] are the generators of the
    # edge that neighbors() gives from visited[k] to visited[k+1]
    for a, b in zip(view.visited, view.visited[1:]):
        assert a.side != b.side
    assert len(view.labels) == len(view.visited) - 1
    for k, labels in enumerate(view.labels):
        assert dict(graph.neighbors(view.visited[k]))[view.visited[k + 1]] == labels


def test_explore_budget_zero(graph):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 0)
    assert view.kind == "partial"
    assert view.visited == (v,)
    assert view.frontier == (v,)
    assert view.budget_used == 0


def test_explore_from_degree_one(graph):
    view = graph.explore_component(graph.vertex(Side.I, ZERO), 40)
    assert view.kind == "partial"
    assert view.origin_index == 0
    assert len(view.visited) == 41  # whole budget spent in the one direction
    assert len(view.frontier) == 1


def test_chain_element_maps_points(graph):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 40)
    o = view.origin_index
    for offset in (-5, -2, -1, 1, 2, 3, 6):
        el = chain_element(view, o, o + offset)
        assert apply(el, v.point) == view.visited[o + offset].point
        assert chain_element(view, o + offset, o) == inverse(el)
    assert chain_element(view, o, o) == IDENTITY
    with pytest.raises(EquigraphError, match="outside view"):
        chain_element(view, 0, len(view.visited))


def classify_sample(graph, n: int, budget: int, seed: int) -> dict:
    """Degree and component-kind tabulation over n seeded I-samples."""
    rng = random.Random(seed)
    degrees: dict[int, int] = {}
    kinds: dict[str, int] = {}
    degree_one: list[dict] = []
    for _ in range(n):
        y = point(graph.sample_unit_rational(rng))
        vtx = GVertex(Side.I, y)
        d = graph.degree(vtx)
        degrees[d] = degrees.get(d, 0) + 1
        if d == 1:
            degree_one.append(vertex_record(vtx))
        view = graph.explore_component(vtx, budget)
        kinds[view.kind] = kinds.get(view.kind, 0) + 1
    return {
        "samples": n,
        "seed": seed,
        "budget": budget,
        "degrees": {str(k): degrees[k] for k in sorted(degrees)},
        "kinds": {k: kinds[k] for k in sorted(kinds)},
        "degree_one_hits": degree_one,
    }


def test_classify_sample_all_infinite(graph):
    rep = classify_sample(graph, 12, budget=200, seed=3)
    assert rep["samples"] == 12
    assert rep["degrees"] == {"2": 12}
    assert rep["kinds"] == {"partial": 12}
    assert rep["degree_one_hits"] == []


def test_classify_sample_empty(graph):
    rep = classify_sample(graph, 0, budget=10, seed=0)
    assert rep["samples"] == 0 and rep["kinds"] == {}


def test_generator_domains_frozen():
    dom = {gen.value: generator_domain(gen) for gen in Generator}
    assert dom["T"] == (ZERO, ONE - ALPHA)
    assert dom["R2"] == (ONE - ALPHA, ONE)
    assert dom["Id"] == (ALPHA, ONE)
    assert dom["R2a"] == (ZERO, ALPHA)


def test_generator_domains_cover_interval_twice():
    # total length of the four domains is 2: every interior point of
    # [0, 1] carries exactly two edges
    for spec in ALL_ALPHAS:
        ctx = AlphaContext(spec)
        total = ZERO
        for gen in Generator:
            lo, hi = generator_domain(gen)
            assert ctx.sign(lo - hi) <= 0
            total = total + (hi - lo)
        assert total == point(2)


def test_edge_polygon_exact_corners():
    expected = [
        (ZERO, TWO_ALPHA),
        (ONE - ALPHA, ONE + ALPHA),
        (ONE, ONE),
        (ALPHA, ALPHA),
    ]
    for spec in ALL_ALPHAS:
        ctx = AlphaContext(spec)
        corners = edge_polygon(ctx)
        assert corners == expected
        # unit slopes: consecutive differences satisfy di = +-dj, di != 0
        loop = corners + [corners[0]]
        for (i1, j1), (i2, j2) in zip(loop, loop[1:]):
            di, dj = i2 - i1, j2 - j1
            assert di == dj or di == ZERO - dj
            assert di != ZERO


def test_vertex_record_shape():
    rec = vertex_record(GVertex(Side.J, point(Fraction(1, 2), 1)))
    assert rec == {"side": "J", "u": "1/2", "v": "1"}


# ----------------------------------------------------------------------
# the walker's classifier, driven by synthetic adjacency


class _FakeGraph(IntervalGraph):
    """Adjacency supplied by a dict, for exercising the component walker."""

    def __init__(self, ctx, adjacency):
        super().__init__(ctx)
        self._adj = adjacency  # vertex -> far vertices, every edge labelled Id

    def frame(self, *vertices):
        # a key is (side, vertex), side 0 for I as in a Frame key, and every
        # key passes check
        def key(w):
            return (0 if w.side is Side.I else 1), w

        def adjacent(k):
            edges = self._adj.get(k[1], ())
            return [(key(far), frozenset({Generator.ID})) for far in edges]

        return SimpleNamespace(
            key=key, check=lambda k: None, adjacent=adjacent, vertex=lambda k: k[1]
        )


def _chain_graph(ctx, n_vertices, close_cycle=False):
    """A path (or cycle) I - J - I - J - ... over synthetic points."""
    vertices = []
    for k in range(n_vertices):
        pt = point(Fraction(k, 100))
        side = Side.I if k % 2 == 0 else Side.J
        vertices.append(GVertex(side, pt if side is Side.I else pt + ALPHA))
    adj = {v: [] for v in vertices}
    for a, b in zip(vertices, vertices[1:]):
        adj[a].append(b)
        adj[b].append(a)
    if close_cycle:
        adj[vertices[0]].append(vertices[-1])
        adj[vertices[-1]].append(vertices[0])
    return _FakeGraph(ctx, adj), vertices


def test_fake_odd_path_classified(ctx):
    g, vertices = _chain_graph(ctx, 4)  # I-J-I-J: 3 edges, odd
    view = g.explore_component(vertices[0], 100)
    assert view.kind == "finite_path"
    assert view.edge_count == 3
    assert view.frontier == ()
    view_mid = g.explore_component(vertices[2], 100)
    assert view_mid.kind == "finite_path"
    assert set(view_mid.visited) == set(vertices)


def test_fake_even_path_raises_finding(ctx):
    g, vertices = _chain_graph(ctx, 3)  # I-J-I: 2 edges, even
    with pytest.raises(Finding) as exc:
        g.explore_component(vertices[0], 100)
    assert exc.value.kind == EVEN_PATH_COMPONENT
    assert exc.value.witness["edge_count"] == 2
    ends = {(r["side"], r["u"]) for r in exc.value.witness["endpoints"]}
    assert ends == {("I", "0"), ("I", "1/50")}
    # starting in the middle trips the same wire
    with pytest.raises(Finding):
        g.explore_component(vertices[1], 100)


def test_fake_even_cycle_classified(ctx):
    g, vertices = _chain_graph(ctx, 6, close_cycle=True)
    view = g.explore_component(vertices[0], 100)
    assert view.kind == "even_cycle"
    assert view.cycle_length == 6
    assert len(view.visited) == 6
    assert len(set(view.visited)) == 6
    n = len(view.visited)
    assert len(view.labels) == n
    for k in range(n):
        assert view.visited[(k + 1) % n] in g._adj[view.visited[k]]


def test_fake_even_cycle_stitched_from_both_directions(ctx):
    # budget below the cycle length in one direction: the two walks must
    # meet and still produce a coherent cyclic order
    g, vertices = _chain_graph(ctx, 8, close_cycle=True)
    view = g.explore_component(vertices[0], 8)
    assert view.kind == "even_cycle"
    assert view.cycle_length == 8
    assert view.frontier == ()  # the first direction's tip closed the cycle
    assert len(set(view.visited)) == 8
    n = len(view.visited)
    assert len(view.labels) == n
    for k in range(n):
        assert view.visited[(k + 1) % n] in g._adj[view.visited[k]]


def test_fake_odd_closure_is_structural_error(ctx):
    # a walk that re-meets the explored region after an odd number of
    # edges cannot come from a bipartite 2-regular component
    i0, j0 = GVertex(Side.I, ZERO), GVertex(Side.J, ALPHA)
    i1 = GVertex(Side.I, point(Fraction(1, 100)))
    j1 = GVertex(Side.J, point(Fraction(1, 100)) + ALPHA)
    i2 = GVertex(Side.I, point(Fraction(2, 100)))
    adj = {
        i0: [j0],
        j0: [i0, i1],
        i1: [j0, j1],
        j1: [i1, i2],
        i2: [j1, j0],  # the edge back to j0
    }
    g = _FakeGraph(AlphaContext(ALL_ALPHAS[0]), adj)
    with pytest.raises(EquigraphError) as exc:
        g.explore_component(i0, 100)
    assert "odd" in str(exc.value)


def test_fake_high_degree_is_structural_error(ctx):
    i0, j0 = GVertex(Side.I, ZERO), GVertex(Side.J, ALPHA)
    j1 = GVertex(Side.J, ONE + ALPHA)
    j2 = GVertex(Side.J, ONE)
    adj = {i0: [j0, j1, j2]}
    g = _FakeGraph(AlphaContext(ALL_ALPHAS[0]), adj)
    with pytest.raises(EquigraphError):
        g.explore_component(i0, 100)


def test_fake_interior_high_degree_names_the_vertex(ctx):
    # two edges besides the way back at an interior vertex: the walker must
    # look past the first onward edge to see the second
    g, vertices = _chain_graph(ctx, 5)  # I-J-I-J-I
    extra = GVertex(Side.J, point(Fraction(99, 100)) + ALPHA)
    g._adj[vertices[2]].append(extra)
    g._adj[extra] = [vertices[2]]
    with pytest.raises(EquigraphError) as exc:
        g.explore_component(vertices[0], 100)
    assert type(exc.value) is EquigraphError  # not the Finding of a cut walk
    assert str(exc.value) == f"vertex of degree >2 at {vertices[2]}"


def test_fake_doubled_way_back_is_an_endpoint(ctx):
    # an interior vertex whose only edges are two copies of the way back
    # ends its arm, as a degree-one endpoint would
    g, vertices = _chain_graph(ctx, 5)
    g._adj[vertices[3]] = [vertices[2], vertices[2]]
    view = g.explore_component(vertices[0], 100)
    assert view.kind == "finite_path"
    assert view.visited == tuple(vertices[:4])
    assert view.edge_count == 3
    assert view.frontier == ()
