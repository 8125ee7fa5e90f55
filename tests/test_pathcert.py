import itertools
import math
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equigraph.algebra import AlgebraicPoint, AlgebraicPoint as point, AlphaContext
from equigraph.cli import load_config
from equigraph import graph as graph_module
from equigraph.errors import CONNECTOR_MISSING, EquigraphError, Finding
from equigraph.graph import Frame, GVertex, IntervalGraph, Side, VertexChain
from equigraph.group import (
    GENERATOR_ELEMENTS,
    GroupElement,
    IDENTITY,
    Generator,
    compose,
    enumerate_ball,
    inverse,
)
from equigraph import pathcert as pathcert_module
from equigraph.pathcert import (
    CertifiedPath,
    build_path,
    sample_unit_rational,
    verify_lemma,
)

from conftest import (
    ALL_ALPHAS,
    GOLDEN_CONJUGATE,
    KERNEL_ALPHAS,
    SEVEN_MINUS_TWO_SQRT5_OVER_3,
    SQRT2_MINUS_1,
)
from oracles import (
    ALPHA,
    ONE,
    THRESHOLDS,
    ZERO,
    apply,
    bfs_points,
    build_path_at,
    build_path_points,
    in_interval,
    sign,
    to_float,
    verify_lemma_reference,
)

TWO_ALPHA = point(0, 2)
T = GENERATOR_ELEMENTS[Generator.T]


def test_single_shift_certificate(graph):
    cert = build_path_at(graph, T, ZERO)
    assert cert.vertices == (
        GVertex(Side.I, ZERO),
        GVertex(Side.J, TWO_ALPHA),
        GVertex(Side.I, TWO_ALPHA),
    )
    assert cert.length == 2
    assert cert.validate() == []


def test_identity_certificate_is_one_vertex(graph):
    y = point(Fraction(1, 3))
    cert = build_path_at(graph, IDENTITY, y)
    assert cert.vertices == (GVertex(Side.I, y),)
    assert cert.length == 0
    assert cert.validate() == []


def test_reflection_with_no_shift_fixes_its_anchor(graph):
    refl = GroupElement(-1, 0, 1)  # x -> 2 - x, in range only at x = 1
    cert = build_path_at(graph, refl, ONE)
    assert cert.length == 0
    with pytest.raises(EquigraphError, match=r"image 3/2 outside \[0, 1\]"):
        build_path_at(graph, refl, point(Fraction(1, 2)))


def test_triple_shift_certificate_meets_bound_exactly(graph):
    g = GroupElement(1, 3, -1)  # x -> x + 6a - 2
    y = point(Fraction(1, 10))
    cert = build_path_at(graph, g, y)
    assert cert.length == 6
    assert cert.validate() == []
    dist = bfs_points(graph, GVertex(Side.I, y), GVertex(Side.I, apply(g, y)), 500)
    assert dist == 6  # the 2|b| bound is tight here


def test_negative_shift_certificate(graph):
    g = GroupElement(1, -2, 1)  # x -> x - 4a + 2
    y = point(Fraction(1, 10))
    cert = build_path_at(graph, g, y)
    assert cert.length == 4
    assert cert.validate() == []
    dist = bfs_points(graph, GVertex(Side.I, y), GVertex(Side.I, apply(g, y)), 500)
    assert dist == 4


def test_deep_certificate_needs_no_recursion(graph):
    # |b| = 1500 reduction steps, beyond Python's default recursion limit
    b = 1500
    y = point(Fraction(1, 3))
    c = -math.floor(to_float(graph.ctx, apply(GroupElement(1, b, 0), y)) / 2)
    g = GroupElement(1, b, c)
    assert in_interval(graph.ctx, apply(g, y), ZERO, ONE)
    cert = build_path_at(graph, g, y)
    assert cert.validate() == []
    assert cert.length <= 2 * b


def test_wide_alpha_fallback_cases(golden_graph):
    # alpha > 1/2: the first-choice intermediate point leaves [0, 1] and
    # the two-unit translate must be taken instead, in both directions
    for el, y in [
        (GroupElement(1, 1, -1), Fraction(4, 5)),
        (GroupElement(1, -1, 1), Fraction(1, 10)),
    ]:
        cert = build_path_at(golden_graph, el, point(y))
        assert cert.length == 2
        assert cert.validate() == []
        assert cert == build_path_points(golden_graph, el, point(y))


@pytest.mark.parametrize(
    "spec, g, y, reduced",
    [
        # s = 2a: the reflection 2a - x, not the shift
        (SQRT2_MINUS_1, (-1, 2, 0), TWO_ALPHA, (1, -1, 0)),
        # s = 1 - 2a: the shift x - 2a, not the reflection
        (SQRT2_MINUS_1, (-1, -2, 1), ONE - TWO_ALPHA, (-1, -1, 1)),
        # s = 2a - 1: the reflection 2a - x, not the fallback
        (GOLDEN_CONJUGATE, (-1, 2, -1), TWO_ALPHA - ONE, (1, -1, 1)),
        # s = 2 - 2a: the reflection 2 - 2a - x, not the fallback
        (GOLDEN_CONJUGATE, (-1, -2, 2), point(2) - TWO_ALPHA, (1, 1, -1)),
    ],
    ids=["2a", "1-2a", "2a-1", "2-2a"],
)
def test_case_splits_decide_the_reduced_element(spec, g, y, reduced):
    # on a split both cases give the same z and connector, so only the
    # element entering known tells them apart; each split keeps the side
    # that the point oracle's branches give it
    graph = IntervalGraph(AlphaContext(spec))
    g, known = GroupElement(*g), {}
    assert apply(g, y) == y
    cert = build_path_at(graph, g, y, known=known)
    assert cert.validate() == []
    assert cert == build_path_points(graph, g, y)
    assert set(known) == {g, GroupElement(*reduced)}


def test_reflection_fixing_its_image_adds_no_connector(graph):
    # z = s at s = alpha (b > 0) and s = 1 - alpha (b < 0): no J-vertex
    for g, y in [((-1, 1, 0), ALPHA), ((-1, -1, 1), ONE - ALPHA)]:
        g = GroupElement(*g)
        assert apply(g, y) == y
        assert build_path_at(graph, g, y).vertices == (GVertex(Side.I, y),)


GENERATOR_OF = {el: gen for gen, el in GENERATOR_ELEMENTS.items()}
G = Generator
# ROADMAP Baseline's connector pairs (h1, h2), for b > 0 and for b < 0
BASELINE_PAIRS = [
    {(G.T, G.ID), (G.ID, G.R2A), (G.R2A, G.ID), (G.R2, G.R2A)},
    {(G.ID, G.T), (G.T, G.R2), (G.R2, G.T), (G.R2A, G.R2)},
]
STEP_PAIRS = [
    (side, k, h2)
    for side, cases in enumerate(pathcert_module._STEP)
    for k, (*_, h2s) in enumerate(cases)
    for h2 in h2s
]


def test_step_cases_lower_b_by_one_through_generator_connectors():
    # the first splits, 2a and 1 - 2a, as forms (p, q) for p + q*alpha
    assert [cases[0][0] for cases in pathcert_module._STEP] == [(0, 2), (1, -2)]
    for sign, cases in zip((1, -1), pathcert_module._STEP):
        for _split, _signs, m, back, h2s in cases:
            assert back == inverse(m)
            assert all(compose(h2, m) in GENERATOR_OF for h2 in h2s)
            for a, b, c in itertools.product((1, -1), range(1, 60), range(-5, 6)):
                assert abs(compose(inverse(m), GroupElement(a, sign * b, c)).b) == b - 1


def test_step_connectors_are_the_baseline_pairs():
    pairs = [
        [
            (GENERATOR_OF[compose(h2, m)], GENERATOR_OF[h2])
            for *_, m, _back, h2s in cases
            for h2 in h2s
        ]
        for cases in pathcert_module._STEP
    ]
    assert list(map(len, pairs)) == [4, 4]
    assert list(map(set, pairs)) == BASELINE_PAIRS


@pytest.mark.parametrize(
    "side, k, h2",
    STEP_PAIRS,
    ids=[
        f"b{'><'[side]}0-{('shift', 'reflect', 'fallback')[k]}-{GENERATOR_OF[h2].value}"
        for side, k, h2 in STEP_PAIRS
    ],
)
def test_dropping_any_connector_pair_raises(monkeypatch, side, k, h2):
    # g = m and y = m^-1(s) for s on a grid of [0, 1]: where the case takes s
    # and the pair gives its connector, the table without the pair raises.
    # The fallback cases take some s only for alpha > 1/2
    step = pathcert_module._STEP
    split, signs, m, back, h2s = step[side][k]
    dropped = split, signs, m, back, tuple(h for h in h2s if h != h2)
    mutant = list(step)
    mutant[side] = step[side][:k] + (dropped,) + step[side][k + 1 :]
    mutant = tuple(mutant)
    hits = []
    for spec in KERNEL_ALPHAS:
        graph = IntervalGraph(AlphaContext(spec))
        for n in range(41):
            s = point(Fraction(n, 40))
            y = apply(back, s)
            if not in_interval(graph.ctx, y, ZERO, ONE):
                continue
            with monkeypatch.context() as patched:
                patched.setattr(pathcert_module, "_STEP", mutant)
                try:
                    build_path_at(graph, m, y)
                    continue
                except Finding as f:
                    assert f.kind == CONNECTOR_MISSING
                    assert f.witness["image"] == str(s)
            cert = build_path_at(graph, m, y)
            assert cert.validate() == []
            assert cert.vertices[1] == GVertex(Side.J, apply(h2, s))
            hits.append(spec)
    assert hits
    if k == 2:
        assert SQRT2_MINUS_1 not in hits
    # the sweep records each such Finding as a violation carrying its
    # witness, and a Finding never drops a check
    swept = []
    for spec, checks in zip(ALL_ALPHAS, (176, 102, 107)):
        graph = IntervalGraph(AlphaContext(spec))
        with monkeypatch.context() as patched:
            patched.setattr(pathcert_module, "_STEP", mutant)
            report = verify_lemma(graph, 4, 20, seed=0)
        assert report["checks"] == checks
        for v in report["violations"]:
            assert v["defect"] == CONNECTOR_MISSING
            assert set(v["finding"]) == {"element", "anchor", "z", "image"}
            swept.append(spec)
    assert swept
    if k == 2:
        assert SQRT2_MINUS_1 not in swept


class _SparseGraph(IntervalGraph):
    """The graph without its translation-only edges: some connectors go missing."""

    def frame(self, *vertices):
        frame = super().frame(*vertices)
        adjacent = frame.adjacent

        def sparse(key):
            return [(far, gens) for far, gens in adjacent(key) if gens != {Generator.T}]

        frame.adjacent = sparse
        return frame


def _outcome(build, graph, g, y):
    """The certificate's vertices, or the error's type, text and witness."""
    try:
        return build(graph, g, y).vertices
    except EquigraphError as e:
        return type(e), str(e), getattr(e, "witness", None)


@pytest.mark.parametrize("sparse", [False, True], ids=["graph", "sparse"])
@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
@settings(max_examples=100, deadline=None)
@given(
    b=st.integers(min_value=-40, max_value=40),
    threshold=st.sampled_from([None, None, TWO_ALPHA, ONE - TWO_ALPHA]),
    t=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    v=st.integers(min_value=-3, max_value=3),
    eps=st.sampled_from([-1, 0, 1]),
    nudge=st.sampled_from([0, 0, 0, 0, -1, 1]),
)
@example(b=1, threshold=None, t=Fraction(4, 5), v=0, eps=0, nudge=0)
@example(b=-1, threshold=None, t=Fraction(1, 10), v=0, eps=0, nudge=0)
def test_build_path_matches_point_oracle(spec, sparse, b, threshold, t, v, eps, nudge):
    # the integer construction against the earlier one on points, vertex for
    # vertex or error for error.  The sparse graph makes connectors go missing:
    # the earlier search raises, and the proof's connector, taken without a
    # search, makes validate() report the missing edge.  a and c are picked
    # (in floats) to put y and g(y) in [0, 1]; a nonzero nudge of c moves one
    # of them out.
    graph = (_SparseGraph if sparse else IntervalGraph)(AlphaContext(spec))
    alpha = to_float(graph.ctx, ALPHA)
    if threshold is None:
        # a sampled anchor near t, with alpha part v
        y = point(t - Fraction(v * alpha).limit_denominator(1000), v)
        for a in (1, -1):
            shifted = a * to_float(graph.ctx, y) + 2 * b * alpha
            c = -math.floor(shifted / 2)
            if shifted + 2 * c <= 1:
                break
        g = GroupElement(a, b, c + nudge)
    else:
        # y = g^-1(threshold + eps/1000): g(y) on or next to a case split
        image = threshold + point(Fraction(eps, 1000))
        x = to_float(graph.ctx, image) - 2 * b * alpha
        for a in (1, -1):
            c = math.floor(x / 2) if a == 1 else math.ceil(x / 2)
            if a * (x - 2 * c) <= 1:
                break
        g = GroupElement(a, b, c + nudge)
        y = apply(inverse(g), image)
    want = _outcome(build_path_points, graph, g, y)
    if sparse and want[0] is Finding and want[1].startswith(CONNECTOR_MISSING):
        cert = build_path_at(graph, g, y)
        missing = {
            f"vertices {k} and {k + 1} are not adjacent" for k in range(cert.length)
        }
        assert cert.validate() and set(cert.validate()) <= missing
    else:
        assert _outcome(build_path_at, graph, g, y) == want


def test_anchor_preconditions(graph):
    with pytest.raises(EquigraphError, match=r"anchor 2 outside \[0, 1\]"):
        build_path_at(graph, T, point(2))
    with pytest.raises(EquigraphError, match=r"image .* outside \[0, 1\]"):
        build_path_at(graph, GroupElement(1, 3, 0), point(Fraction(1, 2)))
    # the key form takes the key of an I-vertex on its frame
    frame = graph.frame(GVertex(Side.I, ONE))
    not_i = r"^anchor key \(1, 0, 1\) is not on side I$"
    with pytest.raises(EquigraphError, match=not_i):
        build_path(frame, T, (1, 0, 1))
    with pytest.raises(EquigraphError, match=r"^anchor 2 outside \[0, 1\]$"):
        build_path(frame, T, (0, 2, 0))


def test_anchor_off_the_given_frame_is_named(graph):
    # 1/3 has no key over 1/2: the error names the anchor, not a failed unpack
    half = graph.frame(GVertex(Side.I, point(Fraction(1, 2))))
    with pytest.raises(EquigraphError) as err:
        build_path_at(graph, T, point(Fraction(1, 3)), half)
    assert str(err.value) == "anchor 1/3 is not on the frame over 1/2"


def test_verify_lemma_makes_no_point_interval_tests(graph, monkeypatch):
    # every anchor, image and certificate vertex is decided on integer keys:
    # a point interval test subtracts points, and the sweep subtracts none
    calls = []
    sub = AlgebraicPoint.__sub__

    def counted(self, other):
        calls.append((self, other))
        return sub(self, other)

    monkeypatch.setattr(AlgebraicPoint, "__sub__", counted)
    report = verify_lemma(graph, 4, 10, seed=0)
    assert report["checks"] > 0
    assert calls == []


@pytest.fixture
def built_frames(monkeypatch):
    """Every frame that IntervalGraph.frame builds in the test, in order."""
    frames = []
    make_frame = IntervalGraph.frame

    def recorded(self, *vertices):
        frames.append(make_frame(self, *vertices))
        return frames[-1]

    monkeypatch.setattr(IntervalGraph, "frame", recorded)
    return frames


def _keyed_path(graph, vertices, element, anchor, scale):
    """The certificate of vertices from anchor, keyed on the frame over the
    lcm of their denominators times scale."""
    start = GVertex(Side.I, anchor)
    frame = Frame(graph.ctx, scale * graph.frame(*vertices, start).den)
    chain = VertexChain([frame.key(v) for v in vertices], frame)
    return CertifiedPath(chain, element, frame.key(start))


def test_validate_flags_tampering(graph):
    # each tampered certificate is keyed on the frame over its vertices' and
    # anchor's denominators, and again on a frame over six times that: the
    # lists agree
    cert = build_path_at(graph, T, ZERO)
    first, middle, last = cert.vertices

    def problems_of(vertices, element=T, anchor=ZERO):
        certs = [
            _keyed_path(graph, vertices, element, anchor, scale) for scale in (1, 6)
        ]
        problems = certs[0].validate()
        assert certs[1].validate() == problems
        return problems

    wrong_middle = (first, GVertex(Side.J, point(2) - TWO_ALPHA), last)
    assert any("not adjacent" in p for p in problems_of(wrong_middle))
    problems = problems_of(cert.vertices, anchor=TWO_ALPHA)
    assert any("not the anchor" in p for p in problems)
    assert any("not the image" in p for p in problems)
    # an anchor off the certificate's denominators matches neither end
    assert problems_of(cert.vertices, anchor=point(Fraction(1, 3))) == [
        "first vertex is not the anchor",
        "last vertex is not the image of the anchor",
    ]
    assert any("exceeds bound" in p for p in problems_of(cert.vertices, IDENTITY))
    assert any("alternation" in p for p in problems_of((first, last, middle)))
    # the problem lists below are those of the earlier point-based validate
    third = GVertex(Side.J, point(Fraction(1, 3), 2))  # 1/3 + 2*alpha
    assert problems_of((first, third, last)) == [
        "vertices 0 and 1 are not adjacent",
        "vertices 1 and 2 are not adjacent",
    ]
    # off the anchor's denominator, the last edge is still a true edge
    assert problems_of((first, third, GVertex(Side.I, point(Fraction(1, 3))))) == [
        "last vertex is not the image of the anchor",
        "vertices 0 and 1 are not adjacent",
    ]
    assert problems_of((first, last)) == [
        "vertex 1 breaks I/J alternation",
        "vertices 0 and 1 are not adjacent",
    ]
    outside = (first, GVertex(Side.J, point(3)), last)
    for scale in (1, 6):
        with pytest.raises(EquigraphError, match="^3 outside J interval$"):
            _keyed_path(graph, outside, T, ZERO, scale).validate()
    # the anchor is read back from the start key
    keyed = _keyed_path(graph, cert.vertices, T, TWO_ALPHA, 6)
    assert keyed.vertices.frame.vertex(keyed.start).point == TWO_ALPHA


def test_validate_checks_the_last_vertex(graph):
    # the last key is checked like every other: a one-vertex certificate
    # outside [0, 1] raises rather than validating
    cert = _keyed_path(graph, (GVertex(Side.I, point(2)),), IDENTITY, point(2), 1)
    with pytest.raises(EquigraphError, match="^2 outside I interval$"):
        cert.validate()


def test_validate_builds_no_frame(graph, monkeypatch):
    # validate decides on the keys and frame its certificate keeps: it
    # builds no frame, and no point, so it applies no element to a point
    calls = Counter()
    frame_init = graph_module.Frame.__init__

    def counted_init(self, *args):
        calls["frame"] += 1
        frame_init(self, *args)

    point_init = AlgebraicPoint.__init__

    def counted_point(self, *args):
        calls["point"] += 1
        point_init(self, *args)

    for g, y in [(T, ZERO), (GroupElement(1, 3, -1), point(Fraction(1, 10)))]:
        cert = build_path_at(graph, g, y)
        with monkeypatch.context() as patched:
            patched.setattr(graph_module.Frame, "__init__", counted_init)
            patched.setattr(AlgebraicPoint, "__init__", counted_point)
            assert cert.validate() == []
        assert calls == {}


def _sweep_anchors(graph, radius, samples, seed):
    """The anchors a sweep tries, in order, found with the point API: 0, 1
    and the samples, then g^-1(x) for each element g whose image of [0, 1],
    [2c + min(0, a), 2c + max(0, a)] + 2b*alpha, meets it and each threshold
    image x in [0, 1]; and those elements."""
    ctx = graph.ctx
    rng = random.Random(seed)
    base = [ZERO, ONE]
    base += [point(sample_unit_rational(rng)) for _ in range(samples - 2)]
    meeting = [
        g
        for g in sorted(enumerate_ball(radius))
        if sign(ctx, point(2 * g.c + max(0, g.a), 2 * g.b) - ZERO) >= 0
        and sign(ctx, point(2 * g.c + min(0, g.a), 2 * g.b) - ONE) <= 0
    ]
    images = [t + point(Fraction(k, 1000)) for t in THRESHOLDS for k in (-1, 0, 1)]
    images = [x for x in images if sign(ctx, x) >= 0 and sign(ctx, ONE - x) >= 0]
    return base + [apply(inverse(g), x) for g in meeting for x in images], meeting


@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
def test_sweep_keys_each_anchor_once_and_builds_no_point(monkeypatch, spec):
    # with no violation a sweep runs on integer forms from end to end: it
    # builds one frame for each anchor it tries and keys the anchor from
    # ints, so it keys no vertex, builds no point and no vertex from a key
    graph = IntervalGraph(AlphaContext(spec))
    tried = {n: len(_sweep_anchors(graph, 4, n, 0)[0]) for n in (10, 40)}
    assert tried[40] == tried[10] + 30
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, owner, attr in [
        ("frame", graph_module.Frame, "__init__"),
        ("key", graph_module.Frame, "key"),
        ("vertex", graph_module.Frame, "vertex"),
        ("point", AlgebraicPoint, "__init__"),
    ]:
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    for samples in (10, 40):
        calls.clear()
        report = verify_lemma(graph, 4, samples, seed=0)
        assert report["checks"] > 0 and report["violations"] == []
        assert calls["frame"] == tried[samples]
        assert calls["key"] == calls["vertex"] == calls["point"] == 0


def test_sweep_leaves_few_interval_tests_to_the_exact_sign(monkeypatch):
    # the default sweep tests keys against their interval about 35,000
    # times and computes about 9,000 of those tests, the rest being memo
    # hits on remembered frames; the frame's integer filter decides all but
    # those on or next to an endpoint, such as the anchors 0 and 1
    cfg = load_config(None)
    assert cfg.alpha == SQRT2_MINUS_1
    calls = Counter()
    sign_scaled = AlphaContext.sign_scaled

    def counted(self, u, v):
        calls[sys._getframe(1).f_code.co_name] += 1
        return sign_scaled(self, u, v)

    monkeypatch.setattr(AlphaContext, "sign_scaled", counted)
    graph = IntervalGraph(AlphaContext(cfg.alpha))
    report = verify_lemma(graph, cfg.ball_radius, cfg.samples, cfg.seed)
    assert report["checks"] == 2485
    assert 0 < calls["inside"] <= 21


def test_sweep_builds_one_frame_per_anchor_and_expands_each_key_once(
    graph, monkeypatch
):
    # no check builds a frame of its own, and the checks of one anchor share
    # its adjacency: a frame's step runs once per (anchor frame, key).  Each
    # anchor's frame has the denominator that graph.frame gives its point
    total = Counter()
    frame_step = graph_module._frame_step

    def counted_frame_step(ctx, den):
        step, inside = frame_step(ctx, den)

        def counted_step(key):
            total["calls"] += 1
            return step(key)

        return counted_step, inside

    anchors, meeting = _sweep_anchors(graph, 4, 10, 0)
    expected = [graph.frame(GVertex(Side.I, y)).den for y in anchors]
    dens, steps = [], Counter()
    frame_init = Frame.__init__

    def tagged(self, ctx, den):
        frame_init(self, ctx, den)
        dens.append(den)
        step, tag = self.adjacent, len(dens)

        def adjacent(key):
            steps[tag, key] += 1
            return step(key)

        self.adjacent = adjacent

    monkeypatch.setattr(graph_module, "_frame_step", counted_frame_step)
    monkeypatch.setattr(Frame, "__init__", tagged)
    report = verify_lemma(graph, 4, 10, seed=0)
    assert report["checks"] > 0
    # the 10 base anchors once, then 6 threshold anchors per element whose
    # image of [0, 1] meets it
    assert 0 < len(meeting) < report["ball_size"]
    assert len(dens) == 10 + 6 * len(meeting)
    assert dens == expected
    assert max(steps.values()) == 1
    assert total["calls"] == len(steps)


def test_walks_keep_the_bare_adjacency(graph, built_frames, monkeypatch):
    steps = []
    frame_step = graph_module._frame_step

    def recorded(ctx, den):
        built = frame_step(ctx, den)
        steps.append(built)
        return built

    monkeypatch.setattr(graph_module, "_frame_step", recorded)
    v = GVertex(Side.I, point(Fraction(1, 3)))
    assert graph.explore_component(v, 50).budget_used == 50
    graph.neighbors(v)
    assert len(built_frames) == 2
    for frame, (step, inside) in zip(built_frames, steps, strict=True):
        assert frame.adjacent is step
        assert not hasattr(frame.adjacent, "cache_info")
        assert frame.inside is inside
        assert not hasattr(frame.inside, "cache_info")


def test_anchor_memo_stays_bounded_and_immutable(graph, monkeypatch):
    # each anchor's frame is gone before the next anchor's is remembered, so
    # a sweep holds one anchor's cache and BFS at a time
    remembered, alive = [], []
    remember = Frame.remember

    def tracked(self, origin):
        alive.append(sum(ref() is not None for ref in remembered))
        remembered.append(weakref.ref(self))
        remember(self, origin)

    monkeypatch.setattr(Frame, "remember", tracked)
    radius = 3
    verify_lemma(graph, radius, 2, seed=0)
    assert len(remembered) > 2 and max(alive) == 0
    assert all(ref() is None for ref in remembered)
    # y + alpha is on y's frame but never in y's component (every element
    # shifts by an even multiple of alpha), and 0's component is an infinite
    # path, so this BFS expands its whole budget, each key once
    y = GVertex(Side.I, ZERO)
    anchor_frame = graph.frame(y)
    assert anchor_frame.den == 1
    key = anchor_frame.key(y)
    anchor_frame.remember(key)
    far = anchor_frame.key(GVertex(Side.I, ALPHA))
    assert graph.bfs_distance(anchor_frame, key, far, 10_000) is None
    assert anchor_frame.bfs.start == key
    cached = anchor_frame.adjacent.cache_info()
    assert cached.currsize == anchor_frame.bfs.expanded == 10_000
    # the interval memo holds only the keys tested, start and goal: the
    # expansions test none
    assert anchor_frame.inside.cache_info().currsize == 2
    edges = anchor_frame.adjacent(key)
    assert anchor_frame.adjacent(key) is edges
    assert anchor_frame.adjacent.cache_info().hits == cached.hits + 2
    assert anchor_frame.adjacent.cache_info().currsize == 10_000
    step, _inside = graph_module._frame_step(graph.ctx, 1)
    assert edges == tuple(step(key))
    assert all(isinstance(labels, frozenset) for _far, labels in edges)
    with pytest.raises(TypeError):
        edges[0] = edges[-1]
    with pytest.raises(AttributeError):
        edges.append(edges[0])


def test_remembered_frames_decide_each_interval_once(graph, monkeypatch):
    # a remembered frame memoizes its interval test beside its adjacency:
    # the anchor, each goal and each certificate key are tested by several
    # checks and by bfs_distance, build_path and validate within one, but
    # decided once per anchor frame (the anchor's screen, before remember,
    # runs on the bare test).  The report is the fresh-frame reference's
    evals, remembered, tags = Counter(), set(), itertools.count()
    frame_step, remember = graph_module._frame_step, Frame.remember

    def counted_frame_step(ctx, den):
        step, inside = frame_step(ctx, den)
        tag = next(tags)

        def counted_inside(*key):
            if tag in remembered:
                evals[tag, key] += 1
            return inside(*key)

        counted_inside.tag = tag
        return step, counted_inside

    def tracked(self, origin):
        remembered.add(self.inside.tag)
        remember(self, origin)

    monkeypatch.setattr(graph_module, "_frame_step", counted_frame_step)
    monkeypatch.setattr(Frame, "remember", tracked)
    args = (graph, 5, 10, 0)
    report = verify_lemma(*args)
    assert report["checks"] > 0 and len(remembered) > 10
    assert len(evals) > report["checks"]
    assert max(evals.values()) == 1
    monkeypatch.undo()
    assert report == verify_lemma_reference(*args, 4 * 5 - 1)
    # the memo keys the side: (0, 0) is in I's interval [0, 1] and not in
    # J's [alpha, 1 + alpha]
    frame = Frame(graph.ctx, 1)
    frame.remember((0, 0, 0))
    assert frame.inside(0, 0, 0) is True
    assert frame.inside(1, 0, 0) is False
    assert frame.inside.cache_info().currsize == 2


@pytest.mark.parametrize("far_goal", [False, True], ids=["graph", "far-goal"])
def test_sweep_expands_each_key_once_per_anchor_frame(graph, monkeypatch, far_goal):
    # with far goals each BFS goal is y +- alpha, on y's frame but never in
    # y's component, so every search runs its whole budget: the anchor's
    # later checks must resume its search, not expand its keys again
    steps, tags = Counter(), itertools.count()
    remember, bfs_distance = Frame.remember, IntervalGraph.bfs_distance

    def counted(self, origin):
        step, tag = self.adjacent, next(tags)

        def adjacent(key):
            steps[tag, key] += 1
            return step(key)

        self.adjacent = adjacent
        remember(self, origin)

    def far(self, frame, start, goal, budget):
        side, u, v = start
        goal = side, u, v + frame.den
        if not frame.inside(*goal):
            goal = side, u, v - frame.den
        return bfs_distance(self, frame, start, goal, budget)

    monkeypatch.setattr(Frame, "remember", counted)
    if far_goal:
        monkeypatch.setattr(IntervalGraph, "bfs_distance", far)
    report = verify_lemma(graph, 3, 5, seed=0)
    assert report["checks"] > 0
    bfs = [v for v in report["violations"] if v["defect"] == "bfs"]
    assert report["violations"] == bfs
    assert len(bfs) == (report["checks"] if far_goal else 0)
    assert all(v["distance"] is None for v in bfs)
    assert max(steps.values()) == 1


@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
def test_sweep_reduces_each_element_once_per_anchor(monkeypatch, spec):
    # an anchor's certificates share their reduction chain: build_path looks
    # each element up in the anchor's known table and reduces it on a miss,
    # at most once per (anchor frame, element), and each anchor's table
    # holds at most one element per (a, b) with b != 0, fewer than the ball
    # (counted in a table that stands in for the sweep's own, which must be
    # one per anchor frame)
    graph = IntervalGraph(AlphaContext(spec))
    steps, tables, passed = Counter(), {}, {}
    build = pathcert_module.build_path

    class CountedTable(dict):
        def get(self, g, default=None):
            if g not in self and g.b != 0:
                steps[id(self), g] += 1
            return super().get(g, default)

    def recorded_build(frame, g, start, known):
        assert passed.setdefault(frame, known) is known
        return build(frame, g, start, tables.setdefault(frame, CountedTable()))

    monkeypatch.setattr(pathcert_module, "build_path", recorded_build)
    radius = 6
    report = verify_lemma(graph, radius, 20, seed=0)
    assert report["violations"] == []
    assert max(steps.values()) == 1
    # with no violation, every element reduced is certified and kept
    assert sum(steps.values()) == sum(map(len, tables.values()))
    for known in tables.values():
        assert all(g.b != 0 for g in known)
        assert len({(g.a, g.b) for g in known}) == len(known)
        assert len(known) <= min(4 * radius, report["ball_size"])


def test_remembered_bfs_answers_each_budget_as_a_new_search(graph):
    # the goal lies at distance 6, found past the second expansion: budget 2
    # must miss it whether the kept search ran further before or not.  The
    # runs of budgets up and down cross the expansion that finds the goal
    y = point(Fraction(1, 10))
    origin = GVertex(Side.I, y)
    goal = GVertex(Side.I, apply(GroupElement(1, 3, -1), y))

    def kept_frame():
        frame = graph.frame(origin)
        frame.remember(frame.key(origin))
        return frame

    runs = [(100, 2), (2, 100), (2, 2, 100, 100), range(1, 21), range(20, 0, -1)]
    for budgets in runs:
        frame = kept_frame()
        for budget in budgets:
            fresh = bfs_points(graph, origin, goal, budget)
            assert bfs_points(graph, origin, goal, budget, frame) == fresh
    assert bfs_points(graph, origin, goal, 2) is None
    assert bfs_points(graph, origin, goal, 100) == 6
    # a start other than the kept one gets a new search
    frame = kept_frame()
    other = GVertex(Side.I, point(Fraction(3, 10)))
    assert bfs_points(graph, other, goal, 100, frame) == bfs_points(graph, 
        other, goal, 100
    )
    assert frame.bfs.reached == {frame.key(origin): (0, 0)}
    # the kept start is at distance 0 from itself at the smallest budget
    assert bfs_points(graph, origin, origin, 1, kept_frame()) == 0


@pytest.mark.parametrize("radius, budget", [(4, 3), (6, 7), (8, 12)])
@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
def test_verify_lemma_matches_reference_when_budget_binds(
    monkeypatch, spec, radius, budget
):
    # budgets too small for the longer distances: the resumed BFS must give
    # None exactly where a new search with that budget does
    bfs_distance = IntervalGraph.bfs_distance

    def bound(self, frame, start, goal, derived):
        return bfs_distance(self, frame, start, goal, min(derived, budget))

    monkeypatch.setattr(IntervalGraph, "bfs_distance", bound)
    graph = IntervalGraph(AlphaContext(spec))
    report = verify_lemma(graph, radius, 10, 0)
    monkeypatch.undo()
    assert report == verify_lemma_reference(graph, radius, 10, 0, budget)
    assert any(
        v["defect"] == "bfs" and v["distance"] is None for v in report["violations"]
    )


def test_verify_lemma_budget_is_the_least_that_decides(graph, monkeypatch):
    # one expansion short of 4*ball_radius - 1, goals at distance
    # 2*ball_radius go out of reach and read as violations with no distance
    assert graph.ctx.spec == SQRT2_MINUS_1
    assert verify_lemma(graph, 1, 20, 0)["violations"] == []
    bfs_distance = IntervalGraph.bfs_distance

    def short(self, frame, start, goal, budget):
        return bfs_distance(self, frame, start, goal, budget - 1)

    monkeypatch.setattr(IntervalGraph, "bfs_distance", short)
    violations = verify_lemma(graph, 1, 20, 0)["violations"]
    assert violations
    for v in violations:
        assert v["defect"] == "bfs" and v["distance"] is None
        assert abs(v["element"][1]) == 1


def test_verify_lemma_draws_each_base_anchor_as_it_checks_it(graph, monkeypatch):
    # the base anchors 0 and 1, then each sample drawn just before its
    # frame is remembered: the sweep never holds a list of samples
    events = []
    sample, remember = pathcert_module.sample_unit_rational, Frame.remember

    def drawn(rng):
        events.append("sample")
        return sample(rng)

    def remembered(self, origin):
        events.append("remember")
        remember(self, origin)

    monkeypatch.setattr(pathcert_module, "sample_unit_rational", drawn)
    monkeypatch.setattr(Frame, "remember", remembered)
    samples = 6
    verify_lemma(graph, 2, samples, 0)
    base = ["remember"] * 2 + ["sample", "remember"] * (samples - 2)
    assert events[: len(base)] == base
    assert events.count("sample") == samples - 2


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
@pytest.mark.parametrize("mutant", [False, True], ids=["graph", "no-T"])
def test_verify_lemma_matches_fresh_frame_reference(monkeypatch, mutant, spec, seed):
    # the mutant drops the translation T from both sides' adjacency, so BFS
    # distances and connectors go missing and the violation path runs too;
    # the kernel reads only the sign tables, so they are rebuilt from its maps
    if mutant:
        t = list(GENERATOR_ELEMENTS).index(Generator.T)
        maps = tuple(side[:t] + side[t + 1 :] for side in graph_module._MAPS)
        monkeypatch.setattr(graph_module, "_MAPS", maps)
        tables = map(graph_module._sign_table, (0, 1), graph_module._THRESHOLDS, maps)
        monkeypatch.setattr(graph_module, "_TABLES", tuple(tables))
    graph = IntervalGraph(AlphaContext(spec))
    report = verify_lemma(graph, 5, 10, seed)
    assert report == verify_lemma_reference(graph, 5, 10, seed, 4 * 5 - 1)
    assert report["checks"] > 0
    assert bool(report["violations"]) == mutant


def test_sweep_small_radius_frozen(graph):
    rep = verify_lemma(graph, 3, 20, seed=0)
    assert rep["ball_size"] == 23
    assert rep["elements_checked"] == 11
    assert rep["checks"] == 134
    assert rep["violations"] == []
    assert rep["max_dist_by_b"] == {"0": 0, "1": 2, "2": 4}
    assert rep["max_path_len_by_b"] == {"0": 0, "1": 2, "2": 4}


def test_sweep_frozen_on_negative_q_alpha():
    # (7 - 2*sqrt(5))/3: r = 3 and q < 0 enter every cleared-integer sign;
    # the report was recorded with the earlier point-based sweep
    graph = IntervalGraph(AlphaContext(SEVEN_MINUS_TWO_SQRT5_OVER_3))
    assert verify_lemma(graph, 4, 20, seed=3) == {
        "ball_radius": 4,
        "ball_size": 39,
        "elements_checked": 11,
        "checks": 102,
        "samples": 20,
        "seed": 3,
        "max_dist_by_b": {"0": 0, "1": 2, "2": 4},
        "max_path_len_by_b": {"0": 0, "1": 2, "2": 4},
        "violations": [],
    }


# anchors off Z + Z*alpha, and the anchors y = b'*alpha + c' in [0, 1] as
# (c', b'): 0, 1, alpha, 1 - alpha, 2*alpha, 2*alpha - 1 and 2 - 2*alpha
RATIONAL_ANCHORS = tuple(map(Fraction, ("1/10", "2/7", "1/3", "1/2", "4/5")))
LATTICE_ANCHORS = ((0, 0), (1, 0), (0, 1), (1, -1), (0, 2), (-1, 2), (2, -2))


@pytest.mark.parametrize("spec", KERNEL_ALPHAS)
def test_bfs_distance_is_exactly_the_lemma_formula(spec):
    # dist((I, y), (I, g(y))) is 2|b| off Z + Z*alpha, so the 2|b| bound is
    # tight there; at y = b'*alpha + c', the reflection (-1, b', c') fixes y,
    # so g and g(-1, b', c'), whose shift is b + a*b', both send y to g(y),
    # and the distance is 2*min(|b|, |b + a*b'|).  An extra edge in the
    # kernel only shortens some distance, which a bound cannot see
    graph = IntervalGraph(AlphaContext(spec))
    ball = sorted(enumerate_ball(6))
    anchors = [(point(y), None) for y in RATIONAL_ANCHORS]
    anchors += [(point(c, b), b) for c, b in LATTICE_ANCHORS]
    checked = Counter()
    for y, b_anchor in anchors:
        origin = GVertex(Side.I, y)
        frame = graph.frame(origin)
        start = frame.key(origin)
        if not frame.inside(*start):
            continue
        frame.remember(start)
        for g in ball:
            goal = (0, *frame.image(g, *start[1:]))
            if not frame.inside(*goal):
                continue
            k = abs(g.b)
            if b_anchor is not None:
                k = min(k, abs(g.b + g.a * b_anchor))
                checked["shorter"] += k < abs(g.b)
            assert graph.bfs_distance(frame, start, goal, 400) == 2 * k, (g, y)
            checked["off" if b_anchor is None else "on"] += 1
    assert checked["off"] >= 30 and checked["on"] >= 40 and checked["shorter"] >= 10


def test_sweep_bounds_hold_per_element(graph):
    rep = verify_lemma(graph, 4, 30, seed=7)
    assert rep["violations"] == []
    for b_str, dist in rep["max_dist_by_b"].items():
        assert dist <= 2 * int(b_str)
    for b_str, length in rep["max_path_len_by_b"].items():
        assert length <= 2 * int(b_str)


def test_sweep_wide_alpha(golden_graph):
    rep = verify_lemma(golden_graph, 2, 10, seed=1)
    assert rep["checks"] == 32
    assert rep["violations"] == []
    assert rep["max_dist_by_b"] == {"0": 0, "1": 2}


def test_sweep_without_samples_still_checks_thresholds(graph):
    rep = verify_lemma(graph, 1, 0, seed=0)
    assert rep["samples"] == 0
    assert rep["checks"] == 18
    assert rep["elements_checked"] == 4
    assert rep["violations"] == []
