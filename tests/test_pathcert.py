import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equigraph.algebra import ALPHA, ONE, ZERO, AlphaContext, point
from equigraph.errors import EquigraphError
from equigraph.graph import GVertex, IntervalGraph, Side
from equigraph.group import (
    GENERATOR_ELEMENTS,
    GroupElement,
    IDENTITY,
    Generator,
    apply,
    inverse,
)
from equigraph.pathcert import CertifiedPath, build_path, verify_lemma

from conftest import KERNEL_ALPHAS, SEVEN_MINUS_TWO_SQRT5_OVER_3
from oracles import build_path_points

TWO_ALPHA = ALPHA.scale(2)
T = GENERATOR_ELEMENTS[Generator.T]


def test_single_shift_certificate(graph):
    cert = build_path(graph, T, ZERO)
    assert cert.vertices == (
        GVertex(Side.I, ZERO),
        GVertex(Side.J, TWO_ALPHA),
        GVertex(Side.I, TWO_ALPHA),
    )
    assert cert.length == 2
    assert cert.validate(graph) == []


def test_identity_certificate_is_one_vertex(graph):
    y = point(Fraction(1, 3))
    cert = build_path(graph, IDENTITY, y)
    assert cert.vertices == (GVertex(Side.I, y),)
    assert cert.length == 0
    assert cert.validate(graph) == []


def test_reflection_with_no_shift_fixes_its_anchor(graph):
    refl = GroupElement(-1, 0, 1)  # x -> 2 - x, in range only at x = 1
    cert = build_path(graph, refl, ONE)
    assert cert.length == 0
    with pytest.raises(EquigraphError, match=r"image 3/2 outside \[0, 1\]"):
        build_path(graph, refl, point(Fraction(1, 2)))


def test_triple_shift_certificate_meets_bound_exactly(graph):
    g = GroupElement(1, 3, -1)  # x -> x + 6a - 2
    y = point(Fraction(1, 10))
    cert = build_path(graph, g, y)
    assert cert.length == 6
    assert cert.validate(graph) == []
    dist = graph.bfs_distance(
        GVertex(Side.I, y), GVertex(Side.I, apply(g, y)), 500
    )
    assert dist == 6  # the 2|b| bound is tight here


def test_negative_shift_certificate(graph):
    g = GroupElement(1, -2, 1)  # x -> x - 4a + 2
    y = point(Fraction(1, 10))
    cert = build_path(graph, g, y)
    assert cert.length == 4
    assert cert.validate(graph) == []
    dist = graph.bfs_distance(
        GVertex(Side.I, y), GVertex(Side.I, apply(g, y)), 500
    )
    assert dist == 4


def test_deep_certificate_needs_no_recursion(graph):
    # |b| = 1500 reduction steps, beyond Python's default recursion limit
    b = 1500
    y = point(Fraction(1, 3))
    c = -math.floor(graph.ctx.to_float(apply(GroupElement(1, b, 0), y)) / 2)
    g = GroupElement(1, b, c)
    assert graph.ctx.in_interval(apply(g, y), ZERO, ONE)
    cert = build_path(graph, g, y)
    assert cert.validate(graph) == []
    assert cert.length <= 2 * b


def test_wide_alpha_fallback_cases(golden_graph):
    # alpha > 1/2: the first-choice intermediate point leaves [0, 1] and
    # the two-unit translate must be taken instead, in both directions
    for el, y in [
        (GroupElement(1, 1, -1), Fraction(4, 5)),
        (GroupElement(1, -1, 1), Fraction(1, 10)),
    ]:
        cert = build_path(golden_graph, el, point(y))
        assert cert.length == 2
        assert cert.validate(golden_graph) == []
        assert cert == build_path_points(golden_graph, el, point(y))


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
    # vertex or error for error; the sparse graph makes connectors go missing.
    # a and c are picked (in floats) to put y and g(y) in [0, 1]; a nonzero
    # nudge of c moves one of them out.
    graph = (_SparseGraph if sparse else IntervalGraph)(AlphaContext(spec))
    alpha = graph.ctx.to_float(ALPHA)
    if threshold is None:
        # a sampled anchor near t, with alpha part v
        y = point(t - Fraction(v * alpha).limit_denominator(1000), v)
        for a in (1, -1):
            shifted = a * graph.ctx.to_float(y) + 2 * b * alpha
            c = -math.floor(shifted / 2)
            if shifted + 2 * c <= 1:
                break
        g = GroupElement(a, b, c + nudge)
    else:
        # y = g^-1(threshold + eps/1000): g(y) on or next to a case split
        image = threshold + point(Fraction(eps, 1000))
        x = graph.ctx.to_float(image) - 2 * b * alpha
        for a in (1, -1):
            c = math.floor(x / 2) if a == 1 else math.ceil(x / 2)
            if a * (x - 2 * c) <= 1:
                break
        g = GroupElement(a, b, c + nudge)
        y = apply(inverse(g), image)
    assert _outcome(build_path, graph, g, y) == _outcome(
        build_path_points, graph, g, y
    )


def test_anchor_preconditions(graph):
    with pytest.raises(EquigraphError, match=r"anchor 2 outside \[0, 1\]"):
        build_path(graph, T, point(2))
    with pytest.raises(EquigraphError, match=r"image .* outside \[0, 1\]"):
        build_path(graph, GroupElement(1, 3, 0), point(Fraction(1, 2)))


def test_validate_flags_tampering(graph):
    cert = build_path(graph, T, ZERO)
    wrong_middle = CertifiedPath(
        (cert.vertices[0], GVertex(Side.J, point(2) - TWO_ALPHA), cert.vertices[2]),
        cert.element,
        cert.anchor,
    )
    assert any("not adjacent" in p for p in wrong_middle.validate(graph))
    wrong_anchor = CertifiedPath(cert.vertices, cert.element, TWO_ALPHA)
    problems = wrong_anchor.validate(graph)
    assert any("not the anchor" in p for p in problems)
    assert any("not the image" in p for p in problems)
    claimed_shorter = CertifiedPath(cert.vertices, IDENTITY, ZERO)
    assert any("exceeds bound" in p for p in claimed_shorter.validate(graph))
    broken_sides = CertifiedPath(
        (cert.vertices[0], cert.vertices[2], cert.vertices[1]),
        cert.element,
        cert.anchor,
    )
    assert any("alternation" in p for p in broken_sides.validate(graph))
    # the problem lists below are those of the earlier point-based validate
    third = GVertex(Side.J, point(Fraction(1, 3), 2))  # 1/3 + 2*alpha
    off_denominator = CertifiedPath(
        (cert.vertices[0], third, cert.vertices[2]), T, ZERO
    )
    assert off_denominator.validate(graph) == [
        "vertices 0 and 1 are not adjacent",
        "vertices 1 and 2 are not adjacent",
    ]
    # off the anchor's denominator, the last edge is still a true edge
    off_denominator_tail = CertifiedPath(
        off_denominator.vertices[:2] + (GVertex(Side.I, point(Fraction(1, 3))),),
        T,
        ZERO,
    )
    assert off_denominator_tail.validate(graph) == [
        "last vertex is not the image of the anchor",
        "vertices 0 and 1 are not adjacent",
    ]
    same_side = CertifiedPath((cert.vertices[0], cert.vertices[2]), T, ZERO)
    assert same_side.validate(graph) == [
        "vertex 1 breaks I/J alternation",
        "vertices 0 and 1 are not adjacent",
    ]
    outside = CertifiedPath(
        (cert.vertices[0], GVertex(Side.J, point(3)), cert.vertices[2]), T, ZERO
    )
    with pytest.raises(EquigraphError, match="^3 outside J interval$"):
        outside.validate(graph)


def test_validate_builds_one_frame_per_certificate(graph, monkeypatch):
    calls = []
    make_frame = IntervalGraph.frame

    def counted(self, *vertices):
        calls.append(vertices)
        return make_frame(self, *vertices)

    monkeypatch.setattr(IntervalGraph, "frame", counted)
    for g, y in [(T, ZERO), (GroupElement(1, 3, -1), point(Fraction(1, 10)))]:
        cert = build_path(graph, g, y)
        calls.clear()
        assert cert.validate(graph) == []
        assert calls == [cert.vertices]


def test_sweep_small_radius_frozen(graph):
    rep = verify_lemma(graph, 3, 20, seed=0, bfs_budget=16 * 3 + 64)
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
    assert verify_lemma(graph, 4, 20, seed=3, bfs_budget=16 * 4 + 64) == {
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


def test_sweep_bounds_hold_per_element(graph):
    rep = verify_lemma(graph, 4, 30, seed=7, bfs_budget=16 * 4 + 64)
    assert rep["violations"] == []
    for b_str, dist in rep["max_dist_by_b"].items():
        assert dist <= 2 * int(b_str)
    for b_str, length in rep["max_path_len_by_b"].items():
        assert length <= 2 * int(b_str)


def test_sweep_wide_alpha(golden_graph):
    rep = verify_lemma(golden_graph, 2, 10, seed=1, bfs_budget=16 * 2 + 64)
    assert rep["checks"] == 32
    assert rep["violations"] == []
    assert rep["max_dist_by_b"] == {"0": 0, "1": 2}


def test_sweep_without_samples_still_checks_thresholds(graph):
    rep = verify_lemma(graph, 1, 0, seed=0, bfs_budget=16 * 1 + 64)
    assert rep["samples"] == 0
    assert rep["checks"] == 18
    assert rep["elements_checked"] == 4
    assert rep["violations"] == []
