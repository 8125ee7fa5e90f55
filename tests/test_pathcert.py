import math
from fractions import Fraction

import pytest

from equigraph.algebra import ALPHA, ONE, ZERO, point
from equigraph.errors import PreconditionViolatedError
from equigraph.graph import GVertex, Side
from equigraph.group import GroupElement, IDENTITY, element_of, Generator, apply
from equigraph.pathcert import CertifiedPath, build_path, verify_lemma

TWO_ALPHA = ALPHA.scale(2)
T = element_of(Generator.T)


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
    with pytest.raises(PreconditionViolatedError):
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


def test_anchor_preconditions(graph):
    with pytest.raises(PreconditionViolatedError):
        build_path(graph, T, point(2))
    with pytest.raises(PreconditionViolatedError):
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


def test_sweep_small_radius_frozen(graph):
    rep = verify_lemma(graph, 3, 20, seed=0)
    assert rep["ball_size"] == 23
    assert rep["elements_checked"] == 11
    assert rep["checks"] == 134
    assert rep["violations"] == []
    assert rep["max_dist_by_b"] == {"0": 0, "1": 2, "2": 4}
    assert rep["max_path_len_by_b"] == {"0": 0, "1": 2, "2": 4}


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
