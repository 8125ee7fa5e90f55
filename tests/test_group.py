from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equigraph.algebra import ONE, ZERO, AlgebraicPoint, point
from equigraph.errors import EquigraphError
from equigraph.group import (
    GENERATOR_ELEMENTS,
    IDENTITY,
    Generator,
    GroupElement,
    apply,
    compose,
    enumerate_ball,
    inverse,
)

from oracles import ball_fingerprints, ball_sizes, element_fingerprint


def word_to_element(word):
    """Collapse a word, first generator applied first.

    apply(word_to_element(w), x) equals applying w's generators to x in
    sequence, so word_to_element([T, R2]) is compose(R2's map, T's map).
    """
    acc = IDENTITY
    for gen in word:
        acc = compose(GENERATOR_ELEMENTS[gen], acc)
    return acc


def is_member(a, u, v):
    """Whether x -> a*x + u + v*alpha belongs to the generated group.

    True iff u and v are both even integers; the element is then
    (a, v/2, u/2).  In particular translation by alpha itself (u=0, v=1)
    is excluded.
    """
    if a not in (1, -1):
        raise EquigraphError(f"a must be +1 or -1, got {a}")
    u = Fraction(u)
    v = Fraction(v)
    return (
        u.denominator == 1
        and v.denominator == 1
        and u.numerator % 2 == 0
        and v.numerator % 2 == 0
    )


# frozen from the word-enumeration oracle (two-point image fingerprints)
BALL_SIZES_0_TO_8 = [1, 4, 11, 23, 39, 59, 83, 111, 143]

elements = st.builds(
    GroupElement,
    st.sampled_from([1, -1]),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)
sample_points = st.builds(
    AlgebraicPoint,
    st.fractions(min_value=-2, max_value=2, max_denominator=50),
    st.fractions(min_value=-2, max_value=2, max_denominator=50),
)


def normal_form_from_images(
    x0: AlgebraicPoint, fx0: AlgebraicPoint, x1: AlgebraicPoint, fx1: AlgebraicPoint
) -> GroupElement:
    """Recover (a, b, c) from the images of two distinct points."""
    du = fx1.u - fx0.u
    dv = fx1.v - fx0.v
    span_u = x1.u - x0.u
    span_v = x1.v - x0.v
    if (span_u, span_v) == (0, 0):
        raise ValueError("sample points must be distinct")
    # a is the ratio of differences; both coordinates must agree.
    if span_u != 0:
        a = du / span_u
    else:
        a = dv / span_v
    if du != a * span_u or dv != a * span_v or a not in (1, -1):
        raise ValueError("images are not consistent with any group element")
    shift_u = fx0.u - a * x0.u
    shift_v = fx0.v - a * x0.v
    if shift_u.denominator != 1 or shift_v.denominator != 1:
        raise ValueError("shift is not integral")
    if shift_u.numerator % 2 or shift_v.numerator % 2:
        raise ValueError("shift is not even")
    return GroupElement(int(a), shift_v.numerator // 2, shift_u.numerator // 2)


def _fingerprint(g: GroupElement):
    return element_fingerprint(
        lambda u, v: ((lambda img: (img.u, img.v))(apply(g, AlgebraicPoint(u, v))))
    )


def test_generator_normal_forms():
    assert GENERATOR_ELEMENTS[Generator.ID] == GroupElement(1, 0, 0) == IDENTITY
    assert GENERATOR_ELEMENTS[Generator.T] == GroupElement(1, 1, 0)
    assert GENERATOR_ELEMENTS[Generator.R2] == GroupElement(-1, 0, 1)
    assert GENERATOR_ELEMENTS[Generator.R2A] == GroupElement(-1, 1, 0)


def test_generator_actions():
    y = point(Fraction(1, 3))
    assert apply(GENERATOR_ELEMENTS[Generator.ID], y) == y
    assert apply(GENERATOR_ELEMENTS[Generator.T], y) == y + point(0, 2)
    assert apply(GENERATOR_ELEMENTS[Generator.R2], y) == point(2) - y
    assert apply(GENERATOR_ELEMENTS[Generator.R2A], y) == point(0, 2) - y


def test_word_first_element_applied_first():
    # applying T then R2 sends y to 2 - (y + 2a) = -y + 2a*(-1) + 2*1
    el = word_to_element([Generator.T, Generator.R2])
    assert el == GroupElement(-1, -1, 1)
    for y in (ZERO, ONE, point(Fraction(2, 7))):
        step1 = apply(GENERATOR_ELEMENTS[Generator.T], y)
        step2 = apply(GENERATOR_ELEMENTS[Generator.R2], step1)
        assert apply(el, y) == step2
    assert word_to_element([]) == IDENTITY
    assert word_to_element([Generator.T]) == GENERATOR_ELEMENTS[Generator.T]


def test_ball_sizes_frozen_and_oracle_checked():
    got = [len(enumerate_ball(radius)) for radius in range(9)]
    assert got == BALL_SIZES_0_TO_8
    assert ball_sizes(8) == BALL_SIZES_0_TO_8


def test_ball_contents_match_oracle():
    for radius in (1, 2, 3):
        package = {_fingerprint(g) for g in enumerate_ball(radius)}
        assert package == ball_fingerprints(radius)


def test_ball_one_is_generators():
    assert enumerate_ball(1) == set(GENERATOR_ELEMENTS.values())
    assert enumerate_ball(0) == {IDENTITY}


def test_ball_not_inverse_closed_but_eventually():
    # generator words are not symmetric: T's inverse needs length 3
    ball2 = enumerate_ball(2)
    assert inverse(GENERATOR_ELEMENTS[Generator.T]) not in ball2
    ball6 = enumerate_ball(6)
    assert {inverse(g) for g in ball2} <= ball6
    # the witness identity: T^-1 = R2a . T . R2a
    assert (
        word_to_element([Generator.R2A, Generator.T, Generator.R2A])
        == inverse(GENERATOR_ELEMENTS[Generator.T])
    )


def test_preconditions_raise_equigraph_error():
    with pytest.raises(EquigraphError, match="a must be \\+1 or -1, got 2"):
        GroupElement(2, 0, 0)
    with pytest.raises(EquigraphError, match="radius must be nonnegative, got -1"):
        enumerate_ball(-1)
    with pytest.raises(EquigraphError, match="a must be \\+1 or -1, got 0"):
        is_member(0, Fraction(0), Fraction(0))


def test_namedtuple_builders_keep_the_check():
    # _replace builds through _make, which a plain NamedTuple leaves unchecked
    with pytest.raises(EquigraphError, match="a must be \\+1 or -1, got 2"):
        GroupElement(1, 0, 0)._replace(a=2)
    with pytest.raises(EquigraphError, match="a must be \\+1 or -1, got 0"):
        GroupElement._make((0, 0, 0))
    assert GroupElement(1, 0, 0)._replace(b=3) == GroupElement(1, 3, 0)
    assert GroupElement._make([-1, 2, 3]) == GroupElement(-1, 2, 3)


def test_element_is_a_tuple_in_field_order():
    g = GroupElement(-1, 2, 3)
    assert tuple(g) == (-1, 2, 3)
    assert repr(g) == "GroupElement(a=-1, b=2, c=3)"
    ball = enumerate_ball(8)
    assert sorted(ball) == sorted(ball, key=lambda g: (g.a, g.b, g.c))
    # tuple's hash, equality and order run in C; a Python-level one would
    # slow every set and dict of elements without failing anything else
    assert type(g).__hash__ is tuple.__hash__
    assert type(g).__eq__ is tuple.__eq__
    assert type(g).__lt__ is tuple.__lt__


def test_ball_radius_cap():
    with pytest.raises(EquigraphError, match="radius 11 exceeds maximum 10"):
        enumerate_ball(11)
    assert len(enumerate_ball(10)) > len(enumerate_ball(9))


@settings(max_examples=150)
@given(elements, elements, sample_points)
def test_compose_is_apply_after(g, h, x):
    assert apply(compose(g, h), x) == apply(g, apply(h, x))


@settings(max_examples=150)
@given(elements, elements, elements)
def test_compose_associative(f, g, h):
    assert compose(f, compose(g, h)) == compose(compose(f, g), h)


@settings(max_examples=150)
@given(elements, sample_points)
def test_inverse_cancels(g, x):
    assert compose(g, inverse(g)) == IDENTITY
    assert compose(inverse(g), g) == IDENTITY
    assert apply(inverse(g), apply(g, x)) == x


@settings(max_examples=150)
@given(elements)
def test_normal_form_recovered_from_images(g):
    recovered = normal_form_from_images(ZERO, apply(g, ZERO), ONE, apply(g, ONE))
    assert recovered == g


def test_membership_is_even_shift_lattice():
    for g in enumerate_ball(5):
        shift = apply(g, ZERO)
        assert is_member(g.a, shift.u, shift.v)
    assert not is_member(1, Fraction(1), Fraction(0))  # odd rational shift
    assert not is_member(1, Fraction(0), Fraction(1))  # odd alpha shift
    assert not is_member(-1, Fraction(1, 2), Fraction(2))  # non-integer
    assert is_member(-1, Fraction(4), Fraction(-2))


def test_membership_against_ball_10():
    # every normal form with small even shifts appears in a large ball
    ball10 = enumerate_ball(10)
    in_ball = {(g.a, 2 * g.c, 2 * g.b) for g in ball10}
    for a in (1, -1):
        for b in (-1, 0, 1):
            for c in (-1, 0, 1):
                assert is_member(a, Fraction(2 * c), Fraction(2 * b))
                if abs(b) + abs(c) <= 1:
                    assert (a, 2 * c, 2 * b) in in_ball
