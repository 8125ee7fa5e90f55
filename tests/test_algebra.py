from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equigraph import algebra
from equigraph.algebra import (
    AlgebraicPoint,
    AlgebraicPoint as point,
    AlphaContext,
    AlphaSpec,
)
from equigraph.errors import EquigraphError

from conftest import ALL_ALPHAS, KERNEL_ALPHAS
from oracles import (
    ALPHA,
    ONE,
    ZERO,
    alpha_decimal,
    in_closed,
    in_interval,
    point_decimal,
    sign,
    sign_fraction,
    to_float,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=100
)
points = st.builds(AlgebraicPoint, rationals, rationals)


def test_named_alphas_validate():
    for spec in KERNEL_ALPHAS:
        ctx = AlphaContext(spec)
        assert sign(ctx, ALPHA) == 1
        assert sign(ctx, ALPHA - ONE) < 0
    ctx = AlphaContext(AlphaSpec(-1, 1, 2, 1))
    assert repr(ctx) == "AlphaContext((-1+1*sqrt(2))/1)"


def test_bad_specs_rejected(monkeypatch):
    with pytest.raises(EquigraphError, match="non-square"):
        AlphaContext(AlphaSpec(-1, 1, 4, 1))  # d square
    with pytest.raises(EquigraphError, match="rational"):
        AlphaContext(AlphaSpec(-1, 0, 2, 1))  # q = 0
    with pytest.raises(EquigraphError, match="r must be positive"):
        AlphaContext(AlphaSpec(-1, 1, 2, 0))  # r = 0
    with pytest.raises(EquigraphError, match=r"not in \(0, 1\)"):
        AlphaContext(AlphaSpec(1, 1, 2, 1))  # 1 + sqrt(2) > 1
    with pytest.raises(EquigraphError, match=r"not in \(0, 1\)"):
        AlphaContext(AlphaSpec(1, -1, 2, 1))  # 1 - sqrt(2) < 0
    # a root off by 2**64 puts scaled off by about 2**64: the bound catches it
    isqrt = algebra.isqrt
    monkeypatch.setattr(algebra, "isqrt", lambda n: isqrt(n) + (1 << 64))
    with pytest.raises(EquigraphError, match=r"misses alpha\*2\*\*64 by 1$"):
        AlphaContext(AlphaSpec(-1, 1, 2, 1))


@pytest.mark.parametrize(
    "spec",
    KERNEL_ALPHAS
    + (
        AlphaSpec(-(10**400), 10**400, 2, 10**400),  # sqrt(2) - 1 again
        AlphaSpec(-(10**300), 1, 10**600 + 1, 1),  # about 5e-301
        AlphaSpec(1 + 10**300, -1, 10**600 + 1, 1),  # 1 minus about 5e-301
    ),
)
def test_approx_lies_within_2_to_the_minus_48_of_alpha(spec):
    # checked in plain Fraction arithmetic, whatever the coefficients: alpha
    # lies strictly inside approx -+ 2**-48, approx the float scaled / 2**64
    # that the figure draws with, and, the frame filter's premise,
    # alpha*2**64 strictly inside scaled -+ 1
    ctx = AlphaContext(spec)
    approx, half = Fraction(ctx.scaled / 2**64), Fraction(1, 2**48)
    scaled = [Fraction(ctx.scaled + k, 2**64) for k in (-1, 1)]
    for end, above in ((approx - half, 1), (approx + half, -1), *zip(scaled, (1, -1))):
        assert sign_fraction(spec.p, spec.q, spec.d, spec.r, -end, Fraction(1)) == above


def test_point_arithmetic():
    x = point(Fraction(1, 2), 3)
    y = point(Fraction(1, 3), -1)
    assert x + y == point(Fraction(5, 6), 2)
    assert x - y == point(Fraction(1, 6), 4)
    assert point(1) + point(0, 2) == AlgebraicPoint(Fraction(1), Fraction(2))


def test_str_forms():
    assert str(point(0)) == "0"
    assert str(ALPHA) == "a"
    assert str(point(0, -1)) == "-a"
    assert str(point(0, 2)) == "2a"
    assert str(point(1, -1)) == "1-a"
    assert str(point(Fraction(1, 2), 2)) == "1/2+2a"


def test_known_comparisons(ctx):
    two_alpha = point(0, 2)
    assert sign(ctx, two_alpha - ONE) < 0  # 2(sqrt(2)-1) < 1
    assert sign(ctx, ONE - two_alpha - ALPHA) < 0
    assert sign(ctx, ALPHA - ALPHA) == 0
    assert sign(ctx, ALPHA - ONE) == -1
    golden = AlphaContext(AlphaSpec(-1, 1, 5, 2))
    assert sign(golden, ONE - point(0, 2)) < 0  # 2a > 1 for a above 1/2


def test_pell_convergent_needs_exact_sign(ctx):
    # 665857/470832 is a Pell convergent: its square minus 2 times the
    # denominator squared is 1, so it exceeds sqrt(2) by about 1e-12 --
    # far below float discrimination at this magnitude.
    p, q = 665857, 470832
    assert p * p - 2 * q * q == 1
    near = point(Fraction(p, q) - 1)  # approximates alpha = sqrt(2)-1
    assert sign(ctx, near - ALPHA) == 1
    assert sign(ctx, point(-Fraction(p, q) + 1) - point(0, -1)) == -1
    assert abs(to_float(ctx, near - ALPHA)) < 1e-11


def test_in_interval_endpoints(ctx):
    assert in_interval(ctx, ZERO, ZERO, ONE)
    assert in_interval(ctx, ONE, ZERO, ONE)
    assert in_interval(ctx, ALPHA, ZERO, ONE)
    assert not in_interval(ctx, point(2), ZERO, ONE)
    assert not in_interval(ctx, point(0, -1), ZERO, ONE)
    assert in_interval(ctx, ALPHA, ALPHA, ONE + ALPHA)
    assert in_interval(ctx, ONE + ALPHA, ALPHA, ONE + ALPHA)
    assert not in_interval(ctx, ZERO, ALPHA, ONE + ALPHA)
    # reversed bounds hold nothing, not even the bounds themselves
    assert not in_interval(ctx, ZERO, ONE, ZERO)
    assert not in_interval(ctx, ONE, ONE, ZERO)


@settings(max_examples=200)
@given(
    points,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-50, max_value=50),
)
def test_in_interval_matches_closed_oracle(x, v, nudge):
    # both side intervals for every alpha, each probed at a random point,
    # at its exact endpoints, and at points u + v*alpha within 1e-12 of them
    for spec in KERNEL_ALPHAS:
        ctx = AlphaContext(spec)
        alpha = alpha_decimal(spec.p, spec.q, spec.d, spec.r)
        for shift in (0, 1):
            lo, hi = point(0, shift), point(1, shift)
            probes = [x]
            for end in (0, 1):
                u = Fraction(end + (shift - v) * alpha).limit_denominator(10**13)
                near = point(u + Fraction(nudge, 10**14), v)
                gap = point_decimal(alpha, near.u, near.v) - (end + shift * alpha)
                assert abs(gap) < Decimal("1e-12")
                probes += [point(end, shift), near]
            for y in probes:
                want = in_closed(alpha, (y.u, y.v), (lo.u, lo.v), (hi.u, hi.v))
                assert in_interval(ctx, y, lo, hi) == want


def test_point_hash_matches_equality():
    a = point(Fraction(2, 4), Fraction(3, 9))
    b = point(Fraction(1, 2), Fraction(1, 3))
    assert a == b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a"
    assert a != point(Fraction(1, 2), Fraction(1, 4))


@settings(max_examples=200)
@given(points, points)
def test_compare_antisymmetric(x, y):
    ctx = AlphaContext(AlphaSpec(-1, 1, 2, 1))
    assert sign(ctx, x - y) == -sign(ctx, y - x)
    if x == y:
        assert sign(ctx, x - y) == 0
    else:
        assert sign(ctx, x - y) != 0  # alpha irrational: no other ties


@settings(max_examples=200)
@given(points, points, points)
def test_compare_transitive(x, y, z):
    ctx = AlphaContext(AlphaSpec(-1, 1, 2, 1))
    if sign(ctx, x - y) <= 0 and sign(ctx, y - z) <= 0:
        assert sign(ctx, x - z) <= 0


@settings(max_examples=200)
@given(points, points)
def test_sign_agrees_with_decimal_oracle(x, y):
    for spec in ALL_ALPHAS:
        ctx = AlphaContext(spec)
        diff = x - y
        alpha = alpha_decimal(spec.p, spec.q, spec.d, spec.r)
        oracle_val = point_decimal(alpha, diff.u, diff.v)
        if diff == ZERO:
            assert sign(ctx, diff) == 0
        else:
            assert sign(ctx, diff) == (1 if oracle_val > 0 else -1)


@settings(max_examples=100)
@given(points, points)
def test_arithmetic_matches_float(x, y):
    ctx = AlphaContext(AlphaSpec(-1, 1, 2, 1))
    assert to_float(ctx, x + y) == pytest.approx(
        to_float(ctx, x) + to_float(ctx, y), abs=1e-9
    )
    assert to_float(ctx, x - y) == pytest.approx(
        to_float(ctx, x) - to_float(ctx, y), abs=1e-9
    )


def _reference_sign(spec: AlphaSpec, u: Fraction, v: Fraction) -> int:
    return sign_fraction(spec.p, spec.q, spec.d, spec.r, u, v)


@settings(max_examples=300)
@given(points, points)
def test_integer_sign_and_compare_match_fraction_reference(x, y):
    for spec in KERNEL_ALPHAS:
        ctx = AlphaContext(spec)
        assert sign(ctx, x) == _reference_sign(spec, x.u, x.v)
        assert sign(ctx, x - y) == _reference_sign(spec, x.u - y.u, x.v - y.v)


@settings(max_examples=300)
@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(KERNEL_ALPHAS),
)
def test_integer_sign_on_near_ties(k, m, nudge, spec):
    # a rational within 1e-12 of k*alpha + m, compared with that point
    ctx = AlphaContext(spec)
    alpha = alpha_decimal(spec.p, spec.q, spec.d, spec.r)
    near = Fraction(k * alpha + m).limit_denominator(10**13) + Fraction(nudge, 10**14)
    target = point(m, k)
    diff_u, diff_v = near - m, Fraction(-k)
    assert abs(point_decimal(alpha, diff_u, diff_v)) < Decimal("1e-12")
    want = _reference_sign(spec, diff_u, diff_v)
    assert sign(ctx, point(near) - target) == want
    assert sign(ctx, target - point(near)) == -want
    assert sign(ctx, AlgebraicPoint(diff_u, diff_v)) == want
    if want != 0:
        assert want == (1 if point_decimal(alpha, diff_u, diff_v) > 0 else -1)
