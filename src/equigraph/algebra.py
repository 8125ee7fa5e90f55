"""Exact arithmetic for numbers of the form u + v*alpha.

alpha is a fixed quadratic irrational (p + q*sqrt(d)) / r in (0, 1).
Every quantity the rest of the package compares or hashes is kept as a
pair of rationals (u, v); no decision anywhere is made in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import EquigraphError

RationalLike = Union[int, str, Fraction]


@dataclass(frozen=True)
class AlphaSpec:
    """alpha = (p + q*sqrt(d)) / r.

    d must be a positive non-square integer and q nonzero, so that alpha
    is irrational; r must be positive.
    """

    p: int
    q: int
    d: int
    r: int


@dataclass(frozen=True)
class AlgebraicPoint:
    """Exact value u + v*alpha with rational u, v.

    Because alpha is irrational, two points are equal iff their (u, v)
    pairs are equal, so dataclass equality and hashing are sound and need
    no comparison context.
    """

    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        if type(self.u) is not Fraction:
            object.__setattr__(self, "u", Fraction(self.u))
        if type(self.v) is not Fraction:
            object.__setattr__(self, "v", Fraction(self.v))

    def __add__(self, other: "AlgebraicPoint") -> "AlgebraicPoint":
        return AlgebraicPoint(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "AlgebraicPoint") -> "AlgebraicPoint":
        return AlgebraicPoint(self.u - other.u, self.v - other.v)

    def __str__(self) -> str:
        if self.v == 0:
            return str(self.u)
        if self.v == 1:
            head = "a"
        elif self.v == -1:
            head = "-a"
        else:
            head = f"{self.v}a"
        if self.u == 0:
            return head
        sign = "+" if self.v > 0 else "-"
        mag = abs(self.v)
        tail = "a" if mag == 1 else f"{mag}a"
        return f"{self.u}{sign}{tail}"


def point(u: RationalLike, v: RationalLike = 0) -> AlgebraicPoint:
    """Convenience constructor coercing ints/strings to Fractions."""
    return AlgebraicPoint(Fraction(u), Fraction(v))


ZERO = point(0)
ONE = point(1)
ALPHA = point(0, 1)


class AlphaContext:
    """Comparison context for a validated alpha.

    The constructor checks irrationality and the open-interval bound
    0 < alpha < 1 exactly, raising EquigraphError on a bad spec.
    """

    def __init__(self, spec: AlphaSpec):
        if spec.r <= 0:
            raise EquigraphError(f"r must be positive, got {spec.r}")
        if spec.d <= 0 or isqrt(spec.d) ** 2 == spec.d:
            raise EquigraphError(f"d must be a positive non-square, got {spec.d}")
        if spec.q == 0:
            raise EquigraphError("q = 0 makes alpha rational")
        self.spec = spec
        if self.sign(ALPHA) <= 0 or self.sign(ALPHA - ONE) >= 0:
            raise EquigraphError(
                f"alpha = ({spec.p}+{spec.q}*sqrt({spec.d}))/{spec.r} is not in (0, 1)"
            )

    def sign_scaled(self, u: int, v: int) -> int:
        """Exact sign of u + v*alpha for integers u, v.

        r*(u + v*alpha) = s + t*sqrt(d) with s = r*u + p*v and t = q*v;
        when s and t differ in sign, s*s against t*t*d decides, and it
        cannot tie because d is not a square.
        """
        spec = self.spec
        t = spec.q * v
        s = spec.r * u + spec.p * v
        if t == 0:
            return (s > 0) - (s < 0)
        if s == 0 or (s > 0) == (t > 0):
            return 1 if t > 0 else -1
        return 1 if (s * s > t * t * spec.d) == (s > 0) else -1

    def sign(self, x: AlgebraicPoint) -> int:
        """Exact sign of u + v*alpha, one of -1, 0, 1."""
        u, v = x.u, x.v
        return self.sign_scaled(
            u.numerator * v.denominator, v.numerator * u.denominator
        )

    def compare(self, x: AlgebraicPoint, y: AlgebraicPoint) -> int:
        """Sign of x - y: -1, 0 or 1; total order, exact."""
        xu, xv, yu, yv = x.u, x.v, y.u, y.v
        du = xu.denominator * yu.denominator
        dv = xv.denominator * yv.denominator
        # x - y = (nu/du) + (nv/dv)*alpha; scale both parts by du*dv > 0
        nu = xu.numerator * yu.denominator - yu.numerator * xu.denominator
        nv = xv.numerator * yv.denominator - yv.numerator * xv.denominator
        return self.sign_scaled(nu * dv, nv * du)

    def in_interval(
        self, x: AlgebraicPoint, lo: AlgebraicPoint, hi: AlgebraicPoint
    ) -> bool:
        """Exact membership of x in [lo, hi]; empty when lo > hi."""
        return self.compare(lo, x) <= 0 and self.compare(x, hi) <= 0

    def to_float(self, x: AlgebraicPoint) -> float:
        """Approximate value, for display and sanity cross-checks only."""
        root = self.spec.d ** 0.5
        alpha = (self.spec.p + self.spec.q * root) / self.spec.r
        return float(x.u) + float(x.v) * alpha

    def __repr__(self) -> str:
        s = self.spec
        return f"AlphaContext(({s.p}+{s.q}*sqrt({s.d}))/{s.r})"
