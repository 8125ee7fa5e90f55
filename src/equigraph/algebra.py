"""Exact arithmetic for numbers of the form u + v*alpha.

alpha is a fixed quadratic irrational (p + q*sqrt(d)) / r in (0, 1).
Every sign the package decides is AlphaContext.sign_scaled's, on an
integer form u + v*alpha.  scaled, an integer within an exactly checked 1
of alpha*2**64, filters in front of it (graph.Frame); the module holds no
float.  AlgebraicPoint is the edge where values enter and leave; no
decision path does arithmetic on it.  The point-level sign and interval
test are references in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import EquigraphError


class AlphaSpec(NamedTuple):
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
    """Exact value u + v*alpha; u and v are coerced to Fractions, v defaults to 0.

    Because alpha is irrational, two points are equal iff their (u, v)
    pairs are equal, so dataclass equality and hashing are sound and need
    no comparison context.
    """

    u: Fraction
    v: Fraction = Fraction(0)

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


class AlphaContext:
    """Comparison context for a validated alpha.

    The constructor checks irrationality and the open-interval bound
    0 < alpha < 1 exactly, raising EquigraphError on a bad spec.

    scaled is an integer with |alpha*2**64 - scaled| < 1, for Frame's
    filter; the constructor checks that bound exactly, with sign_scaled.
    """

    def __init__(self, spec: AlphaSpec):
        if spec.r <= 0:
            raise EquigraphError(f"r must be positive, got {spec.r}")
        if spec.d <= 0 or isqrt(spec.d) ** 2 == spec.d:
            raise EquigraphError(f"d must be a positive non-square, got {spec.d}")
        if spec.q == 0:
            raise EquigraphError("q = 0 makes alpha rational")
        self.spec = spec
        if self.sign_scaled(0, 1) <= 0 or self.sign_scaled(-1, 1) >= 0:
            raise EquigraphError(
                f"alpha = ({spec.p}+{spec.q}*sqrt({spec.d}))/{spec.r} is not in (0, 1)"
            )
        # (p + q*sqrt(d)) * 2**64 to within 1, by isqrt
        root = isqrt(spec.q * spec.q * spec.d << 128)
        num = (spec.p << 64) + (root if spec.q > 0 else -root)
        self.scaled = num // spec.r
        if self.sign_scaled(-1 - self.scaled, 1 << 64) >= 0 or (
            self.sign_scaled(1 - self.scaled, 1 << 64) <= 0
        ):
            raise EquigraphError(f"scaled {self.scaled} misses alpha*2**64 by 1")

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

    def __repr__(self) -> str:
        s = self.spec
        return f"AlphaContext(({s.p}+{s.q}*sqrt({s.d}))/{s.r})"
