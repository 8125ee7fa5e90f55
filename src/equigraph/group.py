"""Normal forms for the group generated by the four interval isometries.

Every word in the generators
    Id : x -> x          T   : x -> x + 2*alpha
    R2 : x -> 2 - x      R2a : x -> 2*alpha - x
collapses to a map x -> a*x + 2*alpha*b + 2*c with a in {+1, -1} and
integer b, c, and distinct triples are distinct maps.  All group
operations below work purely on (a, b, c).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .errors import EquigraphError

MAX_BALL_RADIUS = 10


class Generator(Enum):
    ID = "Id"
    T = "T"
    R2 = "R2"
    R2A = "R2a"


class _Triple(NamedTuple):
    a: int
    b: int
    c: int


class GroupElement(_Triple):
    """The isometry x -> a*x + 2*alpha*b + 2*c in normal form.

    A validated int triple (a, b, c): equality, hashing and order are the
    tuple's, which run in C.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> GroupElement:
        return cls._make((a, b, c))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> GroupElement:
        """Every element is built here, by the constructor and by _replace."""
        g = tuple.__new__(cls, iterable)
        if len(g) != 3:
            raise TypeError(f"expected 3 arguments, got {len(g)}")
        if g[0] not in (1, -1):
            raise EquigraphError(f"a must be +1 or -1, got {g[0]}")
        return g


IDENTITY = GroupElement(1, 0, 0)

GENERATOR_ELEMENTS: dict[Generator, GroupElement] = {
    Generator.ID: IDENTITY,
    Generator.T: GroupElement(1, 1, 0),
    Generator.R2: GroupElement(-1, 0, 1),
    Generator.R2A: GroupElement(-1, 1, 0),
}


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """g after h: the map x -> g(h(x))."""
    return GroupElement(g.a * h.a, g.a * h.b + g.b, g.a * h.c + g.c)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.a, -g.a * g.b, -g.a * g.c)


def enumerate_ball(radius: int) -> set[GroupElement]:
    """All elements expressible as words of length <= radius.

    Breadth-first over words with normal-form dedup, so membership is
    faithful to word length over the four generators.  Every returned
    element satisfies |b| <= radius and |c| <= radius.
    """
    if radius < 0:
        raise EquigraphError(f"radius must be nonnegative, got {radius}")
    if radius > MAX_BALL_RADIUS:
        raise EquigraphError(f"radius {radius} exceeds maximum {MAX_BALL_RADIUS}")
    seen: set[GroupElement] = {IDENTITY}
    frontier: set[GroupElement] = {IDENTITY}
    for _ in range(radius):
        nxt: set[GroupElement] = set()
        for g in frontier:
            for gen_el in GENERATOR_ELEMENTS.values():
                h = compose(gen_el, g)
                if h not in seen:
                    seen.add(h)
                    nxt.add(h)
        frontier = nxt
    return seen
