"""Independent reference implementations used to freeze expected values.

Nothing here imports the package's group or algebra logic: group elements
are fingerprinted by their images of two rational points under hand-written
per-generator rules, interval membership is decided with 60-digit Decimal
arithmetic (exact equality detected on the rational/irrational parts first),
signs are also decided in plain Fraction arithmetic, the facing-pair
set is recomputed by a literal all-pairs ray walk, and random matchings
are drawn through Random.randrange and Random.randint.
"""

from __future__ import annotations

import random
from decimal import Decimal, getcontext
from fractions import Fraction

getcontext().prec = 60

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
# facing-pair oracle


def facing_pairs_bruteforce(m) -> set[tuple[int, int]]:
    """All members of facing pairs by a literal all-pairs ray walk.

    m is a package KMatching; only its partner() accessor is used.  For
    every ordered pair of even coordinates in (a margin around) the
    window, the two rays are walked step by step and mutual containment
    is tested literally.
    """
    members: set[tuple[int, int]] = set()
    for pid in m.path_ids:
        lo, hi = m.windows[pid]
        if lo > hi:
            continue
        span = hi - lo + 8
        evens = [c for c in range(lo - 4, hi + 5) if c % 2 == 0]

        def ray_contains(start: int, target: int) -> bool:
            direction = 1 if m.partner(pid, start) > start else -1
            coord = start
            for _ in range(span + 4):
                if coord == target:
                    return True
                coord += direction
            return False

        for x in evens:
            for y in evens:
                if x == y or abs(x - y) != 2:
                    continue
                if ray_contains(x, y) and ray_contains(y, x):
                    members.add((pid, x))
                    members.add((pid, y))
    return members


# ----------------------------------------------------------------------
# random matching oracle


def random_deviations(window: int, k: int, seed: int) -> dict[int, int]:
    """The deviations of random_kmatching(window, k, seed) on path 0.

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
