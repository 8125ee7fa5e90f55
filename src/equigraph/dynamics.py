"""Matching-improvement dynamics on one integer-coordinate path.

The discrete stand-in for a bi-infinite path component: vertices are
the integers, A-vertices at even coords, B-vertices at odd coords.  A
KMatching matches each A-vertex to a B-vertex at odd distance at most
K and is standard (a -> a+1) outside a finite window.  One improvement
round rewires every facing pair at once; each round lowers the total
cost by at least the number of vertices involved, which bounds both the
iteration count and the lifetime sum of rewired sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, NoReturn, Sequence

from .errors import CLAIM1_VIOLATION, EquigraphError, Finding
from .graph import ComponentView, chain_element
from .group import GroupElement


class KMatching:
    """Eventually-standard matching on one path with displacement bound K.

    Stored sparsely as one dict: a window (lo, hi) with lo even and hi
    odd, and only the pairs that differ from standard.  run_dynamics
    runs its rounds in one pass each on a displacement list over
    [lo - 2, max + 2], lo the canonical window's left end and max the
    rightmost deviation, and reads its result back into this form;
    improve() and _rewire keep the dict form as the independent replay
    reference.
    """

    def __init__(self, k: int, window: tuple[int, int], deviations: Mapping[int, int]):
        if k <= 0 or k % 2 == 0:
            raise EquigraphError(f"K must be an odd positive integer, got {k}")
        self.k = k
        self.window = (int(window[0]), int(window[1]))
        self.deviations: dict[int, int] = dict(sorted(deviations.items()))

    # ------------------------------------------------------------------

    @property
    def is_standard(self) -> bool:
        return not self.deviations

    def validate(self) -> None:
        """Raise EquigraphError on any structural defect."""
        dev, k = self.deviations, self.k
        lo, hi = self.window
        if dev and not (lo % 2 == 0 and hi % 2 == 1 and lo < hi):
            raise EquigraphError(f"window ({lo}, {hi}) not canonical")
        for a, t in dev.items():
            if a % 2 != 0 or t % 2 != 1:
                raise EquigraphError(f"pair {a}->{t} breaks parity")
            if t == a + 1:
                raise EquigraphError(f"standard pair {a} stored")
            if not (lo <= a <= hi and lo <= t <= hi):
                raise EquigraphError(f"pair {a}->{t} leaves window")
            if abs(a - t) > k:
                raise EquigraphError(f"pair {a}->{t} exceeds K={k}")
        targets = set(dev.values())
        if len(targets) != len(dev):
            raise EquigraphError("matching is not injective")
        # The displaced standard partners must be exactly the targets,
        # otherwise some window B-vertex is unmatched or doubly matched.
        if targets != {a + 1 for a in dev}:
            raise EquigraphError("window bijection broken")

    def cost(self) -> int:
        return sum(abs(a - t) - 1 for a, t in self.deviations.items())

    def __repr__(self) -> str:
        return f"KMatching(k={self.k}, deviations={self.deviations})"


def _canonical_window(
    dev: Mapping[int, int], fallback: tuple[int, int]
) -> tuple[int, int]:
    if not dev:
        return fallback
    lo = min(min(dev), min(dev.values()) - 1)
    hi = max(max(dev) + 1, max(dev.values()))
    return lo, hi


# ----------------------------------------------------------------------
# facing pairs, improvement


def phi_pairs(m: KMatching) -> list[tuple[int, int]]:
    """All facing pairs, as (left, right), in increasing order.

    Two A-vertices at distance 2 face when each lies on the other's ray,
    the half-path from a vertex through its partner.  A facing pair
    (a - 2, a) needs a to point left, t < a, which forces a stored pair
    a -> t, so one pass over the stored deviations is complete; a - 2
    must point right.
    """
    get = m.deviations.get
    return [
        (a - 2, a)
        for a, t in m.deviations.items()
        if t < a and get(a - 2, a - 1) > a - 2
    ]


def _refuse(k: int, x: int, y: int, mx: int, my: int) -> NoReturn:
    """Raise the first check that rewiring the pair (x, y) fails.

    mx and my are the old partners.  In order: an old partner beyond K
    is the input's EquigraphError, in the words of validate(); a new
    partner beyond K and a combined displacement that drops by less than
    2 are Findings; what is left is a parity defect.  Called only once a
    kernel has seen one of these checks fail.
    """
    odx, ody, ndx, ndy = abs(mx - x), abs(my - y), abs(my - x), abs(mx - y)
    if odx > k or ody > k:
        a, t = (x, mx) if odx > k else (y, my)
        raise EquigraphError(f"pair {a}->{t} exceeds K={k}")
    if ndx > k or ndy > k:
        raise Finding(
            CLAIM1_VIOLATION,
            f"rewired pair ({x}, {y}) leaves the K={k} bound",
            witness={"pair": [x, y], "new_dists": [ndx, ndy]},
        )
    if ndx + ndy > odx + ody - 2:
        raise Finding(
            CLAIM1_VIOLATION,
            f"rewiring ({x}, {y}) dropped cost by less than 2",
            witness={"pair": [x, y], "old": [odx, ody], "new": [ndx, ndy]},
        )
    raise EquigraphError(f"pair {x}->{my} or {y}->{mx} breaks parity")


def _rewire(dev: dict[int, int], k: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Swap the partners of every facing pair of one round, in place.

    Returns the round's cost drop.  Before a pair is written, an old
    partner beyond K is raised as the input's EquigraphError, and a new
    partner beyond K or a combined displacement that drops by less than
    2 as a Finding, so a returned drop is at least |S|.  A written entry
    is stored only when it is not standard, and its parity is checked.
    Ends that share a partner keep their displacements, so the drop test
    refuses them; injectivity as a whole is left to validate().
    """
    get, pop = dev.get, dev.pop
    drop = 0
    for x, y in pairs:
        mx = get(x, x + 1)
        my = get(y, y + 1)
        ndx = my - x if my > x else x - my
        ndy = mx - y if mx > y else y - mx
        odx = mx - x if mx > x else x - mx
        ody = my - y if my > y else y - my
        if odx > k or ody > k or ndx > k or ndy > k or ndx + ndy > odx + ody - 2:
            _refuse(k, x, y, mx, my)
        if my == x + 1:
            pop(x, None)
        else:
            dev[x] = my
        if mx == y + 1:
            pop(y, None)
        else:
            dev[y] = mx
        if x % 2 or y % 2 or not (mx % 2 and my % 2):
            _refuse(k, x, y, mx, my)
        drop += odx + ody - ndx - ndy
    return drop


def improve(m: KMatching) -> KMatching:
    """Rewire every facing pair simultaneously.

    For each pair, the two vertices swap partners.  Each rewired pair
    lowers its combined displacement by at least 2 and stays within K;
    both facts are checked and a failure is raised as a Finding.
    """
    pairs = phi_pairs(m)
    if not pairs:
        raise EquigraphError("no facing pairs to rewire")
    dev = dict(m.deviations)
    _rewire(dev, m.k, pairs)
    result = KMatching(m.k, _canonical_window(dev, m.window), dev)
    result.validate()
    drop_needed = 2 * len(pairs)
    if result.cost() > m.cost() - drop_needed:
        raise Finding(
            CLAIM1_VIOLATION,
            "improvement round dropped cost by less than |S|",
            witness={"before": m.cost(), "after": result.cost(), "s": drop_needed},
        )
    return result


@dataclass
class IterationRecord:
    n: int
    s_size: int
    cost: int
    rewired: tuple[tuple[int, int], ...]


@dataclass
class DynamicsTrace:
    initial_cost: int
    records: list[IterationRecord] = field(default_factory=list)
    final_cost: int = 0

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def sum_s(self) -> int:
        return sum(r.s_size for r in self.records)


def _round(
    d: list[int], off: int, k: int, pairs: Sequence[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]]]:
    """Rewire one round's facing pairs on the displacement list d, in one pass.

    d[c - off] is partner(c) - c, so +1 is standard, and d[0] stays
    standard.  Returns the round's cost drop and the next round's facing
    pairs, in increasing order.  A pair (x, x + 2) with displacements dx
    and dy passes every check exactly when 0 < dx <= K, -K <= dy < 0,
    dx - dy > 2, x is even and dx and dy are odd: a drop of 2 or more
    needs the pair to face, and a facing pair with old partners within K
    has new ones within max(K - 2, 1).  Otherwise _refuse names the first
    failed check.  The swap writes dy + 2 and dx - 2.  Then (x - 2, x) is
    re-tested, and (x + 2, x + 4) once the next pair is written, unless
    that pair starts at x + 4 and re-tests it itself.
    """
    drop = 0
    nxt: list[tuple[int, int]] = []
    last = 0  # index of the pending x + 4 re-test; d[0] fails it
    for x, _ in pairs:
        i = x - off
        dx = d[i]
        dy = d[i + 2]
        if not (0 < dx <= k and -k <= dy < 0 and dx - dy > 2 and dx & dy & ~x & 1):
            _refuse(k, x, x + 2, x + dx, x + 2 + dy)
        d[i] = dy + 2
        d[i + 2] = dx - 2
        drop += (dx > 1) + (dy < -1)
        if last != i and d[last] < 0 and d[last - 2] > 0:
            nxt.append((off + last - 2, off + last))
        if d[i] < 0 and d[i - 2] > 0:
            nxt.append((x - 2, x))
        last = i + 4
    if d[last] < 0 and d[last - 2] > 0:
        nxt.append((off + last - 2, off + last))
    return 2 * drop, nxt


def run_dynamics(m: KMatching) -> tuple[KMatching, DynamicsTrace]:
    """Iterate improve() until no facing pairs remain.

    Terminates within cost(M) rounds; a run that reaches that bound with
    facing pairs left raises EquigraphError.

    Each round is one pass of _round over a list of displacements that
    covers [lo - 2, max + 2], for lo the canonical window's left end and
    max the rightmost deviation.  No round reads or writes outside it: a
    new deviation x takes the partner of the deviation x + 2, so none
    appears right of max, and one left of lo would hold a partner that
    only a deviation further left can have given up.  A round costs
    O(|S|): after rewiring (x, x + 2), only (x - 2, x) and (x + 2, x + 4)
    are re-tested, since a pair whose entries did not change cannot start
    facing and the rewired pair cannot face again (that needs x -> x + 1
    and x + 2 -> x + 1, which the drop test refuses).  Each pair is
    checked as it is written: a drop of at least 2, so a round drops by
    at least |S|, new displacements within K, and parity.  The cost moves
    by the exact per-pair drops; after the run it is recounted, and the
    result is read back off the list, built and fully validated,
    injectivity included, once.  improve() and _rewire keep the dict form
    as the independent replay reference, and the result equals that of
    replaying improve(), window and trace included: a run that empties
    the path keeps the input window after one round, and otherwise takes
    (x_first, x_last + 3) of its last round's pairs (x, x + 2), the
    canonical window of the state before that round.
    """
    initial = m.cost()
    trace = DynamicsTrace(initial_cost=initial)
    dev = m.deviations
    off = _canonical_window(dev, m.window)[0] - 2
    d = [1] * (max(dev, default=off) + 3 - off)
    for a, t in dev.items():
        d[a - off] = t - a
    cost = initial
    pairs = phi_pairs(m)
    while pairs:
        n = len(trace.records)
        if n >= initial:
            raise EquigraphError(f"dynamics exceeded {initial} iterations")
        trace.records.append(IterationRecord(n + 1, 2 * len(pairs), cost, tuple(pairs)))
        drop, pairs = _round(d, off, m.k, pairs)
        cost -= drop
    if d.count(1) == len(d):
        dev = {}
    else:
        dev = {c: c + t for c, t in enumerate(d, off) if t != 1}
    window = m.window
    if len(trace.records) > 1 and not dev:
        last = trace.records[-1].rewired
        window = last[0][0], last[-1][0] + 3
    final = KMatching(m.k, window, dev)
    final.validate()
    if final.cost() != cost:
        raise Finding(
            CLAIM1_VIOLATION,
            "tracked cost differs from the final matching's cost",
            witness={"tracked": cost, "final": final.cost()},
        )
    trace.final_cost = cost
    return final, trace


# ----------------------------------------------------------------------
# instance construction


def random_kmatching(window: int, k: int, seed: int) -> KMatching:
    """Seeded K-preserving shuffle of the standard matching.

    window counts the A-vertices allowed to deviate (coords 0..2*window-1).
    Starting from standard, tries one partner transposition per A-vertex,
    keeping only those that respect the K bound.  The shuffle runs on a
    partner list, partner[i] the B-vertex of A-vertex 2*i, so a kept
    transposition is one swap; the deviations are read off it at the end.
    The random stream is that of Random.randrange and Random.randint, which
    tests/oracles.py's random_deviations pins.
    """
    if k <= 0 or k % 2 == 0:
        raise EquigraphError(f"K must be an odd positive integer, got {k}")
    if window < k:
        raise EquigraphError(f"window {window} smaller than K={k}")
    getrandbits = random.Random(seed).getrandbits
    half = (k + 1) // 2
    wbits, hbits = window.bit_length(), half.bit_length()
    partner = list(range(1, 2 * window, 2))
    # Each loop is Random.randrange(n) without its argument checks, so the
    # stream is the same: n.bit_length() random bits, redrawn while >= n.
    for _ in range(window):
        i = getrandbits(wbits)
        while i >= window:
            i = getrandbits(wbits)
        delta = getrandbits(hbits)  # rng.randint(1, half) - 1
        while delta >= half:
            delta = getrandbits(hbits)
        coin = getrandbits(2)  # rng.randrange(2)
        while coin >= 2:
            coin = getrandbits(2)
        j = i + delta + 1 if coin else i - delta - 1
        if not 0 <= j < window:
            continue
        p1, p2 = partner[i], partner[j]
        if abs(2 * i - p2) > k or abs(2 * j - p1) > k:
            continue
        partner[i], partner[j] = p2, p1
    dev = {2 * i: t for i, t in enumerate(partner) if t != 2 * i + 1}
    result = KMatching(k, _canonical_window(dev, (0, -1)), dev)
    result.validate()
    return result


def bridge_k_bound(max_abs_b: int) -> int:
    """Displacement budget for pieces moved by elements with |b| <= max_abs_b.

    The I-to-I distance bound contributes 2|b|; one more edge reaches the
    J side.
    """
    if max_abs_b < 0:
        raise EquigraphError(f"|b| bound must be nonnegative, got {max_abs_b}")
    return 2 * max_abs_b + 1


def kmatching_from_assignment(
    view: ComponentView,
    assignment: Sequence[tuple[int, int, GroupElement]],
) -> KMatching:
    """Turn isometry piece assignments on an explored component into a matching.

    The view's visited chain provides coordinates on the path with the
    origin at 0, so I-vertices sit at even coordinates.  Each assignment
    entry (lo, hi, g) matches every I-vertex y at an even coordinate in
    [lo, hi] to the J-vertex holding g(y); uncovered coordinates stay
    standard.  The result's K is bridge_k_bound(max |b| over the pieces).
    """
    keys, frame, origin = view.visited.keys, view.visited.frame, view.origin_index
    if keys[origin][0] != 0:
        raise EquigraphError("assignment views must originate at an I-vertex")
    key_at = {idx - origin: key[1:] for idx, key in enumerate(keys)}
    j_coord = {uv: coord for coord, uv in key_at.items() if coord % 2 != 0}
    k = bridge_k_bound(max((abs(el.b) for _, _, el in assignment), default=0))
    targets: dict[int, int] = {}
    for lo, hi, el in assignment:
        for a in range(lo + lo % 2, hi + 1, 2):
            if a in targets:
                raise EquigraphError(f"pieces overlap at coordinate {a}")
            y = key_at.get(a)
            if y is None:
                raise EquigraphError(f"coordinate {a} outside the explored window")
            t = j_coord.get(frame.image(el, *y))
            if t is None:
                raise EquigraphError(
                    f"image of coordinate {a} is not a J-vertex of the window"
                )
            if abs(t - a) > k:
                raise EquigraphError(
                    f"displacement {t - a} at coordinate {a} exceeds K={k}"
                )
            targets[a] = t
    if len(set(targets.values())) != len(targets):
        raise EquigraphError("two pieces share a target J-vertex")
    dev = {a: t for a, t in targets.items() if t != a + 1}
    matching = KMatching(k, _canonical_window(dev, (0, -1)), dev)
    matching.validate()
    return matching


def assignment_from_targets(
    view: ComponentView, targets: Mapping[int, int]
) -> list[tuple[int, int, GroupElement]]:
    """Recover piece assignments realizing coordinate targets on a view.

    For each A-coordinate a with desired J-coordinate targets[a], reads the
    group element off the chain between them, then coalesces consecutive
    coordinates that share an element into one piece.
    """
    origin = view.origin_index
    pieces: list[tuple[int, int, GroupElement]] = []
    for a in sorted(targets):
        el = chain_element(view, origin + a, origin + targets[a])
        if pieces and pieces[-1][2] == el and pieces[-1][1] == a - 2:
            pieces[-1] = (pieces[-1][0], a, el)
        else:
            pieces.append((a, a, el))
    return pieces
