"""Matching-improvement dynamics on integer-coordinate path systems.

The discrete stand-in for a bi-infinite path component: vertices are
(path_id, coord) with coord in Z, A-vertices at even coords, B-vertices
at odd coords.  A KMatching matches each A-vertex to a B-vertex at odd
distance at most K and is standard (a -> a+1) outside a finite window
on each path.  One improvement round rewires every facing pair at once;
each round lowers the total cost by at least the number of vertices
involved, which bounds both the iteration count and the lifetime sum of
rewired sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import CLAIM1_VIOLATION, EquigraphError, Finding
from .graph import ComponentView, Side, chain_element
from .group import GroupElement, apply

Vertex = tuple[int, int]  # (path_id, coord)


class KMatching:
    """Eventually-standard matching with displacement bound K.

    Stored sparsely: per path, a window (lo, hi) with lo even and hi odd,
    and only the pairs that differ from standard.  partner() answers for
    every coordinate, implicit standard included.
    """

    def __init__(
        self,
        k: int,
        windows: Mapping[int, tuple[int, int]],
        deviations: Mapping[int, Mapping[int, int]],
    ):
        if k <= 0 or k % 2 == 0:
            raise EquigraphError(f"K must be an odd positive integer, got {k}")
        if set(windows) != set(deviations):
            raise EquigraphError("windows and deviations must cover the same paths")
        self.k = k
        self.windows: dict[int, tuple[int, int]] = {
            pid: (int(w[0]), int(w[1])) for pid, w in windows.items()
        }
        self.deviations: dict[int, dict[int, int]] = {
            pid: dict(sorted(dev.items())) for pid, dev in deviations.items()
        }
        self._inverse: dict[int, dict[int, int]] = {
            pid: {t: a for a, t in dev.items()}
            for pid, dev in self.deviations.items()
        }

    # ------------------------------------------------------------------

    @property
    def path_ids(self) -> list[int]:
        return sorted(self.windows)

    def partner(self, pid: int, coord: int) -> int:
        """Matched coordinate; standard outside the stored deviations."""
        if coord % 2 == 0:
            return self.deviations[pid].get(coord, coord + 1)
        return self._inverse[pid].get(coord, coord - 1)

    def direction(self, pid: int, coord: int) -> int:
        """Ray direction at coord: sign of (partner - coord), never 0."""
        return 1 if self.partner(pid, coord) > coord else -1

    def pairs(self, pid: int) -> dict[int, int]:
        """The full A -> B map over the window, standard pairs included."""
        lo, hi = self.windows[pid]
        return {a: self.partner(pid, a) for a in range(_even_ceil(lo), hi, 2)}

    @property
    def is_standard(self) -> bool:
        return all(not dev for dev in self.deviations.values())

    def validate(self) -> None:
        """Raise EquigraphError on any structural defect."""
        for pid, dev in self.deviations.items():
            lo, hi = self.windows[pid]
            if dev and not (lo % 2 == 0 and hi % 2 == 1 and lo < hi):
                raise EquigraphError(
                    f"path {pid}: window ({lo}, {hi}) not canonical"
                )
            for a, t in dev.items():
                if a % 2 != 0 or t % 2 != 1:
                    raise EquigraphError(f"path {pid}: pair {a}->{t} breaks parity")
                if t == a + 1:
                    raise EquigraphError(f"path {pid}: standard pair {a} stored")
                if not (lo <= a <= hi and lo <= t <= hi):
                    raise EquigraphError(f"path {pid}: pair {a}->{t} leaves window")
                if abs(a - t) > self.k:
                    raise EquigraphError(
                        f"path {pid}: pair {a}->{t} exceeds K={self.k}"
                    )
            targets = set(dev.values())
            if len(targets) != len(dev):
                raise EquigraphError(f"path {pid}: matching is not injective")
            # The displaced standard partners must be exactly the targets,
            # otherwise some window B-vertex is unmatched or doubly matched.
            if targets != {a + 1 for a in dev}:
                raise EquigraphError(f"path {pid}: window bijection broken")

    def cost(self) -> int:
        return sum(
            abs(a - t) - 1 for dev in self.deviations.values() for a, t in dev.items()
        )

    def __repr__(self) -> str:
        dev = {pid: d for pid, d in self.deviations.items() if d}
        return f"KMatching(k={self.k}, deviations={dev})"


def _even_ceil(x: int) -> int:
    return x if x % 2 == 0 else x + 1


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


def _faces(dev: Mapping[int, int], a: int) -> bool:
    """Whether the A-vertices a - 2 and a face, given one path's deviations.

    They face when each lies on the other's ray: a points left, which
    needs a stored pair, and a - 2 points right.
    """
    t = dev.get(a)
    return t is not None and t < a and dev.get(a - 2, a - 1) > a - 2


def phi_pairs(m: KMatching) -> list[tuple[Vertex, Vertex]]:
    """All facing pairs, as (left, right), deterministically ordered.

    Two A-vertices at distance 2 face when each lies on the other's ray,
    the half-path from a vertex through its partner.  A facing pair
    (a, a+2) needs direction(a+2) = -1, which forces a+2 to deviate from
    standard, so scanning the stored deviations is complete.
    """
    out: list[tuple[Vertex, Vertex]] = []
    for pid in sorted(m.deviations):
        dev = m.deviations[pid]
        for a in dev:
            if _faces(dev, a):
                out.append(((pid, a - 2), (pid, a)))
    return out


def compute_S(m: KMatching) -> set[Vertex]:
    """Every A-vertex that currently belongs to a facing pair."""
    members: set[Vertex] = set()
    for x, y in phi_pairs(m):
        members.add(x)
        members.add(y)
    return members


def _rewire(
    devs: dict[int, dict[int, int]],
    invs: dict[int, dict[int, int]],
    k: int,
    pairs: Sequence[tuple[Vertex, Vertex]],
) -> int:
    """Swap the partners of every facing pair of one round, in place.

    devs holds each path's deviations and invs their inverses (target ->
    A-vertex).  Returns the round's cost drop.  Each rewired pair must
    lower its combined displacement by at least 2 and stay within K; a
    failure is raised as a Finding.  Each written entry is then checked
    for parity and injectivity as validate() would; it is stored only
    when it is not standard, and its K bound is the Finding's.
    """
    drop = 0
    for (pid, x), (_, y) in pairs:
        dev, inv = devs[pid], invs[pid]
        mx = dev.get(x, x + 1)
        my = dev.get(y, y + 1)
        ndx, ndy = abs(x - my), abs(y - mx)
        odx, ody = abs(x - mx), abs(y - my)
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
        inv.pop(mx, None)
        inv.pop(my, None)
        if my == x + 1:
            dev.pop(x, None)
        else:
            inv[my] = x
            dev[x] = my
        if mx == y + 1:
            dev.pop(y, None)
        else:
            inv[mx] = y
            dev[y] = mx
        if x % 2 or y % 2 or not (mx % 2 and my % 2):
            raise EquigraphError(
                f"path {pid}: pair {x}->{my} or {y}->{mx} breaks parity"
            )
        if inv.get(my, my - 1) != x or inv.get(mx, mx - 1) != y:
            raise EquigraphError(f"path {pid}: matching is not injective")
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
    new_dev = {pid: dict(dev) for pid, dev in m.deviations.items()}
    new_inv = {pid: dict(inv) for pid, inv in m._inverse.items()}
    _rewire(new_dev, new_inv, m.k, pairs)
    windows = {
        pid: _canonical_window(new_dev[pid], m.windows[pid]) for pid in new_dev
    }
    result = KMatching(m.k, windows, new_dev)
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
    rewired: tuple[tuple[Vertex, Vertex], ...]


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


def run_dynamics(
    m: KMatching, max_iters: Optional[int] = None
) -> tuple[KMatching, DynamicsTrace]:
    """Iterate improve() until no facing pairs remain.

    Terminates within cost(M) iterations; max_iters (default: cost(M))
    only fires below that theoretical bound.

    The rounds run on one mutable copy of the deviations, so a round
    costs O(|S|): only coordinates a and a + 2 of a rewired a can start
    facing (a pair whose entries did not change cannot), the cost moves
    by the exact per-pair drops, and only the written entries are
    checked.  The result is built and fully validated once, and equals
    that of replaying improve(), windows and trace included.
    """
    initial = m.cost()
    cap = initial if max_iters is None else max_iters
    trace = DynamicsTrace(initial_cost=initial)
    dev = {pid: dict(d) for pid, d in m.deviations.items()}
    inv = {pid: dict(i) for pid, i in m._inverse.items()}
    windows = dict(m.windows)
    cost = initial
    pairs = phi_pairs(m)
    while pairs:
        n = len(trace.records)
        if n >= cap:
            raise EquigraphError(f"dynamics exceeded {cap} iterations")
        before = cost
        cost -= _rewire(dev, inv, m.k, pairs)
        s_size = 2 * len(pairs)
        if cost > before - s_size:
            raise Finding(
                CLAIM1_VIOLATION,
                "improvement round dropped cost by less than |S|",
                witness={"before": before, "after": cost, "s": s_size},
            )
        trace.records.append(IterationRecord(n + 1, s_size, before, tuple(pairs)))
        # Pairs come sorted by (pid, a) and lie at least 4 apart, so the
        # re-tested coordinates x, x + 2, x + 4 come sorted as well, with
        # x repeating the previous pair's x + 4 at most.
        nxt: list[tuple[Vertex, Vertex]] = []
        done = None
        for (pid, x), _ in pairs:
            d = dev[pid]
            for c in (x, x + 2, x + 4) if done != (pid, x) else (x + 2, x + 4):
                if _faces(d, c):
                    nxt.append(((pid, c - 2), (pid, c)))
            done = (pid, x + 4)
        # A path this round empties keeps, under improve(), the window of
        # its previous state: the input window after round 1, else the
        # canonical window of that state.  Every entry of that state was
        # rewired to standard, so it held x -> x + 3 and x + 2 -> x + 1
        # for each of the path's pairs (x, x + 2).
        if n:
            for pid in {pid for (pid, _), _ in pairs}:
                if not dev[pid]:
                    last = {}
                    for (p, x), _ in pairs:
                        if p == pid:
                            last[x], last[x + 2] = x + 3, x + 1
                    windows[pid] = _canonical_window(last, windows[pid])
        pairs = nxt
    final = KMatching(m.k, windows, dev)
    final.validate()
    if final.cost() != cost:
        raise Finding(
            CLAIM1_VIOLATION,
            "tracked cost differs from the final matching's cost",
            witness={"tracked": cost, "final": final.cost()},
        )
    trace.final_cost = cost
    return final, trace


def check_nested_rays(m: KMatching) -> bool:
    """Whether every A-ray on every path points the same way.

    Outside each window all rays point +1, so on a bi-infinite path the
    directions are uniform iff no stored pair points left.
    """
    return all(
        t > a for dev in m.deviations.values() for a, t in dev.items()
    )


def extract_matching(m: KMatching) -> KMatching:
    """Collapse a converged matching to distance-1 pairs a -> a + dir(a).

    Requires the facing-pair set to be empty; for an eventually-standard
    matching that forces every direction to +1, so the result is the
    standard matching, returned as a K=1 matching.
    """
    if phi_pairs(m):
        raise EquigraphError("facing pairs remain; run the dynamics first")
    new_dev: dict[int, dict[int, int]] = {}
    for pid, dev in m.deviations.items():
        entries = {
            a: a - 1 for a in dev if m.direction(pid, a) == -1
        }
        new_dev[pid] = entries
    windows = {
        pid: _canonical_window(new_dev[pid], m.windows[pid]) for pid in new_dev
    }
    result = KMatching(1, windows, new_dev)
    result.validate()
    return result


# ----------------------------------------------------------------------
# instance construction


def random_kmatching(window: int, k: int, seed: int) -> KMatching:
    """Seeded K-preserving shuffle of the standard matching.

    window counts the A-vertices allowed to deviate (coords 0..2*window-1).
    Starting from standard, tries one partner transposition per A-vertex,
    keeping only those that respect the K bound.
    """
    if k <= 0 or k % 2 == 0:
        raise EquigraphError(f"K must be an odd positive integer, got {k}")
    if window < k:
        raise EquigraphError(f"window {window} smaller than K={k}")
    getrandbits = random.Random(seed).getrandbits

    def below(n: int) -> int:
        # Random.randrange(n) without its argument checks, so the stream
        # is the same: n.bit_length() random bits, redrawn while >= n.
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    top = 2 * (window - 1)
    half = (k + 1) // 2
    cur: dict[int, int] = {}
    for _ in range(window):
        a1 = 2 * below(window)
        delta = 2 * (1 + below(half))  # rng.randint(1, half)
        a2 = a1 + (delta if below(2) else -delta)
        if a2 < 0 or a2 > top or a2 == a1:
            continue
        p1, p2 = cur.get(a1, a1 + 1), cur.get(a2, a2 + 1)
        if abs(a1 - p2) > k or abs(a2 - p1) > k:
            continue
        for a, t in ((a1, p2), (a2, p1)):
            if t == a + 1:
                cur.pop(a, None)
            else:
                cur[a] = t
    result = KMatching(k, {0: _canonical_window(cur, (0, -1))}, {0: cur})
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

    The view's visited chain provides coordinates on path 0 with the origin
    at 0, so I-vertices sit at even coordinates.  Each assignment entry (lo, hi, g)
    matches every I-vertex y at an even coordinate in [lo, hi] to the
    J-vertex holding g(y); uncovered coordinates stay standard.  The
    result's K is bridge_k_bound(max |b| over the pieces).
    """
    if view.visited[view.origin_index].side is not Side.I:
        raise EquigraphError("assignment views must originate at an I-vertex")
    origin = view.origin_index
    point_at = {idx - origin: v.point for idx, v in enumerate(view.visited)}
    j_coord = {
        v.point: idx - origin
        for idx, v in enumerate(view.visited)
        if (idx - origin) % 2 != 0
    }
    k = bridge_k_bound(max((abs(el.b) for _, _, el in assignment), default=0))
    targets: dict[int, int] = {}
    for lo, hi, el in assignment:
        for a in range(_even_ceil(lo), hi + 1, 2):
            if a in targets:
                raise EquigraphError(f"pieces overlap at coordinate {a}")
            y = point_at.get(a)
            if y is None:
                raise EquigraphError(f"coordinate {a} outside the explored window")
            t = j_coord.get(apply(el, y))
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
    matching = KMatching(k, {0: _canonical_window(dev, (0, -1))}, {0: dev})
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
    per_coord: list[tuple[int, GroupElement]] = []
    for a in sorted(targets):
        el = chain_element(view, origin + a, origin + targets[a])
        per_coord.append((a, el))
    pieces: list[tuple[int, int, GroupElement]] = []
    for a, el in per_coord:
        if pieces and pieces[-1][2] == el and pieces[-1][1] == a - 2:
            lo, _, _ = pieces[-1]
            pieces[-1] = (lo, a, el)
        else:
            pieces.append((a, a, el))
    return pieces
