import dataclasses
from fractions import Fraction

import pytest

from equigraph.algebra import point
from equigraph.dynamics import (
    KMatching,
    assignment_from_targets,
    bridge_k_bound,
    improve,
    kmatching_from_assignment,
    phi_pairs,
    random_kmatching,
    run_dynamics,
)
from equigraph import dynamics as dynamics_module
from equigraph.errors import CLAIM1_VIOLATION, EquigraphError, Finding
from equigraph.graph import Frame, Side, chain_element
from equigraph.group import GroupElement, IDENTITY

from oracles import (
    chain_element_points,
    check_nested_rays,
    direction,
    extract_matching,
    facing_pairs_bruteforce,
    kmatching_from_assignment_points,
    kmatching_targets,
    partner,
    random_deviations,
)


def compute_S(m):
    """Every A-vertex that currently belongs to a facing pair."""
    return {a for pair in phi_pairs(m) for a in pair}


def standard_matching(k):
    return KMatching(k, (0, -1), {})


def _swapped(k=3, dev=None):
    dev = {0: 3, 2: 1} if dev is None else dev
    lo = min(min(dev), min(dev.values()) - 1)
    hi = max(max(dev) + 1, max(dev.values()))
    m = KMatching(k, (lo, hi), dev)
    m.validate()
    return m


# ----------------------------------------------------------------------
# construction and validation


def test_k_must_be_odd_positive():
    for bad in (0, -3, 2, 4):
        with pytest.raises(EquigraphError, match="odd positive integer"):
            KMatching(bad, (0, -1), {})


def test_validate_rejects_structural_defects():
    cases = [
        (7, (1, 4), {2: 5}, "not canonical"),
        (7, (0, 3), {1: 2}, "parity"),
        (7, (0, 3), {0: 1}, "standard pair"),
        (7, (0, 3), {0: 5}, "leaves window"),
        (3, (0, 7), {0: 7, 6: 1}, "exceeds K"),
        (7, (0, 5), {0: 3, 4: 3}, "not injective"),
        (7, (0, 3), {0: 3}, "bijection"),
    ]
    for k, window, deviations, fragment in cases:
        m = KMatching(k, window, deviations)
        with pytest.raises(EquigraphError, match=fragment):
            m.validate()


def test_partner_and_pairs_accessors():
    m = _swapped()
    assert partner(m, 0) == 3
    assert partner(m, 2) == 1
    assert partner(m, 3) == 0
    assert partner(m, 1) == 2
    assert partner(m, 100) == 101  # standard beyond the window
    assert partner(m, 101) == 100
    assert m.deviations == {0: 3, 2: 1}
    assert m.window == (0, 3)
    assert repr(m) == "KMatching(k=3, deviations={0: 3, 2: 1})"
    assert not m.is_standard
    # odd coordinates are answered by a scan of the deviations
    m = random_kmatching(60, 7, 0)
    lo, hi = m.window
    assert all(partner(m, partner(m, c)) == c for c in range(lo, hi + 1))


def test_standard_matching_shape():
    m = standard_matching(5)
    m.validate()
    assert m.is_standard
    assert m.cost() == 0
    assert partner(m, 42) == 43


# ----------------------------------------------------------------------
# rays and facing pairs


def test_ray_of_matching():
    # a ray leaves each vertex toward its partner, standard outside the window
    m = _swapped()
    assert direction(m, 0) == 1
    assert direction(m, 2) == -1
    assert direction(m, 50) == 1
    assert direction(m, 3) == -1
    assert direction(m, 1) == 1
    assert direction(m, -7) == -1


def test_phi_pairs_worked_example():
    m = _swapped()
    assert phi_pairs(m) == [(0, 2)]
    assert compute_S(m) == {0, 2}
    assert m.cost() == 2


def test_phi_pairs_match_bruteforce_oracle():
    for seed in range(20):
        m = random_kmatching(15, 5, seed)
        assert compute_S(m) == facing_pairs_bruteforce(m)
    for seed in range(10):
        m = random_kmatching(30, 3, seed + 100)
        assert compute_S(m) == facing_pairs_bruteforce(m)


def test_phi_pairs_two_pairs_deterministic():
    m = KMatching(3, (0, 7), {6: 5, 4: 7, 2: 1, 0: 3})
    m.validate()
    assert phi_pairs(m) == [(0, 2), (4, 6)]


# ----------------------------------------------------------------------
# improvement rounds


def test_improve_worked_example():
    m = _swapped()
    out = improve(m)
    assert out.is_standard
    assert out.cost() == 0


def test_improve_requires_facing_pairs():
    with pytest.raises(EquigraphError, match="no facing pairs"):
        improve(standard_matching(3))


def test_improve_two_pairs_in_one_round():
    m = KMatching(3, (0, 7), {0: 3, 2: 1, 4: 7, 6: 5})
    m.validate()
    out = improve(m)
    assert out.is_standard and out.cost() == 0


def test_improve_invariants_on_random_instances():
    for seed in range(15):
        m = random_kmatching(40, 5, seed)
        while True:
            pairs = phi_pairs(m)
            if not pairs:
                break
            nxt = improve(m)
            nxt.validate()
            assert nxt.cost() <= m.cost() - 2 * len(pairs)
            old_lo, old_hi = m.window
            lo, hi = nxt.window
            assert lo >= old_lo and hi <= old_hi  # windows never grow
            m = nxt
        assert m.is_standard


def test_three_deviation_example_takes_two_rounds():
    m = KMatching(5, (0, 5), {0: 5, 2: 1, 4: 3})
    m.validate()
    final, trace = run_dynamics(m)
    assert final.is_standard
    assert trace.initial_cost == 4
    assert trace.final_cost == 0
    assert trace.iterations == 2
    assert trace.sum_s == 4
    assert trace.records[0].rewired == ((0, 2),)
    assert trace.records[1].rewired == ((2, 4),)
    assert trace.records[0].cost == 4 and trace.records[1].cost == 2


def _replay(m):
    """run_dynamics spelled out as improve() rounds, for comparison."""
    initial = m.cost()
    records = []
    while True:
        pairs = phi_pairs(m)
        if not pairs:
            break
        records.append((len(records) + 1, 2 * len(pairs), m.cost(), tuple(pairs)))
        m = improve(m)
    return m, initial, records


def _assert_matches_replay(m):
    final, trace = run_dynamics(m)
    expected, initial, records = _replay(m)
    assert trace.initial_cost == initial
    assert [(r.n, r.s_size, r.cost, r.rewired) for r in trace.records] == records
    assert final.deviations == expected.deviations
    assert final.window == expected.window
    assert trace.final_cost == expected.cost() == final.cost()
    return final, trace


def _shifted(final, trace, shift):
    """A run's result and trace, with every coordinate moved by shift."""
    return (
        tuple(c + shift for c in final.window),
        {a + shift: t + shift for a, t in final.deviations.items()},
        (trace.initial_cost, trace.final_cost, trace.iterations),
        [
            (r.n, r.s_size, r.cost, tuple((x + shift, y + shift) for x, y in r.rewired))
            for r in trace.records
        ],
    )


def _shifted_run(m, shift):
    """run_dynamics on m moved by shift, in _shifted's form."""
    lo, hi = m.window
    dev = {a + shift: t + shift for a, t in m.deviations.items()}
    return _shifted(*run_dynamics(KMatching(m.k, (lo + shift, hi + shift), dev)), 0)


def test_run_dynamics_equals_improve_replay_on_random_instances():
    # window 1000 is the benchmark's instance size, one seed per K
    rounds = set()
    for window, seeds in ((15, 6), (40, 6), (101, 6), (400, 6), (1000, 1)):
        for k in (3, 5, 7, 9):
            for seed in range(seeds):
                _, trace = _assert_matches_replay(random_kmatching(window, k, seed))
                rounds.add(trace.iterations)
    assert max(rounds) >= 4  # the comparison covers long runs, not just one round


def test_run_dynamics_equals_improve_replay_on_paths_converging_apart():
    # a path that converges in round 1 keeps its input window
    m = KMatching(5, (10, 15), {10: 13, 12: 11})
    m.validate()
    final, trace = _assert_matches_replay(m)
    assert trace.iterations == 1
    assert trace.records[0].rewired == ((10, 12),)
    assert final.window == (10, 15)
    # one that converges in round 2, from a window wider than its
    # deviations, takes the canonical window of its previous state
    m = KMatching(5, (0, 9), {0: 5, 2: 1, 4: 3})
    m.validate()
    final, trace = _assert_matches_replay(m)
    assert trace.iterations == 2
    assert trace.records[0].rewired == ((0, 2),)
    assert final.window == (2, 5)


def test_run_dynamics_equals_improve_replay_on_every_small_matching():
    # every K-matching of the A-vertices 0, 2, .., 2n - 2 onto the
    # B-vertices 1, 3, .., 2n - 1, on its canonical window and on one
    # widened by 2 a side, since the window a path keeps when the dynamics
    # empty it depends on both the last round and the input window; each
    # run is repeated shifted by +-2*10**6, far from the list's index 0
    matchings = multi_round = 0
    most_rounds: dict[int, int] = {}
    for k in (3, 5, 7):
        for n in range(1, 8):
            for targets in kmatching_targets(n, k):
                matchings += 1
                dev = {2 * i: t for i, t in enumerate(targets) if t != 2 * i + 1}
                ends = [*dev, *(t - 1 for t in dev.values())] or [0]
                lo, hi = min(ends), max(ends) + 1
                for window in ((lo, hi), (lo - 2, hi + 2)):
                    m = KMatching(k, window, dev)
                    m.validate()
                    final, trace = _assert_matches_replay(m)
                    for shift in (-(2 * 10**6), 2 * 10**6):
                        assert _shifted_run(m, shift) == _shifted(final, trace, shift)
                    multi_round += trace.iterations >= 2
                    most_rounds[k] = max(most_rounds.get(k, 0), trace.iterations)
    assert matchings == 2109
    assert multi_round == 3900
    assert most_rounds == {3: 2, 5: 5, 7: 9}


@pytest.mark.parametrize(
    "k, dev, rounds",
    [
        (3, {0: 3, 2: 5, 4: 1}, 2),
        (5, {0: 5, 2: 7, 4: 3, 6: 1}, 5),
        (7, {0: 7, 2: 9, 6: 3, 8: 1}, 9),
    ],
)
def test_small_matching_enumeration_witnesses_its_most_rounds(k, dev, rounds):
    # a matching that takes the enumeration's largest round count for its K
    _, trace = _assert_matches_replay(_swapped(k, dev))
    assert trace.iterations == rounds


def test_run_dynamics_equals_improve_replay_on_bridge(graph):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 64)
    pieces = assignment_from_targets(view, {-4: -1, -2: -3, 0: 3, 2: 1})
    _assert_matches_replay(kmatching_from_assignment(view, pieces))


def test_rewired_pairs_never_face_again():
    # run_dynamics re-tests only the neighbours (x - 2, x) and
    # (x + 2, x + 4) of a rewired (x, x + 2): every new facing pair is one
    # of them, and the rewired pair itself is never among them
    refound = 0
    for window in (15, 40, 101, 400):
        for k in (3, 5, 7, 9):
            for seed in range(3):
                m = random_kmatching(window, k, seed)
                while pairs := phi_pairs(m):
                    m = improve(m)
                    after = set(phi_pairs(m))
                    assert not after & set(pairs)
                    near = {(x + d, x + d + 2) for x, _ in pairs for d in (-2, 2)}
                    assert after <= near
                    refound += len(after)
    assert refound > 1000  # the later rounds are not empty


def test_run_dynamics_checks_the_entries_it_writes():
    # A-vertices at odd coordinates: the one facing pair rewires 3 -> 6
    m = KMatching(5, (1, 6), {1: 6, 3: 2})
    with pytest.raises(EquigraphError, match="breaks parity"):
        run_dynamics(m)
    # the result read back off the list is validated: after (0, 2) is
    # rewired, 4 -> 7 is left, outside the input window
    m = KMatching(7, (0, 3), {0: 3, 2: 1, 4: 7})
    with pytest.raises(EquigraphError, match="^pair 4->7 leaves window$"):
        run_dynamics(m)


def test_run_dynamics_refuses_an_input_pair_beyond_k():
    # 6 -> 1 exceeds K=3 before any rewiring: the input's defect, not a
    # failed claim, in the words of validate()
    m = KMatching(3, (0, 7), {0: 7, 6: 1})
    for run in (run_dynamics, improve):
        with pytest.raises(EquigraphError, match=r"pair 6->1 exceeds K=3") as info:
            run(m)
        assert not isinstance(info.value, Finding)
    # a new partner beyond K is a failed claim; a facing pair cannot reach
    # it, since old partners within K give new ones within max(K - 2, 1),
    # so _rewire is handed a pair that does not face
    leaves = r"rewired pair \(0, 10\) leaves the K=3 bound$"
    with pytest.raises(Finding, match=leaves) as info:
        dynamics_module._rewire({}, 3, [(0, 10)])
    assert info.value.kind == CLAIM1_VIOLATION


@pytest.mark.parametrize(
    "k, dx, dy, error, message",
    [
        # a pair that does not face, d[x] = -K and d[x + 2] = +K
        (5, -5, 5, Finding, r"rewired pair \(0, 2\) leaves the K=5 bound"),
        (5, 7, -1, EquigraphError, r"pair 0->7 exceeds K=5"),
        (5, 1, -7, EquigraphError, r"pair 2->-5 exceeds K=5"),
        (5, 5, 1, Finding, r"rewiring \(0, 2\) dropped cost by less than 2"),
        (5, -1, -5, Finding, r"rewiring \(0, 2\) dropped cost by less than 2"),
        (5, 2, -3, EquigraphError, r"pair 0->-1 or 2->2 breaks parity"),
        (5, 3, -2, EquigraphError, r"pair 0->0 or 2->3 breaks parity"),
    ],
    ids=[
        "new-partner-beyond-k",
        "old-left-partner-beyond-k",
        "old-right-partner-beyond-k",
        "right-end-points-right",
        "left-end-points-left",
        "left-displacement-even",
        "right-displacement-even",
    ],
)
def test_round_refuses_what_rewire_refuses(k, dx, dy, error, message):
    # the pair (0, 2) with displacements dx and dy, handed to the list
    # kernel and to _rewire; each case fails one clause of the list
    # kernel's test, and both kernels raise the same first failed check
    d = [1, 1, dx, 1, dy, 1, 1]  # d[c + 2] for c = -2, .., 4
    dev = {a: a + t for a, t in ((0, dx), (2, dy)) if t != 1}
    for run in (
        lambda: dynamics_module._round(d, -2, k, [(0, 2)]),
        lambda: dynamics_module._rewire(dev, k, [(0, 2)]),
    ):
        with pytest.raises(error, match=f"{message}$") as info:
            run()
        assert isinstance(info.value, Finding) == (error is Finding)
        if error is Finding:
            assert info.value.kind == CLAIM1_VIOLATION


def test_facing_ends_sharing_a_partner_fail_the_drop_test():
    # 0 -> 1 and 2 -> 1 face; swapping their shared partner keeps both
    # displacements, so no injectivity check is needed to refuse them
    m = KMatching(5, (0, 15), {2: 1, 10: 15, 14: 11})
    assert phi_pairs(m)[0] == (0, 2)
    for run in (run_dynamics, improve):
        with pytest.raises(Finding, match=r"\(0, 2\) dropped cost by less than 2"):
            run(m)


def test_run_dynamics_catches_a_short_reported_drop(monkeypatch):
    # a round that reports one less than its drop leaves the tracked cost
    # off the final matching's
    one_round = dynamics_module._round

    def short_round(*args):
        drop, pairs = one_round(*args)
        return drop - 1, pairs

    monkeypatch.setattr(dynamics_module, "_round", short_round)
    with pytest.raises(Finding, match="tracked cost differs") as info:
        run_dynamics(random_kmatching(40, 5, 3))
    assert info.value.kind == CLAIM1_VIOLATION
    # improve compares the costs themselves: a round that writes nothing
    monkeypatch.setattr(dynamics_module, "_rewire", lambda *args: 0)
    with pytest.raises(Finding, match=r"dropped cost by less than \|S\|") as info:
        improve(_swapped())
    assert info.value.kind == CLAIM1_VIOLATION


def test_run_dynamics_on_standard_is_a_noop():
    final, trace = run_dynamics(standard_matching(3))
    assert final.is_standard
    assert trace.iterations == 0
    assert trace.initial_cost == 0 and trace.final_cost == 0


def test_run_dynamics_iteration_cap():
    # a malformed matching of cost 0 with a facing pair (0 -> 1, 2 -> 1)
    # meets the cap at its initial cost before any round runs
    m = KMatching(3, (0, 3), {0: 1, 2: 1})
    assert m.cost() == 0 and phi_pairs(m) == [(0, 2)]
    with pytest.raises(EquigraphError, match="exceeded 0 iterations"):
        run_dynamics(m)


def test_run_dynamics_golden_regressions():
    m = random_kmatching(50, 5, 1)
    final, trace = run_dynamics(m)
    assert (trace.initial_cost, trace.iterations, trace.sum_s) == (56, 5, 48)
    assert final.is_standard
    m = random_kmatching(200, 7, 42)
    final, trace = run_dynamics(m)
    assert (trace.initial_cost, trace.iterations, trace.sum_s) == (456, 7, 370)
    assert final.is_standard
    # the benchmark's instance size
    m = random_kmatching(1000, 9, 7)
    final, trace = run_dynamics(m)
    assert (trace.initial_cost, trace.iterations, trace.sum_s) == (2940, 14, 2330)
    assert final.is_standard


def test_convergence_bounds_hold():
    for seed in range(10):
        m = random_kmatching(60, 7, seed)
        c0 = m.cost()
        final, trace = run_dynamics(m)
        assert trace.iterations <= c0
        assert trace.sum_s <= c0
        assert check_nested_rays(final)
        assert final.is_standard


# ----------------------------------------------------------------------
# convergence predicates and extraction


def test_check_nested_rays():
    assert check_nested_rays(standard_matching(3))
    assert not check_nested_rays(_swapped())


def test_extract_matching_requires_convergence():
    with pytest.raises(EquigraphError, match="facing pairs remain"):
        extract_matching(_swapped())


def test_extract_matching_yields_unit_matching():
    final, _ = run_dynamics(random_kmatching(30, 5, 9))
    out = extract_matching(final)
    assert out.k == 1
    assert out.is_standard
    assert out.cost() == 0
    lo, hi = final.window
    for a in range(lo if lo % 2 == 0 else lo + 1, hi, 2):
        assert partner(out, a) == a + 1


# ----------------------------------------------------------------------
# instance generation


def test_random_kmatching_is_valid_and_deterministic():
    a = random_kmatching(25, 5, 3)
    b = random_kmatching(25, 5, 3)
    assert a.deviations == b.deviations
    assert a.cost() > 0
    a.validate()
    c = random_kmatching(25, 5, 4)
    assert c.deviations != a.deviations


def test_random_kmatching_draws_as_randrange_did():
    # K = 11 and 15 draw from half = 6 and 8; (1, 1), (3, 3), (5, 5),
    # (9, 9) and (11, 11) have window == k
    cases = [(1, 1), (3, 3), (5, 5), (9, 9), (11, 11)] + [
        (window, k)
        for window in (15, 16, 17, 63, 64, 65, 1000)
        for k in (1, 3, 5, 7, 9, 11, 15)
    ]
    first_moved = last_moved = False
    for window, k in cases:
        for seed in range(20):
            m = random_kmatching(window, k, seed)
            dev = random_deviations(window, k, seed)
            # phi_pairs reads the deviations in increasing order
            assert list(m.deviations.items()) == list(dev.items())
            assert m.window == dynamics_module._canonical_window(dev, (0, -1))
            # a deviation at either end of the window was made by a kept swap
            first_moved |= 0 in dev
            last_moved |= 2 * (window - 1) in dev
    assert first_moved and last_moved


def test_random_kmatching_edge_cases():
    assert random_kmatching(20, 1, 0).cost() == 0  # K=1 admits no swap
    with pytest.raises(EquigraphError, match="odd positive integer"):
        random_kmatching(20, 4, 0)
    with pytest.raises(EquigraphError, match="window 3 smaller than K=5"):
        random_kmatching(3, 5, 0)


def test_random_kmatching_respects_window_and_k():
    m = random_kmatching(30, 7, 11)
    lo, hi = m.window
    assert lo >= 0 and hi <= 59
    for a, t in m.deviations.items():
        assert abs(a - t) <= 7


# ----------------------------------------------------------------------
# bridging explored components into matchings


def test_bridge_k_bound_values():
    assert bridge_k_bound(0) == 1
    assert bridge_k_bound(1) == 3
    assert bridge_k_bound(4) == 9
    with pytest.raises(EquigraphError, match="must be nonnegative"):
        bridge_k_bound(-1)


def test_assignment_roundtrip_standard(graph):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 64)
    targets = {a: a + 1 for a in (-4, -2, 0, 2, 4)}
    pieces = assignment_from_targets(view, targets)
    m = kmatching_from_assignment(view, pieces)
    assert m.is_standard
    assert m.cost() == 0


def test_assignment_with_swaps_runs_to_standard(graph):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 64)
    targets = {-4: -1, -2: -3, 0: 3, 2: 1}
    pieces = assignment_from_targets(view, targets)
    m = kmatching_from_assignment(view, pieces)
    assert m.cost() > 0
    assert m.k == bridge_k_bound(max(abs(el.b) for _, _, el in pieces))
    final, trace = run_dynamics(m)
    assert final.is_standard
    assert trace.iterations <= trace.initial_cost


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_random_kmatchings_round_trip_through_isometry_pieces(graph, k):
    # a random K-matching on a window of 200 A-vertices, shifted to put its
    # window around the origin of a view of the component through (I, 1/2),
    # is realized as isometry pieces and read back: the same deviations up to
    # the shift, pieces with largest |b| = (K + 1)/2, so K + 2 for the bridged
    # matching, and the same number of rounds for the dynamics
    window, shift = 200, 200
    m0 = random_kmatching(window, k, seed=k)
    view = graph.explore_component(graph.vertex(Side.I, point(Fraction(1, 2))), 420)
    targets = {
        a - shift: m0.deviations.get(a, a + 1) - shift for a in range(0, 2 * window, 2)
    }
    pieces = assignment_from_targets(view, targets)
    assert max(abs(el.b) for _, _, el in pieces) == (k + 1) // 2
    m = kmatching_from_assignment(view, pieces)
    assert m.k == k + 2
    assert m.deviations == {a - shift: t - shift for a, t in m0.deviations.items()}
    assert run_dynamics(m)[1].iterations == run_dynamics(m0)[1].iterations > 0


def test_bridge_reads_the_lazy_chain_as_its_tuple(graph, monkeypatch):
    # chain_element and kmatching_from_assignment read the chain's keys and
    # build no vertex; on the view read as a tuple, the vertex-reading
    # oracles stand in for them
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 64)
    eager = dataclasses.replace(view, visited=tuple(view.visited))
    n = len(view.visited)
    pairs = [(0, n - 1), (n - 1, 0), (30, 35), (35, 30), (33, 33)]
    targets = {-4: -1, -2: -3, 0: 3, 2: 1}
    built = []
    with monkeypatch.context() as patched:
        patched.setattr(Frame, "vertex", lambda *args: built.append(args))
        elements = [chain_element(view, i, j) for i, j in pairs]
        pieces = assignment_from_targets(view, targets)
        lazy_m = kmatching_from_assignment(view, pieces)
    assert built == []
    assert elements == [chain_element_points(eager, i, j) for i, j in pairs]
    monkeypatch.setattr(dynamics_module, "chain_element", chain_element_points)
    assert pieces == assignment_from_targets(eager, targets)
    eager_m = kmatching_from_assignment_points(eager, pieces)
    assert (lazy_m.k, lazy_m.window, lazy_m.deviations) == (
        eager_m.k,
        eager_m.window,
        eager_m.deviations,
    )


def test_assignment_pieces_coalesce(ctx):
    # a synthetic chain whose edges all carry the same label collapses
    # consecutive standard targets into a single piece
    from test_graph import _chain_graph

    g, vertices = _chain_graph(ctx, 8)
    view = g.explore_component(vertices[0], 100)
    pieces = assignment_from_targets(view, {0: 1, 2: 3, 4: 5})
    assert pieces == [(0, 4, IDENTITY)]


def test_assignment_pieces_do_not_coalesce_across_elements(graph):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 64)
    pieces = assignment_from_targets(view, {0: 1, 2: 3})
    assert len(pieces) == 2
    assert pieces[0][2] != pieces[1][2]


def test_kmatching_from_assignment_rejects_bad_pieces(graph, monkeypatch):
    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    view = graph.explore_component(v, 64)
    good = assignment_from_targets(view, {0: 1, 2: 3})
    with pytest.raises(EquigraphError, match="overlap"):
        kmatching_from_assignment(view, good + [(0, 0, good[0][2])])
    with pytest.raises(EquigraphError, match="outside"):
        kmatching_from_assignment(view, [(-200, -200, IDENTITY)])
    with pytest.raises(EquigraphError, match="not a J-vertex"):
        kmatching_from_assignment(view, [(0, 0, GroupElement(1, 3, 0))])
    dup = assignment_from_targets(view, {0: 1}) + assignment_from_targets(
        view, {2: 1}
    )
    with pytest.raises(EquigraphError, match="share a target"):
        kmatching_from_assignment(view, dup)
    # each displacement is checked against the K that the pieces' |b| bounds
    swap = assignment_from_targets(view, {0: 3, 2: 1})
    monkeypatch.setattr(dynamics_module, "bridge_k_bound", lambda r: 1)
    exceeds = "^displacement 3 at coordinate 0 exceeds K=1$"
    with pytest.raises(EquigraphError, match=exceeds):
        kmatching_from_assignment(view, swap)


def test_kmatching_from_assignment_needs_i_origin(graph):
    j = graph.vertex(Side.J, point(Fraction(1, 2)))
    view = graph.explore_component(j, 8)
    with pytest.raises(EquigraphError, match="I-vertex"):
        kmatching_from_assignment(view, [])
