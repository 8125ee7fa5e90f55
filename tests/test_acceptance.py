"""Acceptance gate: the nine headline checks, one verdict line each.

Each test prints exactly one [PASS]/[FAIL] line (visible in normal pytest
output) and then asserts, so a red run still names every criterion.
"""

import ast
import hashlib
import json
import random
import re
import time
from fractions import Fraction

import pytest

from equigraph.algebra import AlgebraicPoint as point, AlphaContext
from equigraph.cli import main, render_figure
from equigraph.dynamics import phi_pairs, random_kmatching
from equigraph.errors import EVEN_PATH_COMPONENT, Finding
from equigraph.graph import IntervalGraph, Side, edge_polygon
from equigraph.pathcert import sample_unit_rational, verify_lemma

from conftest import ALL_ALPHAS
from oracles import (
    ALPHA,
    ONE,
    ZERO,
    check_nested_rays,
    extract_matching,
    facing_pairs_bruteforce,
    improve,
    partner,
)
from test_dynamics import compute_S
from test_graph import extreme_vertices

K_VALUES = (3, 5, 7, 9)
SUITE_WINDOW = 200
SUITE_SIZE = 500


def _verdict(capsys, n, ok, desc):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}")
    assert ok, f"criterion {n}: {desc}"


@pytest.fixture(scope="module")
def suite():
    """500 random instances, K cycling 3/5/7/9, improvement replayed stepwise."""
    out = []
    for i in range(SUITE_SIZE):
        k = K_VALUES[i % len(K_VALUES)]
        m = random_kmatching(SUITE_WINDOW, k, i)
        c0 = m.cost()
        steps = []
        cur = m
        while True:
            pairs = phi_pairs(cur)
            if not pairs:
                break
            s_size = 2 * len(pairs)
            nxt = improve(cur)  # validates internally, raises Finding on defects
            steps.append((cur.cost(), s_size, nxt.cost()))
            cur = nxt
        out.append({"k": k, "c0": c0, "steps": steps, "final": cur})
    return out


def test_criterion_1_degree_one_set(capsys):
    t0 = time.monotonic()
    ok = True
    for spec in ALL_ALPHAS:
        g = IntervalGraph(AlphaContext(spec))
        extremes = extreme_vertices()
        ok &= [(v.side, v.point) for v in extremes] == [
            (Side.I, ZERO),
            (Side.I, ONE),
            (Side.J, ALPHA),
            (Side.J, ONE + ALPHA),
        ]
        ok &= all(g.degree(v) == 1 for v in extremes)
        rng = random.Random(2024)
        checked = 0
        while checked < 1000:
            y = sample_unit_rational(rng)
            if y == 0 or y == 1:
                continue
            if checked % 2 == 0:
                ok &= g.degree(g.vertex(Side.I, point(y))) == 2
            else:
                ok &= g.degree(g.vertex(Side.J, point(y) + ALPHA)) == 2
            checked += 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10
    _verdict(
        capsys,
        1,
        ok,
        f"exactly four degree-one vertices across 3 alphas, 1000 samples "
        f"each all degree two ({elapsed:.1f}s)",
    )


def test_criterion_2_distance_lemma_sweep(capsys, graph):
    rep = verify_lemma(graph, 8, 200, seed=0)
    ok = rep["ball_size"] == 143
    ok &= rep["checks"] == 2485
    ok &= rep["elements_checked"] == 26
    ok &= rep["violations"] == []
    ok &= all(d <= 2 * int(b) for b, d in rep["max_dist_by_b"].items())
    ok &= all(l <= 2 * int(b) for b, l in rep["max_path_len_by_b"].items())
    _verdict(
        capsys,
        2,
        ok,
        f"radius-8 ball of {rep['ball_size']} elements, {rep['checks']} anchor "
        f"checks, 0 violations, distances and certificates within 2|b|",
    )


def test_criterion_3_improvement_step_bounds(capsys, suite):
    ok = True
    total_steps = 0
    for inst in suite:
        for before, s_size, after in inst["steps"]:
            ok &= after <= before - s_size
            ok &= s_size >= 2
            total_steps += 1
    _verdict(
        capsys,
        3,
        ok,
        f"every improvement round over {SUITE_SIZE} instances dropped cost "
        f"by at least |S| ({total_steps} rounds checked)",
    )


def test_criterion_4_termination_bounds(capsys, suite):
    ok = True
    worst_iters = 0
    for inst in suite:
        iters = len(inst["steps"])
        sum_s = sum(s for _, s, _ in inst["steps"])
        ok &= iters <= inst["c0"]
        ok &= sum_s <= inst["c0"]
        worst_iters = max(worst_iters, iters)
    _verdict(
        capsys,
        4,
        ok,
        f"iterations and lifetime sum of |S| within initial cost on all "
        f"{SUITE_SIZE} instances (max {worst_iters} iterations)",
    )


def test_criterion_5_convergence_and_extraction(capsys, suite):
    ok = True
    for inst in suite:
        final = inst["final"]
        ok &= final.is_standard
        ok &= check_nested_rays(final)
        extracted = extract_matching(final)
        ok &= extracted.k == 1 and extracted.is_standard
        lo, hi = extracted.window
        ok &= all(partner(extracted, a) == a + 1 for a in range(lo + lo % 2, hi, 2))
    _verdict(
        capsys,
        5,
        ok,
        f"all {SUITE_SIZE} instances converged to nested rays and extracted "
        f"to the standard matching covering every window vertex",
    )


def test_criterion_6_facing_pairs_vs_bruteforce(capsys):
    ok = True
    for i in range(100):
        window = 10 + (i % 4) * 10  # 10..40
        k = (3, 5, 7)[i % 3]
        m = random_kmatching(window, k, 1000 + i)
        ok &= compute_S(m) == facing_pairs_bruteforce(m)
        if phi_pairs(m):
            stepped = improve(m)
            ok &= compute_S(stepped) == facing_pairs_bruteforce(stepped)
    _verdict(
        capsys,
        6,
        ok,
        "facing-pair sets agree with the brute-force ray walk on 100 "
        "instances (windows 10-40) and their improved successors",
    )


def test_criterion_7_no_even_path_components(capsys, graph, monkeypatch, tmp_path):
    kinds = {"partial": 0, "even_cycle": 0, "finite_path": 0}
    ok = True
    origins = extreme_vertices()
    origins.append(graph.vertex(Side.I, point(Fraction(1, 2))))
    rng = random.Random(77)
    for _ in range(4):
        y = sample_unit_rational(rng)
        if 0 < y < 1:
            origins.append(graph.vertex(Side.I, point(y)))
    try:
        for v in origins:
            view = graph.explore_component(v, 10000)
            kinds[view.kind] += 1
            if view.kind not in ("partial", "even_cycle", "finite_path"):
                ok = False
            if view.kind == "finite_path":
                ok &= view.edge_count % 2 == 1
    except Finding:
        ok = False  # an even finite path would land here

    # and the CLI surfaces a synthetic even-path witness as exit code 3
    def explode(self, v, budget):
        raise Finding(EVEN_PATH_COMPONENT, "synthetic", witness={})

    monkeypatch.setattr("equigraph.cli.IntervalGraph.explore_component", explode)
    ok &= main(["--out", str(tmp_path), "explore"]) == 3
    monkeypatch.undo()
    _verdict(
        capsys,
        7,
        ok,
        f"{len(origins)} components explored at budget 10000: "
        f"{kinds['partial']} still open, {kinds['even_cycle']} even cycles, "
        f"{kinds['finite_path']} finite paths (all odd); even-path witness "
        f"exits 3",
    )


def test_criterion_8_edge_polygon_figure(capsys):
    expected_corners = [
        (ZERO, point(0, 2)),
        (ONE - ALPHA, ONE + ALPHA),
        (ONE, ONE),
        (ALPHA, ALPHA),
    ]
    expected_keys = [
        ((0, 1, 0, 1), (0, 1, 2, 1)),
        ((1, 1, -1, 1), (1, 1, 1, 1)),
        ((1, 1, 0, 1), (1, 1, 0, 1)),
        ((0, 1, 1, 1), (0, 1, 1, 1)),
    ]
    ok = True
    for spec in ALL_ALPHAS:
        ctx = AlphaContext(spec)
        corners = edge_polygon(ctx)
        ok &= corners == expected_corners
        loop = corners + [corners[0]]
        for (i1, j1), (i2, j2) in zip(loop, loop[1:]):
            di, dj = i2 - i1, j2 - j1
            ok &= (di == dj or di == ZERO - dj) and di != ZERO
        svg = render_figure(ctx)
        ok &= 'version="1.1"' in svg
        desc = re.search(r"<desc>.*?: (\[.*?\])</desc>", svg, re.S)
        ok &= desc is not None and ast.literal_eval(desc.group(1)) == expected_keys
    _verdict(
        capsys,
        8,
        ok,
        "edge-set polygon has the four exact corners with unit slopes for "
        "all three alphas; SVG embeds them exactly",
    )


def test_criterion_9_pipeline_determinism(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "ball_radius = 3\nsamples = 20\nbfs_budget = 400\n"
        "k_values = 3,5\nwindow = 16\ninstances = 12\n"
    )
    out = tmp_path / "out"

    def run() -> dict[str, bytes]:
        base = ["--out", str(out), "--config", str(cfg)]
        codes = [
            main(base + ["explore"]),
            main(base + ["verify-lemma"]),
            main(base + ["dynamics"]),
            main(base + ["figure"]),
            main(base + ["report"]),
        ]
        assert codes == [0] * 5
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}

    first = run()
    second = run()
    ok = first == second
    ok &= set(first) == {
        "explore.json",
        "verify_lemma.json",
        "dynamics_summary.json",
        "trace_K3.csv",
        "trace_K5.csv",
        "figure.svg",
        "report.json",
    }
    report = json.loads(first["report.json"].decode())
    ok &= report["figure"]["sha256"] == hashlib.sha256(first["figure.svg"]).hexdigest()
    _verdict(
        capsys,
        9,
        ok,
        f"full pipeline rerun reproduced all {len(first)} output files byte "
        f"for byte",
    )
