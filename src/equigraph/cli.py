"""Command line driver: exploration, verification, dynamics, figure, report.

Exit codes: 0 all checks passed, 2 usage or configuration error, 3 a
mathematical Finding (a run produced a witness against an invariant this
package exists to check).

All outputs are deterministic for a fixed config: JSON with sorted keys,
CSV with LF line endings, no timestamps, and files written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from math import inf
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import __version__
from .algebra import AlgebraicPoint, AlphaContext, AlphaSpec
from .dynamics import (
    DynamicsTrace,
    KMatching,
    assignment_from_targets,
    kmatching_from_assignment,
    random_dynamics,
    run_dynamics,
)
from .errors import CLAIM1_VIOLATION, ConfigError, EquigraphError, Finding
from .graph import IntervalGraph, Side, edge_polygon, vertex_record
from .group import MAX_BALL_RADIUS
from .pathcert import verify_lemma

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FINDING = 3


class RunConfig(NamedTuple):
    """The run settings: one field per config key, at its default."""

    alpha: AlphaSpec = AlphaSpec(-1, 1, 2, 1)
    seed: int = 0
    ball_radius: int = 8
    samples: int = 200
    bfs_budget: int = 10000
    k_values: tuple[int, ...] = (3, 5, 7, 9)
    window: int = 200
    instances: int = 500
    output_dir: Path = Path("out")


# the integer settings: the least and greatest value, and that bound in words
INT_BOUNDS = {
    "seed": (0, inf, "nonnegative"),
    "ball_radius": (0, MAX_BALL_RADIUS, f"in [0, {MAX_BALL_RADIUS}]"),
    "samples": (0, inf, "nonnegative"),
    "bfs_budget": (1, inf, "positive"),
    "window": (1, inf, "positive"),
    "instances": (0, inf, "nonnegative"),
}


# ----------------------------------------------------------------------
# config parsing


def parse_alpha_spec(text: str) -> AlphaSpec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"alpha needs four integers p,q,d,r, got {text!r}")
    try:
        spec = AlphaSpec(*(int(x) for x in parts))
    except ValueError as exc:
        raise ConfigError(f"alpha components must be integers: {text!r}") from exc
    try:
        AlphaContext(spec)  # full validation: positive non-square d, 0 < alpha < 1
    except EquigraphError as exc:
        raise ConfigError(f"bad alpha: {exc}") from exc
    return spec


def _parse_setting(key: str, text: str) -> object:
    """The value of one setting, from its text in a config file or flag."""
    if key == "alpha":
        return parse_alpha_spec(text)
    if key == "output_dir":
        return Path(text)
    if key == "k_values":
        try:
            k_values = tuple(int(x) for x in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"k_values must be integers: {text!r}") from exc
        for k in k_values:
            if k <= 0 or k % 2 == 0:
                raise ConfigError(f"every K must be an odd positive integer, got {k}")
        return k_values
    least, greatest, wording = INT_BOUNDS[key]
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from exc
    if not least <= value <= greatest:
        raise ConfigError(f"{key} must be {wording}, got {value}")
    return value


def load_config(
    config_path: Optional[str],
    seed: Optional[int] = None,
    alpha: Optional[str] = None,
    out: Optional[str] = None,
) -> RunConfig:
    """Defaults, then the key=value config file, then CLI overrides."""
    raw: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            lines = path.read_text(encoding="utf-8-sig").splitlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not UTF-8: {exc}") from exc
        for lineno, line in enumerate(lines, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{config_path}:{lineno}: expected key=value")
            key, value = key.strip(), value.strip()
            if key not in RunConfig._fields:
                raise ConfigError(f"{config_path}:{lineno}: unknown key {key!r}")
            raw[key] = value
    flags = {"seed": seed, "alpha": alpha, "output_dir": out}
    raw.update((key, str(value)) for key, value in flags.items() if value is not None)
    cfg = RunConfig(**{key: _parse_setting(key, text) for key, text in raw.items()})
    if cfg.window < max(cfg.k_values):
        raise ConfigError(
            f"window {cfg.window} smaller than largest K {max(cfg.k_values)}"
        )
    return cfg


def config_echo(cfg: RunConfig) -> dict:
    """The settings as JSON gives them back, and the package version.

    Every output records these as its params, and report compares them
    with the params its inputs were written with.
    """
    text = json.dumps(cfg._asdict(), default=str)
    return {**json.loads(text), "version": __version__}


# ----------------------------------------------------------------------
# deterministic output helpers


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(text.encode("utf-8"))
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.is_file():  # not a directory that was in the way
            tmp.unlink()
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n")


def _write_csv(
    path: Path,
    comments: Sequence[tuple[str, object]],
    header: str,
    rows: Sequence[Sequence[object]],
) -> None:
    lines = [f"# {key}={value}" for key, value in comments]
    lines.append(header)
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _matching_record(m: KMatching) -> dict:
    # outputs keep the path-id level, with the one path as "0"
    return {
        "k": m.k,
        "windows": {"0": list(m.window)},
        "deviations": {"0": {str(a): t for a, t in m.deviations.items()}},
    }


# ----------------------------------------------------------------------
# subcommands


def parse_point_text(text: str) -> AlgebraicPoint:
    """Parse "u" or "u,v" (u, v rational) as the point u + v*alpha."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (1, 2):
        raise ConfigError(f"point must be 'u' or 'u,v', got {text!r}")
    try:
        u = Fraction(parts[0])
        v = Fraction(parts[1]) if len(parts) == 2 else Fraction(0)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"point components must be rational: {text!r}") from exc
    return AlgebraicPoint(u, v)


def cmd_explore(cfg: RunConfig, point_text: str, side_text: str) -> int:
    ctx = AlphaContext(cfg.alpha)
    graph = IntervalGraph(ctx)
    pt = parse_point_text(point_text)
    side = Side.I if side_text == "I" else Side.J
    try:
        vtx = graph.vertex(side, pt)
    except EquigraphError as exc:
        raise ConfigError(str(exc)) from exc
    view = graph.explore_component(vtx, cfg.bfs_budget)
    report = {
        "command": "explore",
        "params": {**config_echo(cfg), "point": point_text, "side": side.value},
        "origin": vertex_record(vtx),
        "origin_degree": graph.degree(vtx),
        "origin_index": view.origin_index,
        "component": view.to_record(),
        "visited_head": [vertex_record(w) for w in view.visited[:8]],
        "visited_tail": [vertex_record(w) for w in view.visited[-8:]],
    }
    target = cfg.output_dir / "explore.json"
    _write_json(target, report)
    print(
        f"explore: {view.kind} component from ({side.value}, {pt}), "
        f"{len(view.visited)} vertices seen; wrote {target}"
    )
    return EXIT_OK


def cmd_verify_lemma(cfg: RunConfig) -> int:
    ctx = AlphaContext(cfg.alpha)
    graph = IntervalGraph(ctx)
    report = verify_lemma(graph, cfg.ball_radius, cfg.samples, cfg.seed)
    out = {"command": "verify-lemma", "params": config_echo(cfg), **report}
    target = cfg.output_dir / "verify_lemma.json"
    _write_json(target, out)
    n_violations = len(report["violations"])
    print(
        f"verify-lemma: {report['checks']} checks over {report['ball_size']} "
        f"elements, {n_violations} violations; wrote {target}"
    )
    return EXIT_FINDING if n_violations else EXIT_OK


class _PairCells(dict):
    """The trace cell of each rewired pair, formatted on its first use.

    Rounds rewire the same few pairs over and over, so a dynamics run
    formats each distinct pair once.
    """

    def __missing__(self, pair: tuple[int, int]) -> str:
        cell = self[pair] = f"0:{pair[0]}:{pair[1]}"
        return cell


def _pairs_cell(cells: _PairCells, pairs: Sequence[tuple[int, int]]) -> str:
    return ";".join(map(cells.__getitem__, pairs))


def _assert_converged(label: str, final: KMatching, trace: DynamicsTrace) -> None:
    """Raise a Finding unless the converged matching is standard.

    The cost bounds on iterations and on the sum of |S| need no check
    here: run_dynamics caps the rounds at the initial cost, raises a
    Finding on any rewired pair that drops the cost by less than 2, so
    each round drops it by at least |S|, and recounts the cost at the end.
    Nor do the rays: in a validated matching with no facing pair, a
    leftmost left-pointing A-vertex a would face a - 2, so every ray
    points right, and a right-pointing, eventually standard bijection is
    standard, since its leftmost deviating a would leave a + 1 to an
    A-vertex left of a.  So is_standard is the one converged-state test.
    """
    if not final.is_standard:
        witness = {
            "instance": label,
            "initial_cost": trace.initial_cost,
            "iterations": trace.iterations,
            "sum_s": trace.sum_s,
        }
        raise Finding(CLAIM1_VIOLATION, "converged matching is not standard", witness)


def _bridge_suite(cfg: RunConfig) -> dict:
    """Dynamics on a matching induced by group elements on a real component.

    Explores a window of the component through (I, 1/2), assigns isometry
    pieces realizing two block transpositions, converts them to a matching
    with the displacement bound derived from max |b|, and runs the
    improvement dynamics down to the standard matching.
    """
    ctx = AlphaContext(cfg.alpha)
    graph = IntervalGraph(ctx)
    origin = graph.vertex(Side.I, AlgebraicPoint(Fraction(1, 2)))
    view = graph.explore_component(origin, budget=64)
    targets = {-4: -1, -2: -3, 0: 3, 2: 1}
    assignment = assignment_from_targets(view, targets)
    m0 = kmatching_from_assignment(view, assignment)
    final, trace = run_dynamics(m0)
    _assert_converged("bridge", final, trace)
    return {
        "origin": vertex_record(origin),
        "view_kind": view.kind,
        "targets": {str(a): t for a, t in sorted(targets.items())},
        "pieces": [[lo, hi, [el.a, el.b, el.c]] for lo, hi, el in assignment],
        "k": m0.k,
        "initial_cost": trace.initial_cost,
        "iterations": trace.iterations,
        "sum_s": trace.sum_s,
        "final_matching": _matching_record(final),
        "extracted_standard": final.is_standard,
    }


def cmd_dynamics(cfg: RunConfig) -> int:
    rows_by_k: dict[int, list[tuple]] = {k: [] for k in cfg.k_values}
    instance_records = []
    max_iterations = 0
    cells = _PairCells()
    for i in range(cfg.instances):
        k = cfg.k_values[i % len(cfg.k_values)]
        inst_seed = cfg.seed * 1_000_003 + i
        final, trace = random_dynamics(cfg.window, k, inst_seed)
        _assert_converged(str(i), final, trace)
        for rec in trace.records:
            rows_by_k[k].append(
                (i, rec.n, rec.s_size, rec.cost, _pairs_cell(cells, rec.rewired))
            )
        max_iterations = max(max_iterations, trace.iterations)
        instance_records.append(
            {
                "instance": i,
                "k": k,
                "seed": inst_seed,
                "initial_cost": trace.initial_cost,
                "iterations": trace.iterations,
                "sum_s": trace.sum_s,
                "final_cost": trace.final_cost,
                "final_standard": final.is_standard,
                "extracted_standard": final.is_standard,
            }
        )
    bridge = _bridge_suite(cfg)
    for k in cfg.k_values:
        comments = [
            ("command", "dynamics"),
            ("seed", cfg.seed),
            ("window", cfg.window),
            ("instances", cfg.instances),
            ("k", k),
        ]
        _write_csv(
            cfg.output_dir / f"trace_K{k}.csv",
            comments,
            "instance,n,S_size,cost,rewired_pairs",
            rows_by_k[k],
        )
    summary = {
        "command": "dynamics",
        "params": config_echo(cfg),
        "totals": {
            "instances": cfg.instances,
            "converged": len(instance_records),
            "max_iterations": max_iterations,
            "by_k": {
                str(k): sum(1 for r in instance_records if r["k"] == k)
                for k in cfg.k_values
            },
        },
        "instances": instance_records,
        "bridge": bridge,
    }
    target = cfg.output_dir / "dynamics_summary.json"
    _write_json(target, summary)
    print(
        f"dynamics: {cfg.instances} random instances plus bridge suite "
        f"converged to standard; wrote {target}"
    )
    return EXIT_OK


def render_figure(ctx: AlphaContext) -> str:
    """SVG 1.1 drawing of the closed edge-set polygon in I x J.

    Geometry is computed exactly; floats appear only at render time, from
    alpha = scaled / 2**64, one correctly rounded int division.  The
    <desc> element carries the exact corners as (nu, du, nv, dv) tuples
    (numerator/denominator of the rational and alpha parts) for i and j.
    """
    corners = edge_polygon(ctx)
    margin, scale = 60.0, 440.0
    alpha = ctx.scaled / 2**64
    j_top = alpha + 1.0

    def sx(i_val: float) -> str:
        return f"{margin + scale * i_val:.6f}"

    def sy(j_val: float) -> str:
        return f"{margin + scale * (j_top - j_val):.6f}"

    def text(x: float, y: float, body: str, anchor: str = "") -> str:
        style = 'font-size="15" font-family="monospace" fill="#222222"'
        if anchor:
            style += f' text-anchor="{anchor}"'
        return f'<text x="{x:.6f}" y="{y:.6f}" {style}>{body}</text>'

    exact = [
        tuple(
            (x.u.numerator, x.u.denominator, x.v.numerator, x.v.denominator)
            for x in corner
        )
        for corner in corners
    ]
    rendered = [
        tuple(float(x.u) + float(x.v) * alpha for x in corner) for corner in corners
    ]
    poly_points = " ".join(f"{sx(px)},{sy(py)}" for px, py in rendered)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="560" height="560" viewBox="0 0 560 560">',
        "<title>edge-set polygon of the interval graph</title>",
        f"<desc>exact corners (i;j) as ((nu,du,nv,dv),(nu,du,nv,dv)) "
        f"with x = nu/du + (nv/dv)*alpha: {exact!r}</desc>",
        f'<rect x="{margin:.6f}" y="{margin:.6f}" width="{scale:.6f}" '
        f'height="{scale:.6f}" fill="none" stroke="#999999" stroke-width="1"/>',
        f'<polygon points="{poly_points}" fill="#dbe9f6" fill-opacity="0.5" '
        'stroke="#1f5fa8" stroke-width="2"/>',
    ]
    for (ci, cj), (px, py) in zip(corners, rendered):
        lines.append(f'<circle cx="{sx(px)}" cy="{sy(py)}" r="4" fill="#1f5fa8"/>')
        lines.append(text(float(sx(px)) + 9.0, float(sy(py)) - 9.0, f"({ci}, {cj})"))
    for i_val, label in ((0.0, "0"), (1.0, "1")):
        lines.append(text(float(sx(i_val)), margin + scale + 24, label, "middle"))
    for j_val, label in ((alpha, "a"), (j_top, "1+a")):
        lines.append(text(margin - 14, float(sy(j_val)), label, "end"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_figure(cfg: RunConfig) -> int:
    ctx = AlphaContext(cfg.alpha)
    svg = render_figure(ctx)
    target = cfg.output_dir / "figure.svg"
    _write_text(target, svg)
    print(f"figure: wrote {target}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    out = cfg.output_dir
    needed = {
        "explore": "explore.json",
        "verify_lemma": "verify_lemma.json",
        "dynamics": "dynamics_summary.json",
        "figure": "figure.svg",
    }
    missing = sorted(
        name for name in needed.values() if not (out / name).is_file()
    )
    if missing:
        raise ConfigError(f"missing inputs in {out}: {', '.join(missing)}")
    echo = config_echo(cfg)
    merged = {"version": __version__, "config": echo}
    for section in ("explore", "verify_lemma", "dynamics"):
        path = out / needed[section]
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{path} is not readable JSON: {exc}") from exc
        params = data.get("params", {}) if isinstance(data, dict) else None
        if not isinstance(params, dict):
            raise ConfigError(f"{path} is not a JSON object with a params object")
        for key, value in echo.items():
            if params.get(key) != value:
                raise ConfigError(
                    f"{needed[section]} was written with {key}={params.get(key)!r}, "
                    f"this run has {key}={value!r}"
                )
        merged[section] = data
    svg_bytes = (out / needed["figure"]).read_bytes()
    # figure.svg records no params, but it is a function of alpha alone
    if svg_bytes != render_figure(AlphaContext(cfg.alpha)).encode("utf-8"):
        raise ConfigError(
            f"{needed['figure']} was not drawn for this run's alpha "
            f"{echo['alpha']!r}"
        )
    merged["figure"] = {
        "file": needed["figure"],
        "bytes": len(svg_bytes),
        "sha256": hashlib.sha256(svg_bytes).hexdigest(),
    }
    target = out / "report.json"
    _write_json(target, merged)
    print(f"report: wrote {target}")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point


# subcommand -> (handler, help).  main looks the handler up by its name when
# it runs, so that a wrapper set on the module attribute is the one called.
COMMANDS = {
    "explore": ("cmd_explore", "walk and classify one component"),
    "verify-lemma": ("cmd_verify_lemma", "check distance certificates over a ball"),
    "dynamics": ("cmd_dynamics", "run the matching-improvement suites"),
    "figure": ("cmd_figure", "draw the edge-set polygon as SVG"),
    "report": ("cmd_report", "merge all outputs into one JSON report"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equigraph",
        description=(
            "Exact checks for an interval isometry graph: component "
            "exploration, distance certificates, matching dynamics, and "
            "the edge-set figure."
        ),
    )
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--seed", type=int, metavar="N", help="override seed")
    parser.add_argument("--out", metavar="DIR", help="override output directory")
    parser.add_argument(
        "--alpha", metavar="p,q,d,r", help="override alpha = (p + q*sqrt(d)) / r"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=h) for name, (_, h) in COMMANDS.items()}
    explore = commands["explore"]
    explore.add_argument(
        "--point", default="1/2", metavar="u[,v]", help="origin point u + v*alpha"
    )
    explore.add_argument("--side", default="I", choices=("I", "J"))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, alpha=args.alpha, out=args.out)
        try:
            cfg.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {cfg.output_dir}: {exc.strerror}"
            ) from exc
        handler = globals()[COMMANDS[args.command][0]]
        extra = (args.point, args.side) if args.command == "explore" else ()
        return handler(cfg, *extra)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Finding as finding:
        payload = {
            "finding": finding.kind,
            "message": finding.message,
            "witness": finding.witness,
        }
        print(json.dumps(payload, sort_keys=True, default=str), file=sys.stderr)
        return EXIT_FINDING


if __name__ == "__main__":
    raise SystemExit(main())
