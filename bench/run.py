"""Benchmark of equigraph: the walk, certify and dynamics workloads.

Run from anywhere inside a checkout:

    python3 bench/run.py --workload walk --seed 0 --seconds 40 --trace 0

A workload is a fixed list of `equigraph.cli.main` calls, made in this
process; the program receives only the generated argv and config files.
A pass makes every call once, each from a freshly imported package, as a
user's separate CLI processes would, with the inputs of input set
i mod INPUT_SETS for pass i, built from --seed and that index.  Passes
repeat until --seconds is used up, and the outputs of every pass are
checked: structurally on every seed, and against the sha256 digests in
golden.json on the default seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  attempted and failed count CLI calls; a
call fails on a non-zero exit, an exception, a violation or a failed
output check.  With --trace 0 the metrics are the end-to-end ones,
measured with no wrapper installed, as medians over the passes.  Their
times (setup_s, wall_s and so items_per_s) are given at a nominal CPU
speed: a fixed reference loop is timed just before and after every timed
region, and the region's seconds are scaled by REF_NOMINAL_S over the
loop's mean time there (see Timing).  peak_rss_mb is not scaled.
With --trace 1 they are the per-layer ones from two traced passes (see
tracing.py), whose counts must agree exactly, next to one untraced pass
whose wall time gives the tracing overhead; --seconds does not apply.
Per-layer self times are raw seconds.  A line before the last one
records the per-pass figures, raw and scaled, the reference loop's times
and the design counters code.source_lines and code.public_names.

--write-golden reruns the default seed and records the digests of its
INPUT_SETS input sets, one object per set, in order; use it
only for a change that alters outputs on purpose, and say why.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
# Relative to ROOT: outputs echo their directory, so digests depend on it.
OUT = Path(".bench_out")

DEFAULT_SEED = 0
SETUP_REPEATS = 3  # before every pass, so the samples span the run
# Pass i takes input set i mod INPUT_SETS, each made from --seed and its
# index.  Costs differ between input sets by up to 10% (certify's sampled
# anchors), so a run's median spans several sets rather than one draw.
INPUT_SETS = 4
# This host's CPU speed drifts by up to 1.8x over minutes, which no run
# length averages out.  So a fixed pure-Python loop is timed just before
# and just after every timed call and set-up, and each timed figure is
# reported at the speed at which that loop takes REF_NOMINAL_S (its time on
# an idle 2 GHz Xeon core): raw seconds * REF_NOMINAL_S / reference seconds.
REF_NOMINAL_S = 0.0494
TRACED_PASSES = 2
ALPHAS = (("sqrt2", "-1,1,2,1"), ("sqrt3", "-1,1,3,1"), ("phi", "-1,1,5,2"))
# Every vertex of these walks is new: components through an endpoint or a
# rational interior point never close, so a walk expands exactly the budget.
WALK_BUDGET = 4000
# radius 8 and 40 samples: about 1,400 anchor checks over three alphas.
CERTIFY_CONFIG = {"ball_radius": 8, "samples": 40}
# A wide window makes the O(window) rescans of every round dominate.
DYNAMICS_CONFIG = {"window": 1000, "k_values": "3,5,7,9", "instances": 200}


@dataclass
class Call:
    """One CLI invocation and what its outputs must show."""

    argv: list[str]
    out: Path
    check: Callable[["Call"], tuple[int, list[str]]]
    degree: int = 0  # walks: the degree of the origin vertex


# ----------------------------------------------------------------------
# workloads


def _write_config(path: Path, values: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def _program_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _rng(seed: int, input_set: int) -> random.Random:
    return random.Random(seed * INPUT_SETS + input_set)


def walk_calls(seed: int, input_set: int) -> list[Call]:
    """explore from one endpoint and one interior point per alpha."""
    rng = _rng(seed, input_set)
    cfg = _write_config(OUT / "walk.cfg", {"bfs_budget": WALK_BUDGET})
    # endpoints as "u[,v]" for u + v*alpha: 0 and 1 on I, alpha and 1+alpha on J
    ends = {"I": ("0", "1"), "J": ("0,1", "1,1")}
    calls = []
    for i, (name, alpha) in enumerate(ALPHAS):
        end_side, mid_side = ("I", "J") if i % 2 == 0 else ("J", "I")
        den = rng.randrange(10**5, 10**6)
        mid = f"{rng.randrange(1, den)}/{den}" + (",1" if mid_side == "J" else "")
        walks = (
            ("end", rng.choice(ends[end_side]), end_side, 1),
            ("mid", mid, mid_side, 2),
        )
        for tag, pt, side, degree in walks:
            out = OUT / "walk" / f"{name}-{tag}"
            argv = ["--config", cfg, f"--alpha={alpha}", "--out", str(out)]
            argv += ["explore", "--point", pt, "--side", side]
            calls.append(Call(argv, out, check_walk, degree))
    return calls


def certify_calls(seed: int, input_set: int) -> list[Call]:
    """verify-lemma over the radius-8 ball for each alpha."""
    rng = _rng(seed, input_set)
    cfg = _write_config(OUT / "certify.cfg", CERTIFY_CONFIG)
    pseed = _program_seed(rng)
    calls = []
    for name, alpha in ALPHAS:
        out = OUT / "certify" / name
        argv = ["--config", cfg, "--seed", pseed, f"--alpha={alpha}"]
        argv += ["--out", str(out), "verify-lemma"]
        calls.append(Call(argv, out, check_certify))
    return calls


def dynamics_calls(seed: int, input_set: int) -> list[Call]:
    """The random instance suites plus the bridge suite."""
    rng = _rng(seed, input_set)
    cfg = _write_config(OUT / "dynamics.cfg", DYNAMICS_CONFIG)
    out = OUT / "dynamics"
    argv = ["--config", cfg, "--seed", _program_seed(rng), "--out", str(out)]
    return [Call(argv + ["dynamics"], out, check_dynamics)]


WORKLOADS = {"walk": walk_calls, "certify": certify_calls, "dynamics": dynamics_calls}


# ----------------------------------------------------------------------
# output checks: each returns (items of work done, problems found)


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check_walk(call: Call) -> tuple[int, list[str]]:
    rec = _load(call.out / "explore.json")
    comp = rec["component"]
    degree = call.degree
    problems = []
    if rec["origin_degree"] != degree:
        problems.append(f"origin degree {rec['origin_degree']}, expected {degree}")
    if comp["kind"] != "partial" or comp["budget"] != WALK_BUDGET:
        problems.append(f"{comp['kind']} component after {comp['budget']} expansions")
    if comp["edge_count"] != comp["size"] - 1 or len(comp["frontier"]) != degree:
        problems.append("walk is not a path with one tip per direction")
    return comp["budget"], problems


def check_certify(call: Call) -> tuple[int, list[str]]:
    rep = _load(call.out / "verify_lemma.json")
    problems = [f"violation: {v}" for v in rep["violations"]]
    for key in ("max_dist_by_b", "max_path_len_by_b"):
        for b, dist in rep[key].items():
            if dist > 2 * int(b):
                problems.append(f"{key}[{b}] = {dist} exceeds {2 * int(b)}")
    if rep["checks"] <= 0:
        problems.append("no anchor was checked")
    return rep["checks"], problems


def check_dynamics(call: Call) -> tuple[int, list[str]]:
    summary = _load(call.out / "dynamics_summary.json")
    instances = summary["instances"]
    problems = []
    if summary["totals"]["converged"] != DYNAMICS_CONFIG["instances"]:
        problems.append(f"{summary['totals']['converged']} instances converged")
    rounds: dict[int, int] = {}
    for r in instances:
        if not (r["final_standard"] and r["extracted_standard"]):
            problems.append(f"instance {r['instance']} did not end standard")
        if r["iterations"] > r["initial_cost"]:
            problems.append(f"instance {r['instance']} exceeded its cost bound")
        rounds[r["k"]] = rounds.get(r["k"], 0) + r["iterations"]
    if not summary["bridge"]["extracted_standard"]:
        problems.append("bridge suite did not end standard")
    for k, n in rounds.items():
        lines = (call.out / f"trace_K{k}.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        if len(rows) != n:
            problems.append(f"trace_K{k}.csv has {len(rows)} rows, expected {n}")
    converged = sum(1 for r in instances if r["final_standard"])
    return converged, problems


def digests(call: Call) -> dict[str, str]:
    return {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(call.out.iterdir())
    }


# ----------------------------------------------------------------------
# running


def fresh_cli():
    """Import equigraph anew, so no module state survives from a prior call."""
    for name in [m for m in sys.modules if m.split(".")[0] == "equigraph"]:
        del sys.modules[name]
    return importlib.import_module("equigraph.cli")


def setup(workload: str, seed: int, input_set: int) -> tuple[list[Call], list[Timing]]:
    """Import the package and build the inputs, a few times; time each."""
    times = []
    before = reference_loop()  # each loop between two set-ups serves both
    for _ in range(SETUP_REPEATS):
        gc.collect()  # drop the previous import's modules before timing
        t0 = time.perf_counter()
        fresh_cli()
        calls = WORKLOADS[workload](seed, input_set)
        for call in calls:
            call.out.mkdir(parents=True, exist_ok=True)
        raw = time.perf_counter() - t0
        after = reference_loop()
        times.append(Timing(raw, (before + after) / 2))
        before = after
    return calls, times


def reference_loop() -> float:
    """Time a fixed pure-Python loop that touches nothing of equigraph.

    It mixes integer arithmetic with tuple, dict and Fraction work, whose
    speed a busy host cuts by more: the mix tracks the workloads' slowdown
    better than either part alone.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    table: dict[tuple[int, int], int] = {}
    frac = Fraction(0)
    for i in range(40_000):
        key = (i % 997, i // 997)
        table[key] = table.get(key, 0) + 1
        if i % 8 == 0:
            frac += Fraction(i % 13, 1 + i % 7)
    return time.perf_counter() - t0


@dataclass
class Timing:
    """Raw seconds of a timed region and of the reference loop around it."""

    raw_s: float
    ref_s: float

    @property
    def nominal_s(self) -> float:
        return self.raw_s * REF_NOMINAL_S / self.ref_s


@dataclass
class PassResult:
    calls: int
    timings: list[Timing]  # one per call
    items: int
    failed: int
    output_bytes: int
    digests: dict[str, str]

    @property
    def raw_s(self) -> float:
        return sum(t.raw_s for t in self.timings)

    @property
    def wall_s(self) -> float:
        """Seconds from the first call to the last verdict, at nominal speed."""
        return sum(t.nominal_s for t in self.timings)


def run_pass(calls: list[Call], golden: dict | None = None, tracer=None) -> PassResult:
    """Make every call once; wall time covers the calls only, checks follow.

    With golden digests given, a call whose output files differ fails too.
    """
    timings = []
    codes = []
    for call in calls:
        shutil.rmtree(call.out)  # a call that writes nothing must not pass
        call.out.mkdir(parents=True)
        cli = fresh_cli()
        if tracer is not None:
            tracer.install()
        # Start every call on a heap free of earlier calls' garbage, as a
        # separate CLI process would; collection stays on during the call.
        gc.collect()
        sink = io.StringIO()
        before = reference_loop()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(call.argv)
        except Exception:  # a crash fails this call; the pass goes on
            code = None
            traceback.print_exc()
        raw = time.perf_counter() - t0
        timings.append(Timing(raw, (before + reference_loop()) / 2))
        if code != 0:
            print(f"call {call.argv} exited {code}: {sink.getvalue()}", file=sys.stderr)
        codes.append(code)
    items = failed = 0
    found: dict[str, str] = {}
    for call, code in zip(calls, codes):
        try:
            n, problems = call.check(call)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            n, problems = 0, [f"unreadable output: {exc!r}"]
        mine = digests(call)
        found.update(mine)
        if golden is not None:
            prefix = str(call.out) + os.sep
            if mine != {k: v for k, v in golden.items() if k.startswith(prefix)}:
                problems.append(f"outputs differ from {GOLDEN.name}")
        items += n
        for problem in problems:
            print(f"call {call.argv}: {problem}", file=sys.stderr)
        failed += code != 0 or bool(problems)
    return PassResult(
        calls=len(calls),
        timings=timings,
        items=items,
        failed=failed,
        output_bytes=sum(p.stat().st_size for c in calls for p in c.out.iterdir()),
        digests=found,
    )


def source_counters() -> dict[str, int]:
    """Design counters: source lines of the package and the size of __all__."""
    package = SRC / "equigraph"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(package.rglob("*.py")))
    return {
        "code.source_lines": lines,
        "code.public_names": len(importlib.import_module("equigraph").__all__),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def traced_metrics(traced: list, untraced_wall: float, extra: dict) -> dict:
    """Per-layer metrics: counts of the first traced pass, median times."""
    from tracing import layer_metrics

    per_pass = [
        {
            **layer_metrics(tracer),
            **extra,
            "cli.output_bytes": result.output_bytes,
            "trace.overhead_s": result.wall_s - untraced_wall,
        }
        for tracer, result in traced
    ]
    return {
        name: values[0] if len(set(values)) == 1 else statistics.median(values)
        for name in per_pass[0]
        for values in [[m[name] for m in per_pass]]
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(OUT / workload, ignore_errors=True)
    golden = json.loads(GOLDEN.read_text()) if seed == DEFAULT_SEED else None
    setup_times: list[Timing] = []

    def set_up_and_run(input_set: int, tracer=None) -> PassResult:
        calls, times = setup(workload, seed, input_set)
        setup_times.extend(times)
        return run_pass(calls, golden[input_set] if golden else None, tracer)

    passes: list[PassResult] = []
    traced = []
    start = time.perf_counter()
    if trace:
        from tracing import Tracer

        # one input set throughout, so that counts and overhead compare
        passes.append(set_up_and_run(0))
        for _ in range(TRACED_PASSES):
            tracer = Tracer()
            traced.append((tracer, set_up_and_run(0, tracer)))
    else:
        # each pass's own duration, reference loops and checks included
        took: list[float] = []
        while not took or time.perf_counter() - start + statistics.median(took) <= seconds:
            t0 = time.perf_counter()
            passes.append(set_up_and_run(len(passes) % INPUT_SETS))
            took.append(time.perf_counter() - t0)
    every = passes + [result for _, result in traced]
    attempted = sum(p.calls for p in every)
    failed = sum(p.failed for p in every)
    ref_loop_s = [t.ref_s for p in every for t in p.timings]
    detail = {
        "workload": workload,
        "seed": seed,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_raw_s": [p.raw_s for p in passes],
        "pass_items": [p.items for p in passes],
        "pass_ref_loop_s": [statistics.median(t.ref_s for t in p.timings) for p in every],
        "setup_s": [t.nominal_s for t in setup_times],
        "setup_raw_s": [t.raw_s for t in setup_times],
        **source_counters(),
    }
    if trace:
        counts = [tracer.counters() for tracer, _ in traced]
        if any(c != counts[0] for c in counts):
            print("per-layer counts differ between traced passes", file=sys.stderr)
            failed += 1
        extra = {
            "bench.ref_loop_s": statistics.median(ref_loop_s),
            "code.source_lines": detail["code.source_lines"],
            "code.public_names": detail["code.public_names"],
        }
        metrics = traced_metrics(traced, passes[0].wall_s, extra)
        detail["traced_wall_s"] = [result.wall_s for _, result in traced]
        detail["not_traced"] = sorted(traced[0][0].missing)
    else:
        metrics = {
            "setup_s": statistics.median(t.nominal_s for t in setup_times),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_golden() -> int:
    """Record the digests of every output of the default seed's input sets."""
    found: list[dict[str, str]] = [{} for _ in range(INPUT_SETS)]
    for workload in WORKLOADS:
        shutil.rmtree(OUT / workload, ignore_errors=True)
        for input_set, digests_of_set in enumerate(found):
            calls, _ = setup(workload, DEFAULT_SEED, input_set)
            result = run_pass(calls)
            if result.failed:
                print(f"{workload}: {result.failed} calls failed", file=sys.stderr)
                return 1
            digests_of_set.update(result.digests)
    GOLDEN.write_text(json.dumps(found, sort_keys=True, indent=2) + "\n")
    print(f"wrote {sum(map(len, found))} digests to {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "equigraph" / "cli.py").is_file():
        print(f"error: no equigraph package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    units = declared_metrics(bool(args.trace))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not "
              "as BENCHMARK.json declares", file=sys.stderr)
        return 2
    rows = [(name, metrics[name], units[name]) for name in sorted(metrics)]
    rows.append(("fail_ratio", result["failed"] / result["attempted"], "ratio"))
    for name, value, unit in rows:
        print(f"{args.workload:9} {name:40} {value:>16.6f} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
