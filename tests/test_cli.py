import ast
import hashlib
import json
import re
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from equigraph.cli import (
    load_config,
    main,
    parse_alpha_spec,
    parse_point_text,
)
from equigraph.dynamics import improve, run_dynamics
from equigraph.errors import (
    CLAIM1_VIOLATION,
    EVEN_PATH_COMPONENT,
    ConfigError,
    Finding,
)
from equigraph.graph import Frame

SMALL = """
# compact settings for fast end-to-end runs
ball_radius = 2
samples = 10
bfs_budget = 300
k_values = 3,5
window = 12
instances = 6
"""


def _write_config(tmp_path: Path, text: str = SMALL) -> str:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


# ----------------------------------------------------------------------
# configuration


def test_defaults():
    cfg = load_config(None)
    assert (cfg.alpha.p, cfg.alpha.q, cfg.alpha.d, cfg.alpha.r) == (-1, 1, 2, 1)
    assert cfg.seed == 0
    assert cfg.ball_radius == 8
    assert cfg.samples == 200
    assert cfg.bfs_budget == 10000
    assert cfg.k_values == (3, 5, 7, 9)
    assert cfg.window == 200
    assert cfg.instances == 500
    assert cfg.output_dir == Path("out")


def test_config_file_and_overrides(tmp_path):
    path = _write_config(tmp_path)
    cfg = load_config(path, seed=9, out=str(tmp_path / "o"))
    assert cfg.ball_radius == 2
    assert cfg.k_values == (3, 5)
    assert cfg.window == 12
    assert cfg.seed == 9  # flag override beats the file
    assert cfg.output_dir == tmp_path / "o"
    assert cfg.samples == 10


def test_config_rejects_unknown_key(tmp_path):
    path = _write_config(tmp_path, "Window = 5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    path2 = _write_config(tmp_path, "just words\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path2)
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.cfg"))


def test_config_value_validation(tmp_path):
    bad = [
        ("seed = -1", "seed"),
        ("ball_radius = 11", "ball_radius"),
        ("ball_radius = x", "integer"),
        ("samples = -2", "samples"),
        ("bfs_budget = 0", "bfs_budget"),
        ("window = 0", "window"),
        ("instances = -1", "instances"),
        ("k_values = 4", "odd"),
        ("k_values = ", "k_values"),
        ("k_values = 3,5\nwindow = 4", "smaller than largest K"),
        ("alpha = 0,0,2,1", "bad alpha"),
        ("alpha = 1,2,3", "four integers"),
        ("alpha = a,b,c,d", "integers"),
    ]
    for text, fragment in bad:
        path = _write_config(tmp_path, text + "\n")
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)


def test_parse_alpha_spec():
    spec = parse_alpha_spec("-1, 1, 5, 2")
    assert (spec.p, spec.q, spec.d, spec.r) == (-1, 1, 5, 2)


def test_parse_point_text():
    pt = parse_point_text("1/2")
    assert (pt.u, pt.v) == (Fraction(1, 2), 0)
    pt2 = parse_point_text("-3/2, 2")
    assert (pt2.u, pt2.v) == (Fraction(-3, 2), 2)
    for bad in ("x", "1,2,3", "1/0"):
        with pytest.raises(ConfigError):
            parse_point_text(bad)


# ----------------------------------------------------------------------
# subcommands and exit codes


def test_explore_writes_report(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "--config", _write_config(tmp_path), "explore"])
    assert rc == 0
    data = json.loads((tmp_path / "explore.json").read_text())
    assert data["command"] == "explore"
    assert data["origin"] == {"side": "I", "u": "1/2", "v": "0"}
    assert data["origin_degree"] == 2
    assert data["component"]["kind"] == "partial"
    assert data["component"]["size"] == 302  # 1 + 150 + 151 at budget 300
    assert len(data["visited_head"]) == 8 and len(data["visited_tail"]) == 8
    assert data["params"]["bfs_budget"] == 300
    assert "explore" in capsys.readouterr().out


def test_explore_builds_only_the_points_it_reports(tmp_path, monkeypatch):
    # the walk keeps its 4,002 keys; points are built for the 16 visited
    # vertices in the report, the two frontier tips and the origin's edges
    built = []
    make_vertex = Frame.vertex

    def counted(self, key):
        built.append(key)
        return make_vertex(self, key)

    monkeypatch.setattr(Frame, "vertex", counted)
    cfg = _write_config(tmp_path, "bfs_budget = 4000\n")
    assert main(["--out", str(tmp_path), "--config", cfg, "explore"]) == 0
    data = json.loads((tmp_path / "explore.json").read_text())
    assert data["component"]["size"] == 4002
    assert len(built) <= 20


def test_explore_point_and_side_flags(tmp_path):
    rc = main(
        [
            "--out",
            str(tmp_path),
            "--config",
            _write_config(tmp_path),
            "explore",
            "--point",
            "1/4,1",
            "--side",
            "J",
        ]
    )
    assert rc == 0
    data = json.loads((tmp_path / "explore.json").read_text())
    assert data["origin"] == {"side": "J", "u": "1/4", "v": "1"}
    assert data["params"]["side"] == "J"


def test_explore_bad_points_exit_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "explore", "--point", "2"]) == 2
    assert "outside" in capsys.readouterr().err
    assert main(["--out", str(tmp_path), "explore", "--point", "huh"]) == 2
    assert "rational" in capsys.readouterr().err


def test_verify_lemma_small_run(tmp_path):
    rc = main(["--out", str(tmp_path), "--config", _write_config(tmp_path), "verify-lemma"])
    assert rc == 0
    data = json.loads((tmp_path / "verify_lemma.json").read_text())
    assert data["command"] == "verify-lemma"
    assert data["ball_size"] == 11
    assert data["checks"] == 53
    assert data["violations"] == []
    assert data["max_dist_by_b"] == {"0": 0, "1": 2, "2": 4}


def test_verify_lemma_violations_exit_3(tmp_path, monkeypatch):
    def fake_verify(graph, ball_radius, n_samples, seed, bfs_budget=None):
        return {
            "checks": 1,
            "ball_size": 1,
            "violations": [{"defect": "bfs"}],
        }

    monkeypatch.setattr("equigraph.cli.verify_lemma", fake_verify)
    rc = main(["--out", str(tmp_path), "verify-lemma"])
    assert rc == 3


def test_bad_config_values_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path, "ball_radius = 11\n")
    assert main(["--out", str(tmp_path), "--config", path, "verify-lemma"]) == 2
    assert "ball_radius" in capsys.readouterr().err


def test_finding_exits_3_with_json_witness(tmp_path, monkeypatch, capsys):
    def explode(self, v, budget):
        raise Finding(
            EVEN_PATH_COMPONENT,
            "synthetic witness",
            witness={"origin": "here"},
        )

    monkeypatch.setattr(
        "equigraph.cli.IntervalGraph.explore_component", explode
    )
    rc = main(["--out", str(tmp_path), "explore"])
    assert rc == 3
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["finding"] == EVEN_PATH_COMPONENT
    assert payload["witness"] == {"origin": "here"}


def test_global_flags_must_precede_subcommand(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_dynamics_outputs(tmp_path):
    rc = main(
        ["--out", str(tmp_path), "--config", _write_config(tmp_path), "dynamics"]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "dynamics_summary.json").read_text())
    assert summary["totals"]["instances"] == 6
    assert summary["totals"]["converged"] == 6
    assert summary["totals"]["by_k"] == {"3": 3, "5": 3}
    for rec in summary["instances"]:
        assert rec["final_standard"] and rec["extracted_standard"]
        assert rec["iterations"] <= rec["initial_cost"] or rec["initial_cost"] == 0
        assert rec["sum_s"] <= rec["initial_cost"]
        assert rec["final_cost"] == 0
    bridge = summary["bridge"]
    assert bridge["k"] == 5
    assert bridge["iterations"] == 1
    assert bridge["initial_cost"] == 4
    assert bridge["extracted_standard"] is True
    assert bridge["targets"] == {"-4": -1, "-2": -3, "0": 3, "2": 1}
    for k in (3, 5):
        text = (tmp_path / f"trace_K{k}.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "# command=dynamics"
        assert lines[1] == "# seed=0"
        assert lines[2] == "# window=12"
        assert lines[3] == "# instances=6"
        assert lines[4] == f"# k={k}"
        assert lines[5] == "instance,n,S_size,cost,rewired_pairs"
        for row in lines[6:]:
            cells = row.split(",")
            assert len(cells) == 5
            int(cells[0]), int(cells[1]), int(cells[2]), int(cells[3])
            assert re.fullmatch(r"(-?\d+:-?\d+:-?\d+)(;-?\d+:-?\d+:-?\d+)*", cells[4])


@pytest.mark.parametrize(
    "instances, label", [(6, "0"), (0, "bridge")], ids=["random", "bridge"]
)
def test_dynamics_stopping_one_round_early_exits_3(
    tmp_path, monkeypatch, capsys, instances, label
):
    # instance 0 takes 2 rounds and the bridge 1, so the mutant hands
    # back a matching one round short of standard: m0 for the bridge
    def one_round_short(m0):
        _, trace = run_dynamics(m0)
        m = m0
        for _ in range(trace.iterations - 1):
            m = improve(m)
        trace.records.pop()
        return m, trace

    monkeypatch.setattr("equigraph.cli.run_dynamics", one_round_short)
    text = SMALL.replace("instances = 6", f"instances = {instances}")
    cfg = _write_config(tmp_path, text)
    assert main(["--out", str(tmp_path), "--config", cfg, "dynamics"]) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["finding"] == CLAIM1_VIOLATION
    assert payload["witness"]["instance"] == label


def test_figure_svg_shape(tmp_path):
    rc = main(["--out", str(tmp_path), "figure"])
    assert rc == 0
    svg = (tmp_path / "figure.svg").read_text()
    assert svg.startswith("<svg ")
    assert 'version="1.1"' in svg
    assert "<polygon " in svg
    assert svg.count("<circle ") == 4
    desc = re.search(r"<desc>.*?: (\[.*?\])</desc>", svg, re.S)
    assert desc is not None
    corners = ast.literal_eval(desc.group(1))
    assert corners == [
        ((0, 1, 0, 1), (0, 1, 2, 1)),
        ((1, 1, -1, 1), (1, 1, 1, 1)),
        ((1, 1, 0, 1), (1, 1, 0, 1)),
        ((0, 1, 1, 1), (0, 1, 1, 1)),
    ]
    # no raw floats beyond the fixed precision used at render time
    for num in re.findall(r'points="([^"]+)"', svg)[0].replace(",", " ").split():
        assert re.fullmatch(r"\d+\.\d{6}", num)


def test_figure_depends_on_alpha(tmp_path):
    main(["--out", str(tmp_path / "a"), "figure"])
    main(["--out", str(tmp_path / "b"), "--alpha=-1,1,3,1", "figure"])
    a = (tmp_path / "a" / "figure.svg").read_bytes()
    b = (tmp_path / "b" / "figure.svg").read_bytes()
    assert a != b


def test_figure_draws_an_alpha_whose_d_overflows_a_float(tmp_path):
    # sqrt(d)/(2*isqrt(d) + 1) lies just under 1/2, with d far above the
    # largest float: the figure reads the checked float approximation of
    # alpha, and never converts d
    d = 2**1100 + 3
    while isqrt(d) ** 2 == d:
        d += 1
    alpha = f"--alpha=0,1,{d},{2 * isqrt(d) + 1}"
    assert main(["--out", str(tmp_path), alpha, "figure"]) == 0
    svg = (tmp_path / "figure.svg").read_text()
    assert svg.count("<circle ") == 4


def test_report_requires_all_inputs(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "report"]) == 2
    err = capsys.readouterr().err
    assert "missing inputs" in err
    assert "explore.json" in err and "figure.svg" in err


def _run_pipeline(out: Path, cfg_path: str) -> dict[str, bytes]:
    base = ["--out", str(out), "--config", cfg_path]
    assert main(base + ["explore"]) == 0
    assert main(base + ["verify-lemma"]) == 0
    assert main(base + ["dynamics"]) == 0
    assert main(base + ["figure"]) == 0
    assert main(base + ["report"]) == 0
    return {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
    }


def test_full_pipeline_report_and_determinism(tmp_path):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path)
    first = _run_pipeline(out, cfg_path)
    expected = {
        "dynamics_summary.json",
        "explore.json",
        "figure.svg",
        "report.json",
        "trace_K3.csv",
        "trace_K5.csv",
        "verify_lemma.json",
    }
    assert set(first) == expected
    report = json.loads(first["report.json"].decode())
    assert set(report) == {
        "version",
        "config",
        "explore",
        "verify_lemma",
        "dynamics",
        "figure",
    }
    assert report["figure"]["sha256"] == hashlib.sha256(first["figure.svg"]).hexdigest()
    assert report["figure"]["bytes"] == len(first["figure.svg"])
    assert report["config"]["window"] == 12
    # a rerun into the same directory reproduces every file byte for byte
    second = _run_pipeline(out, cfg_path)
    assert first == second


def test_report_refuses_inputs_from_another_config(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path)
    _run_pipeline(out, cfg_path)  # one config throughout: exits 0
    base = ["--out", str(out), "--config", cfg_path]
    assert main(base + ["--seed", "1", "explore"]) == 0
    capsys.readouterr()
    assert main(base + ["report"]) == 2
    err = capsys.readouterr().err
    assert "explore.json" in err and "seed=1" in err and "seed=0" in err
    # the seed the report runs under decides which file is the odd one out
    assert main(base + ["--seed", "1", "report"]) == 2
    assert "verify_lemma.json" in capsys.readouterr().err
    assert main(base + ["explore"]) == 0
    assert main(base + ["report"]) == 0


def test_report_refuses_figure_for_another_alpha(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path)
    _run_pipeline(out, cfg_path)
    base = ["--out", str(out), "--config", cfg_path]
    assert main(base + ["--alpha=-1,1,3,1", "figure"]) == 0
    capsys.readouterr()
    assert main(base + ["report"]) == 2
    assert "figure.svg" in capsys.readouterr().err
    assert main(base + ["figure"]) == 0
    assert main(base + ["report"]) == 0


def test_seed_changes_dynamics_output(tmp_path):
    cfg_path = _write_config(tmp_path)
    base = ["--config", cfg_path]
    main(base + ["--out", str(tmp_path / "s0"), "dynamics"])
    main(base + ["--out", str(tmp_path / "s1"), "--seed", "1", "dynamics"])
    a = json.loads((tmp_path / "s0" / "dynamics_summary.json").read_text())
    b = json.loads((tmp_path / "s1" / "dynamics_summary.json").read_text())
    assert a["instances"] != b["instances"]
    assert a["params"]["seed"] == 0 and b["params"]["seed"] == 1


# ----------------------------------------------------------------------
# refusals that exit 2 before anything is written


def test_verify_lemma_refuses_a_budget_that_could_miss_a_goal(tmp_path, capsys):
    # a goal at distance d <= 2*ball_radius is found within 2d - 1 expansions
    text = "ball_radius = 1\nsamples = 20\nbfs_budget = {}\n"
    cfg = _write_config(tmp_path, text.format(2))
    assert main(["--out", str(tmp_path), "--config", cfg, "verify-lemma"]) == 2
    err = capsys.readouterr().err
    assert "bfs_budget" in err and "ball_radius" in err
    assert not (tmp_path / "verify_lemma.json").exists()
    cfg = _write_config(tmp_path, text.format(3))
    assert main(["--out", str(tmp_path), "--config", cfg, "verify-lemma"]) == 0
    data = json.loads((tmp_path / "verify_lemma.json").read_text())
    assert data["checks"] > 0 and data["violations"] == []


@pytest.mark.parametrize("text", ['{"params": ', "[1, 2]"])
def test_report_refuses_inputs_that_are_not_json_objects(tmp_path, capsys, text):
    for name in ("verify_lemma.json", "dynamics_summary.json", "figure.svg"):
        (tmp_path / name).write_text("{}")
    (tmp_path / "explore.json").write_text(text)
    assert main(["--out", str(tmp_path), "report"]) == 2
    assert str(tmp_path / "explore.json") in capsys.readouterr().err


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--out", str(taken), "figure"]) == 2
    assert str(taken) in capsys.readouterr().err


@pytest.mark.parametrize("taken", ["figure.svg", "figure.svg.tmp"])
def test_output_name_taken_by_a_directory_exits_2(tmp_path, capsys, taken):
    # the write leaves nothing behind but the directory in its way
    (tmp_path / taken).mkdir()
    assert main(["--out", str(tmp_path), "figure"]) == 2
    assert str(tmp_path / "figure.svg") in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [taken]


def test_config_with_a_byte_order_mark_loads(tmp_path):
    # Windows editors may start a UTF-8 file with one
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("\ufeffseed = 3\n".encode())
    assert load_config(str(cfg)).seed == 3


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = \xff\n")
    assert main(["--out", str(tmp_path), "--config", str(cfg), "figure"]) == 2
    assert str(cfg) in capsys.readouterr().err
