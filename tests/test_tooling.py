"""The names that the benchmark's tracer and README rely on still exist.

A deleted or renamed function would otherwise blank a per-layer metric
(the tracer reports it only as `not_traced`) or leave README's example
and the package's `__all__` pointing at nothing.  Nor does any module
import a name it never reads, nor does `src/` define a helper or store
an attribute that only the tests use, and README's configuration table
lists the run settings and their defaults.  Floats stay where the exact
design allows them, and the value records stay NamedTuples.
"""

import ast
import importlib
import importlib.util
import re
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fresh_equigraph():
    """A fresh import of the package; the suite's own import is restored after."""

    def ours(name):
        return name.split(".")[0] == "equigraph"

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        yield importlib.import_module("equigraph")
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_tracer_targets_and_exports_resolve(fresh_equigraph):
    tracing = _load_tracing()
    for module_name, _, _ in tracing.SPANS + tracing.COUNTS:
        importlib.import_module(module_name)
    tracer = tracing.Tracer()
    tracer.install()  # patches the fresh modules, which the fixture drops
    # the point API and the dict-form round moved to tests/oracles.py; each
    # of their spans read 0 calls on every benchmark workload before the
    # move.  Any other target that does not resolve fails here
    assert tracer.missing == {
        "equigraph.algebra.AlphaContext.sign",
        "equigraph.algebra.AlphaContext.in_interval",
        "equigraph.group.apply",
        "equigraph.dynamics.improve",
    }
    for name in fresh_equigraph.__all__:
        assert hasattr(fresh_equigraph, name), name


def _unread_imports(path: Path) -> list[str]:
    """Module-level imports of path that the module never reads."""
    tree = ast.parse(path.read_text())
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:  # a name listed in __all__ is read by its importers
        if isinstance(node, ast.Assign) and "__all__" in [
            getattr(target, "id", None) for target in node.targets
        ]:
            read.update(ast.literal_eval(node.value))
    unread = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.relative_to(ROOT)}: {name}")
    return unread


def test_module_level_imports_are_read():
    files = sorted((ROOT / "src" / "equigraph").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    assert [name for path in files for name in _unread_imports(path)] == []


def _definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, name, is a method) of every function, method and
    class under node; a method is a function defined in a class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            method = isinstance(node, ast.ClassDef) and isinstance(
                child, ast.FunctionDef
            )
            yield prefix + child.name, child.name, method
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _assigned(tree: ast.Module):
    """(name, name, False) of each name that a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, name.id, False


def test_every_source_definition_is_read_in_src():
    # test-only helpers and constants live in tests/.  A name counts as read
    # when src/ loads it, reads it as an attribute, or spells it as a
    # string, as cli.COMMANDS does for its handlers and __all__ for the
    # public names; a method or property only when src/ reads it as an
    # attribute, since a same-named local or string does not reach it.
    files = (ROOT / "src" / "equigraph").glob("*.py")
    trees = [ast.parse(path.read_text()) for path in files]
    read, attributes = set(), set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    read |= attributes
    unread = {
        qualified
        for tree in trees
        for qualified, name, method in (*_definitions(tree), *_assigned(tree))
        if name not in (attributes if method else read)
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert unread == set()


def _self_assigned(tree: ast.Module):
    """Class.X of each self.X that an assignment in a method of Class binds."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in (leaf for t in targets for leaf in ast.walk(t)):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield f"{cls.name}.{target.attr}"


def test_every_source_attribute_is_read_in_src():
    # an attribute that src/ stores on self but never reads back is kept
    # only for the tests; reading it as an attribute or spelling it as a
    # string, as a getattr or a record key would, counts
    files = (ROOT / "src" / "equigraph").glob("*.py")
    trees = [ast.parse(path.read_text()) for path in files]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    assigned = {name for tree in trees for name in _self_assigned(tree)}
    assert "Frame.adjacent" in assigned  # the walk found the assignments
    assert {name for name in assigned if name.split(".")[1] not in read} == set()


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # pad with blank lines so that a traceback names the README's own line
    code = "\n" * readme[: readme.index(code)].count("\n") + code
    exec(compile(code, "README.md", "exec"), {})


def test_readme_code_names_resolve():
    # every private name and Class.method that README puts in backticks is
    # found in an equigraph module, so a rename cannot leave README stale
    import pkgutil

    import equigraph

    modules = [equigraph] + [
        importlib.import_module(f"equigraph.{info.name}")
        for info in pkgutil.iter_modules(equigraph.__path__)
    ]
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = {
        name
        for span in re.findall(r"`([^`]+)`", readme)
        for name in re.findall(r"(?<![\w.])(_\w+|[A-Z][a-z]\w*\.[a-z_]\w*)", span)
    }

    def resolves(name):
        head, *attrs = name.split(".")
        found = [getattr(module, head) for module in modules if hasattr(module, head)]
        return any(all(hasattr(obj, attr) for attr in attrs) for obj in found)

    assert {"AlphaContext.sign_scaled", "__all__"} <= names
    assert sorted(name for name in names if not resolves(name)) == []


def test_readme_configuration_table_lists_the_settings(tmp_path):
    # every key of RunConfig in its field order, each default read as
    # config-file text giving back RunConfig's own default
    from equigraph.cli import RunConfig, load_config

    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(\w+)`\s*\| `([^`]*)`", section, re.M)
    assert [key for key, _ in rows] == list(RunConfig._fields)
    path = tmp_path / "readme.cfg"
    path.write_text("".join(f"{key} = {default}\n" for key, default in rows))
    assert load_config(str(path)) == RunConfig()


def test_verify_lemma_runs_each_traced_step_once_per_check(monkeypatch, graph):
    # bench/tracing.py times graph.bfs_distance, pathcert.build_path and
    # pathcert.validate as spans: one call of each per check keeps their meaning
    from equigraph import pathcert
    from equigraph.graph import IntervalGraph

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in [
        (IntervalGraph, "bfs_distance"),
        (pathcert, "build_path"),
        (pathcert.CertifiedPath, "validate"),
    ]:
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    report = pathcert.verify_lemma(graph, 4, 10, seed=0)
    assert report["checks"] > 0
    assert calls == {
        "bfs_distance": report["checks"],
        "build_path": report["checks"],
        "validate": report["checks"],
    }


def test_dynamics_validates_once_per_instance(monkeypatch, tmp_path):
    # bench/tracing.py counts KMatching.validate, random_kmatching and
    # phi_pairs: a random instance runs from its draw to convergence on one
    # displacement list and validates only its result, so n instances and
    # the bridge (its assignment and its result) validate n + 2 times, and
    # only the bridge's run_dynamics reads facing pairs off a KMatching
    from equigraph import cli, dynamics
    from equigraph.dynamics import KMatching

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(KMatching, "validate", counted("validate", KMatching.validate))
    for name in ("random_kmatching", "phi_pairs"):
        original = getattr(dynamics, name)
        for module in (dynamics, cli):  # every binding, as the tracer patches
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    n = 6
    cfg = tmp_path / "dynamics.cfg"
    cfg.write_text(f"window = 12\nk_values = 3,5\ninstances = {n}\n")
    assert cli.main(["--out", str(tmp_path), "--config", str(cfg), "dynamics"]) == 0
    assert calls == {"validate": n + 2, "phi_pairs": 1}
    assert calls["random_kmatching"] == 0


def test_walk_makes_two_signs_per_vertex(monkeypatch, graph):
    # one sign per far-interval threshold (two a side); the edges' order is
    # derived at import: a kernel testing every bound of every map makes
    # about eight, and one that orders the two edges by a sign makes three
    from fractions import Fraction

    from equigraph.algebra import AlgebraicPoint as point, AlphaContext
    from equigraph.graph import Side

    calls = Counter()
    sign_scaled = AlphaContext.sign_scaled

    def counted(self, u, v):
        calls["sign"] += 1
        return sign_scaled(self, u, v)

    v = graph.vertex(Side.I, point(Fraction(1, 2)))
    monkeypatch.setattr(AlphaContext, "sign_scaled", counted)
    view = graph.explore_component(v, 500)
    assert view.budget_used == 500
    assert calls["sign"] <= 2 * view.budget_used + 4


def _float_uses(code: types.CodeType, where: str = ""):
    """(dotted name, what) of each float constant, float name or sqrt in a
    module's code and the functions and classes nested in it, after
    constant folding, which turns 2**-48 into a float."""

    def floats(const):
        if isinstance(const, float):
            yield repr(const)
        elif isinstance(const, (tuple, frozenset)):
            for item in const:
                yield from floats(item)

    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _float_uses(const, f"{where}{const.co_name}.")
        else:
            yield from ((where[:-1], f) for f in floats(const))
    for name in code.co_names:
        if name in ("float", "sqrt"):
            yield where[:-1], name


def _true_divisions(path: Path) -> list[str]:
    """path:line of each true division, a / b or a /= b, in path."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]


def test_floats_only_filter_or_render():
    # a float only draws the figure: render_figure alone makes one
    paths = sorted((ROOT / "src" / "equigraph").glob("*.py"))
    uses = {
        (path.name, where, what)
        for path in paths
        for where, what in _float_uses(compile(path.read_text(), path.name, "exec"))
    }
    stray = sorted(
        use
        for use in uses
        if use[1].split(".")[0] != "render_figure"
    )
    assert stray == []
    # the search sees the figure's float constants, so it is not vacuous
    assert ("cli.py", "render_figure", "440.0") in uses
    # nor does true division make one outside cli.py, where / also joins
    # paths; the search finds those, so it is not vacuous either
    divisions = {path.name: _true_divisions(path) for path in paths}
    assert divisions.pop("cli.py")
    assert [at for found in divisions.values() for at in found] == []


def test_algebraic_point_is_the_one_dataclass():
    # a dataclass builds its methods by exec at import, which every CLI call
    # pays, so the value records are NamedTuples; AlgebraicPoint stays one
    # because bench/tracing.py counts its __init__ as algebra.point_new
    import dataclasses
    import pkgutil

    import equigraph

    modules = [
        importlib.import_module(f"equigraph.{info.name}")
        for info in pkgutil.iter_modules(equigraph.__path__)
    ]
    made = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj)
    ]
    assert made == ["equigraph.algebra.AlgebraicPoint"]
    importers = [
        path.name
        for path in sorted((ROOT / "src" / "equigraph").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (
            isinstance(node, ast.Import)
            and "dataclasses" in [alias.name for alias in node.names]
        )
    ]
    assert importers == ["algebra.py"]


def test_records_are_read_only():
    from equigraph.algebra import AlphaSpec
    from equigraph.cli import RunConfig
    from equigraph.dynamics import DynamicsTrace, IterationRecord
    from equigraph.graph import ComponentView, GVertex
    from equigraph.pathcert import CertifiedPath

    records = (
        AlphaSpec,
        GVertex,
        ComponentView,
        CertifiedPath,
        IterationRecord,
        DynamicsTrace,
        RunConfig,
    )
    for record in records:
        rec = record._make(range(len(record._fields)))
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


def _sites(node: ast.AST, match, prefix: str = ""):
    """Qualified name of the function around each node under node that match takes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _sites(child, match, f"{prefix}{child.name}.")
            continue
        if match(child):
            yield prefix[:-1]
        yield from _sites(child, match, prefix)


def _src_sites(match) -> list[str]:
    """file:function of each node in src/ that match takes."""
    return [
        f"{path.name}:{site}"
        for path in sorted((ROOT / "src" / "equigraph").glob("*.py"))
        for site in _sites(ast.parse(path.read_text()), match)
    ]


def test_only_the_constructor_derives_a_window():
    # a KMatching derives its window from its deviations, so no caller in
    # src/ computes one for it; tests/oracles.py still may
    callers = _src_sites(
        lambda node: isinstance(node, ast.Call)
        and "_canonical_window"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )
    assert callers == ["dynamics.py:KMatching.__init__"]


def test_only_explore_reads_the_bfs_budget():
    # verify-lemma works out its own BFS budget from ball_radius, so the
    # setting is explore's walk budget alone
    readers = _src_sites(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "bfs_budget"
        and isinstance(node.ctx, ast.Load)
    )
    assert readers == ["cli.py:cmd_explore"]
