"""The package surface: what ``import lotpath`` loads, and the ``lotpath`` logger."""

import ast
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import lotpath
from lotpath import augment, save_instance, solve_instance

from conftest import golden_spec

SRC = Path(lotpath.__file__).resolve().parent.parent

# run in a fresh interpreter: the test process has long since imported
# scipy.optimize, scipy.special and the paper's stage 2 (lotpath.graph)
PROBE = """
import json, sys
from pathlib import Path
special = {}
def step(name):
    special[name] = "scipy.special" in sys.modules
import lotpath
package = "scipy.optimize" in sys.modules
step("import")
import lotpath.cli
cli = "scipy.optimize" in sys.modules
step("cli import")
tmp = Path(sys.argv[4])
[generated] = lotpath.generate_instances("lumpy", 6, 0.2, 50.0, 9.0, seed=1)
lotpath.save_instance(generated, tmp / "generated.json")
lotpath.load_instance(tmp / "generated.json")
step("instances")
spec = lotpath.load_instance(json.loads(sys.argv[1]))
policy = lotpath.Policy(horizon=spec.horizon, reviews=(1, 3), levels=(60.0, 80.0))
lotpath.expected_trace(spec, policy)
step("expected_trace")
lotpath.simulate_policy(spec, policy, n_reps=100, allow_negative_orders=True)
lotpath.simulate_policy(spec, policy, n_reps=100)
step("simulate_policy")
lotpath.cli.main([
    "gen", "--pattern", "erratic", "--horizon", "4", "--rho", "0.2",
    "--fixed-cost", "50", "--penalty", "9", "-o", str(tmp / "gen"),
])
step("cli gen")
(tmp / "policy.json").write_text(json.dumps(policy.to_dict()))
lotpath.cli.main([
    "simulate", sys.argv[2], "--policy", str(tmp / "policy.json"), "--reps", "100",
    "-o", str(tmp / "report.json"),
])
step("cli simulate --policy")
lotpath.solve_instance(spec)
step("solve")
lotpath.cli.main(["solve", sys.argv[2], "-o", sys.argv[3]])
graph_after_solve = "lotpath.graph" in sys.modules
lotpath.build_graph
graph = "lotpath.graph" in sys.modules
listed = {"build_graph", "repetitive_augment", "shortest_path"} <= set(dir(lotpath))
res = lotpath.schedule_enumeration_oracle(spec, constrained=False)
print(json.dumps({
    "package": package,
    "cli": cli,
    "special": special,
    "graph_after_solve": graph_after_solve,
    "graph": graph,
    "dir_lists_graph": listed,
    "after_oracle": "scipy.optimize" in sys.modules,
    "best_cost": res.best_cost,
    "best_schedule": res.best_schedule,
}))
"""


def test_import_leaves_the_oracle_unloaded_until_first_use(golden_solution, tmp_path):
    # the same holds for the graph module: neither the import, the CLI nor a
    # solve loads it, and its first name loads it. scipy.special loads on the
    # first span pricing: instances, the trace and Monte Carlo never load it
    instance = tmp_path / "golden.json"
    save_instance(golden_spec(), instance)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [
            sys.executable, "-c", PROBE, json.dumps(golden_spec().to_dict()),
            str(instance), str(tmp_path / "solution.json"), str(tmp_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    probe = json.loads(out.stdout.splitlines()[-1])  # after the line `gen` prints
    assert probe["package"] is False
    assert probe["cli"] is False
    assert probe["special"] == {
        "import": False,
        "cli import": False,
        "instances": False,
        "expected_trace": False,
        "simulate_policy": False,
        "cli gen": False,
        "cli simulate --policy": False,
        "solve": True,
    }
    assert probe["graph_after_solve"] is False
    assert probe["graph"] is True
    assert probe["dir_lists_graph"] is True
    assert probe["after_oracle"] is True
    assert probe["best_schedule"] == [1, 2, 3, 4]
    assert probe["best_cost"] == pytest.approx(golden_solution.relaxed_cost, abs=1e-9)
    solution = json.loads((tmp_path / "solution.json").read_text())
    assert solution["path"] == list(golden_solution.path.node_labels)


def test_every_exported_name_resolves():
    for name in lotpath.__all__:
        assert getattr(lotpath, name) is not None, name
    from lotpath.oracle import OracleResult, schedule_enumeration_oracle

    assert lotpath.OracleResult is OracleResult
    assert lotpath.schedule_enumeration_oracle is schedule_enumeration_oracle
    with pytest.raises(AttributeError, match="no_such_name"):
        lotpath.no_such_name


def test_dir_lists_the_oracle_names():
    names = dir(lotpath)
    assert "OracleResult" in names
    assert "schedule_enumeration_oracle" in names
    assert "build_graph" in names and "repetitive_augment" in names
    assert set(lotpath.__all__) <= set(names)


# ---------------------------------------------------------------------------
# warnings go to the lotpath logger


def test_logger_has_a_null_handler():
    handlers = logging.getLogger("lotpath").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_high_cv_warns(caplog):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.WARNING, logger="lotpath"):
            sol = solve_instance(golden_spec(cv=1.0))
    [record] = caplog.records
    assert record.name == "lotpath.solver"
    assert record.levelno == logging.WARNING
    assert "golden-5: cv 1 exceeds 0.3" in record.getMessage()
    assert sol.relaxed_violations  # the re-optimising stage ran, silently


def test_golden_at_the_cv_limit_is_silent(caplog):
    with caplog.at_level(logging.WARNING, logger="lotpath"):
        sol = solve_instance(golden_spec(cv=0.3))
    assert sol.relaxed_violations  # the re-optimising stage ran
    assert caplog.records == []


def test_capped_level_grid_warns(caplog, monkeypatch):
    # the golden grid needs about 250 points at step mean / 25
    monkeypatch.setattr(augment, "MAX_GRID", 8)
    with caplog.at_level(logging.WARNING, logger="lotpath"):
        solve_instance(golden_spec())
    [record] = caplog.records
    assert record.name == "lotpath.augment"
    assert "capped at 8 points" in record.getMessage()


def _unused_imports(path: Path):
    """Names ``path`` imports and never references (``from __future__``
    aside; an ``__init__.py`` may import a name only to list it in
    ``__all__``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        exported = next(
            node.value for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
        used |= set(ast.literal_eval(exported))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    tests = Path(__file__).resolve().parent
    unused = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for root in (SRC / "lotpath", tests, SRC.parent / "demos", SRC.parent / "perfbench")
        for path in sorted(root.rglob("*.py"))
        for line, name in _unused_imports(path)
    ]
    assert unused == []


def _unreferenced_private_names(package: Path):
    """Module-level private names (functions, classes, constants; dunders
    aside) of ``package`` that no code of the package references outside
    their own definition."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(package.rglob("*.py"))]
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            definitions += [
                (name, node) for name in names
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            ]
    uses = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    ]
    unreferenced = []
    for name, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        if not any(
            id(node) not in inside and getattr(node, "id", getattr(node, "attr", None)) == name
            for node in uses
        ):
            unreferenced.append(name)
    return sorted(unreferenced)


def test_no_unreferenced_private_names():
    assert _unreferenced_private_names(SRC / "lotpath") == []
