"""The benchmark's Monte Carlo workloads run and pass their own checks, and
its desk grid is the package's."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lotpath.bench import DESK_GRID

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["mc-validate", "mc-clipped"])
def test_monte_carlo_workload_passes_its_gate(workload):
    # --trace 0 writes nothing under perfbench/out; --limit 2 keeps a pass short
    out = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.5", "--trace", "0", "--limit", "2",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_benchmark_desk_grid_matches_the_package_grid():
    # read perfbench's literal copy without importing run.py, which sets the
    # process's thread-count variables on import
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (call,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["DESK_GRID"]
    ]
    assert {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords} == DESK_GRID
