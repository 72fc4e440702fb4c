"""The demo scripts run end to end against the package in this tree."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import lotpath

SRC = Path(lotpath.__file__).resolve().parent.parent
DEMOS = SRC.parent / "demos"


@lru_cache(maxsize=None)
def run_python(*args):
    """The stdout of ``python *args`` against this tree's package, which
    must exit 0; each command runs once per test run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def run_demo(name):
    return run_python(str(DEMOS / name))


@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_exits_zero(name):
    run_demo(name)


def test_factorial_study():
    out = run_demo("factorial_study.py")
    assert "solving 324 instances" in out
    assert "  rho 0.1/0.2/0.3 : [0, 7, 12]\n" in out
    assert "  b   2/5/10      : [4, 6, 9]\n" in out
    assert "  K   225/900/2500: [19, 0, 0]\n" in out


def test_worked_example():
    out = run_demo("worked_example.py")
    assert "1 -> 2 -> 3' -> 5 -> 6" in out
    assert "(cost 447.4670)" in out


def test_negative_orders():
    run_demo("negative_orders.py")


def test_readme_quick_start():
    # the Python block under "Quick start" runs, and every printed value
    # with a comment matches that comment (to 4 decimals for floats)
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = run_python("-c", code).splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    commented = [
        (k, line.split("#", 1)[1].strip().split("  ")[0])
        for k, line in enumerate(prints)
        if "#" in line
    ]
    assert [want for _, want in commented] == ["(1, 2, 3, 5)", "447.4670", "437.3540"]
    for k, want in commented:
        got = printed[k]
        if want.startswith("("):
            assert got == want
        else:
            assert f"{float(got):.4f}" == want
