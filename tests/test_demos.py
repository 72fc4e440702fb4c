"""The demo scripts run end to end against the package in this tree."""

import os
import subprocess
import sys
from pathlib import Path

import lotpath

SRC = Path(lotpath.__file__).resolve().parent.parent
DEMOS = SRC.parent / "demos"


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_worked_example():
    out = run_demo("worked_example.py")
    assert "1 -> 2 -> 3' -> 5 -> 6" in out
    assert "(cost 447.4670)" in out


def test_negative_orders():
    run_demo("negative_orders.py")
