#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

1. Span arithmetic: self time and the accounting check on a hand-made trace.
2. Every workload, timed and traced, at a tiny size (``--limit``): exit 0,
   ``correct`` true, nothing failed, and exactly the metrics that
   BENCHMARK.json names for that mode, each with its unit.
3. Injected faults (a shifted order-up-to level, a perturbed cost) are caught
   by the correctness gate: exit 1, ``correct`` false, and the failures are
   counted in ``failed`` and in the printed ``failed_frac``.
4. In a directory that holds only BENCHMARK.json and the benchmark's own
   files, the command exits non-zero without printing a result.

Takes about a minute; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import Span, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
    1: {m["name"]: m["unit"] for m in BENCH["per_layer"]},
}

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, result


def test_span_arithmetic() -> None:
    t = Tracer()
    t.spans = [
        Span(0, "solver.solve", 0.0, 10.0, None),
        Span(1, "cycles.matrix", 1.0, 4.0, 0),
        Span(2, "augment.repair", 5.0, 9.0, 0),
        Span(3, "graph.search", 6.0, 7.0, 2),
        Span(4, "augment.split", 7.0, 8.5, 2),
    ]
    own = t.self_times()
    expect(
        all(math.isclose(own[i], v) for i, v in enumerate((3.0, 3.0, 1.5, 1.0, 1.5))),
        f"self times of a nested trace {own}",
    )
    expect(t.accounting_gap() < 1e-12, "self times add up to the root span")
    m = t.layer_metrics()
    expect(
        m["augment.repair_s"] == 4.0 and m["augment.repair_self_s"] == 1.5
        and m["augment.repaired"] == 1 and m["solver.self_s"] == 3.0,
        "layer metrics of a nested trace",
    )


def test_clean_runs() -> None:
    for workload in [w["name"] for w in BENCH["workloads"]]:
        for trace in (0, 1):
            proc, result = bench(workload, trace, "--limit", "1" if workload == "lumpy-long" else "2")
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit 0 (got {proc.returncode}) {proc.stderr[-500:]}")
            if result is None:
                expect(False, f"{tag}: last line is the JSON result")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: correct, nothing failed, something attempted")
            metrics = result["metrics"]
            expect(set(metrics) == set(UNITS[trace]), f"{tag}: exactly the BENCHMARK.json metrics")
            expect(
                all(metrics[k]["unit"] == u for k, u in UNITS[trace].items() if k in metrics),
                f"{tag}: every metric carries its unit",
            )
            expect(
                all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                    for v in metrics.values()),
                f"{tag}: every value is a finite number",
            )
            printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if line}
            expect(set(UNITS[trace]) <= printed and "failed_frac" in printed,
                   f"{tag}: every metric and failed_frac printed by name")


def test_faults() -> None:
    cases = [
        ("desk-grid", "level"),
        ("desk-grid", "cost"),
        ("mc-validate", "level"),
        ("mc-clipped", "cost"),
    ]
    for workload, fault in cases:
        proc, result = bench(workload, 0, "--limit", "2", "--inject-fault", fault)
        tag = f"{workload} --inject-fault {fault}"
        expect(proc.returncode == 1, f"{tag}: exit 1 (got {proc.returncode})")
        expect(
            result is not None and result["correct"] is False
            and 1 <= result["failed"] <= result["attempted"],
            f"{tag}: gate reports the failures {result and (result['failed'], result['attempted'])}",
        )
        frac = [l for l in proc.stdout.splitlines() if l.startswith("failed_frac ")]
        expect(bool(frac) and float(frac[0].split()[1]) > 0, f"{tag}: failed_frac above zero")


def test_without_program() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc, result = bench("desk-grid", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and result is None,
           f"without src/: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    test_span_arithmetic()
    test_clean_runs()
    test_faults()
    test_without_program()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
