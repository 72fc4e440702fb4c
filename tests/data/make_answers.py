"""Write ``answers.json``: the answer corpus that ``tests/test_answers.py``
checks bit for bit.

Run from the repository root on a clean tree:

    PYTHONPATH=src python tests/data/make_answers.py

For every solve the corpus holds the plan's spans, ``float.hex`` of every
level, closing and cost, of ``expected_cost`` and ``relaxed_cost``, and
``spans_priced`` and ``relaxed_violations``. It adds SHA-256 digests of the
``level`` and ``cost`` bytes of some complete matrices and of the split
loop's ``graph_dump``, and a stamp of the numpy and scipy versions and the
git revision it was made from.

Regenerate it only in a change that means to move answers, and list every
moved answer with its old and new value; regenerating to hide an unintended
move defeats the check.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from lotpath import (
    InstanceSpec,
    build_connection_matrix,
    build_graph,
    generate_instances,
    repetitive_augment,
    solve_instance,
)
from lotpath.bench import DESK_GRID, design_instances
from lotpath.graph import graph_dump

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "answers.json"

#: lumpy-long's costs: rho 0.3, K 225, b 10, seed 7
LONG = dict(rho=0.3, K=225.0, b=10.0, seed=7)


def zero_means() -> InstanceSpec:
    """Zero-mean leading periods (the strict xfail of the oracle tests)."""
    return InstanceSpec(
        horizon=6, means=(0.0, 0.0, 50.0, 0.0, 80.0, 3.0), cv=0.3, K=20.0, z=1.0, h=1.0, b=9.0,
        name="zero-means",
    )


def key(instance) -> str:
    return f"{instance.name}@seed{instance.seed}"


def desk_instances() -> list:
    """The desk grid's instances, in ``run_benchmark``'s order."""
    return design_instances(**DESK_GRID)


def other_instances() -> list:
    """Every solve of the corpus outside the desk grid."""
    return [
        *generate_instances("lumpy", 30, count=10, **LONG),
        *generate_instances("erratic", 30, count=10, **LONG),
        *generate_instances("lumpy", 30, count=3, z=2.0, **dict(LONG, seed=11)),
        *generate_instances("lumpy", 100, count=3, **LONG),
        *generate_instances("lumpy", 400, count=3, **LONG),
        zero_means(),
    ]


def matrix_instances() -> list:
    """The instances whose complete matrices are digested."""
    return [
        *generate_instances("lumpy", 8, count=5, **LONG),
        *generate_instances("lumpy", 100, count=3, **LONG),
    ]


def loop_instances() -> list:
    """The instances whose split loop's final graph is digested: criterion
    10's lumpy T=8 draw, five of which the loop repairs in 13 splits."""
    return generate_instances("lumpy", 8, count=12, **LONG)


def answer(sol) -> dict:
    plan = sol.path
    return {
        "spans": [list(span) for span in plan.spans],
        "levels": [float.hex(v) for v in plan.levels],
        "closings": [float.hex(v) for v in plan.closings],
        "costs": [float.hex(v) for v in plan.costs],
        "expected_cost": float.hex(sol.expected_cost),
        "relaxed_cost": float.hex(sol.relaxed_cost),
        "spans_priced": sol.spans_priced,
        "relaxed_violations": sol.relaxed_violations,
    }


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def matrix_digest(instance) -> dict:
    matrix = build_connection_matrix(instance)
    return {"level": sha256(matrix.level.tobytes()), "cost": sha256(matrix.cost.tobytes())}


def loop_digest(instance) -> dict:
    graph = build_graph(build_connection_matrix(instance))
    path, steps = repetitive_augment(graph)
    return {
        "graph_dump": sha256(graph_dump(graph).encode()),
        "path": list(path.node_labels),
        "total_cost": float.hex(path.total_cost),
        "splits": len(steps),
    }


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=HERE, capture_output=True, text=True, check=True
    ).stdout.strip()


def stamp() -> dict:
    """The library versions and the revision the answers come from, marked
    ``+dirty`` when the program's sources differ from it."""
    revision = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", ":/src")
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "revision": revision + ("+dirty" if dirty else ""),
    }


def corpus() -> dict:
    solves = {key(inst): answer(solve_instance(inst)) for inst in desk_instances()}
    solves.update({key(inst): answer(solve_instance(inst)) for inst in other_instances()})
    return {
        "stamp": stamp(),
        "solves": solves,
        "matrices": {key(inst): matrix_digest(inst) for inst in matrix_instances()},
        "loops": {key(inst): loop_digest(inst) for inst in loop_instances()},
    }


def dumps(data: dict) -> str:
    """JSON with one entry per line, so a diff lists each moved answer."""
    lines = ["{"]
    for i, (section, value) in enumerate(data.items()):
        comma = "," if i < len(data) - 1 else ""
        if section == "stamp":
            lines.append(f"  {json.dumps(section)}: {json.dumps(value)}{comma}")
            continue
        lines.append(f"  {json.dumps(section)}: {{")
        entries = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()]
        lines.append(",\n".join(entries))
        lines.append(f"  }}{comma}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    CORPUS.write_text(dumps(corpus()))
    print(f"wrote {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
