"""Shared fixtures.

The five-period example (means 100/125/25/40/30, cv 0.3, K=50, h=1, b=19)
exercises every code path: its relaxed optimum carries too much stock into
period 3, so the solver performs exactly one repair split.
"""

import pytest

import lotpath
from lotpath import InstanceSpec, build_connection_matrix, solve_instance
from lotpath.bench import DESK_GRID, design_instances

GOLDEN_MEANS = (100.0, 125.0, 25.0, 40.0, 30.0)


def golden_spec(**overrides):
    base = dict(
        horizon=5,
        means=GOLDEN_MEANS,
        cv=0.3,
        K=50.0,
        z=0.0,
        h=1.0,
        b=19.0,
        name="golden-5",
    )
    base.update(overrides)
    return InstanceSpec(**base)


@pytest.fixture(scope="session")
def golden():
    return golden_spec()


@pytest.fixture(scope="session")
def golden_matrix(golden):
    return build_connection_matrix(golden)


@pytest.fixture(scope="session")
def golden_solution(golden):
    return solve_instance(golden)


@pytest.fixture(scope="session")
def desk_sweep():
    """The desk grid's 324 solves as (pattern, rho, K, b, solution); the
    acceptance criteria and the answer corpus read the same solves."""
    return [
        (inst.pattern, inst.cv, inst.K, inst.b, solve_instance(inst))
        for inst in design_instances(**DESK_GRID)
    ]


@pytest.fixture(scope="session")
def repaired_oracle_runs():
    """Criterion 10's instances: every lumpy T=8 seed 7 instance (rho 0.2 and
    0.3, b 5 and 10, K 225) whose relaxed plan violates, as (instance,
    solution, constrained enumeration oracle result)."""
    solves = [(inst, solve_instance(inst)) for inst in design_instances(
        patterns=("lumpy",), horizons=(8,), rhos=(0.2, 0.3), fixed_costs=(225.0,),
        penalties=(5.0, 10.0), replicates=12, seed=7,
    )]
    return [
        (inst, sol, lotpath.schedule_enumeration_oracle(inst))
        for inst, sol in solves if sol.relaxed_violations > 0
    ]


# ---------------------------------------------------------------------------
# Acceptance reporting. Each acceptance test registers its verdict *before*
# asserting, so the summary block below always prints one line per criterion,
# including a criterion that fails its assertion.

_CRITERIA = {}


def record_criterion(number, title, passed, detail):
    _CRITERIA[number] = (title, bool(passed), detail)


@pytest.fixture(scope="session")
def criterion():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        title, passed, detail = _CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} [{verdict}] {title}: {detail}")
