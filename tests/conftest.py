"""Shared fixtures.

The five-period example (means 100/125/25/40/30, cv 0.3, K=50, h=1, b=19)
exercises every code path: its relaxed optimum carries too much stock into
period 3, so the solver performs exactly one repair split.
"""

import pytest

import lotpath
from lotpath import InstanceSpec, build_connection_matrix, generate_instances, solve_instance

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
    out = []
    for pattern in ("erratic", "lumpy"):
        for T in (10, 20):
            for rho in (0.1, 0.2, 0.3):
                for K in (225.0, 900.0, 2500.0):
                    for b in (2.0, 5.0, 10.0):
                        for inst in generate_instances(
                            pattern=pattern, horizon=T, rho=rho, K=K, b=b,
                            count=3, seed=7,
                        ):
                            out.append((pattern, rho, K, b, solve_instance(inst)))
    return out


@pytest.fixture(scope="session")
def repaired_oracle_runs():
    """Criterion 10's instances: every lumpy T=8 seed 7 instance (rho 0.2 and
    0.3, b 5 and 10, K 225) whose relaxed plan violates, as (instance,
    solution, constrained enumeration oracle result)."""
    runs = []
    for rho in (0.2, 0.3):
        for b in (5.0, 10.0):
            for inst in generate_instances(
                pattern="lumpy", horizon=8, rho=rho, K=225.0, b=b, count=12, seed=7
            ):
                sol = solve_instance(inst)
                if sol.relaxed_violations > 0:
                    runs.append((inst, sol, lotpath.schedule_enumeration_oracle(inst)))
    return runs


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
