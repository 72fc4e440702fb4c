"""Factorial benchmark bookkeeping."""

import inspect
import math

import pytest

from lotpath import InputError
from lotpath.bench import (
    DESK_GRID,
    FULL_GRID,
    bench_to_csv,
    run_benchmark,
    summarize,
)

EXPECTED_COLUMNS = (
    "instance_id,pattern,T,rho,b,K,negative_order_count,"
    "relaxed_cost,augmented_cost,pct_increase,t_matrix,t_relaxed,t_reoptimise,"
    "spans_priced"
)


#: one design cell of one instance
ONE_CELL = dict(
    patterns=("lumpy",), horizons=(5,), rhos=(0.3,), fixed_costs=(225.0,), penalties=(10.0,),
    replicates=1, seed=7,
)


@pytest.fixture(scope="module")
def tiny_records():
    return run_benchmark(**dict(ONE_CELL, horizons=(6,), penalties=(2.0, 10.0), replicates=2))


class TestRunBenchmark:
    def test_record_count(self, tiny_records):
        assert len(tiny_records) == 4  # 1*1*1*1*2 cells, 2 replicates each

    def test_record_invariants(self, tiny_records):
        for r in tiny_records:
            assert r.augmented_cost >= r.relaxed_cost - 1e-9
            if r.negative_order_count == 0:
                assert r.pct_increase == 0.0
            assert r.pct_increase == pytest.approx(
                100.0 * (r.augmented_cost - r.relaxed_cost) / r.relaxed_cost
            )
            assert r.t_matrix >= 0.0 and r.t_relaxed >= 0.0 and r.t_reoptimise >= 0.0

    def test_replicates_share_demand_across_cells(self, tiny_records):
        # same replicate index in different penalty cells = same instance name
        # tail, so cell contrasts are cost-driven
        by_b = {}
        for r in tiny_records:
            by_b.setdefault(r.b, []).append(r.instance_id.rsplit("-", 1)[-1])
        assert by_b[2.0] == by_b[10.0] == ["r0", "r1"]

    def test_progress_callback_sees_every_record(self):
        seen = []
        records = run_benchmark(
            patterns=("erratic",),
            horizons=(5,),
            rhos=(0.1,),
            fixed_costs=(225.0,),
            penalties=(2.0,),
            replicates=2,
            seed=1,
            progress=seen.append,
        )
        assert seen == records

    @pytest.mark.parametrize(
        "factor, levels, shown",
        [
            ("patterns", ("lumpy", "erratic", "lumpy"), "'lumpy'"),
            ("horizons", (5, 5), "5"),
            ("rhos", (0.3, 0.2, 0.3), "0.3"),
            ("fixed_costs", (225.0, 225), "225"),
            ("penalties", (2.0, 2.0), "2.0"),
        ],
    )
    def test_repeated_level_is_refused_before_solving(self, factor, levels, shown):
        # a repeated level would solve the same draws twice and weigh their
        # cell double in the summary
        seen = []
        with pytest.raises(InputError) as exc:
            run_benchmark(**dict(ONE_CELL, **{factor: levels}), progress=seen.append)
        assert str(exc.value) == f"factor {factor!r} repeats level {shown}"
        assert seen == []

    @pytest.mark.parametrize(
        "factor, value, shown",
        [("patterns", "lumpy", "'lumpy'"), ("horizons", 6, "6"), ("rhos", 0.3, "0.3"),
         ("fixed_costs", 225.0, "225.0"), ("penalties", 10, "10")],
    )
    def test_factor_that_is_not_a_list_of_levels_is_refused(self, factor, value, shown):
        # a scalar would fail untyped mid-loop, and a string would be read as
        # a list of one-letter patterns
        seen = []
        with pytest.raises(InputError) as exc:
            run_benchmark(**dict(ONE_CELL, **{factor: value}), progress=seen.append)
        assert str(exc.value) == f"factor {factor!r} must be a list or tuple of levels, got {shown}"
        assert seen == []


class TestCsv:
    def test_header_and_rows(self, tiny_records):
        text = bench_to_csv(tiny_records)
        lines = text.strip().splitlines()
        assert lines[0] == EXPECTED_COLUMNS
        assert len(lines) == 1 + len(tiny_records)

    def test_floats_are_parseable(self, tiny_records):
        line = bench_to_csv(tiny_records).strip().splitlines()[1]
        cells = line.split(",")
        assert float(cells[7]) > 0.0  # relaxed_cost
        assert float(cells[8]) >= float(cells[7]) - 1e-6


class TestSummarize:
    def test_group_sizes(self, tiny_records):
        rows = summarize(tiny_records, by=("pattern", "b"))
        assert len(rows) == 2
        assert all(row["n"] == 2 for row in rows)
        assert [row["b"] for row in rows] == [2.0, 10.0]

    def test_conditional_mean_ignores_clean_instances(self, tiny_records):
        rows = summarize(tiny_records, by=("pattern",))
        (row,) = rows
        augmented = [r for r in tiny_records if r.negative_order_count > 0]
        if augmented:
            want = sum(r.pct_increase for r in augmented) / len(augmented)
        else:
            want = 0.0
        assert row["mean_pct_increase"] == pytest.approx(want)
        assert row["n_augmented"] == len(augmented)


FACTORS = ("patterns", "horizons", "rhos", "fixed_costs", "penalties")


def grid_size(grid):
    return math.prod(len(grid[k]) for k in FACTORS) * grid["replicates"]


class TestGrids:
    def test_desk_grid_size(self):
        assert DESK_GRID == dict(
            patterns=("erratic", "lumpy"),
            horizons=(10, 20),
            rhos=(0.1, 0.2, 0.3),
            fixed_costs=(225.0, 900.0, 2500.0),
            penalties=(2.0, 5.0, 10.0),
            replicates=3,
            seed=7,
        )
        # the grid holds every design keyword, and run_benchmark's defaults are it
        params = inspect.signature(run_benchmark).parameters
        assert {k: p.default for k, p in params.items() if k != "progress"} == DESK_GRID
        assert grid_size(DESK_GRID) == 324

    def test_full_grid_size(self):
        assert FULL_GRID == dict(DESK_GRID, horizons=(20, 30, 40), replicates=10)
        assert FULL_GRID.keys() == DESK_GRID.keys()
        assert grid_size(FULL_GRID) == 1620
