"""Command-line interface: one test per subcommand plus the exit-code map."""

import json

import pytest

from conftest import golden_spec
from lotpath import NumericalError, cli, graph, save_instance
from lotpath.cli import main


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    save_instance(golden_spec(), path)
    return str(path)


class TestSolve:
    def test_stdout_payload(self, golden_file, capsys):
        assert main(["solve", golden_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == ["1", "2", "3", "5", "6"]
        assert payload["relaxed_path"] == ["1", "2", "3", "4", "6"]
        assert payload["expected_cost"] == pytest.approx(447.4670, abs=1e-3)
        assert payload["relaxed_violations"] == 1
        assert payload["spans_priced"] == 15  # all: the complete matrix fits one bisection
        assert payload["policy"]["reviews"] == [1, 2, 3, 5]
        assert set(payload["timings"]) == {"t_matrix", "t_relaxed", "t_reoptimise"}

    def test_output_file(self, golden_file, tmp_path, capsys):
        out = tmp_path / "solution.json"
        assert main(["solve", golden_file, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["relaxed_violations"] == 1

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == 4
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_validation_failure_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # booleans are JSON numbers to Python's int and float; not here
        one_period = dict(golden_spec().to_dict(), horizon=1, means=[100.0])
        for change, message in (
            (dict(means=[]), "'means' must not be empty"),
            (dict(horizon=True), "'horizon' must be an integer"),
            (dict(means=[True]), "period 1 value True is not a number"),
        ):
            bad.write_text(json.dumps(dict(one_period, **change)))
            assert main(["solve", str(bad)]) == 2, change
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", ["horizon", "means", "cv", "K", "z", "h", "b", "initial_inventory"]
    )
    def test_integer_beyond_float_range_is_input_error(self, field, tmp_path, capsys):
        data = golden_spec().to_dict()
        if field == "means":
            data["means"][0] = 10**400
        else:
            data[field] = 10**400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(data))
        assert main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and "beyond the float range" in err
        assert "0" * 20 not in err

    def test_in_range_integers_are_echoed_as_given(self, tmp_path, capsys):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(dict(golden_spec().to_dict(), K=50, initial_inventory=0)))
        assert main(["solve", str(path)]) == 0
        echo = json.loads(capsys.readouterr().out)["instance"]
        assert type(echo["K"]) is int and type(echo["initial_inventory"]) is int

    def test_internal_error_is_exit_1(self, golden_file, capsys, monkeypatch):
        def fail(instance):
            raise NumericalError("could not bracket the optimum")

        monkeypatch.setattr(cli, "solve_instance", fail)
        assert main(["solve", golden_file]) == 1
        assert capsys.readouterr().err == "error: could not bracket the optimum\n"

    def test_high_cv_warning_on_stderr(self, golden_file, tmp_path, capsys):
        assert main(["solve", golden_file]) == 0
        assert capsys.readouterr().err == ""
        noisy = tmp_path / "noisy.json"
        save_instance(golden_spec(cv=1.0), noisy)
        assert main(["solve", str(noisy)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: golden-5: cv 1 exceeds 0.3")
        assert err.count("\n") == 1  # the handler is removed after each call


class TestSimulate:
    def test_solved_policy_report(self, golden_file, capsys):
        rc = main([
            "simulate", golden_file, "--solve", "--reps", "5000", "--seed", "1",
            "--allow-negative-orders",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"]["reviews"] == [1, 2, 3, 5]
        assert payload["report"]["n_reps"] == 5000
        # a 5k-rep estimate lands well within a few units of the plan cost
        assert payload["report"]["mean_cost"] == pytest.approx(447.47, abs=15.0)

    def test_infeasible_policy_warns_when_clipping(self, golden_file, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(
            {"horizon": 5, "reviews": [1, 2], "levels": [400.0, 20.0]}
        ))
        # period 1 carries the initial stock: the solve's S1 = 149.35 sits below 1000
        stocked = tmp_path / "stocked.json"
        save_instance(golden_spec(initial_inventory=1000.0), stocked)
        for args, periods in (
            ([golden_file, "--policy", str(policy)], "[2]"),
            ([str(stocked), "--solve"], "[1]"),
        ):
            assert main(["simulate", *args, "--reps", "100"]) == 0
            err = capsys.readouterr().err
            assert "negative orders" in err and f"period(s) {periods}" in err

    def test_no_warning_in_set_point_mode(self, golden_file, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(
            {"horizon": 5, "reviews": [1, 2], "levels": [400.0, 20.0]}
        ))
        assert main([
            "simulate", golden_file, "--policy", str(policy), "--reps", "100",
            "--allow-negative-orders",
        ]) == 0
        assert capsys.readouterr().err == ""

    def test_trace_file(self, golden_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main([
            "simulate", golden_file, "--solve", "--reps", "100",
            "--trace", str(trace),
        ]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("period,review,")
        assert len(lines) == 6

    def test_policy_file_takes_integers_and_numbers_only(self, golden_file, tmp_path, capsys):
        # int() would simulate horizon 5 and reviews (1, 3) here; a null
        # level is not a review schedule
        policy = tmp_path / "policy.json"
        for data, message in (
            ({"horizon": 5.9, "reviews": [1, 3], "levels": [300.0, 100.0]}, "got 5.9"),
            ({"horizon": 5, "reviews": [1, 3.7], "levels": [300.0, 100.0]}, "got 3.7"),
            ({"horizon": 5, "reviews": [True, 3], "levels": [300.0, 100.0]}, "got True"),
            ({"horizon": 5, "reviews": [1, 3], "levels": [300.0, None]}, "got None"),
            ({"horizon": 5, "reviews": [1, 3], "levels": [300.0, 10**400]}, "out of range"),
        ):
            policy.write_text(json.dumps(data))
            assert main(["simulate", golden_file, "--policy", str(policy)]) == 2, data
            assert message in capsys.readouterr().err

    def test_broken_policy_file(self, golden_file, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        for text, message in (
            (json.dumps({"horizon": 5, "reviews": [1]}), "missing policy field 'levels'"),
            ('{"horizon": 5,,}', "invalid JSON at line 1 column 15"),
            (json.dumps([5, [1], [100.0]]), "expected a JSON object"),
            (
                json.dumps({"horizon": 5, "reviews": "1", "levels": [100.0]}),
                "'reviews' and 'levels' must be arrays",
            ),
        ):
            policy.write_text(text)
            assert main(["simulate", golden_file, "--policy", str(policy)]) == 2, text
            assert message in capsys.readouterr().err


class TestBench:
    def test_tiny_grid_summary(self, capsys):
        rc = main([
            "bench", "--patterns", "lumpy", "--horizons", "5", "--rhos", "0.3",
            "--fixed-costs", "225", "--penalties", "10", "--replicates", "2",
            "--seed", "7",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lumpy rho=0.3 b=10 K=225: n=2" in out
        assert "spans=" in out

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--patterns", "erratic", "--horizons", "5", "--rhos", "0.2",
            "--fixed-costs", "900", "--penalties", "5", "--replicates", "1",
            "--seed", "3", "-o", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("instance_id,pattern,T,")
        assert len(lines) == 2

    def test_empty_grid_is_input_error(self, capsys):
        assert main(["bench", "--replicates", "0", "--horizons", "5"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_negative_replicates_is_input_error(self, capsys):
        assert main(["bench", "--replicates", "-1", "--horizons", "5"]) == 2
        assert capsys.readouterr().err == "error: count must be >= 0, got -1\n"

    def test_repeated_level_is_input_error(self, capsys):
        rc = main([
            "bench", "--patterns", "lumpy", "--horizons", "5", "--rhos", "0.3",
            "--fixed-costs", "225", "--penalties", "2", "2", "--replicates", "1",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: factor 'penalties' repeats level 2.0\n"
        assert captured.out == ""


class TestExportGraph:
    def test_full_graph(self, golden_file, capsys):
        assert main(["export-graph", golden_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "from,to,kind,cost,order_up_to,closing_inventory"
        assert len(lines) == 1 + 15  # complete DAG over 6 nodes

    def test_augmented_graph_has_virtual_node(self, golden_file, capsys):
        assert main(["export-graph", golden_file, "--augmented"]) == 0
        out = capsys.readouterr().out
        kinds = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
        assert "recomputed" in kinds and "duplicated" in kinds
        assert "3'" in out

    def test_augmented_graph_rows(self, golden_file, capsys):
        # one split of node 3: the inbound (2, 3) moves to 3', which gets the
        # merged option to 4 and copies of node 3's longer spans
        assert main(["export-graph", golden_file, "--augmented"]) == 0
        rows = [tuple(line.split(",")[:3]) for line in capsys.readouterr().out.splitlines()[1:]]
        normal = [(u, v, "normal") for u, v in (
            ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"), ("1", "6"),
            ("2", "3'"), ("2", "4"), ("2", "5"), ("2", "6"),
            ("3", "4"), ("3", "5"), ("3", "6"),
        )]
        assert rows == normal + [
            ("3'", "4", "recomputed"),
            ("3'", "5", "duplicated"),
            ("3'", "6", "duplicated"),
            ("4", "5", "normal"),
            ("4", "6", "normal"),
            ("5", "6", "normal"),
        ]

    def test_exhausted_split_budget_is_exit_3(self, golden_file, capsys, monkeypatch):
        monkeypatch.setattr(graph, "SPLITS_PER_PERIOD", 0)
        assert main(["export-graph", golden_file, "--augmented"]) == 3
        err = capsys.readouterr().err
        assert "did not terminate" in err
        assert '"cap": 0' in err  # diagnostics dumped for debugging


class TestGen:
    def test_writes_instance_files(self, tmp_path, capsys):
        rc = main([
            "gen", "--pattern", "lumpy", "--horizon", "6", "--rho", "0.3",
            "--fixed-cost", "225", "--penalty", "10", "--count", "3",
            "--seed", "4", "-o", str(tmp_path / "out"),
        ])
        assert rc == 0
        written = sorted(p.name for p in (tmp_path / "out").glob("*.json"))
        assert written == [
            "lumpy-T6-rho0.3-b10-K225-r0.json",
            "lumpy-T6-rho0.3-b10-K225-r1.json",
            "lumpy-T6-rho0.3-b10-K225-r2.json",
        ]

    def test_single_instance_to_stdout(self, capsys):
        rc = main([
            "gen", "--pattern", "erratic", "--horizon", "4", "--rho", "0.2",
            "--fixed-cost", "100", "--penalty", "5",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["horizon"] == 4
        assert len(payload["means"]) == 4

    def test_count_below_one_is_input_error(self, capsys):
        assert main([
            "gen", "--pattern", "lumpy", "--horizon", "4", "--rho", "0.2",
            "--fixed-cost", "100", "--penalty", "5", "--count", "0",
        ]) == 2
        assert "--count must be >= 1" in capsys.readouterr().err

    def test_bad_pattern_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "gen", "--pattern", "seasonal", "--horizon", "4", "--rho", "0.2",
                "--fixed-cost", "100", "--penalty", "5",
            ])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "GOLDEN", "--reps", "10"],
        ["gen", "--pattern", "lumpy", "--horizon", "4", "--rho", "0.2",
         "--fixed-cost", "100", "--penalty", "5"],
        ["bench", "--patterns", "lumpy", "--horizons", "5", "--rhos", "0.3",
         "--fixed-costs", "225", "--penalties", "10", "--replicates", "1"],
    ],
    ids=["simulate", "gen", "bench"],
)
def test_negative_seed_is_input_error(argv, golden_file, capsys):
    argv = [golden_file if a == "GOLDEN" else a for a in argv]
    assert main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--pattern", "lumpy", "--horizon", "-1", "--rho", "0.2",
         "--fixed-cost", "100", "--penalty", "5"],
        ["bench", "--horizons", "-2", "--replicates", "1"],
    ],
    ids=["gen", "bench"],
)
def test_negative_horizon_is_input_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: field 'horizon': must be >= 1\n"
    assert "Traceback" not in err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
