"""Instance validation, JSON round-trips, and the demand generators."""

import json

import pytest

from lotpath import (
    InputError,
    InstanceSpec,
    build_connection_matrix,
    generate_instances,
    load_instance,
    save_instance,
)


def spec_kwargs(**overrides):
    base = dict(
        horizon=3, means=(10.0, 20.0, 30.0), cv=0.2, K=5.0, z=0.0, h=1.0, b=4.0
    )
    base.update(overrides)
    return base


class TestValidation:
    def test_horizon_positive(self):
        with pytest.raises(InputError, match="horizon"):
            InstanceSpec(**spec_kwargs(horizon=0, means=()))

    def test_means_length_must_match(self):
        with pytest.raises(InputError, match="means"):
            InstanceSpec(**spec_kwargs(means=(10.0, 20.0)))

    def test_means_nonnegative_and_finite(self):
        with pytest.raises(InputError, match="period 2"):
            InstanceSpec(**spec_kwargs(means=(10.0, -1.0, 30.0)))
        with pytest.raises(InputError, match="period 1"):
            InstanceSpec(**spec_kwargs(means=(float("nan"), 20.0, 30.0)))

    def test_cv_band(self):
        with pytest.raises(InputError, match="cv"):
            InstanceSpec(**spec_kwargs(cv=0.0))
        with pytest.raises(InputError, match="cv"):
            InstanceSpec(**spec_kwargs(cv=1.5))

    def test_cost_params_wrapped(self):
        with pytest.raises(InputError, match="K/z/h/b"):
            InstanceSpec(**spec_kwargs(b=0.5))  # penalty below holding

    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["K", "z", "h", "b"])
    def test_cost_params_finite(self, field, value):
        with pytest.raises(InputError, match=f"K/z/h/b': {field} must be finite"):
            InstanceSpec(**spec_kwargs(**{field: value}))

    def test_infinite_fixed_cost_in_json(self, tmp_path):
        target = tmp_path / "inf.json"
        target.write_text(json.dumps(spec_kwargs(K=float("inf"))))
        assert '"K": Infinity' in target.read_text()
        with pytest.raises(InputError, match="K must be finite"):
            load_instance(target)

    def test_total_of_means_finite(self):
        with pytest.raises(InputError, match="horizon totals"):
            InstanceSpec(**spec_kwargs(means=(1e308, 1e308, 1.0)))

    def test_total_variance_finite(self):
        # each mean is finite, but (cv * mean)^2 overflows
        with pytest.raises(InputError, match="horizon totals"):
            InstanceSpec(**spec_kwargs(means=(1e160, 1.0, 1.0)))

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("horizon", dict(horizon=True, means=(10.0,))),
            ("cv", dict(cv=True)),
            ("means", dict(means=(10.0, True, 30.0))),
        ],
        ids=["horizon", "cv", "means"],
    )
    def test_booleans_are_not_numbers(self, field, overrides):
        with pytest.raises(InputError, match=f"field '{field}'"):
            InstanceSpec(**spec_kwargs(**overrides))

    @pytest.mark.parametrize(
        "field", ["horizon", "means", "cv", "K", "z", "h", "b", "initial_inventory"]
    )
    def test_integer_beyond_float_range(self, field):
        overrides = {field: (10.0, 20.0, 10**400) if field == "means" else 10**400}
        with pytest.raises(InputError, match=f"field '{field}'.*beyond the float range") as info:
            InstanceSpec(**spec_kwargs(**overrides))
        assert "0" * 20 not in str(info.value)

    def test_means_must_be_a_sequence(self):
        with pytest.raises(InputError, match="field 'means' must be a sequence of numbers, got float"):
            InstanceSpec(**spec_kwargs(means=5.0))

    @pytest.mark.parametrize("seed", [True, "x", 1.0])
    def test_seed_is_an_integer_or_none(self, seed):
        with pytest.raises(InputError, match=f"field 'seed' must be an integer or null, got {seed!r}"):
            InstanceSpec(**spec_kwargs(seed=seed))
        assert InstanceSpec(**spec_kwargs(seed=None)).seed is None
        assert InstanceSpec(**spec_kwargs(seed=-3)).seed == -3

    @pytest.mark.parametrize("field", ["pattern", "name"])
    def test_labels_are_strings(self, field):
        with pytest.raises(InputError, match=f"field '{field}' must be a string, got 3"):
            InstanceSpec(**spec_kwargs(**{field: 3}))

    def test_loader_refuses_mistyped_labels(self):
        data = dict(spec_kwargs(means=[10.0, 20.0, 30.0]), seed="x", name=3)
        with pytest.raises(InputError, match="instance: field 'seed'"):
            load_instance(data)
        with pytest.raises(InputError, match="instance: field 'name'"):
            load_instance(dict(data, seed=None))
        with pytest.raises(InputError, match="instance: field 'means' must be an array"):
            load_instance(dict(data, means="10, 20, 30"))

    def test_means_are_stored_as_floats(self):
        inst = InstanceSpec(**spec_kwargs(means=[10, 20, 30]))
        assert inst.means == (10.0, 20.0, 30.0)
        assert all(type(m) is float for m in inst.means)

    def test_initial_inventory_finite(self):
        with pytest.raises(InputError, match="initial_inventory"):
            InstanceSpec(**spec_kwargs(initial_inventory=float("inf")))

    def test_demands_derive_from_cv(self):
        inst = InstanceSpec(**spec_kwargs())
        # the moment table's first column is the single-period sd, cv * mean
        assert build_connection_matrix(inst).sds[:, 0].tolist() == [2.0, 4.0, 6.0]


class TestCostRules:
    def test_rejects_negative_fixed_cost(self):
        with pytest.raises(InputError, match="K"):
            InstanceSpec(**spec_kwargs(K=-1.0, z=0.0, h=1.0, b=2.0))

    def test_rejects_nonpositive_holding(self):
        with pytest.raises(InputError, match="holding"):
            InstanceSpec(**spec_kwargs(K=0.0, z=0.0, h=0.0, b=2.0))

    def test_rejects_penalty_below_holding(self):
        # b <= h would push the newsvendor fractile to 0.5 or below
        with pytest.raises(InputError, match="penalty"):
            InstanceSpec(**spec_kwargs(K=0.0, z=0.0, h=2.0, b=2.0))

    def test_rejects_unit_cost_outside_band(self):
        with pytest.raises(InputError, match="unit cost"):
            InstanceSpec(**spec_kwargs(K=0.0, z=-0.5, h=1.0, b=2.0))
        with pytest.raises(InputError, match="unit cost"):
            InstanceSpec(**spec_kwargs(K=0.0, z=5.0, h=1.0, b=2.0))


class TestJsonRoundTrip:
    def test_save_then_load(self, tmp_path):
        inst = InstanceSpec(**spec_kwargs(initial_inventory=7.5, name="trip"))
        target = tmp_path / "inst.json"
        save_instance(inst, target)
        back = load_instance(target)
        assert back == inst

    def test_load_from_mapping(self):
        inst = InstanceSpec(**spec_kwargs())
        assert load_instance(inst.to_dict()) == inst

    def test_json_form_lists_the_fields_in_order(self):
        # the benchmark hashes this text, so its keys, order and values are fixed
        inst = InstanceSpec(**spec_kwargs(means=(1, 2.5, 0), cv=1, seed=7))
        assert json.dumps(inst.to_dict()) == (
            '{"horizon": 3, "means": [1.0, 2.5, 0.0], "cv": 1, "K": 5.0, "z": 0.0, '
            '"h": 1.0, "b": 4.0, "seed": 7, "initial_inventory": 0.0, '
            '"pattern": "explicit", "name": ""}'
        )
        optional = {"seed": None, "initial_inventory": 0.0, "pattern": "explicit", "name": ""}
        data = {k: v for k, v in inst.to_dict().items() if k not in optional}
        assert load_instance(data) == InstanceSpec(**spec_kwargs(means=(1, 2.5, 0), cv=1))

    def test_missing_field(self, tmp_path):
        data = InstanceSpec(**spec_kwargs()).to_dict()
        del data["cv"]
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(data))
        with pytest.raises(InputError, match="missing required field 'cv'"):
            load_instance(target)

    def test_unknown_field(self, tmp_path):
        data = InstanceSpec(**spec_kwargs()).to_dict()
        data["lead_time"] = 2
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(data))
        with pytest.raises(InputError, match="unknown field 'lead_time'"):
            load_instance(target)

    def test_invalid_json_reports_position(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"horizon": 3,,}')
        with pytest.raises(InputError, match="line 1"):
            load_instance(target)

    def test_non_object_payload(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("[1, 2, 3]")
        with pytest.raises(InputError, match="object"):
            load_instance(target)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_instance(tmp_path / "nope.json")


class TestGenerators:
    def test_deterministic_for_seed(self):
        a = generate_instances("erratic", 15, rho=0.2, K=225.0, b=5.0, count=3, seed=4)
        b = generate_instances("erratic", 15, rho=0.2, K=225.0, b=5.0, count=3, seed=4)
        assert [i.means for i in a] == [i.means for i in b]
        assert len({i.means for i in a}) == 3  # replicates differ

    def test_demand_shared_across_cost_cells(self):
        # cost-factor cells reuse the same demand draws, so differences
        # between cells are purely cost-driven
        cheap = generate_instances("lumpy", 12, rho=0.3, K=225.0, b=2.0, count=2, seed=6)
        dear = generate_instances("lumpy", 12, rho=0.3, K=2500.0, b=10.0, count=2, seed=6)
        for a, b in zip(cheap, dear):
            assert a.means == b.means
            assert a.K != b.K and a.b != b.b

    def test_erratic_range(self):
        (inst,) = generate_instances("erratic", 40, rho=0.1, K=225.0, b=2.0, seed=1)
        assert all(0.0 <= m <= 100.0 for m in inst.means)

    def test_lumpy_spike_fraction(self):
        # spikes are drawn one period in five; most exceed the base band
        (inst,) = generate_instances("lumpy", 2000, rho=0.1, K=225.0, b=2.0, seed=2)
        frac = sum(m > 20.0 for m in inst.means) / len(inst.means)
        assert 0.14 <= frac <= 0.24
        assert max(inst.means) > 100.0

    def test_instance_naming(self):
        insts = generate_instances("lumpy", 10, rho=0.3, K=225.0, b=10.0, count=2, seed=7)
        assert insts[0].name == "lumpy-T10-rho0.3-b10-K225-r0"
        assert insts[1].name == "lumpy-T10-rho0.3-b10-K225-r1"
        assert insts[0].pattern == "lumpy"

    def test_unknown_pattern(self):
        with pytest.raises(InputError, match="pattern"):
            generate_instances("seasonal", 10, rho=0.2, K=10.0, b=2.0)

    @pytest.mark.parametrize(
        "horizon, message",
        [
            (-1, "field 'horizon': must be >= 1"),
            (0, "field 'horizon': must be >= 1"),
            (True, "field 'horizon' must be an integer"),
            (2.5, "field 'horizon' must be an integer"),
        ],
    )
    def test_bad_horizon_is_refused_before_drawing(self, horizon, message):
        with pytest.raises(InputError, match=message):
            generate_instances("lumpy", horizon, rho=0.2, K=10.0, b=2.0)

    @pytest.mark.parametrize("seed", [-1, True, 2.5, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InputError, match=f"seed must be a non-negative integer, got {seed!r}"):
            generate_instances("lumpy", 10, rho=0.2, K=10.0, b=2.0, seed=seed)

    @pytest.mark.parametrize("count", [2.5, "2", True, None])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(InputError, match=f"count must be an integer, got {count!r}"):
            generate_instances("lumpy", 10, rho=0.2, K=10.0, b=2.0, count=count)

    def test_count_must_not_be_negative(self):
        with pytest.raises(InputError, match="count must be >= 0, got -2"):
            generate_instances("lumpy", 10, rho=0.2, K=10.0, b=2.0, count=-2)
        assert generate_instances("lumpy", 10, rho=0.2, K=10.0, b=2.0, count=0) == []

    @pytest.mark.parametrize("field", ["rho", "K", "b"])
    @pytest.mark.parametrize("value", ["0.3", None, False])
    def test_cost_factors_must_be_numbers(self, field, value):
        factors = {"rho": 0.2, "K": 10.0, "b": 2.0, field: value}
        with pytest.raises(InputError, match=f"{field} value {value!r} is not a number"):
            generate_instances("lumpy", 10, **factors)

    def test_integer_factors_keep_their_instances(self):
        (a,) = generate_instances("lumpy", 10, rho=0.2, K=10, b=2)
        (b,) = generate_instances("lumpy", 10, rho=0.2, K=10.0, b=2.0)
        assert a == b and a.name == b.name == "lumpy-T10-rho0.2-b2-K10-r0"

    def test_generated_instances_validate_and_round_trip(self, tmp_path):
        (inst,) = generate_instances("erratic", 8, rho=0.25, K=900.0, b=5.0, seed=9)
        target = tmp_path / "gen.json"
        save_instance(inst, target)
        assert load_instance(target) == inst
