"""Tests for the scenario-sweep orchestration subsystem.

The contracts pinned here are the ones the benches and CLI rely on:
deterministic grid enumeration, stable content hashing, a parallel
executor that is bit-identical to the serial path, and a result cache
whose warm runs perform zero engine invocations.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.server.specs import default_server_spec
from repro.sweep import (
    GridSpec,
    ResultCache,
    ScenarioSpec,
    SweepResult,
    content_hash,
    fleet_grid,
    register_scenario,
    run_scenario,
    run_sweep,
)
from repro.workloads.profile import StaircaseProfile

#: Module-level invocation counter for the "counting" scenario kind.
COUNTER = {"calls": 0}


@register_scenario("counting")
def _run_counting(params):
    """Deterministic toy runner that records every engine invocation."""
    COUNTER["calls"] += 1
    x = float(params.get("x", 0.0))
    return {"doubled": 2.0 * x, "tag": f"x={x:g}"}


@register_scenario("fragile")
def _run_fragile(params):
    """Toy runner that fails on request (for partial-progress tests)."""
    if params.get("x") == params.get("fail_on"):
        raise RuntimeError("boom")
    return {"x_out": params["x"]}


@pytest.fixture
def short_profile():
    return StaircaseProfile([20.0, 80.0], step_duration_s=120.0)


@pytest.fixture
def experiment_grid(short_profile):
    """A cheap 2x2 single-server grid (no characterization needed)."""
    return GridSpec(
        kind="experiment",
        base={"controller": "default", "profile": short_profile, "seed": 3},
        axes={"rpm": [2400.0, 3600.0], "ambient_c": [20.0, 28.0]},
    )


class TestContentHash:
    def test_stable_for_equal_values(self):
        spec = default_server_spec()
        assert content_hash(spec) == content_hash(default_server_spec())

    def test_sensitive_to_dataclass_fields(self):
        spec = default_server_spec()
        warmer = dataclasses.replace(spec, critical_temperature_c=99.0)
        assert content_hash(spec) != content_hash(warmer)

    def test_handles_ndarrays_and_plain_objects(self, short_profile):
        assert content_hash(np.arange(3.0)) == content_hash(np.arange(3.0))
        assert content_hash(np.arange(3.0)) != content_hash(np.arange(4.0))
        same = StaircaseProfile([20.0, 80.0], step_duration_s=120.0)
        other = StaircaseProfile([20.0, 81.0], step_duration_s=120.0)
        assert content_hash(short_profile) == content_hash(same)
        assert content_hash(short_profile) != content_hash(other)

    def test_rejects_callables(self):
        with pytest.raises(TypeError):
            content_hash(lambda: None)

    def test_uncacheable_spec_still_runs(self):
        spec = ScenarioSpec(
            kind="counting", params={"x": 1.0, "hook": lambda: None}
        )
        assert not spec.cacheable
        assert run_scenario(spec)["doubled"] == 2.0

    def test_key_covers_kind_and_params(self):
        a = ScenarioSpec(kind="counting", params={"x": 1.0})
        b = ScenarioSpec(kind="counting", params={"x": 2.0})
        c = ScenarioSpec(kind="experiment", params={"x": 1.0})
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() != c.cache_key()
        assert a.cache_key() == ScenarioSpec("counting", {"x": 1.0}).cache_key()


class TestGridSpec:
    def test_product_order_first_axis_slowest(self):
        grid = GridSpec(
            kind="counting", axes={"a": [1, 2], "b": ["x", "y", "z"]}
        )
        assert len(grid) == 6
        combos = [(p.params["a"], p.params["b"]) for p in grid.points()]
        assert combos == [
            (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z"),
        ]

    def test_points_carry_base_and_labels(self):
        grid = GridSpec(
            kind="counting", base={"x": 5.0}, axes={"a": [1]}
        )
        point = grid.points()[0]
        assert point.params == {"x": 5.0, "a": 1}
        assert point.label == "a=1"

    def test_axis_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            GridSpec(kind="counting", base={"a": 1}, axes={"a": [1, 2]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            GridSpec(kind="counting", axes={"a": []})

    def test_unknown_kind_fails_at_run(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            run_scenario(ScenarioSpec(kind="nope", params={}))


class TestSweepResult:
    def test_table_shape_and_dtypes(self):
        grid = GridSpec(kind="counting", axes={"x": [1.0, 2.0, 3.0]})
        table = run_sweep(grid)
        assert len(table) == 3
        assert table.names == ("x", "doubled", "tag")
        assert table.column("doubled").dtype == np.float64
        assert list(table.column("doubled")) == [2.0, 4.0, 6.0]
        assert table.column("tag").dtype == object
        with pytest.raises(KeyError):
            table.column("missing")

    def test_rows_merge_params_and_metrics(self):
        table = run_sweep(GridSpec(kind="counting", axes={"x": [4.0]}))
        row = table.row(0)
        assert row["x"] == 4.0 and row["doubled"] == 8.0

    def test_csv_export(self, tmp_path):
        table = run_sweep(GridSpec(kind="counting", axes={"x": [1.0, 2.0]}))
        path = table.to_csv(tmp_path / "sweep.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "x,doubled,tag"
        assert len(lines) == 3

    def test_equals_rejects_different_tables(self):
        a = run_sweep(GridSpec(kind="counting", axes={"x": [1.0]}))
        b = run_sweep(GridSpec(kind="counting", axes={"x": [2.0]}))
        assert a.equals(a)
        assert not a.equals(b)
        assert not a.equals("not a table")


class TestExecutorDeterminism:
    def test_parallel_table_bit_identical_to_serial(self, experiment_grid):
        serial = run_sweep(experiment_grid, workers=1)
        parallel = run_sweep(experiment_grid, workers=2)
        assert serial.equals(parallel)
        for name in serial.names:
            a, b = serial.column(name), parallel.column(name)
            if a.dtype.kind == "f":
                assert np.array_equal(a, b)

    def test_progress_reports_every_point(self, experiment_grid):
        lines = []
        run_sweep(experiment_grid, workers=1, progress=lines.append)
        assert len(lines) == len(experiment_grid)
        assert lines[-1].startswith("[4/4]")

    def test_invalid_workers_rejected(self, experiment_grid):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(experiment_grid, workers=0)

    def test_empty_point_list_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            run_sweep([])


class TestResultCache:
    def test_warm_run_invokes_zero_engines(self, tmp_path):
        grid = GridSpec(kind="counting", axes={"x": [1.0, 2.0, 3.0, 4.0]})
        cache = ResultCache(tmp_path / "cache")

        COUNTER["calls"] = 0
        cold = run_sweep(grid, workers=1, cache=cache)
        assert COUNTER["calls"] == 4
        assert cold.executed_count == 4 and cold.cache_hit_count == 0
        assert len(cache) == 4

        warm = run_sweep(grid, workers=1, cache=cache)
        assert COUNTER["calls"] == 4, "warm run invoked the engine"
        assert warm.executed_count == 0 and warm.cache_hit_count == 4
        assert cold.equals(warm)

    def test_cached_experiment_table_bit_identical(
        self, experiment_grid, tmp_path
    ):
        cache = tmp_path / "cache"
        cold = run_sweep(experiment_grid, workers=2, cache=cache)
        warm = run_sweep(experiment_grid, workers=2, cache=cache)
        assert warm.executed_count == 0
        assert cold.equals(warm)

    def test_partial_cache_runs_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(
            GridSpec(kind="counting", axes={"x": [1.0, 2.0]}), cache=cache
        )
        COUNTER["calls"] = 0
        mixed = run_sweep(
            GridSpec(kind="counting", axes={"x": [1.0, 2.0, 9.0]}),
            cache=cache,
        )
        assert COUNTER["calls"] == 1
        assert mixed.executed_count == 1 and mixed.cache_hit_count == 2
        assert list(mixed.column("doubled")) == [2.0, 4.0, 18.0]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = GridSpec(kind="counting", axes={"x": [7.0]}).points()[0]
        run_sweep([spec], cache=cache)
        for path in cache.root.glob("*.json"):
            path.write_text("{ torn")
        COUNTER["calls"] = 0
        run_sweep([spec], cache=cache)
        assert COUNTER["calls"] == 1

    def test_failed_sweep_keeps_completed_rows(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        grid = GridSpec(
            kind="fragile", base={"fail_on": 3}, axes={"x": [1, 2, 3]}
        )
        result = run_sweep(grid, workers=1, cache=cache)
        # The failing point lands as an error row; every other point
        # completes and is durable in the cache.  The failure itself is
        # never cached, so a retry re-executes exactly the failing tail.
        assert list(result.column("error"))[:2] == [None, None]
        assert "boom" in result.column("error")[2]
        assert len(cache) == 2
        retry = run_sweep(grid, workers=1, cache=cache)
        assert retry.executed_count == 1 and retry.cache_hit_count == 2

    def test_uncacheable_points_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = ScenarioSpec(
            kind="counting", params={"x": 1.0, "hook": lambda: None}
        )
        run_sweep([spec], cache=cache)
        run_sweep([spec], cache=cache)
        assert len(cache) == 0


class TestScenarioKinds:
    def test_fleet_kind_row_fields(self):
        grid = GridSpec(
            kind="fleet",
            base={
                "racks": 1,
                "hours": 0.25,
                "dt_s": 60.0,
                "controller": "default",
                "workload": "batch",
            },
            axes={"servers_per_rack": [1, 2]},
        )
        table = run_sweep(grid)
        assert list(table.column("server_count")) == [1, 2]
        assert (table.column("energy_kwh") > 0).all()
        assert (table.column("hot_spot_c") > 20.0).all()
        assert "sla_total_pct_s" in table.names

    def test_fleet_grid_helper_axes(self):
        grid = fleet_grid(
            server_counts=(1, 2),
            policies=("round-robin", "coolest-first"),
            controllers=("default",),
            crac_supplies_c=(22.0, 24.0, 27.0),
            racks=1,
            hours=0.5,
        )
        assert len(grid) == 12
        first = grid.points()[0].params
        assert first["racks"] == 1 and first["workload"] == "diurnal"

    def test_sensitivity_sweep_parallel_matches_serial(
        self, paper_lut, short_profile
    ):
        from repro.experiments.sensitivity import sweep_ambient

        kwargs = dict(
            ambients_c=(20.0, 28.0), profile=short_profile, seed=1
        )
        serial = sweep_ambient(paper_lut, workers=1, **kwargs)
        parallel = sweep_ambient(paper_lut, workers=2, **kwargs)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key] == parallel[key]

    def test_experiment_kind_unknown_controller(self):
        with pytest.raises(ValueError, match="unknown controller"):
            run_scenario(
                ScenarioSpec("experiment", {"controller": "warp-drive"})
            )

    def test_typoed_parameter_rejected(self):
        for kind in ("experiment", "lut_vs_default", "fleet"):
            with pytest.raises(ValueError, match="unknown parameter"):
                run_scenario(ScenarioSpec(kind, {"ambeint_c": 24.0}))

    def test_fleet_kind_honors_leakage_scaling(self):
        grid = GridSpec(
            kind="fleet",
            base={
                "racks": 1,
                "servers_per_rack": 1,
                "hours": 0.25,
                "dt_s": 60.0,
                "controller": "default",
                "workload": "batch",
            },
            axes={"leakage_factor": [1.0, 4.0]},
        )
        energy = run_sweep(grid).column("energy_kwh")
        assert energy[1] > energy[0], "leakage axis did not change physics"

    def test_register_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("counting")(lambda params: {})

    def test_from_points_length_mismatch(self):
        spec = ScenarioSpec("counting", {"x": 1.0})
        with pytest.raises(ValueError, match="matching lengths"):
            SweepResult.from_points([spec], [])


class TestFaultGrids:
    """Sweeping over failure scenarios is deterministic and cache-correct."""

    def _fault_axis(self):
        """Three fault plans in the JSON (list-of-mappings) form."""
        outage = ({"kind": "outage", "server": 0, "start_s": 0.0, "end_s": 600.0},)
        compound = (
            {"kind": "outage", "server": 0, "start_s": 0.0, "end_s": 600.0},
            {
                "kind": "crac",
                "delta_c": 3.0,
                "start_s": 120.0,
                "end_s": 480.0,
            },
        )
        return [(), outage, compound]

    def _grid(self):
        return GridSpec(
            kind="fleet",
            base={
                "racks": 1,
                "servers_per_rack": 2,
                "hours": 0.25,
                "dt_s": 60.0,
                "controller": "default",
                "workload": "batch",
                "policy": "round-robin",
            },
            axes={"faults": self._fault_axis()},
        )

    def test_distinct_fault_plans_hash_distinct(self):
        keys = {point.cache_key() for point in self._grid().points()}
        assert len(keys) == 3

    def test_schedule_object_and_json_forms_both_cacheable(self):
        from repro.fleet import FaultSchedule, ServerOutageEvent

        def spec(faults):
            return ScenarioSpec(kind="fleet", params={"racks": 1, "faults": faults})

        def schedule():
            return FaultSchedule(
                events=(ServerOutageEvent(server=0, end_s=600.0),)
            )

        as_object = spec(schedule())
        as_json = spec(schedule().to_dicts())
        assert as_object.cacheable and as_json.cacheable
        # independently-built equal schedules hash to the same key
        assert as_object.cache_key() == spec(schedule()).cache_key()
        assert as_json.cache_key() == spec(schedule().to_dicts()).cache_key()
        # a different plan (different window) changes the key
        other = FaultSchedule(events=(ServerOutageEvent(server=0, end_s=900.0),))
        assert spec(other).cache_key() != as_object.cache_key()

    def test_fault_grid_rows_and_warm_cache(self, tmp_path):
        grid = self._grid()
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(grid, workers=1, cache=cache)
        # degraded-mode columns are present, zero for the empty plan
        # and increasing with the compound plan's extra events
        fault_time = cold.column("fault_time_s")
        assert fault_time[0] == 0.0
        assert fault_time[1] > 0.0
        assert fault_time[2] >= fault_time[1]
        assert cold.column("respilled_pct_s")[1] > 0.0
        # warm run answers entirely from the content-hash cache
        warm = run_sweep(grid, workers=1, cache=cache)
        assert warm.executed_count == 0
        assert warm.cache_hit_count == 3
        assert cold.equals(warm)


class TestBuildRun:
    """build_run is the one place a fleet or facility run is built."""

    _FLEET = {
        "racks": 1,
        "servers_per_rack": 2,
        "hours": 1.0,
        "dt_s": 5.0,
        "controller": "lut",
        "workload": "flashcrowd",
        "policy": "round-robin",
    }

    def test_fleet_kind_honours_lut_lockout(self):
        from repro.core.controllers.lut import LUTController
        from repro.experiments.report import build_paper_lut
        from repro.fleet import (
            FleetEngine,
            FleetScheduler,
            RoundRobinPolicy,
            build_uniform_fleet,
        )
        from repro.sweep import build_fleet_workload

        rows = [
            run_scenario(
                ScenarioSpec("fleet", dict(self._FLEET, lut_lockout_s=lockout))
            )
            for lockout in (0.0, 900.0)
        ]
        assert rows[0]["energy_kwh"] != rows[1]["energy_kwh"]
        lut = build_paper_lut(seed=0)
        direct = FleetEngine(
            build_uniform_fleet(rack_count=1, servers_per_rack=2),
            build_fleet_workload("flashcrowd", 3600.0, seed=0),
            scheduler=FleetScheduler(RoundRobinPolicy()),
            controller_factory=lambda i: LUTController(lut, lockout_s=900.0),
        ).run(dt_s=5.0).metrics
        assert rows[1]["energy_kwh"] == direct.energy_kwh
        assert rows[1]["hot_spot_c"] == direct.hot_spot_c

    @pytest.mark.parametrize("controller", ["lut", "coordinated"])
    def test_facility_kind_honours_lut_lockout(self, controller):
        base = {
            "racks": 1,
            "servers_per_rack": 2,
            "hours": 0.5,
            "dt_s": 5.0,
            "controller": controller,
            "arrivals": "poisson",
            "jobs_per_hour": 30.0,
        }
        rows = [
            run_scenario(
                ScenarioSpec("facility", dict(base, lut_lockout_s=lockout))
            )
            for lockout in (0.0, 900.0)
        ]
        assert rows[0]["it_energy_kwh"] != rows[1]["it_energy_kwh"]

    #: Case id → a kind, the bad parameters it must refuse, and why.
    _BAD = {
        "fleet-hours-0": ("fleet", {"hours": 0.0}, "hours must be positive"),
        "fleet-dt-negative": ("fleet", {"dt_s": -5.0}, "dt_s must be positive"),
        "fleet-no-racks": ("fleet", {"racks": 0}, "must be positive"),
        "fleet-shards-on-vector": ("fleet", {"shards": 2}, "backend='sharded'"),
        "fleet-rpm-out-of-range": (
            "fleet",
            {"controller": "default", "rpm": 99999.0},
            "outside supported range",
        ),
        "facility-rated-kw-0": ("facility", {"rated_kw": 0.0}, "rated_power_w"),
        "facility-sharded": ("facility", {"backend": "sharded"}, "dynamic"),
        "facility-negative-lockout": (
            "facility", {"lut_lockout_s": -1.0}, "lockout_s"
        ),
        "experiment-kind": ("experiment", {}, "fleet or facility"),
    }

    @pytest.mark.parametrize("case", list(_BAD))
    def test_bad_input_raises_value_error(self, case):
        from repro.sweep import build_run

        kind, bad, reason = self._BAD[case]
        params = dict(self._FLEET, **bad)
        if kind == "facility":
            del params["workload"]
        with pytest.raises(ValueError, match=re.escape(reason)):
            build_run(kind, params)

    def test_only_result_neutral_engine_options(self):
        from repro.sweep import build_run

        with pytest.raises(TypeError, match="engine option"):
            build_run("fleet", {"racks": 1}, seed=3)

    def test_facility_layers_can_be_switched_off(self):
        row = run_scenario(
            ScenarioSpec(
                "facility",
                {
                    "racks": 1,
                    "servers_per_rack": 1,
                    "hours": 0.5,
                    "controller": "pi",
                    "no_cooling": True,
                    "no_power_chain": True,
                    "no_carbon": True,
                },
            )
        )
        assert row["cooling_energy_kwh"] == 0.0
        assert row["chain_loss_kwh"] == 0.0
        assert row["carbon_kg"] == 0.0
        assert row["pue"] == 1.0

    def test_mpc_fits_the_given_samples(
        self, characterization_samples, short_profile
    ):
        # the session samples are the steady characterization at seed 7
        base = {
            "controller": "mpc",
            "profile": short_profile,
            "characterization_seed": 7,
        }
        characterized = run_scenario(ScenarioSpec("experiment", base))
        given = run_scenario(
            ScenarioSpec(
                "experiment", dict(base, samples=characterization_samples)
            )
        )
        assert given == characterized
        hotter = [
            dataclasses.replace(
                s, avg_cpu_temperature_c=s.avg_cpu_temperature_c + 10.0
            )
            for s in characterization_samples
        ]
        shifted = run_scenario(
            ScenarioSpec("experiment", dict(base, samples=hotter))
        )
        assert shifted != characterized
