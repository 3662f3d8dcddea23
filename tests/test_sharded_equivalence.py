"""Differential suite: ``backend="sharded"`` vs ``backend="vector"``.

The sharded fleet backend's whole value proposition is "same numbers,
bigger machine", so every test here demands *bit* equality
(``np.testing.assert_array_equal``, never ``allclose``) between a
sharded run — 1, 2 or 4 shards, inline or forked worker processes —
and the single-process vector kernel, across:

* every builtin placement policy,
* a custom placement policy (not in the registry),
* coordinated fan+DVFS control (cross-layer p-state actuation),
* a compound fault schedule whose outage respill crosses a shard
  boundary,
* capture taps, persistent streamed trace directories, critical-trip
  propagation, and the run-stats surface.
"""

from dataclasses import replace
from threading import TIMEOUT_MAX
from typing import get_type_hints

import numpy as np
import pytest

from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.pid import PIController
from repro.core.lut import build_lut_from_spec
from repro.engine.control import FleetSlice
from repro.engine.sharded import resolve_shard_mode
from repro.fleet import (
    PLACEMENT_POLICIES,
    CracExcursionEvent,
    FanDegradationEvent,
    FaultSchedule,
    FleetEngine,
    FleetScheduler,
    FleetWorkload,
    PlacementPolicy,
    SensorFaultEvent,
    ServerOutageEvent,
    build_uniform_fleet,
)
from repro.obs.capture import FleetCapture
from repro.server.dvfs import default_dvfs_ladder
from repro.server.server import CriticalTemperatureError
from repro.server.specs import ServerSpec, default_server_spec
from repro.telemetry.segments import FleetTraceReader
from repro.workloads.profile import StaircaseProfile

#: Every FleetResult trace column, compared bit-for-bit.
FLEET_TRACES = (
    "times_s",
    "total_power_w",
    "fan_power_w",
    "max_junction_c",
    "utilization_pct",
    "inlet_c",
    "mean_rpm",
    "unserved_pct",
    "pstate_index",
    "work_deficit_pct",
    "fault_active",
    "respilled_pct",
    "fault_unserved_pct",
)

DT_S = 2.0
DURATION_S = 240.0

PROFILE = StaircaseProfile([25.0, 85.0, 55.0, 95.0], 60.0)

#: Compound schedule on a 6-server fleet: the outage takes down a
#: whole shard-0 server while demand is high, so its respilled work
#: lands on shard-1 servers — the cross-shard attribution path.
FAULTS = FaultSchedule(
    events=(
        SensorFaultEvent(
            server=1, mode="stuck", value=35.0, start_s=40.0, end_s=160.0
        ),
        SensorFaultEvent(
            server=4, mode="dropout", start_s=60.0, end_s=120.0, seed=3
        ),
        FanDegradationEvent(server=2, rpm_factor=0.7, start_s=80.0),
        ServerOutageEvent(server=0, start_s=60.0, end_s=180.0),
        CracExcursionEvent(delta_c=3.0, rack=1, start_s=100.0, end_s=200.0),
    )
)


class HottestFirstPolicy(PlacementPolicy):
    """A custom policy outside the registry, ranked on the arrays."""

    name = "hottest-first"

    def order_indices(self, arrays):
        """Hottest junction first (deterministic index tiebreak)."""
        return np.argsort(-arrays.max_junction_c, kind="stable")


def run_fleet(
    backend,
    policy=None,
    controller_factory=None,
    faults=None,
    spec=None,
    capture=None,
    **sharded_kw,
):
    """One 120-tick 2x3 fleet run with the given backend/options."""
    fleet = build_uniform_fleet(
        rack_count=2, servers_per_rack=3, spec=spec
    )
    engine = FleetEngine(
        fleet,
        FleetWorkload(PROFILE, fleet.server_count),
        scheduler=FleetScheduler(
            policy if policy is not None else PLACEMENT_POLICIES["coolest-first"]()
        ),
        controller_factory=controller_factory,
        backend=backend,
        faults=faults,
        capture=capture,
        **sharded_kw,
    )
    return engine.run(dt_s=DT_S, duration_s=DURATION_S), engine


def assert_results_identical(expected, actual):
    """Bit equality over every trace column plus the metrics block."""
    for name in FLEET_TRACES:
        left = getattr(expected, name)
        right = getattr(actual, name)
        np.testing.assert_array_equal(
            np.asarray(left), np.asarray(right), err_msg=name
        )
    assert expected.metrics == actual.metrics
    assert expected.scheduler_name == actual.scheduler_name
    assert expected.controller_name == actual.controller_name


class TestBuiltinPolicies:
    @pytest.mark.parametrize("policy_name", sorted(PLACEMENT_POLICIES))
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_policy_bit_identical(self, policy_name, shards):
        base, _ = run_fleet(
            "vector", policy=PLACEMENT_POLICIES[policy_name]()
        )
        sharded, _ = run_fleet(
            "sharded",
            policy=PLACEMENT_POLICIES[policy_name](),
            shards=shards,
            shard_mode="inline",
        )
        assert_results_identical(base, sharded)
        assert sharded.backend == "sharded"

    def test_custom_policy_bit_identical(self):
        base, _ = run_fleet("vector", policy=HottestFirstPolicy())
        sharded, _ = run_fleet(
            "sharded",
            policy=HottestFirstPolicy(),
            shards=3,
            shard_mode="inline",
        )
        assert_results_identical(base, sharded)


class TestProcessMode:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_forked_workers_bit_identical(self, shards):
        if resolve_shard_mode("auto") != "process":
            pytest.skip("fork start method unavailable")
        base, _ = run_fleet(
            "vector", controller_factory=lambda i: PIController()
        )
        sharded, engine = run_fleet(
            "sharded",
            controller_factory=lambda i: PIController(),
            faults=None,
            shards=shards,
            shard_mode="process",
        )
        assert_results_identical(base, sharded)
        assert engine.last_run_stats["shard_mode"] == "process"
        assert engine.last_run_stats["ru_maxrss_children_kb"] > 0

    def test_forked_workers_with_faults(self):
        if resolve_shard_mode("auto") != "process":
            pytest.skip("fork start method unavailable")
        base, _ = run_fleet(
            "vector",
            controller_factory=lambda i: PIController(),
            faults=FAULTS,
        )
        sharded, _ = run_fleet(
            "sharded",
            controller_factory=lambda i: PIController(),
            faults=FAULTS,
            shards=2,
            shard_mode="process",
        )
        assert_results_identical(base, sharded)


class TestCoordinatedDvfs:
    def test_coordinated_control_bit_identical(self):
        spec = replace(default_server_spec(), dvfs=default_dvfs_ladder())
        lut = build_lut_from_spec(spec)

        def factory(index):
            return CoordinatedController(lut, spec.dvfs)

        base, _ = run_fleet(
            "vector",
            policy=PLACEMENT_POLICIES["dvfs-aware"](),
            controller_factory=factory,
            spec=spec,
        )
        assert (np.asarray(base.pstate_index) > 0).any(), (
            "scenario must actually exercise deep p-states"
        )
        for shards in (2, (1, 4, 1)):
            sharded, _ = run_fleet(
                "sharded",
                policy=PLACEMENT_POLICIES["dvfs-aware"](),
                controller_factory=factory,
                spec=spec,
                shards=shards,
                shard_mode="inline",
            )
            assert_results_identical(base, sharded)


class TestFaultSchedules:
    def test_cross_shard_outage_respill_bit_identical(self):
        base, _ = run_fleet(
            "vector",
            controller_factory=lambda i: PIController(),
            faults=FAULTS,
        )
        # the drill must exercise the attribution paths it claims to
        assert np.asarray(base.respilled_pct).sum() > 0.0
        assert np.asarray(base.fault_active).any()
        for shards in (1, 2, 4):
            sharded, _ = run_fleet(
                "sharded",
                controller_factory=lambda i: PIController(),
                faults=FAULTS,
                shards=shards,
                shard_mode="inline",
            )
            assert_results_identical(base, sharded)

    def test_mixed_controllers_uneven_shards(self):
        def factory(index):
            if index % 2:
                return PIController(poll_interval_s=4.0)
            return FixedSpeedController()

        base, _ = run_fleet(
            "vector", controller_factory=factory, faults=FAULTS
        )
        sharded, _ = run_fleet(
            "sharded",
            controller_factory=factory,
            faults=FAULTS,
            shards=(1, 4, 1),
            shard_mode="inline",
        )
        assert base.controller_name == "mixed"
        assert_results_identical(base, sharded)


class TestCriticalTrip:
    def _fleet_with_fragile_server(self, fragile_servers=(4,)):
        fragile = ServerSpec(
            critical_temperature_c=76.0, target_max_temperature_c=70.0
        )
        # server 4 (inside the second of two shards) trips first
        specs = [default_server_spec()] * 6
        for index in fragile_servers:
            specs[index] = fragile
        from repro.fleet import Fleet, Rack

        return Fleet(
            racks=(
                Rack(name="r0", servers=tuple(specs[:3])),
                Rack(name="r1", servers=tuple(specs[3:])),
            )
        )

    @pytest.mark.parametrize(
        "backend, kw",
        [
            ("sharded", {"shards": 2, "shard_mode": "inline"}),
            ("sharded", {"shards": 2, "shard_mode": "process"}),
            ("reference", {}),
        ],
        ids=["inline", "process", "reference"],
    )
    def test_trip_matches_vector_message(self, backend, kw):
        if (
            kw.get("shard_mode") == "process"
            and resolve_shard_mode("auto") != "process"
        ):
            pytest.skip("fork start method unavailable")
        fleet = self._fleet_with_fragile_server()

        def build(backend, **kw):
            return FleetEngine(
                fleet,
                FleetWorkload(
                    StaircaseProfile([100.0], 600.0), fleet.server_count
                ),
                controller_factory=lambda i: FixedSpeedController(rpm=1800.0),
                backend=backend,
                **kw,
            )

        with pytest.raises(CriticalTemperatureError) as vector_exc:
            build("vector").run(dt_s=5.0, duration_s=600.0)
        with pytest.raises(CriticalTemperatureError) as other_exc:
            build(backend, **kw).run(dt_s=5.0, duration_s=600.0)
        assert str(other_exc.value) == str(vector_exc.value)
        assert "server 4" in str(other_exc.value)

    def test_first_server_in_fleet_order_trips(self):
        """Servers 1 and 4 trip on the same tick, one per shard: the
        trip rule names the first in fleet index order."""
        fleet = self._fleet_with_fragile_server(fragile_servers=(1, 4))
        for backend, kw in (
            ("vector", {}),
            ("sharded", {"shards": 2, "shard_mode": "inline"}),
        ):
            engine = FleetEngine(
                fleet,
                FleetWorkload(
                    StaircaseProfile([100.0], 600.0), fleet.server_count
                ),
                controller_factory=lambda i: FixedSpeedController(rpm=1800.0),
                backend=backend,
                **kw,
            )
            with pytest.raises(CriticalTemperatureError, match="server 1 "):
                engine.run(dt_s=5.0, duration_s=600.0)


class TestCaptureAndPersistence:
    def test_capture_streams_bit_identical(self):
        base_capture = FleetCapture(chunk_ticks=16)
        sharded_capture = FleetCapture(chunk_ticks=16)
        base, _ = run_fleet("vector", capture=base_capture)
        sharded, _ = run_fleet(
            "sharded",
            capture=sharded_capture,
            shards=2,
            shard_mode="inline",
            stream_chunk_ticks=24,  # gcd(24, 16) = 8: forces realignment
        )
        assert_results_identical(base, sharded)
        assert base_capture.store.channel_names()
        for name in sorted(base_capture.store.channel_names()):
            t_base, v_base = base_capture.store.channel(name).series()
            t_shard, v_shard = sharded_capture.store.channel(name).series()
            np.testing.assert_array_equal(t_base, t_shard, err_msg=name)
            np.testing.assert_array_equal(v_base, v_shard, err_msg=name)

    def test_trace_dir_roundtrips_bit_exactly(self, tmp_path):
        trace_dir = tmp_path / "segments"
        base, _ = run_fleet("vector", faults=FAULTS)
        sharded, engine = run_fleet(
            "sharded",
            faults=FAULTS,
            shards=2,
            shard_mode="inline",
            trace_dir=str(trace_dir),
        )
        assert_results_identical(base, sharded)
        assert (trace_dir / "meta.json").exists()
        assert engine.last_run_stats["trace_dir"] == str(trace_dir)

        reader = FleetTraceReader(trace_dir)
        reloaded = reader.to_result(engine.fleet)
        assert_results_identical(base, reloaded)
        # lazily-mapped columns must be read-only views over the files
        assert not reader.column("power").flags.writeable
        with pytest.raises(ValueError):
            np.asarray(reloaded.total_power_w)[0, 0] = 0.0

    def test_temporary_trace_dir_is_cleaned_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            _, engine = run_fleet(
                "sharded", shards=2, shard_mode="inline"
            )
        finally:
            tempfile.tempdir = None
        assert engine.last_run_stats["trace_dir"] is None
        assert list(tmp_path.glob("repro-sharded-*")) == []


class TestValidation:
    def test_sharded_params_require_sharded_backend(self):
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=2)
        workload = FleetWorkload(PROFILE, fleet.server_count)
        with pytest.raises(ValueError, match="backend='sharded'"):
            FleetEngine(fleet, workload, backend="vector", shards=2)
        with pytest.raises(ValueError, match="backend='sharded'"):
            FleetEngine(fleet, workload, backend="vector", trace_dir="/tmp/x")

    def test_bad_partitions_fail_at_construction(self):
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=2)
        workload = FleetWorkload(PROFILE, fleet.server_count)
        with pytest.raises(ValueError):
            FleetEngine(fleet, workload, backend="sharded", shards=3)
        with pytest.raises(ValueError):
            FleetEngine(fleet, workload, backend="sharded", shards=(1, 2))
        with pytest.raises(ValueError):
            FleetEngine(fleet, workload, backend="sharded", shards=0)
        with pytest.raises(ValueError, match="shard_mode"):
            FleetEngine(
                fleet, workload, backend="sharded", shard_mode="threads"
            )

    @pytest.mark.parametrize(
        "value", [float("inf"), float("nan"), 1e300, 0.0, -1.0]
    )
    def test_barrier_timeout_keyword_must_be_finite(self, value):
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=4)
        workload = FleetWorkload(PROFILE, fleet.server_count)
        with pytest.raises(ValueError, match="barrier_timeout_s"):
            FleetEngine(
                fleet, workload, backend="sharded", barrier_timeout_s=value
            )

    @pytest.mark.parametrize("value", ["inf", "nan", "1e300", "0", "-5"])
    def test_barrier_timeout_environment_must_be_finite(
        self, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_BARRIER_TIMEOUT_S", value)
        with pytest.raises(ValueError, match="REPRO_BARRIER_TIMEOUT_S"):
            run_fleet("sharded", shards=2, shard_mode="inline")

    def test_barrier_timeout_accepts_timeout_max(self, monkeypatch):
        """The largest timeout a barrier wait accepts runs a forked run."""
        if resolve_shard_mode("auto") != "process":
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_BARRIER_TIMEOUT_S", repr(TIMEOUT_MAX))
        base, _ = run_fleet("vector")
        sharded, engine = run_fleet("sharded", shards=2, shard_mode="process")
        assert engine.last_run_stats["barrier_timeout_s"] == TIMEOUT_MAX
        assert_results_identical(base, sharded)

    def test_snapshot_annotations_resolve(self):
        assert get_type_hints(FleetSlice.snapshot)["staging"] is str

    def test_bad_command_names_the_fleet_server(self):
        """A shard worker rejects an out-of-range fan command with the
        server's fleet index, in the in-process loop's own words."""

        class Runaway(FixedSpeedController):
            def decide(self, observation):
                return 9000.0 if observation.time_s >= 20.0 else None

        def factory(i):
            return Runaway() if i == 4 else FixedSpeedController()

        messages = []
        for backend, kw in (
            ("vector", {}),
            ("sharded", {"shards": 2, "shard_mode": "inline"}),
        ):
            with pytest.raises(ValueError, match="server 4: rpm 9000") as exc:
                run_fleet(backend, controller_factory=factory, **kw)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_run_stats_surface(self):
        _, engine = run_fleet("sharded", shards=2, shard_mode="inline")
        stats = engine.last_run_stats
        assert stats["backend"] == "sharded"
        assert stats["shards"] == 2
        assert stats["server_count"] == 6
        assert stats["sim_time_s"] == DURATION_S
        assert stats["ru_maxrss_stream_kb"] > 0
        assert 0 < stats["wall_stream_s"] <= stats["wall_total_s"]
