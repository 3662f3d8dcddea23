"""Fleet fault injection: schedules, compilation, engine semantics.

The acceptance contract pinned here: a compound fault drill runs
bit-identically on ``vector`` and ``sharded`` (and within tolerance on
``reference``), an all-empty schedule reproduces the fault-free traces
exactly, outage servers
execute zero work while their share respills, fan derates cap the
actuated speed, CRAC excursions shift the affected inlets, and the
degraded-mode metrics attribute the damage.
"""

import math

import numpy as np
import pytest

from repro.core.controllers.bangbang import BangBangController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.pid import PIController
from repro.fleet import (
    CoolestFirstPolicy,
    CracExcursionEvent,
    FanDegradationEvent,
    FaultSchedule,
    Fleet,
    FleetEngine,
    FleetScheduler,
    LeastUtilizedPolicy,
    Rack,
    SensorFaultEvent,
    ServerOutageEvent,
    build_uniform_fleet,
)
from repro.server.specs import default_server_spec
from repro.workloads.profile import ConstantProfile, StaircaseProfile

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


def drill_schedule():
    """The acceptance drill: stuck-low sensor + outage + CRAC excursion."""
    return FaultSchedule(
        events=(
            SensorFaultEvent(
                server=0, mode="stuck", value=30.0, start_s=60.0, end_s=260.0
            ),
            ServerOutageEvent(server=3, start_s=100.0, end_s=300.0),
            CracExcursionEvent(delta_c=3.0, rack=1, start_s=40.0, end_s=200.0),
        )
    )


def run_fleet(fleet, profile, backend, faults, dt_s=2.0, policy=None, **kwargs):
    scheduler = FleetScheduler(
        policy if policy is not None else CoolestFirstPolicy()
    )
    return FleetEngine(
        fleet,
        profile,
        scheduler=scheduler,
        controller_factory=lambda i: PIController(),
        backend=backend,
        faults=faults,
        **kwargs,
    ).run(dt_s=dt_s)


class TestScheduleValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SensorFaultEvent(server=0, mode="melt")

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="end_s"):
            ServerOutageEvent(server=0, start_s=50.0, end_s=50.0)
        with pytest.raises(ValueError, match="start_s"):
            ServerOutageEvent(server=0, start_s=-1.0)

    def test_bad_rpm_factor_rejected(self):
        for factor in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="rpm_factor"):
                FanDegradationEvent(server=0, rpm_factor=factor)

    def test_non_finite_excursion_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CracExcursionEvent(delta_c=math.nan)

    def test_non_event_rejected(self):
        with pytest.raises(TypeError, match="FaultEvent"):
            FaultSchedule(events=({"kind": "outage"},))

    def test_out_of_range_targets_rejected_by_engine(self, small_fleet):
        profile = ConstantProfile(40.0, 60.0)
        with pytest.raises(ValueError, match="server 9"):
            FleetEngine(
                small_fleet,
                profile,
                faults=FaultSchedule(events=(ServerOutageEvent(server=9),)),
            )
        with pytest.raises(ValueError, match="rack 5"):
            FleetEngine(
                small_fleet,
                profile,
                faults=FaultSchedule(
                    events=(CracExcursionEvent(delta_c=2.0, rack=5),)
                ),
            )

    def test_engine_rejects_non_schedule(self, small_fleet):
        with pytest.raises(TypeError, match="FaultSchedule"):
            FleetEngine(
                small_fleet,
                ConstantProfile(40.0, 60.0),
                faults=[ServerOutageEvent(server=0)],
            )


class TestScheduleJsonAndResolve:
    def test_json_round_trip(self, tmp_path):
        schedule = drill_schedule()
        path = schedule.to_json(tmp_path / "drill.json")
        loaded = FaultSchedule.from_json(path)
        assert loaded == schedule

    def test_infinite_end_survives_round_trip(self, tmp_path):
        schedule = FaultSchedule(
            events=(FanDegradationEvent(server=1, rpm_factor=0.7, start_s=9.0),)
        )
        loaded = FaultSchedule.from_json(schedule.to_json(tmp_path / "f.json"))
        assert loaded.events[0].end_s == math.inf

    def test_from_dicts_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSchedule.from_dicts([{"kind": "meteor"}])

    def test_from_dicts_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="outage"):
            FaultSchedule.from_dicts([{"kind": "outage", "sever": 1}])

    def test_resolve_forms(self):
        schedule = drill_schedule()
        assert FaultSchedule.resolve(None) is None
        assert FaultSchedule.resolve(FaultSchedule()) is None
        assert FaultSchedule.resolve(schedule) is schedule
        assert FaultSchedule.resolve(list(schedule.events)) == schedule
        assert FaultSchedule.resolve(schedule.to_dicts()) == schedule
        with pytest.raises(TypeError, match="FaultSchedule"):
            FaultSchedule.resolve("outage")


class TestCompile:
    def test_empty_schedule_compiles_to_none(self, small_fleet):
        assert FaultSchedule().compile(small_fleet, 10, 1.0) is None

    def test_masks_follow_windows(self, small_fleet):
        plan = drill_schedule().compile(small_fleet, 150, 2.0)
        times = np.arange(150) * 2.0
        np.testing.assert_array_equal(
            plan.outage[:, 3], (times >= 100.0) & (times < 300.0)
        )
        assert not plan.outage[:, :3].any()
        # rack 1 holds servers 2 and 3; both see the excursion window
        window = (times >= 40.0) & (times < 200.0)
        np.testing.assert_array_equal(
            plan.supply_delta[:, 2], np.where(window, 3.0, 0.0)
        )
        assert np.all(plan.supply_delta[:, :2] == 0.0)
        # the sensor fault marks server 0 degraded over its window
        np.testing.assert_array_equal(
            plan.fault_active[:, 0], (times >= 60.0) & (times < 260.0)
        )

    def test_fan_cap_clamped_to_bank_range(self, small_fleet):
        spec = small_fleet.servers[0]
        tiny = FaultSchedule(
            events=(FanDegradationEvent(server=0, rpm_factor=0.01),)
        ).compile(small_fleet, 5, 1.0)
        assert np.all(tiny.rpm_cap[:, 0] == spec.fan.rpm_min)


class TestEngineFaultSemantics:
    @pytest.fixture(scope="class")
    def drill_runs(self, small_fleet):
        profile = StaircaseProfile([30.0, 85.0, 50.0], 120.0)
        runs = {
            backend: run_fleet(
                small_fleet, profile, backend, drill_schedule()
            )
            for backend in ("vector", "reference")
        }
        runs["sharded"] = run_fleet(
            small_fleet,
            profile,
            "sharded",
            drill_schedule(),
            shards=2,
            shard_mode="inline",
        )
        runs["healthy"] = run_fleet(small_fleet, profile, "vector", None)
        return runs

    def test_drill_bit_identical_vector_vs_sharded(self, drill_runs):
        for name in FLEET_TRACES:
            np.testing.assert_array_equal(
                getattr(drill_runs["vector"], name),
                getattr(drill_runs["sharded"], name),
                err_msg=f"fleet trace {name!r} diverged under the drill",
            )

    def test_reference_backend_agrees(self, drill_runs):
        vec, ref = drill_runs["vector"], drill_runs["reference"]
        np.testing.assert_allclose(
            vec.max_junction_c, ref.max_junction_c, rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(
            vec.total_power_w, ref.total_power_w, rtol=0, atol=1e-6
        )
        np.testing.assert_allclose(vec.inlet_c, ref.inlet_c, rtol=0, atol=1e-9)
        for name in (
            "utilization_pct",
            "mean_rpm",
            "pstate_index",
            "work_deficit_pct",
            "unserved_pct",
            "fault_active",
            "respilled_pct",
            "fault_unserved_pct",
        ):
            np.testing.assert_array_equal(
                getattr(vec, name), getattr(ref, name), err_msg=name
            )

    def test_empty_schedule_is_bit_identical_to_no_faults(self, small_fleet):
        profile = StaircaseProfile([30.0, 85.0, 50.0], 120.0)
        for backend in ("vector", "reference"):
            plain = run_fleet(small_fleet, profile, backend, None)
            empty = run_fleet(small_fleet, profile, backend, FaultSchedule())
            for name in FLEET_TRACES:
                np.testing.assert_array_equal(
                    getattr(plain, name),
                    getattr(empty, name),
                    err_msg=f"{backend}: {name!r} changed under an empty "
                    "schedule",
                )

    def test_outage_servers_execute_nothing(self, drill_runs, small_fleet):
        result = drill_runs["vector"]
        plan = drill_schedule().compile(small_fleet, 180, 2.0)
        assert plan.outage.any()
        assert np.all(result.utilization_pct[plan.outage] == 0.0)

    def test_fault_free_run_has_zero_degraded_columns(self, drill_runs):
        healthy = drill_runs["healthy"]
        assert not healthy.fault_active.any()
        assert np.all(healthy.respilled_pct == 0.0)
        assert np.all(healthy.fault_unserved_pct == 0.0)
        m = healthy.metrics
        assert m.fault_time_s == 0.0
        assert m.fault_ticks == 0
        assert m.respilled_pct_s == 0.0
        assert m.fault_sla_pct_s == 0.0

    def test_crac_excursion_shifts_inlets_exactly(self):
        """Without recirculation the inlet shift equals the excursion
        delta on the affected rack, and only there."""
        spec = default_server_spec()
        fleet = Fleet(
            racks=(
                Rack(name="r0", servers=(spec,)),
                Rack(name="r1", servers=(spec,)),
            )
        )
        profile = ConstantProfile(40.0, 240.0)
        schedule = FaultSchedule(
            events=(
                CracExcursionEvent(
                    delta_c=4.0, rack=1, start_s=80.0, end_s=160.0
                ),
            )
        )
        base = run_fleet(fleet, profile, "vector", None)
        excursion = run_fleet(fleet, profile, "vector", schedule)
        times = np.arange(120) * 2.0
        window = (times >= 80.0) & (times < 160.0)
        delta = excursion.inlet_c - base.inlet_c
        np.testing.assert_array_equal(
            delta[:, 1], np.where(window, 4.0, 0.0)
        )
        np.testing.assert_array_equal(delta[:, 0], np.zeros(120))

    def test_fan_degradation_caps_actuated_speed(self, small_fleet):
        spec = small_fleet.servers[1]
        cap = 0.5 * spec.fan.rpm_max
        schedule = FaultSchedule(
            events=(
                FanDegradationEvent(server=1, rpm_factor=0.5, start_s=100.0),
            )
        )
        # every controller pushes 4000 RPM; the derated bank cannot
        # follow
        result = FleetEngine(
            small_fleet,
            ConstantProfile(90.0, 400.0),
            scheduler=FleetScheduler(CoolestFirstPolicy()),
            controller_factory=lambda i: FixedSpeedController(rpm=4000.0),
            faults=schedule,
        ).run(dt_s=2.0)
        times = np.arange(200) * 2.0
        # after the onset plus a slew allowance, the bank cannot exceed
        # the derated cap however hard the controller pushes
        settled = times >= 100.0 + spec.fan.rpm_max / spec.fan.slew_rpm_per_s
        assert np.all(result.mean_rpm[settled, 1] <= cap + 1e-9)
        # the healthy servers follow the 4000 RPM command
        assert np.all(result.mean_rpm[settled, 0] == 4000.0)
        # before the onset both banks track the command
        assert result.mean_rpm[40, 1] == 4000.0

    def test_stuck_low_sensor_blinds_fleet_controller(self, small_fleet):
        """A stuck-low channel under bang-bang control parks the fans
        at minimum and lets the junction run hotter than the healthy
        run — the blind-controller scenario at fleet scale."""
        profile = ConstantProfile(95.0, 600.0)
        schedule = FaultSchedule(
            events=(
                SensorFaultEvent(server=0, mode="stuck", value=30.0),
            )
        )

        def run(faults):
            return FleetEngine(
                small_fleet,
                profile,
                scheduler=FleetScheduler(LeastUtilizedPolicy()),
                controller_factory=lambda i: BangBangController(),
                faults=faults,
                trip_on_critical=False,
            ).run(dt_s=2.0)

        healthy = run(None)
        blind = run(schedule)
        assert (
            blind.max_junction_c[-1, 0]
            > healthy.max_junction_c[-1, 0] + 1.0
        )
        assert blind.mean_rpm[-1, 0] < healthy.mean_rpm[-1, 0]

    def test_dropout_holds_commands_until_repair(self, small_fleet):
        """A dropped-out channel freezes the server's fan command for
        the window; control resumes after repair.  A deterministic
        cycling controller makes the freeze unambiguous."""
        from repro.core.controllers.base import FanController

        class Cycler(FanController):
            name = "cycler"
            poll_interval_s = 10.0

            def __init__(self):
                self._calls = 0

            def decide(self, observation):
                self._calls += 1
                return (2000.0, 2600.0, 3200.0)[self._calls % 3]

            def reset(self):
                self._calls = 0

        profile = ConstantProfile(40.0, 600.0)
        schedule = FaultSchedule(
            events=(
                SensorFaultEvent(
                    server=0, mode="dropout", start_s=100.0, end_s=460.0
                ),
            )
        )

        def run(faults):
            return FleetEngine(
                small_fleet,
                profile,
                scheduler=FleetScheduler(LeastUtilizedPolicy()),
                controller_factory=lambda i: Cycler(),
                faults=faults,
            ).run(dt_s=2.0)

        result = run(schedule)
        healthy = run(None)
        times = result.times_s - 2.0  # decision times
        # allow one slew horizon after the last pre-dropout command
        window = (times >= 140.0) & (times < 460.0)
        frozen = result.mean_rpm[window, 0]
        assert np.all(frozen == frozen[0])
        assert np.ptp(healthy.mean_rpm[window, 0]) > 0.0
        # after repair the cycling resumes
        after = result.mean_rpm[times >= 500.0, 0]
        assert np.ptp(after) > 0.0
        # the other servers cycled throughout
        assert np.ptp(result.mean_rpm[window, 1]) > 0.0

    @pytest.mark.parametrize("backend", ["vector", "reference"])
    def test_pi_resumes_from_the_held_command_after_dropout(self, backend):
        """Server 0's PI is held from 600 to 1200 s at full load.  The
        gap is not integrated, so the fan stays near the fault-free
        peak (~2690 RPM) instead of jumping to 4200 RPM at 1205 s."""
        schedule = FaultSchedule(
            events=(
                SensorFaultEvent(
                    server=0, mode="dropout", start_s=600.0, end_s=1200.0
                ),
            )
        )
        result = FleetEngine(
            build_uniform_fleet(rack_count=1, servers_per_rack=2),
            ConstantProfile(100.0, 1500.0),
            controller_factory=lambda i: PIController(),
            backend=backend,
            faults=schedule,
            seed=0,
        ).run(dt_s=5.0)
        after = result.times_s > 1200.0
        assert result.mean_rpm[after, 0].max() < 3000.0


class TestOutageAccounting:
    def test_respill_and_fault_sla_attribution(self):
        """2 servers, 120%·servers demand, one server out: the survivor
        absorbs its cap and the remainder is fault-attributable."""
        spec = default_server_spec()
        fleet = Fleet(racks=(Rack(name="r", servers=(spec, spec)),))
        schedule = FaultSchedule(events=(ServerOutageEvent(server=1),))
        result = run_fleet(
            fleet,
            ConstantProfile(60.0, 200.0),  # 120 total
            "vector",
            schedule,
            policy=LeastUtilizedPolicy(),
        )
        # survivor pinned at its 100% cap, the outage server idle
        assert np.all(result.utilization_pct[:, 0] == 100.0)
        assert np.all(result.utilization_pct[:, 1] == 0.0)
        # The counterfactual uses the degraded trajectory's state: at
        # tick 0 both servers look idle (order [0, 1] → server 1 would
        # have carried the 20% remainder); from tick 1 the down server
        # is the least-utilized one, so all 100 would have landed on it.
        assert result.respilled_pct[0] == 20.0
        assert np.all(result.respilled_pct[1:] == 100.0)
        # everything unserved is attributable to the outage
        assert np.all(result.unserved_pct == 20.0)
        assert np.all(result.fault_unserved_pct == 20.0)
        m = result.metrics
        assert m.respilled_pct_s == pytest.approx((20.0 + 99 * 100.0) * 2.0)
        assert m.fault_sla_pct_s == pytest.approx(20.0 * 200.0)
        assert m.sla_unserved_pct_s == pytest.approx(20.0 * 200.0)
        assert m.fault_ticks == 100
        assert m.fault_time_s == pytest.approx(200.0)
        assert m.fault_server_time_s == pytest.approx(200.0)

    def test_no_fault_sla_when_capacity_absorbs_the_respill(self):
        """With headroom on the survivors an outage respills cleanly:
        work moves, nothing is lost."""
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=4)
        schedule = FaultSchedule(
            events=(ServerOutageEvent(server=2, start_s=60.0, end_s=200.0),)
        )
        result = run_fleet(
            fleet,
            ConstantProfile(50.0, 300.0),  # 200 total vs 300 surviving cap
            "vector",
            schedule,
            policy=LeastUtilizedPolicy(),
        )
        m = result.metrics
        assert m.respilled_pct_s > 0.0
        assert m.fault_sla_pct_s == 0.0
        assert np.all(result.unserved_pct == 0.0)


class TestRoundRobinStateUnderFaults:
    def test_policy_advances_once_per_tick_despite_counterfactual(self):
        """The respill counterfactual must not consume an extra policy
        ranking: a round-robin fleet with a *whole-run* outage places
        exactly like the same fleet where the policy state advanced
        once per tick."""
        from repro.fleet import RoundRobinPolicy

        spec = default_server_spec()
        fleet = Fleet(racks=(Rack(name="r", servers=(spec,) * 3),))
        profile = ConstantProfile(30.0, 60.0)  # 90 total: one server busy
        schedule = FaultSchedule(events=(ServerOutageEvent(server=0),))
        vec = run_fleet(
            fleet, profile, "vector", schedule, policy=RoundRobinPolicy()
        )
        # one rotation step per tick: tick t ranks from server t % 3, so
        # with server 0 down the first live server is 1, 1, 2, 1, 1, 2...
        # (a second ranking per tick would rotate by two instead)
        ticks = np.arange(vec.utilization_pct.shape[0])
        busy = np.nonzero(vec.utilization_pct > 0.0)
        np.testing.assert_array_equal(busy[0], ticks)
        np.testing.assert_array_equal(busy[1], np.array([1, 1, 2])[ticks % 3])
        assert np.all(vec.utilization_pct[:, 0] == 0.0)
