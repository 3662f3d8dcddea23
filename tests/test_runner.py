"""Unit tests for the closed-loop experiment runner."""

from math import isnan

import numpy as np
import pytest

from repro.core.controllers.bangbang import BangBangController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.experiments.runner import (
    ExperimentConfig,
    TRACE_COLUMNS,
    run_experiment,
)
from repro.server.faults import DropoutFault
from repro.workloads.profile import ConstantProfile, StaircaseProfile

ENGINES = ("kernel", "reference")


class TestRunnerBasics:
    def test_trace_schema(self):
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(50.0, 120.0)
        )
        assert result.recorder.columns == TRACE_COLUMNS
        assert len(result.recorder) == 120

    def test_time_axis(self):
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(50.0, 60.0)
        )
        times = result.column("time_s")
        assert times[0] == 1.0
        assert times[-1] == 60.0
        assert np.all(np.diff(times) == 1.0)

    def test_controller_initial_rpm_applied(self):
        result = run_experiment(
            FixedSpeedController(2400.0), ConstantProfile(0.0, 60.0)
        )
        # After slew, all fans run the controller's speed.
        assert result.column("mean_rpm")[-1] == pytest.approx(2400.0)

    def test_starts_from_cold_state(self):
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(0.0, 30.0)
        )
        assert result.column("max_junction_c")[0] == pytest.approx(35.0, abs=2.5)

    def test_metrics_attached(self):
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(50.0, 120.0)
        )
        assert result.metrics.duration_s == pytest.approx(119.0)
        assert result.metrics.energy_kwh > 0.0

    def test_too_short_profile_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(
                FixedSpeedController(3300.0), ConstantProfile(50.0, 0.1)
            )

    def test_seeded_runs_reproduce(self):
        config = ExperimentConfig(seed=5)
        a = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(50.0, 60.0), config=config
        )
        b = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(50.0, 60.0), config=config
        )
        np.testing.assert_array_equal(
            a.column("measured_max_cpu_c"), b.column("measured_max_cpu_c")
        )

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dt_s=0.0)


class TestLoadSynthesis:
    def test_pwm_mode_produces_binary_instantaneous(self):
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(40.0, 300.0)
        )
        values = np.unique(result.column("instantaneous_util_pct"))
        assert set(values) <= {0.0, 100.0}

    def test_direct_mode_passthrough(self):
        config = ExperimentConfig(loadgen_mode="direct")
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(40.0, 60.0), config=config
        )
        assert np.all(result.column("instantaneous_util_pct") == 40.0)

    def test_monitor_converges_to_target(self):
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(40.0, 300.0)
        )
        assert result.column("monitored_util_pct")[-1] == pytest.approx(40.0, abs=3.0)


class TestClosedLoopBehaviour:
    def test_lut_controller_tracks_load_steps(self, paper_lut):
        profile = StaircaseProfile([10.0, 100.0, 10.0], step_duration_s=600.0)
        result = run_experiment(LUTController(paper_lut), profile)
        commands = result.column("rpm_command")
        # Low phase at 1800, high phase raised to the 100% entry.
        assert commands[100] == 1800.0
        assert commands[1100] == paper_lut.query(100.0)
        assert commands[-1] == 1800.0

    def test_fan_change_count_matches_commands(self, paper_lut):
        profile = StaircaseProfile([10.0, 100.0, 10.0], step_duration_s=600.0)
        result = run_experiment(LUTController(paper_lut), profile)
        assert result.metrics.fan_speed_changes == 2

    def test_protocol_phases_extend_duration(self):
        config = ExperimentConfig(apply_protocol_phases=True)
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(50.0, 600.0), config=config
        )
        assert result.column("time_s")[-1] == pytest.approx(300.0 + 600.0 + 600.0)

    def test_power_trace_is_positive_and_bounded(self):
        result = run_experiment(
            FixedSpeedController(3300.0), ConstantProfile(100.0, 600.0)
        )
        power = result.column("power_total_w")
        assert np.all(power > 250.0)
        assert np.all(power < 800.0)


class _Observed(BangBangController):
    """Bang-bang that keeps every observation it is asked to decide on."""

    def __init__(self):
        BangBangController.__init__(self)
        self.observations = []

    def decide(self, observation):
        self.observations.append(observation)
        return BangBangController.decide(self, observation)


class TestControllerContract:
    """The runner polls its controller through the shared contract."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "start_s, held_rpm", [(300.0, 1800.0), (400.0, 2400.0)]
    )
    def test_dropout_holds_the_fan_command(self, start_s, held_rpm, engine):
        """Sensor 0 reads NaN in [start_s, 900) s: those polls hold both
        commands without asking the controller, so the fan stays where
        it was when the channel dropped out.  At 300 s the fan sits at
        its 1800 RPM floor; by 400 s bang-bang has raised it to 2400 RPM,
        where a NaN read as "cold" would drop it back to the floor."""
        controller = _Observed()
        result = run_experiment(
            controller,
            ConstantProfile(100.0, 1800.0),
            engine=engine,
            faults=[(0, DropoutFault(start_s=start_s, end_s=900.0))],
        )
        seen = controller.observations
        assert len(seen) == 180 - int((900.0 - start_s) / 10.0)
        assert not any(
            isnan(o.max_cpu_temperature_c) or isnan(o.avg_cpu_temperature_c)
            for o in seen
        )
        assert not any(start_s <= o.time_s < 900.0 for o in seen)
        time_s = result.column("time_s")
        commands = result.column("rpm_command")
        held = commands[(time_s >= start_s) & (time_s <= 900.0)]
        assert np.all(held == held_rpm)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("sensor", range(4))
    def test_any_dropped_sensor_makes_the_measured_max_nan(self, sensor, engine):
        """Whichever die channel drops out in [10, 40) s, the measured
        max reads NaN on exactly those 30 ticks, as the mean does: a NaN
        reading is never passed over as "not hotter" than the others."""
        result = run_experiment(
            FixedSpeedController(3000.0),
            ConstantProfile(50.0, 60.0),
            config=ExperimentConfig(seed=3),
            engine=engine,
            faults=[(sensor, DropoutFault(start_s=10.0, end_s=40.0))],
        )
        time_s = result.column("time_s")
        dropped = np.isnan(result.column("measured_max_cpu_c"))
        np.testing.assert_array_equal(dropped, (time_s >= 10.0) & (time_s < 40.0))
        assert np.count_nonzero(dropped) == 30

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reused_controller_starts_afresh(self, paper_lut, engine):
        """A controller reused for a second run is reset first: the
        second run equals a fresh controller's, which changes the fan
        twice (up for the 100% step, down for the 10% step)."""
        profile = StaircaseProfile([100.0, 10.0], step_duration_s=300.0)
        reused = LUTController(paper_lut)
        run_experiment(reused, profile, engine=engine)
        second = run_experiment(reused, profile, engine=engine)
        fresh = run_experiment(LUTController(paper_lut), profile, engine=engine)
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                second.column(name), fresh.column(name), err_msg=name
            )
        assert np.count_nonzero(np.diff(fresh.column("rpm_command"))) == 2
