"""Unit tests for the PI temperature-tracking extension."""

import dataclasses

import numpy as np
import pytest

from repro.core.controllers.base import ControllerObservation
from repro.core.controllers.pid import PIController
from repro.engine.checkpoint import (
    CheckpointConfig,
    list_checkpoints,
    read_manifest,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.fleet import (
    FaultSchedule,
    FleetEngine,
    SensorFaultEvent,
    build_uniform_fleet,
)
from repro.server.faults import DropoutFault
from repro.workloads.profile import ConstantProfile


def obs(time_s, t_max, rpm=1800.0):
    return ControllerObservation(
        time_s=time_s,
        max_cpu_temperature_c=t_max,
        avg_cpu_temperature_c=t_max - 1.0,
        utilization_pct=50.0,
        current_rpm_command=rpm,
    )


class TestPIController:
    def test_hot_raises_speed(self):
        controller = PIController(target_c=70.0)
        command = controller.decide(obs(0.0, 80.0, rpm=1800.0))
        assert command is not None and command > 1800.0

    def test_cold_stays_at_minimum(self):
        controller = PIController(target_c=70.0)
        assert controller.decide(obs(0.0, 40.0, rpm=1800.0)) is None

    def test_command_clamped_to_range(self):
        controller = PIController(target_c=70.0, kp_rpm_per_c=1000.0)
        command = controller.decide(obs(0.0, 85.0, rpm=1800.0))
        assert command == 4200.0

    def test_deadband_suppresses_small_moves(self):
        controller = PIController(target_c=70.0, kp_rpm_per_c=10.0, ki_rpm_per_c_s=0.0)
        # Error of 1 degC -> 10 RPM demand, inside the 60 RPM deadband.
        assert controller.decide(obs(0.0, 71.0, rpm=1810.0)) is None

    def test_integral_accumulates(self):
        controller = PIController(
            target_c=70.0, kp_rpm_per_c=0.0, ki_rpm_per_c_s=5.0, deadband_rpm=0.0
        )
        first = controller.decide(obs(10.0, 75.0, rpm=1800.0))
        second = controller.decide(obs(20.0, 75.0, rpm=first))
        assert second is not None and second > first

    def test_anti_windup_bounds_integral(self):
        controller = PIController(
            target_c=70.0, kp_rpm_per_c=0.0, ki_rpm_per_c_s=100.0, deadband_rpm=0.0
        )
        for k in range(100):
            controller.decide(obs(10.0 * k, 85.0, rpm=4200.0))
        # After sustained saturation, one cool observation must be able
        # to bring the command back down within a bounded time.
        commands = []
        for k in range(100, 160):
            command = controller.decide(obs(10.0 * k, 40.0, rpm=4200.0))
            if command is not None:
                commands.append(command)
        assert commands and min(commands) == 1800.0

    def test_reset_clears_state(self):
        controller = PIController(
            target_c=70.0, kp_rpm_per_c=0.0, ki_rpm_per_c_s=5.0, deadband_rpm=0.0
        )
        a = controller.decide(obs(10.0, 75.0, rpm=1800.0))
        controller.reset()
        b = controller.decide(obs(10.0, 75.0, rpm=1800.0))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            PIController(min_rpm=4200.0, max_rpm=1800.0)
        with pytest.raises(ValueError):
            PIController(kp_rpm_per_c=-1.0)
        with pytest.raises(ValueError):
            PIController(poll_interval_s=0.0)
        with pytest.raises(ValueError):
            PIController(deadband_rpm=-1.0)

    def test_name(self):
        assert PIController().name == "PI"


def run_through_gap(**kw):
    """Full load for 1500 s; sensor 0 drops out from 600 to 1200 s."""
    return run_experiment(
        PIController(),
        ConstantProfile(100.0, 1500.0),
        config=ExperimentConfig(seed=1, loadgen_mode="direct"),
        faults=[(0, DropoutFault(start_s=600.0, end_s=1200.0))],
        **kw,
    )


class TestTelemetryGap:
    """Polls held on a NaN reading are not integrated."""

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_resumes_from_the_held_command(self, engine):
        """The gap held the fan at 2435 RPM while the die warmed past
        the target.  Integrating those 600 s as observed time would jump
        the first command after it to 3997.5 RPM; the PI resumes from
        the held command instead and stays near the fault-free peak."""
        result = run_through_gap(engine=engine)
        time_s = result.column("time_s")
        commands = result.column("rpm_command")
        # The row ending at 1201 s runs the command of the 1200 s poll.
        assert commands[time_s == 1200.0][0] == 2435.0
        assert commands[time_s == 1201.0][0] == 2435.0
        assert commands[time_s > 1200.0].max() <= 3000.0

    def test_resume_from_a_cut_inside_the_gap(self, tmp_path):
        """Two servers at full load; server 0's die sensors drop out
        from 600 to 1200 s.  A fleet cut at 1000 s, inside the gap,
        resumes bit-identically to the run that never stopped."""

        def run(checkpoint=None, resume_from=None):
            return FleetEngine(
                build_uniform_fleet(rack_count=1, servers_per_rack=2),
                ConstantProfile(100.0, 1500.0),
                controller_factory=lambda i: PIController(),
                faults=FaultSchedule(
                    events=(
                        SensorFaultEvent(
                            server=0, mode="dropout",
                            start_s=600.0, end_s=1200.0,
                        ),
                    )
                ),
                seed=0,
                checkpoint=checkpoint,
            ).run(dt_s=5.0, resume_from=resume_from)

        golden = run()
        config = CheckpointConfig(directory=tmp_path, every_s=1000.0)
        run(checkpoint=config)
        (cut,) = list_checkpoints(config.root)
        assert read_manifest(cut)["tick"] == 200
        resumed = run(resume_from=cut)
        for field in dataclasses.fields(golden):
            expected = getattr(golden, field.name)
            if isinstance(expected, np.ndarray):
                assert np.array_equal(
                    getattr(resumed, field.name), expected
                ), field.name
        assert resumed.metrics == golden.metrics
