"""Failure-injection integration tests.

What happens to each controller when a thermal sensor lies, and does
the telemetry watchdog catch the lie in time?  These tests close the
loop between :mod:`repro.server.faults`, the controllers, and
:mod:`repro.telemetry.anomaly`.
"""

import numpy as np

from repro.core.controllers.bangbang import BangBangController
from repro.core.controllers.lut import LUTController
from repro.core.lut import LookupTable
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.server.faults import DriftFault, StuckFault
from repro.server.server import ServerSimulator
from repro.telemetry.anomaly import TelemetryWatchdog
from repro.workloads.profile import ConstantProfile


def run_with_fault(controller, faults=(), duration_s=2400.0, util=100.0):
    """The shipped closed loop with faulted CPU temp sensors."""
    return run_experiment(
        controller,
        ConstantProfile(util, duration_s),
        config=ExperimentConfig(seed=2, loadgen_mode="direct"),
        faults=faults,
    )


class TestBangBangUnderSensorFaults:
    def test_healthy_baseline_stays_in_band(self):
        result = run_with_fault(BangBangController())
        assert result.column("max_junction_c").max() <= 80.0

    def test_stuck_low_sensor_on_one_channel_is_survivable(self):
        """One sensor stuck at 30 degC: T_max over the remaining three
        channels still drives the controller, so the machine stays
        within the emergency envelope."""
        result = run_with_fault(
            BangBangController(), faults=[(0, StuckFault(30.0))]
        )
        assert result.column("max_junction_c").max() <= 80.0

    def test_all_sensors_stuck_low_overheats_the_machine(self):
        """If every die sensor freezes at a cold value the bang-bang
        controller drops the fans to minimum under full load — the
        blind-controller scenario motivating telemetry prognostics."""
        result = run_with_fault(
            BangBangController(),
            faults=[(index, StuckFault(30.0)) for index in range(4)],
        )
        # Controller saw 30 degC forever -> commanded 1800 RPM -> ~85 degC.
        assert result.column("max_junction_c").max() > 80.0

    def test_stuck_high_sensor_wastes_fan_power(self):
        """A sensor stuck at 85 degC drives the fans to maximum."""
        result = run_with_fault(
            BangBangController(), faults=[(0, StuckFault(85.0))], util=10.0
        )
        assert result.column("mean_rpm")[-1] >= 4100.0


class TestLutControllerUnderSensorFaults:
    def test_lut_immune_to_temperature_sensor_faults(self):
        """The LUT controller never reads temperature (paper §V), so a
        lying thermal sensor cannot change its commands."""
        lut = LookupTable(levels_pct=(0.0, 100.0), rpms=(1800.0, 2400.0))
        faulty = run_with_fault(
            LUTController(lut), faults=[(0, StuckFault(30.0))]
        )
        healthy = run_with_fault(LUTController(lut))
        np.testing.assert_allclose(
            faulty.column("max_junction_c"),
            healthy.column("max_junction_c"),
            atol=1e-9,
        )


class TestWatchdogInTheLoop:
    def _collect_telemetry(self, sim, monitor_util, n, fault=None, onset_sample=0):
        rows = []
        for k in range(n):
            if fault is not None and k == onset_sample:
                sim.inject_cpu_temp_fault(0, fault)
            sim.step(10.0, monitor_util)
            measured = sim.measured_cpu_temperatures_c()
            rows.append(list(measured) + [sim.measured_system_power_w()])
        return np.array(rows)

    def test_watchdog_catches_drifting_die_sensor(self):
        """Train on healthy telemetry at mixed load, then catch a
        0.02 degC/s drift on one die sensor within the run."""
        sim = ServerSimulator(seed=5, initial_fan_rpm=3000.0)
        # Healthy training across the utilization envelope.
        training = []
        for util in (0.0, 25.0, 50.0, 75.0, 100.0):
            sim.settle_to_steady_state(util)
            training.append(self._collect_telemetry(sim, util, 40))
        training = np.vstack(training)
        names = ("cpu0.t0", "cpu0.t1", "cpu1.t0", "cpu1.t1", "power")
        watchdog = TelemetryWatchdog(names, memory_size=80).fit(training)

        # Healthy stream: quiet.
        sim.settle_to_steady_state(50.0)
        healthy = self._collect_telemetry(sim, 50.0, 60)
        for row in healthy:
            watchdog.observe(row)
        assert watchdog.alarmed_channels == []

        # Drift onset: the faulty channel is named first.
        faulty = self._collect_telemetry(
            sim, 50.0, 240, fault=DriftFault(rate_per_s=0.02, start_s=sim.time_s)
        )
        first_alarm = None
        for row in faulty:
            alarmed = watchdog.observe(row)
            if alarmed and first_alarm is None:
                first_alarm = list(alarmed)
        assert first_alarm == ["cpu0.t0"]
