"""Unit tests for sensor fault injection."""

import math

import pytest

from repro.server.faults import (
    DriftFault,
    DropoutFault,
    FaultableSensor,
    OffsetFault,
    SpikeFault,
    StuckFault,
)
from repro.server.server import ServerSimulator


class TestFaultScheduling:
    def test_inactive_before_start(self):
        fault = StuckFault(50.0, start_s=100.0)
        assert not fault.active(99.0)
        assert fault.active(100.0)

    def test_inactive_after_end(self):
        fault = StuckFault(50.0, start_s=0.0, end_s=10.0)
        assert fault.active(5.0)
        assert not fault.active(10.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            StuckFault(50.0, start_s=10.0, end_s=10.0)
        with pytest.raises(ValueError):
            StuckFault(50.0, start_s=-1.0)


class TestFaultModes:
    def test_stuck(self):
        assert StuckFault(42.0).apply(0.0, 70.0) == 42.0

    def test_offset(self):
        assert OffsetFault(-5.0).apply(0.0, 70.0) == 65.0

    def test_drift_grows_from_onset(self):
        fault = DriftFault(rate_per_s=0.01, start_s=100.0)
        assert fault.apply(100.0, 70.0) == pytest.approx(70.0)
        assert fault.apply(200.0, 70.0) == pytest.approx(71.0)

    def test_dropout_is_nan(self):
        assert math.isnan(DropoutFault().apply(0.0, 70.0))

    def test_spike_distribution(self):
        fault = SpikeFault(magnitude=20.0, probability=0.5, seed=1)
        readings = [fault.apply(0.0, 70.0) for _ in range(400)]
        spiked = [r for r in readings if abs(r - 70.0) > 1.0]
        assert 100 < len(spiked) < 300
        assert all(abs(abs(r - 70.0) - 20.0) < 1e-9 for r in spiked)

    def test_spike_invalid_probability(self):
        with pytest.raises(ValueError):
            SpikeFault(magnitude=20.0, probability=1.5)


class TestFaultableSensor:
    def test_healthy_passthrough(self):
        assert FaultableSensor().transform(0.0, 70.0) == 70.0

    def test_faults_compose_in_order(self):
        sensor = FaultableSensor()
        sensor.inject(OffsetFault(5.0))
        sensor.inject(OffsetFault(-2.0))
        assert sensor.transform(0.0, 70.0) == 73.0

    def test_stuck_dominates_prior_offset(self):
        sensor = FaultableSensor()
        sensor.inject(OffsetFault(5.0))
        sensor.inject(StuckFault(40.0))
        assert sensor.transform(0.0, 70.0) == 40.0

    def test_clear_repairs(self):
        sensor = FaultableSensor()
        sensor.inject(StuckFault(40.0))
        sensor.clear()
        assert sensor.transform(0.0, 70.0) == 70.0
        assert sensor.fault_count == 0

    def test_inactive_fault_ignored(self):
        sensor = FaultableSensor()
        sensor.inject(StuckFault(40.0, start_s=100.0))
        assert sensor.transform(0.0, 70.0) == 70.0


class TestSimulatorIntegration:
    def test_stuck_cpu_sensor(self):
        sim = ServerSimulator(seed=0, initial_fan_rpm=3000.0)
        sim.settle_to_steady_state(100.0)
        sim.inject_cpu_temp_fault(0, StuckFault(30.0))
        readings = sim.measured_cpu_temperatures_c()
        assert readings[0] == 30.0
        # The other channels still track the hot junction.
        assert all(r > 50.0 for r in readings[1:])

    def test_out_of_range_sensor_index(self):
        sim = ServerSimulator(seed=0)
        with pytest.raises(IndexError):
            sim.inject_cpu_temp_fault(4, StuckFault(30.0))
