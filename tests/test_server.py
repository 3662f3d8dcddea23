"""Unit tests for the composed server simulator."""

import numpy as np
import pytest

from repro.server.ambient import ConstantAmbient
from repro.server.server import CriticalTemperatureError, ServerSimulator
from repro.server.specs import CpuSocketSpec, ServerSpec


@pytest.fixture
def sim():
    return ServerSimulator(seed=3, initial_fan_rpm=3000.0)


class TestStepping:
    def test_time_advances(self, sim):
        sim.step(1.0, 50.0)
        sim.step(1.0, 50.0)
        assert sim.time_s == 2.0

    def test_state_snapshot_consistency(self, sim):
        state = sim.step(1.0, 50.0)
        assert state.time_s == sim.time_s
        assert state.utilization_pct == 50.0
        assert len(state.fan_rpms) == 6

    def test_energy_accumulates(self, sim):
        sim.step(10.0, 50.0)
        e1 = sim.energy_joules
        sim.step(10.0, 50.0)
        assert sim.energy_joules > e1 > 0

    def test_fan_energy_below_total(self, sim):
        sim.step(10.0, 50.0)
        assert 0 < sim.fan_energy_joules < sim.energy_joules

    def test_negative_dt_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.step(-1.0, 50.0)

    def test_invalid_utilization_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.step(1.0, 150.0)


class TestActuation:
    def test_set_fan_rpm_slews(self, sim):
        sim.set_fan_rpm(4200.0)
        state = sim.step(1.0, 0.0)
        assert state.mean_fan_rpm < 4200.0
        for _ in range(5):
            state = sim.step(1.0, 0.0)
        assert state.mean_fan_rpm == pytest.approx(4200.0)


class TestSteadyStateJump:
    def test_settle_matches_long_transient(self):
        jumped = ServerSimulator(seed=0, initial_fan_rpm=2400.0)
        jumped.settle_to_steady_state(75.0)

        integrated = ServerSimulator(seed=0, initial_fan_rpm=2400.0)
        for _ in range(5400):
            integrated.step(1.0, 75.0)

        assert integrated.state.max_junction_c == pytest.approx(
            jumped.state.max_junction_c, abs=0.3
        )

    def test_settle_updates_power(self, sim):
        state = sim.settle_to_steady_state(100.0)
        assert state.power.cpu_active_w > 300.0


class TestCriticalTrip:
    def test_trips_when_cooked(self):
        # One socket with absurdly high power and minimum airflow must
        # cross the 90 degC critical threshold and raise.
        hot_socket = CpuSocketSpec(k_active_w_per_pct=6.0)
        spec = ServerSpec(sockets=(hot_socket, hot_socket))
        sim = ServerSimulator(spec=spec, seed=0, initial_fan_rpm=1800.0)
        with pytest.raises(CriticalTemperatureError):
            for _ in range(3600):
                sim.step(1.0, 100.0)

    def test_trip_can_be_disabled(self):
        hot_socket = CpuSocketSpec(k_active_w_per_pct=6.0)
        spec = ServerSpec(sockets=(hot_socket, hot_socket))
        sim = ServerSimulator(
            spec=spec, seed=0, initial_fan_rpm=1800.0, trip_on_critical=False
        )
        for _ in range(3600):
            sim.step(1.0, 100.0)
        assert sim.state.max_junction_c > spec.critical_temperature_c

    def test_normal_operation_never_trips(self, sim):
        for _ in range(1800):
            sim.step(1.0, 100.0)
        assert sim.state.max_junction_c < 90.0


class TestMeasuredChannels:
    def test_cpu_channel_count(self, sim):
        assert len(sim.measured_cpu_temperatures_c()) == 4

    def test_measured_power_tracks_truth(self, sim):
        sim.settle_to_steady_state(50.0)
        readings = [sim.measured_system_power_w() for _ in range(200)]
        assert np.mean(readings) == pytest.approx(
            sim.state.power.compute_w, abs=1.0
        )

    def test_measured_temps_track_truth(self, sim):
        sim.settle_to_steady_state(50.0)
        truth = sim.state.thermal.mean_junction_c
        readings = [
            np.mean(sim.measured_cpu_temperatures_c()) for _ in range(200)
        ]
        assert np.mean(readings) == pytest.approx(truth, abs=0.5)

    def test_measurements_are_noisy(self, sim):
        sim.settle_to_steady_state(50.0)
        readings = [sim.measured_system_power_w() for _ in range(50)]
        assert np.std(readings) > 0.5

    def test_seeded_reproducibility(self):
        a = ServerSimulator(seed=11, initial_fan_rpm=3000.0)
        b = ServerSimulator(seed=11, initial_fan_rpm=3000.0)
        a.step(1.0, 40.0)
        b.step(1.0, 40.0)
        assert a.measured_cpu_temperatures_c() == b.measured_cpu_temperatures_c()


class TestAmbientCoupling:
    def test_warmer_room_warmer_cpu(self):
        cool = ServerSimulator(
            ambient=ConstantAmbient(18.0), seed=0, initial_fan_rpm=3000.0
        )
        warm = ServerSimulator(
            ambient=ConstantAmbient(30.0), seed=0, initial_fan_rpm=3000.0
        )
        cool.settle_to_steady_state(100.0)
        warm.settle_to_steady_state(100.0)
        delta = warm.state.max_junction_c - cool.state.max_junction_c
        assert delta == pytest.approx(12.0, abs=3.0)
