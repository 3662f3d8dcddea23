"""Unit tests for the RC thermal network."""

import pytest

from repro.server.power import PowerModel
from repro.server.specs import default_server_spec
from repro.server.thermal import (
    ThermalNetwork,
    ThermalState,
    convective_resistance_k_w,
)


@pytest.fixture
def spec():
    return default_server_spec()


@pytest.fixture
def power_model(spec):
    return PowerModel(spec)


@pytest.fixture
def network(spec):
    return ThermalNetwork(spec, initial_temperature_c=24.0)


def _airflow(spec, rpm):
    fan = spec.fan
    return spec.fan_count * fan.cfm_at_ref * rpm / fan.rpm_ref


class TestConvectiveResistance:
    def test_reference_point(self):
        assert convective_resistance_k_w(0.2, 1800.0, 1800.0, 0.8) == 0.2

    def test_decreases_with_rpm(self):
        r_slow = convective_resistance_k_w(0.2, 1800.0, 1800.0, 0.8)
        r_fast = convective_resistance_k_w(0.2, 4200.0, 1800.0, 0.8)
        assert r_fast < r_slow

    def test_scaling_exponent(self):
        r1 = convective_resistance_k_w(0.2, 2000.0, 1800.0, 0.8)
        r2 = convective_resistance_k_w(0.2, 4000.0, 1800.0, 0.8)
        assert r1 / r2 == pytest.approx(2.0**0.8)

    def test_zero_rpm_rejected(self):
        with pytest.raises(ValueError):
            convective_resistance_k_w(0.2, 0.0, 1800.0, 0.8)


class TestPreheat:
    def test_cpu_inlet_above_ambient(self, network, spec):
        inlet = network.cpu_inlet_temperature_c(24.0, 80.0, _airflow(spec, 4200))
        assert inlet > 24.0

    def test_preheat_grows_when_airflow_drops(self, network, spec):
        hot = network.cpu_inlet_temperature_c(24.0, 80.0, _airflow(spec, 1800))
        cool = network.cpu_inlet_temperature_c(24.0, 80.0, _airflow(spec, 4200))
        assert hot > cool

    def test_preheat_magnitude_is_moderate(self, network, spec):
        # A few degC at worst, not tens.
        inlet = network.cpu_inlet_temperature_c(24.0, 80.0, _airflow(spec, 1800))
        assert 24.0 < inlet < 30.0

    def test_zero_airflow_rejected(self, network):
        with pytest.raises(ValueError):
            network.cpu_inlet_temperature_c(24.0, 80.0, 0.0)


class TestTransient:
    def test_heats_up_under_load(self, network, spec, power_model):
        t0 = network.state.max_junction_c
        network.step(60.0, 100.0, 3000.0, _airflow(spec, 3000), 24.0, power_model)
        assert network.state.max_junction_c > t0

    def test_zero_dt_is_noop(self, network, spec, power_model):
        before = network.state.copy()
        network.step(0.0, 100.0, 3000.0, _airflow(spec, 3000), 24.0, power_model)
        assert network.state.junction_c == before.junction_c

    def test_fast_junction_slow_heatsink(self, network, spec, power_model):
        """A load step moves the junction several degC within 30 s while
        the heatsink barely moves (the Fig. 1(b) fast/slow split)."""
        # Pre-settle at idle.
        steady = network.steady_state(0.0, 3000.0, _airflow(spec, 3000), 24.0, power_model)
        network.settle_to(steady)
        j0 = network.state.junction_c[0]
        h0 = network.state.heatsink_c[0]
        for _ in range(30):
            network.step(1.0, 100.0, 3000.0, _airflow(spec, 3000), 24.0, power_model)
        assert network.state.junction_c[0] - j0 > 4.0
        assert network.state.heatsink_c[0] - h0 < 3.0

    def test_converges_to_steady_state(self, network, spec, power_model):
        steady = network.steady_state(
            75.0, 2400.0, _airflow(spec, 2400), 24.0, power_model
        )
        # The DIMM bank is the slowest node (tau ~ 20 min at 2400 RPM),
        # so integrate two hours to let every node converge.
        for _ in range(7200):
            network.step(1.0, 75.0, 2400.0, _airflow(spec, 2400), 24.0, power_model)
        assert network.state.junction_c[0] == pytest.approx(
            steady.junction_c[0], abs=0.3
        )
        assert network.state.dimm_bank_c == pytest.approx(
            steady.dimm_bank_c, abs=0.3
        )

    def test_cools_down_after_load_removed(self, network, spec, power_model):
        for _ in range(600):
            network.step(1.0, 100.0, 1800.0, _airflow(spec, 1800), 24.0, power_model)
        hot = network.state.max_junction_c
        for _ in range(600):
            network.step(1.0, 0.0, 1800.0, _airflow(spec, 1800), 24.0, power_model)
        assert network.state.max_junction_c < hot


class TestSteadyState:
    def test_monotone_in_utilization(self, network, spec, power_model):
        temps = [
            network.steady_state(u, 3000.0, _airflow(spec, 3000), 24.0, power_model)
            .junction_c[0]
            for u in (0.0, 25.0, 50.0, 75.0, 100.0)
        ]
        assert temps == sorted(temps)

    def test_monotone_in_fan_speed(self, network, spec, power_model):
        temps = [
            network.steady_state(100.0, rpm, _airflow(spec, rpm), 24.0, power_model)
            .junction_c[0]
            for rpm in (1800.0, 2400.0, 3000.0, 3600.0, 4200.0)
        ]
        assert temps == sorted(temps, reverse=True)

    def test_paper_calibration_band(self, network, spec, power_model):
        """Fig. 1(a): 100% load spans roughly 55-85 degC across speeds."""
        hot = network.steady_state(
            100.0, 1800.0, _airflow(spec, 1800), 24.0, power_model
        ).junction_c[0]
        cool = network.steady_state(
            100.0, 4200.0, _airflow(spec, 4200), 24.0, power_model
        ).junction_c[0]
        assert hot == pytest.approx(85.0, abs=3.0)
        assert cool == pytest.approx(57.0, abs=3.0)

    def test_heatsink_below_junction_under_load(self, network, spec, power_model):
        steady = network.steady_state(
            100.0, 2400.0, _airflow(spec, 2400), 24.0, power_model
        )
        for t_j, t_h in zip(steady.junction_c, steady.heatsink_c):
            assert t_h < t_j

    def test_all_temps_above_inlet(self, network, spec, power_model):
        steady = network.steady_state(
            10.0, 4200.0, _airflow(spec, 4200), 24.0, power_model
        )
        assert all(t > 24.0 for t in steady.junction_c)
        assert steady.dimm_bank_c > 24.0


class TestStateHelpers:
    def test_copy_is_independent(self):
        state = ThermalState(junction_c=[50.0], heatsink_c=[45.0], dimm_bank_c=40.0)
        clone = state.copy()
        clone.junction_c[0] = 99.0
        assert state.junction_c[0] == 50.0

    def test_max_and_mean(self):
        state = ThermalState(
            junction_c=[50.0, 60.0], heatsink_c=[45.0, 55.0], dimm_bank_c=40.0
        )
        assert state.max_junction_c == 60.0
        assert state.mean_junction_c == 55.0

    def test_settle_to_rejects_wrong_shape(self, network):
        bad = ThermalState(junction_c=[50.0], heatsink_c=[45.0], dimm_bank_c=40.0)
        with pytest.raises(ValueError):
            network.settle_to(bad)


class TestDerivedSensors:
    def test_two_sensors_per_die(self, network, spec):
        readings = network.die_sensor_temperatures_c(sensors_per_die=2)
        assert len(readings) == 2 * spec.socket_count

    def test_sensor_offsets_straddle_junction(self, network):
        network.state.junction_c[0] = 60.0
        readings = network.die_sensor_temperatures_c(sensors_per_die=2)
        assert readings[0] == pytest.approx(59.5)
        assert readings[1] == pytest.approx(60.5)
