"""Unit tests for the hardware specification dataclasses."""

import dataclasses

import pytest

from repro.server.specs import (
    CpuSocketSpec,
    FanSpec,
    MemorySpec,
    SensorNoiseSpec,
    ServerSpec,
    default_server_spec,
)


class TestFanSpec:
    def test_defaults_match_paper_range(self):
        fan = FanSpec()
        assert fan.rpm_min == 1800.0
        assert fan.rpm_max == 4200.0
        assert fan.power_exponent == 3.0

    def test_rpm_max_must_exceed_min(self):
        with pytest.raises(ValueError):
            FanSpec(rpm_min=4000.0, rpm_max=3000.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            FanSpec(power_at_ref_w=-1.0)

    def test_sub_linear_exponent_rejected(self):
        with pytest.raises(ValueError):
            FanSpec(power_exponent=0.5)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FanSpec().rpm_min = 1000.0


class TestCpuSocketSpec:
    def test_t3_thread_count(self):
        socket = CpuSocketSpec()
        assert socket.hardware_threads == 128

    def test_paper_leakage_constants(self):
        socket = CpuSocketSpec()
        assert socket.leak_k2_w == pytest.approx(0.3231)
        assert socket.leak_k3_per_c == pytest.approx(0.04749)

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            CpuSocketSpec(core_count=0)

    def test_negative_resistance_rejected(self):
        with pytest.raises(ValueError):
            CpuSocketSpec(r_heatsink_air_ref_k_w=-0.1)


class TestMemorySpec:
    def test_preheat_fraction_bounds(self):
        with pytest.raises(ValueError):
            MemorySpec(preheat_fraction=1.5)


class TestSensorNoiseSpec:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            SensorNoiseSpec(temperature_sigma_c=-0.1)


class TestServerSpec:
    def test_default_is_two_socket_256_threads(self):
        spec = default_server_spec()
        assert spec.socket_count == 2
        assert spec.hardware_threads == 256

    def test_six_fans_in_three_pairs(self):
        spec = default_server_spec()
        assert spec.fan_count == 6

    def test_default_fan_rpm_is_3300(self):
        assert default_server_spec().default_fan_rpm == 3300.0

    def test_reliability_ceiling_below_critical(self):
        spec = default_server_spec()
        assert spec.target_max_temperature_c == 75.0
        assert spec.critical_temperature_c == 90.0

    def test_requires_at_least_one_socket(self):
        with pytest.raises(ValueError):
            ServerSpec(sockets=())

    def test_target_must_be_below_critical(self):
        with pytest.raises(ValueError):
            ServerSpec(target_max_temperature_c=95.0, critical_temperature_c=90.0)

    def test_default_rpm_must_be_within_fan_range(self):
        with pytest.raises(ValueError):
            ServerSpec(default_fan_rpm=5000.0)
