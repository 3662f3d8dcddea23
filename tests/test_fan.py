"""Unit tests for fan models: cubic power law, airflow, slew, banks."""

import pytest

from repro.server.fan import FanBank, FanModel, fan_speed_ladder
from repro.server.specs import FanSpec


@pytest.fixture
def fan_spec():
    return FanSpec()


class TestFanSpeedLadder:
    def test_paper_ladder(self, fan_spec):
        assert fan_speed_ladder(fan_spec) == (1800, 2400, 3000, 3600, 4200)

    def test_finer_ladder(self, fan_spec):
        ladder = fan_speed_ladder(fan_spec, step_rpm=300.0)
        assert len(ladder) == 9
        assert ladder[0] == 1800 and ladder[-1] == 4200

    def test_zero_step_rejected(self, fan_spec):
        with pytest.raises(ValueError):
            fan_speed_ladder(fan_spec, step_rpm=0.0)


class TestFanModelPower:
    def test_cubic_law(self, fan_spec):
        fan = FanModel(fan_spec, initial_rpm=4200.0)
        # Halving speed divides power by eight.
        assert fan.power_w(2100.0) == pytest.approx(fan.power_w(4200.0) / 8.0)

    def test_reference_power(self, fan_spec):
        fan = FanModel(fan_spec)
        assert fan.power_w(fan_spec.rpm_ref) == pytest.approx(
            fan_spec.power_at_ref_w
        )

    def test_power_monotone_in_rpm(self, fan_spec):
        fan = FanModel(fan_spec)
        powers = [fan.power_w(r) for r in (1800, 2400, 3000, 3600, 4200)]
        assert powers == sorted(powers)
        assert powers[0] > 0

    def test_airflow_linear(self, fan_spec):
        fan = FanModel(fan_spec)
        assert fan.airflow_cfm(2100.0) == pytest.approx(
            fan.airflow_cfm(4200.0) / 2.0
        )


class TestFanModelSlew:
    def test_command_outside_range_rejected(self, fan_spec):
        fan = FanModel(fan_spec)
        with pytest.raises(ValueError):
            fan.set_command(5000.0)
        with pytest.raises(ValueError):
            fan.set_command(1000.0)

    def test_slew_limits_rate(self, fan_spec):
        fan = FanModel(fan_spec, initial_rpm=1800.0)
        fan.set_command(4200.0)
        fan.step(1.0)
        assert fan.rpm == pytest.approx(1800.0 + fan_spec.slew_rpm_per_s)

    def test_reaches_command_eventually(self, fan_spec):
        fan = FanModel(fan_spec, initial_rpm=1800.0)
        fan.set_command(4200.0)
        for _ in range(10):
            fan.step(1.0)
        assert fan.rpm == pytest.approx(4200.0)

    def test_slew_down_symmetric(self, fan_spec):
        fan = FanModel(fan_spec, initial_rpm=4200.0)
        fan.set_command(1800.0)
        fan.step(1.0)
        assert fan.rpm == pytest.approx(4200.0 - fan_spec.slew_rpm_per_s)

    def test_no_overshoot(self, fan_spec):
        fan = FanModel(fan_spec, initial_rpm=1800.0)
        fan.set_command(2000.0)
        fan.step(10.0)
        assert fan.rpm == pytest.approx(2000.0)


class TestFanBank:
    def test_default_bank_shape(self, fan_spec):
        bank = FanBank(fan_spec)
        assert bank.fan_count == 6

    def test_total_power_is_sum(self, fan_spec):
        bank = FanBank(fan_spec, initial_rpm=4200.0)
        assert bank.total_power_w() == pytest.approx(6 * fan_spec.power_at_ref_w)

    def test_set_all_commands(self, fan_spec):
        bank = FanBank(fan_spec, initial_rpm=1800.0)
        bank.set_all_commands(3000.0)
        bank.step(100.0)
        assert all(r == 3000.0 for r in bank.rpms)
