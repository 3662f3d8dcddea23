"""Unit tests for the ground-truth power model."""

import math

import pytest

from repro.server.power import PowerBreakdown, PowerModel
from repro.server.specs import default_server_spec


@pytest.fixture(scope="module")
def model():
    return PowerModel(default_server_spec())


class TestSocketActive:
    def test_idle_floor(self, model):
        socket = model.spec.sockets[0]
        assert model.socket_active_w(socket, 0.0) == socket.p_idle_w

    def test_linear_in_utilization(self, model):
        socket = model.spec.sockets[0]
        p25 = model.socket_active_w(socket, 25.0)
        p75 = model.socket_active_w(socket, 75.0)
        p50 = model.socket_active_w(socket, 50.0)
        assert p50 == pytest.approx((p25 + p75) / 2.0)

    def test_rejects_out_of_range_utilization(self, model):
        socket = model.spec.sockets[0]
        with pytest.raises(ValueError):
            model.socket_active_w(socket, 101.0)


class TestSocketLeakage:
    def test_exponential_form(self, model):
        socket = model.spec.sockets[0]
        base = model.socket_leakage_w(socket, 50.0) - socket.leak_const_w
        hotter = model.socket_leakage_w(socket, 60.0) - socket.leak_const_w
        assert hotter / base == pytest.approx(
            math.exp(socket.leak_k3_per_c * 10.0)
        )

    def test_monotone_in_temperature(self, model):
        socket = model.spec.sockets[0]
        temps = [40.0, 55.0, 70.0, 85.0]
        leaks = [model.socket_leakage_w(socket, t) for t in temps]
        assert leaks == sorted(leaks)

    def test_magnitude_at_85c(self, model):
        # Per socket at 85 degC: 10 + 0.3231 * exp(0.04749 * 85) ~ 28 W.
        socket = model.spec.sockets[0]
        assert model.socket_leakage_w(socket, 85.0) == pytest.approx(28.3, abs=0.5)


class TestBreakdown:
    def test_total_is_sum_of_parts(self, model):
        b = model.breakdown(50.0, [60.0, 62.0], fan_power_w=20.0)
        assert b.total_w == pytest.approx(
            b.board_w + b.memory_w + b.cpu_active_w + b.cpu_leakage_w + b.fan_w
        )

    def test_compute_excludes_fans(self, model):
        b = model.breakdown(50.0, [60.0, 62.0], fan_power_w=20.0)
        assert b.compute_w == pytest.approx(b.total_w - 20.0)

    def test_wrong_socket_count_rejected(self, model):
        with pytest.raises(ValueError):
            model.breakdown(50.0, [60.0], fan_power_w=20.0)

    def test_peak_power_calibration(self, model):
        """At 100% load / default-fan temps the server peaks near 715 W."""
        b = model.breakdown(100.0, [64.0, 64.0], fan_power_w=26.6)
        assert b.total_w == pytest.approx(716.0, abs=5.0)

    def test_idle_power_calibration(self, model):
        """Idle with fans at 3600 RPM sits near 315 W."""
        b = model.breakdown(0.0, [35.0, 35.0], fan_power_w=34.6)
        assert b.total_w == pytest.approx(315.0, abs=5.0)


class TestStaticIdle:
    def test_static_idle_composition(self, model):
        spec = model.spec
        expected = (
            spec.board_power_w
            + spec.memory.p_idle_w
            + sum(s.p_idle_w for s in spec.sockets)
        )
        assert model.static_idle_w() == pytest.approx(expected)

    def test_static_idle_excludes_fan_and_leakage(self, model):
        b = model.breakdown(0.0, [35.0, 35.0], fan_power_w=10.0)
        assert model.static_idle_w() < b.total_w


class TestPowerBreakdownDataclass:
    def test_fields_roundtrip(self):
        b = PowerBreakdown(
            board_w=1.0, memory_w=2.0, cpu_active_w=3.0, cpu_leakage_w=4.0, fan_w=5.0
        )
        assert b.total_w == 15.0
        assert b.compute_w == 10.0
