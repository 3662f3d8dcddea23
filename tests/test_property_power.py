"""Property-based tests on the power models (hypothesis)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.models.leakage import ActivePowerModel, FanPowerModel, LeakageModel
from repro.server.power import PowerModel
from repro.server.specs import default_server_spec

utilizations = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
temperatures = st.floats(min_value=20.0, max_value=95.0, allow_nan=False)
rpms = st.floats(min_value=1800.0, max_value=4200.0, allow_nan=False)


@pytest.fixture(scope="module")
def model():
    return PowerModel(default_server_spec())


model_global = PowerModel(default_server_spec())
socket_global = model_global.spec.sockets[0]


class TestGroundTruthPowerProperties:
    @given(u=utilizations)
    def test_active_power_bounded(self, u):
        value = model_global.socket_active_w(socket_global, u)
        idle = socket_global.p_idle_w
        full = idle + socket_global.k_active_w_per_pct * 100.0
        assert idle <= value <= full

    @given(u1=utilizations, u2=utilizations)
    def test_active_power_monotone(self, u1, u2):
        if u1 > u2:
            u1, u2 = u2, u1
        assert model_global.socket_active_w(
            socket_global, u1
        ) <= model_global.socket_active_w(socket_global, u2)

    @given(t1=temperatures, t2=temperatures)
    def test_leakage_monotone_in_temperature(self, t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        assert model_global.socket_leakage_w(
            socket_global, t1
        ) <= model_global.socket_leakage_w(socket_global, t2)

    @given(t=temperatures)
    def test_leakage_has_positive_floor(self, t):
        assert model_global.socket_leakage_w(socket_global, t) > (
            socket_global.leak_const_w
        )

    @given(u=utilizations, t1=temperatures, t2=temperatures, fan=st.floats(0.0, 60.0))
    def test_breakdown_total_consistency(self, u, t1, t2, fan):
        b = model_global.breakdown(u, [t1, t2], fan_power_w=fan)
        assert b.total_w == pytest.approx(
            b.board_w + b.memory_w + b.cpu_active_w + b.cpu_leakage_w + b.fan_w
        )
        assert b.total_w > 0


class TestAnalyticalModelProperties:
    @given(
        t=temperatures,
        c=st.floats(0.0, 100.0),
        k2=st.floats(0.01, 5.0),
        k3=st.floats(0.001, 0.1),
    )
    def test_leakage_decomposition(self, t, c, k2, k3):
        model = LeakageModel(c_w=c, k2_w=k2, k3_per_c=k3)
        assert model.power_w(t) == pytest.approx(
            c + model.variable_power_w(t), rel=1e-9
        )

    @given(t=temperatures, k2=st.floats(0.01, 5.0), k3=st.floats(0.001, 0.1))
    def test_leakage_slope_positive(self, t, k2, k3):
        model = LeakageModel(c_w=0.0, k2_w=k2, k3_per_c=k3)
        assert model.slope_w_per_c(t) > 0

    @given(u=utilizations, k1=st.floats(0.0, 10.0))
    def test_active_proportionality(self, u, k1):
        model = ActivePowerModel(k1_w_per_pct=k1)
        assert model.power_w(u) == pytest.approx(k1 * u)

    @given(r=rpms, coeff=st.floats(1.0, 200.0), exp=st.floats(1.0, 4.0))
    @settings(max_examples=50)
    def test_fan_power_positive_and_bounded_by_ref(self, r, coeff, exp):
        model = FanPowerModel(coeff_w=coeff, exponent=exp, rpm_ref=4200.0)
        value = model.power_w(r)
        assert 0 < value <= coeff + 1e-9

    @given(r1=rpms, r2=rpms, coeff=st.floats(1.0, 200.0), exp=st.floats(1.0, 4.0))
    @settings(max_examples=50)
    def test_fan_power_monotone(self, r1, r2, coeff, exp):
        model = FanPowerModel(coeff_w=coeff, exponent=exp, rpm_ref=4200.0)
        if r1 > r2:
            r1, r2 = r2, r1
        assert model.power_w(r1) <= model.power_w(r2) + 1e-9
