"""Unit tests for the DVFS model and its simulator integration."""

import dataclasses

import pytest

from repro.server.dvfs import DvfsSpec, PState, default_dvfs_ladder
from repro.server.power import PowerModel
from repro.server.server import ServerSimulator
from repro.server.specs import default_server_spec


@pytest.fixture
def ladder():
    return default_dvfs_ladder()


@pytest.fixture
def dvfs_spec(ladder):
    return dataclasses.replace(default_server_spec(), dvfs=ladder)


class TestPState:
    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            PState(frequency_ghz=0.0, voltage_v=1.0)

    def test_invalid_voltage_rejected(self):
        with pytest.raises(ValueError):
            PState(frequency_ghz=1.0, voltage_v=0.0)


class TestDvfsSpec:
    def test_default_is_nominal_only(self):
        assert len(DvfsSpec()) == 1

    def test_ladder_ordering_enforced(self):
        with pytest.raises(ValueError):
            DvfsSpec(
                pstates=(
                    PState(1.0, 0.8),
                    PState(1.65, 1.0),
                )
            )

    def test_voltage_must_not_increase_down_ladder(self):
        with pytest.raises(ValueError):
            DvfsSpec(
                pstates=(
                    PState(1.65, 0.9),
                    PState(1.40, 1.0),
                )
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DvfsSpec(pstates=())

    def test_index_out_of_range(self, ladder):
        with pytest.raises(IndexError):
            ladder.state(99)


class TestScalingLaws:
    def test_nominal_scales_are_unity(self, ladder):
        assert ladder.dynamic_power_scale(0) == 1.0
        assert ladder.static_power_scale(0) == 1.0

    def test_dynamic_scale_is_f_v_squared(self, ladder):
        p = ladder.state(3)
        expected = (p.frequency_ghz / 1.65) * (p.voltage_v / 1.0) ** 2
        assert ladder.dynamic_power_scale(3) == pytest.approx(expected)

    def test_scales_decrease_down_ladder(self, ladder):
        dyn = [ladder.dynamic_power_scale(i) for i in range(len(ladder))]
        assert dyn == sorted(dyn, reverse=True)

    def test_executed_utilization_stretches(self, ladder):
        # 1.0 GHz vs 1.65 GHz nominal: 40% demand -> 66% busy.
        assert ladder.executed_utilization_pct(40.0, 3) == pytest.approx(66.0)

    def test_executed_utilization_saturates(self, ladder):
        assert ladder.executed_utilization_pct(90.0, 3) == 100.0

    def test_work_deficit_zero_when_sustaining(self, ladder):
        assert ladder.work_deficit_pct(40.0, 3) == 0.0

    def test_work_deficit_when_saturated(self, ladder):
        # Demand 90% at 1.0/1.65 capacity: can execute 100 busy-% which
        # is 60.6 nominal-%; deficit = 90 - 60.6 = 29.4 nominal-%.
        deficit = ladder.work_deficit_pct(90.0, 3)
        assert deficit == pytest.approx(90.0 - 100.0 * (1.0 / 1.65), abs=0.1)

    def test_slowest_sustaining_state(self, ladder):
        assert ladder.slowest_state_sustaining(20.0) == 3
        assert ladder.slowest_state_sustaining(95.0) == 0

    def test_slowest_sustaining_honours_headroom(self, ladder):
        # 54% demand at 1.0 GHz is 89% busy -> allowed with 90% headroom.
        assert ladder.slowest_state_sustaining(54.0, headroom_pct=90.0) == 3
        assert ladder.slowest_state_sustaining(54.0, headroom_pct=80.0) == 2


class TestPowerModelIntegration:
    def test_deeper_pstate_cuts_active_power(self, dvfs_spec):
        model = PowerModel(dvfs_spec)
        socket = dvfs_spec.sockets[0]
        nominal = model.socket_active_w(socket, 60.0)
        model.set_pstate(3)
        # Same busy fraction at the deep state costs much less.
        assert model.socket_active_w(socket, 60.0) < 0.5 * nominal

    def test_invalid_pstate_rejected(self, dvfs_spec):
        model = PowerModel(dvfs_spec)
        with pytest.raises(IndexError):
            model.set_pstate(9)


class TestSimulatorIntegration:
    def test_default_spec_pstate_is_noop(self):
        sim = ServerSimulator(seed=0)
        sim.set_pstate(0)
        assert sim.state.pstate_index == 0
        with pytest.raises(IndexError):
            sim.set_pstate(1)

    def test_deep_pstate_lowers_power_at_same_demand(self, dvfs_spec):
        nominal = ServerSimulator(spec=dvfs_spec, seed=0, initial_fan_rpm=3000.0)
        deep = ServerSimulator(spec=dvfs_spec, seed=0, initial_fan_rpm=3000.0)
        deep.set_pstate(2)
        nominal.settle_to_steady_state(50.0)
        deep.settle_to_steady_state(50.0)
        assert (
            deep.state.power.cpu_active_w < nominal.state.power.cpu_active_w
        )

    def test_deep_pstate_runs_cooler(self, dvfs_spec):
        nominal = ServerSimulator(spec=dvfs_spec, seed=0, initial_fan_rpm=3000.0)
        deep = ServerSimulator(spec=dvfs_spec, seed=0, initial_fan_rpm=3000.0)
        deep.set_pstate(2)
        nominal.settle_to_steady_state(50.0)
        deep.settle_to_steady_state(50.0)
        assert deep.state.max_junction_c < nominal.state.max_junction_c

    def test_executed_utilization_recorded(self, dvfs_spec):
        sim = ServerSimulator(spec=dvfs_spec, seed=0, initial_fan_rpm=3000.0)
        sim.set_pstate(3)
        state = sim.step(1.0, 40.0)
        assert state.demand_pct == 40.0
        assert state.utilization_pct == pytest.approx(66.0)
        assert state.pstate_index == 3

    def test_work_deficit_accumulates_when_saturated(self, dvfs_spec):
        sim = ServerSimulator(spec=dvfs_spec, seed=0, initial_fan_rpm=3000.0)
        sim.set_pstate(3)
        for _ in range(10):
            sim.step(1.0, 100.0)
        assert sim.work_deficit_pct_s > 0.0

    def test_no_deficit_at_nominal(self, dvfs_spec):
        sim = ServerSimulator(spec=dvfs_spec, seed=0, initial_fan_rpm=3000.0)
        for _ in range(10):
            sim.step(1.0, 100.0)
        assert sim.work_deficit_pct_s == 0.0
