"""Tests for the DLC-PC deployment composition."""

import numpy as np
import pytest

from repro.core.controllers.bangbang import BangBangController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.experiments.dlcpc import DLCPC_TRACE_COLUMNS, DlcPc
from repro.experiments.protocol import ExperimentProtocol
from repro.server.faults import DropoutFault
from repro.server.server import ServerSimulator
from repro.workloads.profile import ConstantProfile, StaircaseProfile


def make_session(controller, seed=0):
    sim = ServerSimulator(seed=seed, initial_fan_rpm=3600.0)
    ExperimentProtocol().force_cold_state(sim)
    return DlcPc(sim, controller)


class TestChannelRegistration:
    def test_all_csth_channels_present(self):
        session = make_session(FixedSpeedController(3300.0))
        names = set(session.harness.channel_names)
        assert {"cpu.temp.0", "cpu.temp.3"} <= names
        assert {"dimm.temp.0", "dimm.temp.31"} <= names
        assert {"system.power", "fan.power"} <= names
        assert {"core.voltage.mean", "core.current.mean"} <= names

    def test_channel_count_matches_paper(self):
        """4 CPU temps + 32 DIMM temps + power + fan + V/I aggregates."""
        session = make_session(FixedSpeedController(3300.0))
        assert len(tuple(session.harness.channel_names)) == 4 + 32 + 4

    def test_latest_requires_a_poll(self):
        session = make_session(FixedSpeedController(3300.0))
        with pytest.raises(RuntimeError):
            session.latest_cpu_temperatures_c()


class TestSession:
    def test_trace_schema_and_length(self):
        session = make_session(FixedSpeedController(3300.0))
        result = session.run(ConstantProfile(50.0, 120.0))
        assert result.recorder.columns == DLCPC_TRACE_COLUMNS
        assert len(result.recorder) == 120

    def test_telemetry_polled_every_ten_seconds(self):
        session = make_session(FixedSpeedController(3300.0))
        session.run(ConstantProfile(50.0, 300.0))
        channel = session.harness.channel("system.power")
        times = channel.times()
        assert len(times) == pytest.approx(31, abs=1)
        assert np.all(np.diff(times) >= 10.0 - 1e-9)

    def test_csth_readings_track_truth(self):
        session = make_session(FixedSpeedController(3300.0))
        result = session.run(ConstantProfile(100.0, 900.0))
        csth = result.column("csth_max_cpu_c")
        truth = result.column("true_max_junction_c")
        # Stale-by-up-to-10s noisy readings still track the slow truth.
        assert np.mean(np.abs(csth - truth)) < 2.5

    def test_bang_bang_controls_through_csth(self):
        """The reactive controller works end-to-end through the
        harness: temperatures rise out of the cold start and the fans
        leave the initial speed."""
        session = make_session(BangBangController())
        result = session.run(ConstantProfile(100.0, 1800.0))
        commands = np.unique(result.column("rpm_command"))
        assert len(commands) > 1
        assert result.column("true_max_junction_c").max() < 80.0

    def test_lut_controls_through_monitor(self, paper_lut):
        session = make_session(LUTController(paper_lut))
        profile = StaircaseProfile([10.0, 100.0], step_duration_s=600.0)
        result = session.run(profile)
        commands = result.column("rpm_command")
        assert commands[100] == 1800.0
        assert commands[-1] == paper_lut.query(100.0)

    def test_too_short_profile_rejected(self):
        session = make_session(FixedSpeedController(3300.0))
        with pytest.raises(ValueError):
            session.run(ConstantProfile(50.0, 0.1))


class TestRunnerAgreement:
    def test_energy_matches_fast_runner(self, paper_lut):
        """The deployment-faithful path and the fast runner agree on
        the headline metric within a fraction of a percent."""
        from repro.experiments.metrics import energy_kwh
        from repro.experiments.runner import ExperimentConfig, run_experiment

        profile = StaircaseProfile([25.0, 90.0], step_duration_s=600.0)

        session = make_session(LUTController(paper_lut), seed=3)
        dlc_result = session.run(profile)
        dlc_energy = energy_kwh(
            dlc_result.column("time_s"),
            dlc_result.column("system_power_w"),
        )

        runner_result = run_experiment(
            LUTController(paper_lut), profile, config=ExperimentConfig(seed=3)
        )
        runner_energy = energy_kwh(
            runner_result.column("time_s"),
            runner_result.column("power_total_w")
            - runner_result.column("power_fan_w"),
        )
        assert dlc_energy == pytest.approx(runner_energy, rel=0.01)


class _Observed(BangBangController):
    """Bang-bang that keeps every observation it is asked to decide on."""

    def __init__(self):
        super().__init__()
        self.observations = []

    def decide(self, observation):
        self.observations.append(observation)
        return super().decide(observation)


class TestControllerContract:
    """The session polls its controller as the runner and the fleet do."""

    @pytest.mark.parametrize("start_s", [300.0, 400.0])
    def test_dropout_holds_the_fan_command(self, start_s):
        """CSTH polls in [start_s, 900) s read NaN on sensor 0: those
        polls hold both commands without asking the controller, so the
        fan stays where it was when the channel dropped out.  At 300 s
        the fan sits at its 1800 RPM floor; by 400 s bang-bang has
        raised it to 3000 RPM, where a NaN read as "cold" would drop it
        back to the floor."""
        controller = _Observed()
        session = make_session(controller)
        session.sim.inject_cpu_temp_fault(
            0, DropoutFault(start_s=start_s, end_s=900.0)
        )
        result = session.run(ConstantProfile(100.0, 1800.0))
        seen = controller.observations
        assert len(seen) == 180 - int((900.0 - start_s) / 10.0)
        assert not any(
            np.isnan(o.max_cpu_temperature_c)
            or np.isnan(o.avg_cpu_temperature_c)
            for o in seen
        )
        assert not any(start_s <= o.time_s < 900.0 for o in seen)
        time_s = result.column("time_s")
        commands = result.column("rpm_command")
        held = commands[(time_s >= start_s) & (time_s <= 900.0)]
        assert np.all(held == held[0])

    def test_reused_controller_starts_afresh(self, paper_lut):
        """A controller reused for a second session is reset first: the
        second session equals a fresh controller's, which changes the
        fan twice (up for the 100% step, down for the 10% step)."""
        profile = StaircaseProfile([100.0, 10.0], step_duration_s=300.0)
        reused = LUTController(paper_lut)
        make_session(reused).run(profile)
        second = make_session(reused).run(profile)
        fresh = make_session(LUTController(paper_lut)).run(profile)
        for name in DLCPC_TRACE_COLUMNS:
            np.testing.assert_array_equal(
                second.column(name), fresh.column(name), err_msg=name
            )
        assert np.count_nonzero(np.diff(fresh.column("rpm_command"))) == 2
