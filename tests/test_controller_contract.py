"""The controller contract every closed loop polls through.

``repro.core.controllers.base`` holds the one poll
(:func:`poll_controller`), the one run start (:func:`start_controller`),
the one poll clock (:func:`advance_poll_clock`), the one poll-interval
check (``FanController``) and the one lockout rule
(``LockoutController``).  These tests pin each rule on its own; the
runner and fleet suites pin the loops that use them.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.controllers import (
    BangBangController,
    CoordinatedController,
    FixedSpeedController,
    LUTController,
    ModelPredictiveController,
    OracleController,
    PIController,
)
from repro.core.controllers.base import (
    ControllerObservation,
    FanController,
    LockoutController,
    advance_poll_clock,
    poll_controller,
    start_controller,
)
from repro.core.lut import LookupTable
from repro.core.thermal_map import ThermalMap
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    list_checkpoints,
)
from repro.fleet import FleetEngine
from repro.models.leakage import FanPowerModel, LeakageModel
from repro.server.dvfs import default_dvfs_ladder
from repro.workloads.profile import StaircaseProfile

NAN = math.nan


class Scripted(FanController):
    """Returns fixed fan and p-state commands and logs every call."""

    def __init__(self, rpm=None, pstate=None, poll_interval_s=10.0):
        super().__init__(poll_interval_s)
        self.rpm = rpm
        self.pstate = pstate
        self.calls = []

    def initial_rpm(self):
        return 2000.0

    def decide(self, observation):
        self.calls.append(("decide", observation))
        return self.rpm

    def decide_pstate(self, observation):
        self.calls.append(("decide_pstate", observation))
        return self.pstate

    def reset(self):
        self.calls.append(("reset", None))

    def hold(self, time_s):
        self.calls.append(("hold", time_s))


class Target(LockoutController):
    """Commands whatever speed the test sets as its target."""

    def __init__(self, lockout_s):
        super().__init__(poll_interval_s=1.0, lockout_s=lockout_s)
        self.target = 1800.0

    def decide(self, observation):
        return self._command(self.target, observation)


def observation(time_s, rpm):
    return ControllerObservation(time_s, 60.0, 59.0, 50.0, rpm)


class TestPoll:
    @pytest.mark.parametrize(
        "max_c, avg_c", [(NAN, 60.0), (70.0, NAN), (NAN, NAN)]
    )
    def test_nan_reading_holds_without_deciding(self, max_c, avg_c):
        controller = Scripted(rpm=3000.0, pstate=2)
        assert poll_controller(
            controller, 10.0, max_c, avg_c, 50.0, 2400.0
        ) == (None, None)
        assert controller.calls == [("hold", 10.0)]

    def test_hold_is_a_no_op_by_default(self):
        controller = FixedSpeedController(rpm=3300.0)
        state = dict(vars(controller))
        controller.hold(10.0)
        assert vars(controller) == state

    def test_equal_command_is_a_hold(self):
        controller = Scripted(rpm=2400.0)
        assert poll_controller(
            controller, 10.0, 70.0, 65.0, 50.0, 2400.0
        ) == (None, None)
        controller.rpm = 3000.0
        assert poll_controller(
            controller, 20.0, 70.0, 65.0, 50.0, 2400.0
        ) == (3000.0, None)

    def test_pstate_decided_after_fan_on_the_same_observation(self):
        controller = Scripted(rpm=3000.0, pstate=2)
        assert poll_controller(
            controller, 10.0, 70.0, 65.0, 42.0, 2400.0
        ) == (3000.0, 2)
        (first, seen), (second, seen_again) = controller.calls
        assert (first, second) == ("decide", "decide_pstate")
        assert seen_again is seen
        assert seen == ControllerObservation(10.0, 70.0, 65.0, 42.0, 2400.0)

    def test_fan_only_controller_never_changes_pstate(self):
        controller = FixedSpeedController(rpm=3300.0)
        assert poll_controller(
            controller, 0.0, 70.0, 65.0, 50.0, 3000.0
        ) == (3300.0, None)

    def test_start_resets_then_picks_the_first_command(self):
        controller = Scripted()
        assert start_controller(controller, 3600.0) == 2000.0
        assert controller.calls == [("reset", None)]
        assert start_controller(Target(60.0), 3600.0) == 3600.0


class TestPollClock:
    def test_clock_catches_up_with_long_ticks(self):
        """dt_s = 30 s with a 10 s poll interval: every tick polls, and
        each poll leaves the clock one interval past the tick."""
        controller = Scripted(poll_interval_s=10.0)
        next_poll_s = 0.0
        polled = []
        for time_s in (0.0, 30.0, 60.0, 90.0):
            if time_s >= next_poll_s - 1e-9:
                polled.append(time_s)
                next_poll_s = advance_poll_clock(
                    controller, next_poll_s, time_s
                )
                assert next_poll_s == time_s + 10.0
        assert polled == [0.0, 30.0, 60.0, 90.0]

    def test_clock_steps_from_its_own_grid(self):
        controller = Scripted(poll_interval_s=4.0)
        assert advance_poll_clock(controller, 8.0, 9.0) == 12.0
        assert advance_poll_clock(controller, 12.0, 11.0) == 12.0


class TestLockout:
    def test_holds_until_lockout_has_passed(self):
        controller = Target(lockout_s=60.0)
        controller.target = 3000.0
        assert controller.decide(observation(5.0, 1800.0)) == 3000.0
        controller.target = 2400.0
        assert controller.decide(observation(64.9, 3000.0)) is None
        assert controller.decide(observation(65.0, 3000.0)) == 2400.0

    def test_equal_target_starts_no_lockout(self):
        controller = Target(lockout_s=60.0)
        controller.target = 3000.0
        assert controller.decide(observation(0.0, 3000.0)) is None
        controller.target = 2400.0
        assert controller.decide(observation(1.0, 3000.0)) == 2400.0

    def test_reset_ends_the_lockout(self):
        controller = Target(lockout_s=60.0)
        controller.target = 3000.0
        controller.decide(observation(0.0, 1800.0))
        controller.reset()
        controller.target = 2400.0
        assert controller.decide(observation(1.0, 3000.0)) == 2400.0

    def test_negative_lockout_refused(self):
        with pytest.raises(ValueError, match="lockout_s must be non-negative"):
            Target(lockout_s=-1.0)


@pytest.fixture(scope="module")
def lut():
    return LookupTable(levels_pct=(0.0, 100.0), rpms=(1800.0, 2400.0))


SHIPPED = {
    "fixed": lambda lut, **kw: FixedSpeedController(**kw),
    "bang-bang": lambda lut, **kw: BangBangController(**kw),
    "pi": lambda lut, **kw: PIController(**kw),
    "lut": lambda lut, **kw: LUTController(lut, **kw),
    "coordinated": lambda lut, **kw: CoordinatedController(
        lut, default_dvfs_ladder(), **kw
    ),
    "mpc": lambda lut, **kw: ModelPredictiveController(
        thermal_map=ThermalMap(
            [0.0, 100.0], [1800.0, 4200.0], np.array([[40.0, 30.0], [80.0, 60.0]])
        ),
        leakage_model=LeakageModel(c_w=20.0, k2_w=0.65, k3_per_c=0.0475),
        fan_power_model=FanPowerModel(coeff_w=55.0, exponent=3.0, rpm_ref=4200.0),
        **kw,
    ),
    "oracle": lambda lut, **kw: OracleController(**kw),
}


@pytest.mark.parametrize("kind", sorted(SHIPPED))
def test_shipped_controllers_refuse_a_zero_poll_interval(kind, lut):
    assert SHIPPED[kind](lut).poll_interval_s > 0
    with pytest.raises(ValueError, match="^poll_interval_s must be positive$"):
        SHIPPED[kind](lut, poll_interval_s=0)


def test_format_version_1_checkpoint_refused(
    tmp_path, dvfs_spec, lut, single_server_fleet
):
    """Checkpoints pickle their controllers, whose lockout state moved
    into ``LockoutController`` in format version 2.  A version-2 cut of
    a coordinated fleet run resumes bit-identically; the same cut
    stamped version 1 is refused before anything is unpickled."""

    def run(checkpoint=None, resume_from=None):
        return FleetEngine(
            single_server_fleet(dvfs_spec),
            StaircaseProfile([20.0, 95.0, 40.0], 60.0),
            controller_factory=lambda i: CoordinatedController(
                lut, dvfs_spec.dvfs
            ),
            seed=4,
            checkpoint=checkpoint,
        ).run(dt_s=1.0, resume_from=resume_from)

    golden = run()
    run(checkpoint=CheckpointConfig(directory=tmp_path, every_s=90.0))
    cut = list_checkpoints(tmp_path)[-1]
    resumed = run(resume_from=cut)
    for field in dataclasses.fields(golden):
        expected = getattr(golden, field.name)
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(
                getattr(resumed, field.name), expected, field.name
            )
    assert resumed.metrics == golden.metrics
    assert len(np.unique(golden.pstate_index)) > 1

    manifest_path = cut / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="format version 1"):
        run(resume_from=cut)
