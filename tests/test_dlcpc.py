"""Tests for the DLC-PC session on the tick-by-tick reference engine.

In the paper's testbed the Data Logging and Control PC (DLC-PC) polls
the server's telemetry, runs the fan controller and drives the fans.
``run_experiment`` runs that loop; ``tests/test_runner.py`` checks it on
the default kernel engine, and these tests check the same session on
``engine="reference"``.
"""

import pytest

from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.experiments.runner import TRACE_COLUMNS, run_experiment
from repro.workloads.profile import ConstantProfile, StaircaseProfile


def run_session(controller, profile):
    return run_experiment(controller, profile, engine="reference")


class TestSession:
    def test_trace_schema_and_length(self):
        result = run_session(
            FixedSpeedController(3300.0), ConstantProfile(50.0, 120.0)
        )
        assert result.recorder.columns == TRACE_COLUMNS
        assert len(result.recorder) == 120

    def test_lut_controls_through_monitor(self, paper_lut):
        profile = StaircaseProfile([10.0, 100.0], step_duration_s=600.0)
        result = run_session(LUTController(paper_lut), profile)
        commands = result.column("rpm_command")
        assert commands[100] == 1800.0
        assert commands[-1] == paper_lut.query(100.0)

    def test_too_short_profile_rejected(self):
        with pytest.raises(ValueError):
            run_session(
                FixedSpeedController(3300.0), ConstantProfile(50.0, 0.1)
            )
