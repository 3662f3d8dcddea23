"""PI temperature-tracking controller (extension beyond the paper).

The paper's conclusion points at richer runtime control as future
work.  A discrete PI loop that regulates the hottest die sensor to a
set point just under the reliability ceiling is the natural classical
baseline between bang-bang (reactive, coarse) and LUT (proactive,
model-based): it is reactive like bang-bang but produces smooth fan
commands.  Anti-windup clamps the integrator at the actuator limits.
A telemetry gap (polls held on a NaN reading) is not integrated: the
first poll after it restarts the integral from the held command.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controllers.base import ControllerObservation, FanController
from repro.units import clamp


class PIController(FanController):
    """Discrete PI regulation of max die temperature via fan speed."""

    def __init__(
        self,
        target_c: float = 70.0,
        kp_rpm_per_c: float = 120.0,
        ki_rpm_per_c_s: float = 1.0,
        min_rpm: float = 1800.0,
        max_rpm: float = 4200.0,
        poll_interval_s: float = 10.0,
        deadband_rpm: float = 60.0,
    ):
        if max_rpm <= min_rpm:
            raise ValueError("max_rpm must exceed min_rpm")
        FanController.__init__(self, poll_interval_s)
        if kp_rpm_per_c < 0 or ki_rpm_per_c_s < 0:
            raise ValueError("gains must be non-negative")
        if deadband_rpm < 0:
            raise ValueError("deadband_rpm must be non-negative")
        self.target_c = target_c
        self.kp = kp_rpm_per_c
        self.ki = ki_rpm_per_c_s
        self.min_rpm = min_rpm
        self.max_rpm = max_rpm
        self.deadband_rpm = deadband_rpm
        self._integral_rpm = 0.0
        self._last_time_s: Optional[float] = None
        #: Set by :meth:`hold`, cleared by the next :meth:`decide`.
        self._held = False

    @property
    def name(self) -> str:
        return "PI"

    def reset(self) -> None:
        self._integral_rpm = 0.0
        self._last_time_s = None
        self._held = False

    def hold(self, time_s: float) -> None:
        """Move the integration clock past the gap."""
        self._last_time_s = time_s
        self._held = True

    def initial_rpm(self) -> Optional[float]:
        return self.min_rpm

    def decide(self, observation: ControllerObservation) -> Optional[float]:
        # Positive error (too hot) must raise fan speed.
        error_c = observation.max_cpu_temperature_c - self.target_c
        dt = (
            observation.time_s - self._last_time_s
            if self._last_time_s is not None
            else self.poll_interval_s
        )
        self._last_time_s = observation.time_s
        if self._held:
            # Bumpless: the integral that reproduces the held command.
            self._held = False
            self._integral_rpm = (
                observation.current_rpm_command - self.min_rpm
                - self.kp * error_c
            )

        self._integral_rpm += self.ki * error_c * dt
        span = self.max_rpm - self.min_rpm
        # Anti-windup: the integral alone may never demand more than the
        # actuator span in either direction.
        self._integral_rpm = clamp(self._integral_rpm, -span, span)

        command = self.min_rpm + self.kp * error_c + self._integral_rpm
        command = clamp(command, self.min_rpm, self.max_rpm)
        if abs(command - observation.current_rpm_command) < self.deadband_rpm:
            return None
        return command
