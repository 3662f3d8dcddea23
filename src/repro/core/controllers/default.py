"""The server's default cooling behaviour: a fixed fan speed.

The paper observes that the stock firmware keeps the fans "rotating
close to a fixed speed of 3300 RPM" regardless of load — a high
minimum chosen so the machine stays reliable across wide ambient and
altitude ranges, at the cost of systematic overcooling.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controllers.base import ControllerObservation, FanController


class FixedSpeedController(FanController):
    """Holds one constant fan speed for the whole run."""

    def __init__(self, rpm: float = 3300.0, poll_interval_s: float = 10.0):
        if rpm <= 0:
            raise ValueError("rpm must be positive")
        FanController.__init__(self, poll_interval_s)
        self.rpm = float(rpm)

    @property
    def name(self) -> str:
        return "Default"

    def initial_rpm(self) -> Optional[float]:
        return self.rpm

    def decide(self, observation: ControllerObservation) -> Optional[float]:
        if observation.current_rpm_command != self.rpm:
            return self.rpm
        return None
