"""The proposed LUT-based proactive controller (paper §V).

Polls the ``sar``-style utilization monitor every second — fast enough
to catch sudden spikes *before* a thermal event — looks up the optimum
fan speed for the current level, and commands it.  To protect fan
reliability under unstable workloads, after each RPM change further
changes are locked out for one minute (a safe choice given the large
thermal time constants): the controller reacts immediately to the
first spike, then holds.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controllers.base import ControllerObservation, LockoutController
from repro.core.lut import LookupTable


class LUTController(LockoutController):
    """Utilization-driven lookup-table fan controller."""

    def __init__(
        self,
        lut: LookupTable,
        poll_interval_s: float = 1.0,
        lockout_s: float = 60.0,
    ):
        LockoutController.__init__(self, poll_interval_s, lockout_s)
        self.lut = lut

    @property
    def name(self) -> str:
        return "LUT"

    def initial_rpm(self) -> Optional[float]:
        # Start from the idle entry: the experiment protocol begins
        # with an idle stabilization phase.
        return self.lut.query(0.0)

    def decide(self, observation: ControllerObservation) -> Optional[float]:
        return self._command(
            self.lut.query(observation.utilization_pct), observation
        )
