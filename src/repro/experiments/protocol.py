"""The paper's experimental protocol (§IV).

All experiments take place under the same conditions:

1. the server sits in an isolated environment at 24 °C ambient;
2. execution always starts from a *cold state* forced by at least ten
   minutes of idle with the fans at 3600 RPM;
3. at ``t = 0`` the fan speed is set to the experiment value and the
   machine idles another five minutes for temperature stabilization;
4. the last ten minutes run with the CPUs idle so temperature drops
   back toward steady state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.server.server import ServerSimulator
from repro.units import minutes, validate_non_negative
from repro.workloads.profile import (
    CompositeProfile,
    ConstantProfile,
    UtilizationProfile,
)


@dataclass(frozen=True)
class ExperimentProtocol:
    """Timing envelope around a load phase."""

    ambient_c: float = 24.0
    cold_start_rpm: float = 3600.0
    idle_head_s: float = minutes(5.0)
    idle_tail_s: float = minutes(10.0)

    def __post_init__(self) -> None:
        validate_non_negative(self.idle_head_s, "idle_head_s")
        validate_non_negative(self.idle_tail_s, "idle_tail_s")
        if self.cold_start_rpm <= 0:
            raise ValueError("cold_start_rpm must be positive")

    def force_cold_state(self, sim: ServerSimulator) -> None:
        """Emulate ">= 10 minutes idle at 3600 RPM" (see
        :meth:`ServerSimulator.force_cold_state`)."""
        sim.force_cold_state(self.cold_start_rpm)

    def wrap_profile(self, load: UtilizationProfile) -> UtilizationProfile:
        """Surround a load profile with the idle head and tail phases."""
        segments = []
        if self.idle_head_s > 0:
            segments.append(ConstantProfile(0.0, self.idle_head_s))
        segments.append(load)
        if self.idle_tail_s > 0:
            segments.append(ConstantProfile(0.0, self.idle_tail_s))
        if len(segments) == 1:
            return load
        return CompositeProfile(segments)
