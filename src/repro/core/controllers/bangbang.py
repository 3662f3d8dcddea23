"""The reactive bang-bang temperature controller (paper §V).

Tracks only the maximum measured CPU temperature through CSTH (10 s
polling) and applies the paper's five-way action table:

1. ``T_max < 60 °C`` — set the lowest speed (1800 RPM);
2. ``60 <= T_max < 65 °C`` — lower speed by 600 RPM;
3. ``65 <= T_max <= 75 °C`` — no action (the desirable band);
4. ``75 < T_max <= 80 °C`` — raise speed by 600 RPM;
5. ``T_max > 80 °C`` — jump to the maximum speed (4200 RPM).

The thresholds were chosen experimentally in the paper to balance fan
speed-change frequency against temperature overshoot; the ablation
bench sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.controllers.base import ControllerObservation, FanController
from repro.units import clamp


@dataclass(frozen=True)
class BangBangThresholds:
    """The four temperature thresholds of the action table, °C."""

    release_c: float = 60.0
    lower_band_c: float = 65.0
    upper_band_c: float = 75.0
    emergency_c: float = 80.0

    def __post_init__(self) -> None:
        ordered = (
            self.release_c,
            self.lower_band_c,
            self.upper_band_c,
            self.emergency_c,
        )
        if any(b <= a for a, b in zip(ordered[:-1], ordered[1:])):
            raise ValueError(
                "thresholds must be strictly increasing: "
                f"{ordered}"
            )


class BangBangController(FanController):
    """Reactive step controller on the hottest measured die sensor."""

    def __init__(
        self,
        thresholds: Optional[BangBangThresholds] = None,
        step_rpm: float = 600.0,
        min_rpm: float = 1800.0,
        max_rpm: float = 4200.0,
        poll_interval_s: float = 10.0,
    ):
        if step_rpm <= 0:
            raise ValueError("step_rpm must be positive")
        if max_rpm <= min_rpm:
            raise ValueError("max_rpm must exceed min_rpm")
        FanController.__init__(self, poll_interval_s)
        self.thresholds = thresholds or BangBangThresholds()
        self.step_rpm = step_rpm
        self.min_rpm = min_rpm
        self.max_rpm = max_rpm

    @property
    def name(self) -> str:
        return "Bang-bang"

    def decide(self, observation: ControllerObservation) -> Optional[float]:
        t_max = observation.max_cpu_temperature_c
        current = observation.current_rpm_command
        th = self.thresholds

        if t_max > th.emergency_c:
            target = self.max_rpm
        elif t_max > th.upper_band_c:
            target = clamp(current + self.step_rpm, self.min_rpm, self.max_rpm)
        elif t_max >= th.lower_band_c:
            return None  # inside the desirable band
        elif t_max >= th.release_c:
            target = clamp(current - self.step_rpm, self.min_rpm, self.max_rpm)
        else:
            target = self.min_rpm

        if target == current:
            return None
        return target
