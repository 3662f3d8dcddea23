"""Fan models: cubic power law, airflow, slew limiting, fan banks.

The testbed drives three *pairs* of fans from external Agilent E3644A
supplies.  All the paper's experiments command the same speed to every
pair, so the bank takes one command for all its fans.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.server.specs import FanSpec
from repro.units import clamp, validate_non_negative


def uniform_bank_total(per_fan_value: float, fan_count: int) -> float:
    """Bank aggregate of *fan_count* identical per-fan values.

    Replicates the left-to-right ``sum()`` fold :class:`FanBank` uses
    for :meth:`FanBank.total_power_w` / :meth:`FanBank.total_airflow_cfm`
    (``0.0 + v + v + ...``), which is *not* bit-identical to
    ``fan_count * per_fan_value`` in floating point.  The single-server
    execution kernel uses this to reproduce the bank totals without
    instantiating per-fan objects.
    """
    total = 0.0
    for _ in range(fan_count):
        total += per_fan_value
    return total


def fan_speed_ladder(
    spec: FanSpec, step_rpm: float = 600.0
) -> Tuple[float, ...]:
    """Return the discrete RPM settings used by the paper's controllers.

    With the default spec this is ``(1800, 2400, 3000, 3600, 4200)`` —
    the five speeds characterized in §IV.
    """
    validate_non_negative(step_rpm, "step_rpm")
    if step_rpm == 0:
        raise ValueError("step_rpm must be positive")
    speeds: List[float] = []
    rpm = spec.rpm_min
    while rpm <= spec.rpm_max + 1e-9:
        speeds.append(round(rpm, 6))
        rpm += step_rpm
    return tuple(speeds)


class FanModel:
    """One fan: command tracking with slew limits, power, airflow."""

    def __init__(self, spec: FanSpec, initial_rpm: float | None = None):
        self.spec = spec
        if initial_rpm is None:
            initial_rpm = spec.rpm_min
        self._rpm = self._validated_rpm(initial_rpm)
        self._command_rpm = self._rpm

    def _validated_rpm(self, rpm: float) -> float:
        validate_non_negative(rpm, "rpm")
        if not self.spec.rpm_min <= rpm <= self.spec.rpm_max:
            raise ValueError(
                f"rpm {rpm} outside supported range "
                f"[{self.spec.rpm_min}, {self.spec.rpm_max}]"
            )
        return float(rpm)

    @property
    def rpm(self) -> float:
        """Current rotor speed."""
        return self._rpm

    def set_command(self, rpm: float) -> None:
        """Command a new speed; the rotor slews toward it on `step`."""
        self._command_rpm = self._validated_rpm(rpm)

    def step(self, dt_s: float) -> None:
        """Advance rotor dynamics by ``dt_s`` seconds (slew-limited)."""
        validate_non_negative(dt_s, "dt_s")
        max_delta = self.spec.slew_rpm_per_s * dt_s
        delta = clamp(self._command_rpm - self._rpm, -max_delta, max_delta)
        self._rpm += delta

    def power_w(self, rpm: float | None = None) -> float:
        """Electrical power at *rpm* (defaults to the current speed)."""
        if rpm is None:
            rpm = self._rpm
        validate_non_negative(rpm, "rpm")
        ratio = rpm / self.spec.rpm_ref
        return self.spec.power_at_ref_w * ratio ** self.spec.power_exponent

    def airflow_cfm(self, rpm: float | None = None) -> float:
        """Volumetric airflow at *rpm* (defaults to the current speed)."""
        if rpm is None:
            rpm = self._rpm
        validate_non_negative(rpm, "rpm")
        return self.spec.cfm_at_ref * rpm / self.spec.rpm_ref


class FanBank:
    """The chassis fan complement, commanded as one."""

    def __init__(
        self,
        spec: FanSpec,
        fan_count: int = 6,
        initial_rpm: float | None = None,
    ):
        if fan_count <= 0:
            raise ValueError("fan_count must be positive")
        self.spec = spec
        self._fans = [
            FanModel(spec, initial_rpm=initial_rpm) for _ in range(fan_count)
        ]

    @property
    def fan_count(self) -> int:
        """Total number of fans."""
        return len(self._fans)

    def set_all_commands(self, rpm: float) -> None:
        """Command every fan to *rpm* (the paper's usual configuration)."""
        for fan in self._fans:
            fan.set_command(rpm)

    def step(self, dt_s: float) -> None:
        """Advance all rotor dynamics by ``dt_s`` seconds."""
        for fan in self._fans:
            fan.step(dt_s)

    @property
    def rpms(self) -> Tuple[float, ...]:
        """Current speed of every fan."""
        return tuple(fan.rpm for fan in self._fans)

    @property
    def mean_rpm(self) -> float:
        """Average rotor speed across the bank."""
        return sum(self.rpms) / self.fan_count

    def total_power_w(self) -> float:
        """Aggregate electrical power of the bank at current speeds."""
        return sum(fan.power_w() for fan in self._fans)

    def total_airflow_cfm(self) -> float:
        """Aggregate chassis airflow at current speeds."""
        return sum(fan.airflow_cfm() for fan in self._fans)
