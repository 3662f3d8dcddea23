"""The controller contract: interface, observation and poll.

A controller periodically receives a :class:`ControllerObservation` —
exactly what the DLC-PC can see at runtime: measured (noisy) CPU
temperatures, the ``sar``-style windowed utilization, and its own last
fan command.  It returns a new RPM command or ``None`` to keep the
current speed.  Ground truth is deliberately *not* part of the
observation (except for the oracle extension, which models perfect
knowledge).

Every closed loop (``run_experiment`` on either engine and the fleet
slices) drives its controllers through the three functions at the
bottom of this module; each keeps its own observation source,
actuation and command validation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import isnan
from typing import Optional, Tuple

#: Poll-time comparison slack: a poll is due when
#: ``time_s >= next_poll_s - POLL_EPS_S``, seconds.
POLL_EPS_S = 1e-9


@dataclass(frozen=True)
class ControllerObservation:
    """What a controller can observe at one polling instant."""

    time_s: float
    #: Hottest measured CPU die sensor, °C (bang-bang's input).
    max_cpu_temperature_c: float
    #: Mean of the measured CPU die sensors, °C.
    avg_cpu_temperature_c: float
    #: Windowed utilization estimate from the monitor, percent.
    utilization_pct: float
    #: The currently commanded fan speed, RPM.
    current_rpm_command: float


class FanController(ABC):
    """Base class for all fan-speed control policies.

    Subclasses call the base ``__init__`` by name: fleets build one
    controller per server, and ``super()`` measurably slows that setup.
    """

    #: How often the policy is evaluated, seconds.
    poll_interval_s: float = 10.0

    def __init__(self, poll_interval_s: float):
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        self.poll_interval_s = poll_interval_s

    @property
    def name(self) -> str:
        """Human-readable policy name (used in reports)."""
        return type(self).__name__

    @abstractmethod
    def decide(self, observation: ControllerObservation) -> Optional[float]:
        """Return a new RPM command, or ``None`` to hold the current one."""

    def decide_pstate(self, observation: ControllerObservation) -> Optional[int]:
        """Return a new p-state, or ``None`` (the default) to hold it."""
        return None

    def initial_rpm(self) -> Optional[float]:
        """RPM to command at experiment start (``None``: leave as-is)."""
        return None

    def reset(self) -> None:
        """Clear internal state between experiments."""

    def hold(self, time_s: float) -> None:
        """The due poll at *time_s* held both commands on a NaN reading.

        Does nothing by default; a policy that integrates over time
        overrides it so the gap is not counted as observed time.
        """


class LockoutController(FanController):
    """A policy whose fan changes lock further changes out for a while.

    :meth:`decide` returns :meth:`_command` of the policy's target.
    """

    def __init__(self, poll_interval_s: float, lockout_s: float):
        FanController.__init__(self, poll_interval_s)
        if lockout_s < 0:
            raise ValueError("lockout_s must be non-negative")
        self.lockout_s = lockout_s
        self._last_change_s: Optional[float] = None

    def reset(self) -> None:
        """Forget the last change: the next poll may change the fan."""
        self._last_change_s = None

    def _command(
        self, target_rpm: float, observation: ControllerObservation
    ) -> Optional[float]:
        """Hold on the current command or within ``lockout_s`` of a change."""
        if target_rpm == observation.current_rpm_command:
            return None
        last = self._last_change_s
        if last is not None and observation.time_s - last < self.lockout_s:
            return None
        self._last_change_s = observation.time_s
        return target_rpm


def start_controller(controller: FanController, current_rpm: float) -> float:
    """Reset *controller*; return its initial RPM, else *current_rpm*."""
    controller.reset()
    initial = controller.initial_rpm()
    return initial if initial is not None else current_rpm


def poll_controller(
    controller: FanController,
    time_s: float,
    max_cpu_c: float,
    avg_cpu_c: float,
    utilization_pct: float,
    rpm_command: float,
) -> Tuple[Optional[float], Optional[int]]:
    """One due poll: ``(new RPM, new p-state)``, ``None`` meaning hold.

    A dropped-out sensor (NaN max or mean) holds both commands without
    asking the controller, which is told through ``hold``.  Otherwise
    ``decide`` then ``decide_pstate`` see the same observation; an RPM
    equal to *rpm_command* is a hold.
    """
    if isnan(max_cpu_c) or isnan(avg_cpu_c):
        controller.hold(time_s)
        return None, None
    observation = ControllerObservation(
        time_s, max_cpu_c, avg_cpu_c, utilization_pct, rpm_command
    )
    rpm = controller.decide(observation)
    if rpm == rpm_command:
        rpm = None
    return rpm, controller.decide_pstate(observation)


def advance_poll_clock(
    controller: FanController, next_poll_s: float, time_s: float
) -> float:
    """Step *next_poll_s* by the poll interval until it passes *time_s*.

    One step is not enough when a tick is longer than the interval.
    """
    while time_s >= next_poll_s - POLL_EPS_S:
        next_poll_s += controller.poll_interval_s
    return next_poll_s
