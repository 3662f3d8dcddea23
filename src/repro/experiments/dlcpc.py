"""The Data Logging and Control PC (DLC-PC) deployment composition.

In the paper's testbed a separate PC (i) collects CSTH telemetry from
the service processor every 10 s, (ii) polls ``sar``/``mpstat`` for
utilization every second, (iii) runs the fan controller, and (iv)
drives the external fan supplies over RS-232.  The experiment runner
in :mod:`repro.experiments.runner` reads the simulator's sensors
directly for speed; this module is the deployment-faithful wiring —
the controller sees *only* what the DLC-PC could see:

* temperatures from the **latest CSTH poll** (10 s cadence, so up to
  10 s stale between polls — exactly the reactive delay the bang-bang
  controller pays in the paper),
* utilization from the rolling ``sar`` monitor,
* its own last actuation command.

Each session resets the controller, and a CSTH channel that drops out
(a NaN reading) holds its commands, as in the runner and the fleet.

Use this class when studying telemetry-path effects (poll cadence,
stale data, channel faults caught by the watchdog); use the runner for
bulk experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.controllers.base import (
    POLL_EPS_S,
    FanController,
    advance_poll_clock,
    poll_controller,
    start_controller,
)
from repro.server.server import ServerSimulator
from repro.telemetry.harness import TelemetryHarness
from repro.telemetry.recorder import TraceRecorder
from repro.units import validate_non_negative
from repro.workloads.loadgen import LoadGen, UtilizationMonitor
from repro.workloads.profile import UtilizationProfile

#: Trace schema recorded by the DLC-PC.
DLCPC_TRACE_COLUMNS = (
    "time_s",
    "instantaneous_util_pct",
    "monitored_util_pct",
    "csth_max_cpu_c",
    "true_max_junction_c",
    "rpm_command",
    "system_power_w",
)


@dataclass
class DlcPcResult:
    """Traces captured by one DLC-PC session."""

    recorder: TraceRecorder
    harness: TelemetryHarness

    def column(self, name: str) -> np.ndarray:
        """Shortcut into the trace recorder."""
        return self.recorder.column(name)


class DlcPc:
    """Wires CSTH, the utilization monitor, and a controller to a server."""

    def __init__(
        self,
        sim: ServerSimulator,
        controller: FanController,
        telemetry_poll_s: float = 10.0,
        monitor_window_s: float = 60.0,
    ):
        self.sim = sim
        self.controller = controller
        self.monitor = UtilizationMonitor(window_s=monitor_window_s)
        self.harness = TelemetryHarness(poll_interval_s=telemetry_poll_s)
        self._register_channels()
        self._rpm_command: Optional[float] = None
        self._next_controller_poll_s = 0.0

    def _register_channels(self) -> None:
        sim = self.sim
        socket_count = sim.spec.socket_count
        self.harness.register_vector(
            "cpu.temp",
            "degC",
            sim.measured_cpu_temperatures_c,
            count=2 * socket_count,
        )
        self.harness.register_vector(
            "dimm.temp",
            "degC",
            sim.measured_dimm_temperatures_c,
            count=sim.spec.memory.dimm_count,
        )
        self.harness.register("system.power", "W", sim.measured_system_power_w)
        self.harness.register("fan.power", "W", sim.measured_fan_power_w)
        self.harness.register(
            "core.voltage.mean",
            "V",
            lambda: float(np.mean(sim.measured_core_voltages_v())),
        )
        self.harness.register(
            "core.current.mean",
            "A",
            lambda: float(np.mean(sim.measured_core_currents_a())),
        )

    # ------------------------------------------------------------------
    # telemetry access
    # ------------------------------------------------------------------
    def latest_cpu_temperatures_c(self) -> tuple:
        """CPU die temperatures from the most recent CSTH poll."""
        socket_count = self.sim.spec.socket_count
        readings = []
        for i in range(2 * socket_count):
            sample = self.harness.channel(f"cpu.temp.{i}").latest
            if sample is None:
                raise RuntimeError("CSTH has not polled yet")
            readings.append(sample.value)
        return tuple(readings)

    # ------------------------------------------------------------------
    # session
    # ------------------------------------------------------------------
    def run(
        self,
        profile: UtilizationProfile,
        dt_s: float = 1.0,
        pwm_period_s: float = 30.0,
        loadgen_mode: str = "pwm",
    ) -> DlcPcResult:
        """Drive the closed loop for the profile duration."""
        validate_non_negative(dt_s, "dt_s")
        if dt_s == 0.0:
            raise ValueError("dt_s must be positive")
        loadgen = LoadGen(profile, pwm_period_s=pwm_period_s, mode=loadgen_mode)
        recorder = TraceRecorder(DLCPC_TRACE_COLUMNS)

        self._rpm_command = start_controller(
            self.controller, self.sim.fans.mean_rpm
        )
        self.sim.set_fan_rpm(self._rpm_command)

        steps = int(round(profile.duration_s / dt_s))
        if steps <= 0:
            raise ValueError("profile too short for the configured dt_s")

        time_s = self.sim.time_s
        start_s = time_s
        self._next_controller_poll_s = time_s
        # CSTH needs at least one poll before the first control action.
        self.harness.poll(time_s)

        for _ in range(steps):
            elapsed = time_s - start_s
            instantaneous = loadgen.instantaneous_pct(elapsed)

            if time_s >= self._next_controller_poll_s - POLL_EPS_S:
                csth_temps = self.latest_cpu_temperatures_c()
                rpm, pstate = poll_controller(
                    self.controller, time_s, max(csth_temps),
                    float(np.mean(csth_temps)), self.monitor.utilization_pct(),
                    self._rpm_command,
                )
                if rpm is not None:
                    self._rpm_command = rpm
                    self.sim.set_fan_rpm(rpm)
                if pstate is not None:
                    self.sim.set_pstate(pstate)
                self._next_controller_poll_s = advance_poll_clock(
                    self.controller, self._next_controller_poll_s, time_s
                )

            state = self.sim.step(dt_s, instantaneous)
            self.monitor.observe(time_s, state.utilization_pct, dt_s)
            time_s = state.time_s
            self.harness.maybe_poll(time_s)

            csth_temps = self.latest_cpu_temperatures_c()
            recorder.record(
                {
                    "time_s": time_s,
                    "instantaneous_util_pct": instantaneous,
                    "monitored_util_pct": self.monitor.utilization_pct(),
                    "csth_max_cpu_c": max(csth_temps),
                    "true_max_junction_c": state.max_junction_c,
                    "rpm_command": self._rpm_command,
                    "system_power_w": state.power.compute_w,
                }
            )
        return DlcPcResult(recorder=recorder, harness=self.harness)
