#!/usr/bin/env python3
"""Telemetry prognostics: catching a lying thermal sensor.

CSTH — the telemetry harness the paper's controllers read — was built
for electronic prognostics (Gross et al., the paper's ref. [3]).  This
example shows why that matters for cooling control:

1. train a similarity-model watchdog on healthy telemetry across the
   utilization envelope;
2. inject a slow drift into one die thermal sensor while the bang-bang
   controller is in charge;
3. watch the watchdog name the faulty channel long before the drift
   has moved the controller into a wrong regime.

Usage::

    python examples/telemetry_prognostics.py
"""

import numpy as np

from repro import BangBangController, ServerSimulator
from repro.core.controllers.base import poll_controller
from repro.reporting import sparkline
from repro.server.faults import DriftFault
from repro.telemetry import TelemetryWatchdog

CHANNELS = ("cpu0.t0", "cpu0.t1", "cpu1.t0", "cpu1.t1", "power")


def collect(sim, utilization, samples, poll_s=10.0):
    """Poll CSTH channels at the 10 s cadence."""
    rows = []
    for _ in range(samples):
        sim.step(poll_s, utilization)
        rows.append(
            list(sim.measured_cpu_temperatures_c())
            + [sim.measured_system_power_w()]
        )
    return np.array(rows)


def main() -> None:
    sim = ServerSimulator(seed=11, initial_fan_rpm=3000.0)

    print(
        "training the watchdog on healthy telemetry across the operating\n"
        "envelope (5 load levels x 5 fan speeds — the characterization grid)..."
    )
    training = []
    for rpm in (1800.0, 2400.0, 3000.0, 3600.0, 4200.0):
        sim.set_fan_rpm(rpm)
        sim.fans.step(10.0)  # let the rotors reach the set point
        for util in (0.0, 25.0, 50.0, 75.0, 100.0):
            sim.settle_to_steady_state(util)
            training.append(collect(sim, util, 12))
    watchdog = TelemetryWatchdog(CHANNELS, memory_size=120).fit(
        np.vstack(training)
    )

    print("injecting a +0.02 degC/s drift into cpu0.t0 at t=0...")
    sim.settle_to_steady_state(50.0)
    sim.inject_cpu_temp_fault(0, DriftFault(rate_per_s=0.02, start_s=sim.time_s))

    controller = BangBangController()
    rpm = 3000.0
    sim.set_fan_rpm(rpm)

    drift_history = []
    detection_time = None
    for k in range(240):  # 40 minutes at the 10 s CSTH cadence
        sim.step(10.0, 50.0)
        measured = sim.measured_cpu_temperatures_c()
        drift_history.append(measured[0] - sim.state.thermal.junction_c[0])

        alarmed = watchdog.observe(
            list(measured) + [sim.measured_system_power_w()]
        )
        if alarmed and detection_time is None:
            detection_time = k * 10.0
            print(
                f"  watchdog alarm at t={detection_time:.0f} s: {alarmed} "
                f"(sensor error {drift_history[-1]:+.1f} degC)"
            )

        decision, _ = poll_controller(
            controller, sim.time_s, max(measured), float(np.mean(measured)),
            50.0, rpm,
        )
        if decision is not None:
            rpm = decision
            sim.set_fan_rpm(rpm)

    print(f"\nsensor error over 40 min: {sparkline(drift_history)}")
    print(f"final sensor error: {drift_history[-1]:+.1f} degC")
    if detection_time is None:
        print("watchdog never fired (unexpected)")
    else:
        threshold_error = drift_history[int(detection_time / 10.0)]
        print(
            f"detected after {detection_time:.0f} s, when the lie was only "
            f"{threshold_error:+.1f} degC — versus the ~10 degC it would "
            f"take to push bang-bang across a threshold band."
        )


if __name__ == "__main__":
    main()
