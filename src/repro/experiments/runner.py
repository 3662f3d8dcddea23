"""Closed-loop experiment runner.

Reproduces the testbed's runtime wiring: LoadGen synthesizes the
instantaneous load, the server simulator integrates power and thermal
state, the utilization monitor emulates ``sar`` polling, and the
controller (running on the DLC-PC) periodically observes the noisy
CSTH channels plus the monitored utilization and commands fan speeds.

Two execution engines produce bit-identical traces:

* ``engine="kernel"`` (default) — the chunked
  :class:`repro.engine.kernel.SingleServerKernel`: poll the controller,
  integrate every tick until the next poll in one batch-planned chunk,
  repeat.  Workload samples, ambient series, DVFS stretch and all
  sensor-noise draws are precomputed per chunk from the same RNG
  stream, and the trace goes straight into preallocated ndarray
  columns.
* ``engine="reference"`` — the original tick-by-tick loop over
  :class:`~repro.server.server.ServerSimulator`, kept as the
  equivalence oracle for the kernel (see
  ``tests/test_kernel_equivalence.py``) and as the benchmark baseline
  (``benchmarks/bench_kernel.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.controllers.base import (
    POLL_EPS_S,
    FanController,
    advance_poll_clock,
    poll_controller,
    start_controller,
)
from repro.engine.kernel import SINGLE_SERVER_TRACE_COLUMNS, SingleServerKernel
from repro.experiments.metrics import ExperimentMetrics, compute_metrics
from repro.experiments.protocol import ExperimentProtocol
from repro.server.ambient import AmbientModel, ConstantAmbient
from repro.server.faults import SensorFault
from repro.server.server import ServerSimulator
from repro.server.specs import ServerSpec, default_server_spec
from repro.telemetry.recorder import TraceRecorder
from repro.workloads.loadgen import (
    DEFAULT_PWM_PERIOD_S,
    LoadGen,
    UtilizationMonitor,
    monitor_warmup_times,
)
from repro.workloads.profile import UtilizationProfile

#: Trace schema produced by every experiment run (see
#: :data:`repro.engine.kernel.SINGLE_SERVER_TRACE_COLUMNS` for units).
TRACE_COLUMNS = SINGLE_SERVER_TRACE_COLUMNS


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the closed-loop simulation (all durations in seconds)."""

    #: Simulation tick length, s.
    dt_s: float = 1.0
    #: LoadGen duty-cycle period, s.
    pwm_period_s: float = DEFAULT_PWM_PERIOD_S
    #: ``sar``-style utilization averaging window, s.
    monitor_window_s: float = 60.0
    loadgen_mode: str = "pwm"
    protocol: ExperimentProtocol = field(default_factory=ExperimentProtocol)
    #: Wrap the profile in the protocol's idle head/tail phases.
    apply_protocol_phases: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")


@dataclass
class ExperimentResult:
    """Traces + metrics of one closed-loop run."""

    controller_name: str
    recorder: TraceRecorder
    metrics: ExperimentMetrics
    config: ExperimentConfig

    def column(self, name: str) -> np.ndarray:
        """One trace column, read-only (units per :data:`TRACE_COLUMNS`;
        copy before mutating)."""
        return self.recorder.column(name)

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """All trace columns keyed by name, read-only (units per
        :data:`TRACE_COLUMNS`)."""
        return self.recorder.as_arrays()


def _prepare(controller, profile, spec, config, ambient, faults=None):
    """Shared setup: spec/config defaults, cold-started simulator."""
    spec = spec if spec is not None else default_server_spec()
    config = config if config is not None else ExperimentConfig()
    protocol = config.protocol
    if ambient is None:
        ambient = ConstantAmbient(protocol.ambient_c)
    if config.apply_protocol_phases:
        profile = protocol.wrap_profile(profile)

    sim = ServerSimulator(spec=spec, ambient=ambient, seed=config.seed)
    protocol.force_cold_state(sim)
    if faults:
        # Injected before either engine starts, so the kernel captures
        # the fault wrappers and the reference loop's scalar reads see
        # the identical schedule.
        for sensor_index, fault in faults:
            sim.inject_cpu_temp_fault(int(sensor_index), fault)

    rpm_command = start_controller(controller, sim.fans.mean_rpm)

    loadgen = LoadGen(
        profile, pwm_period_s=config.pwm_period_s, mode=config.loadgen_mode
    )
    duration_s = profile.duration_s
    steps = int(round(duration_s / config.dt_s))
    if steps <= 0:
        raise ValueError("profile too short for the configured dt_s")
    return profile, config, sim, loadgen, rpm_command, steps


def _finish(controller, config, sim, recorder) -> ExperimentResult:
    """Shared teardown: metrics over the recorded trace."""
    metrics = compute_metrics(
        times_s=recorder.column("time_s"),
        total_power_w=recorder.column("power_total_w"),
        max_temperature_trace_c=recorder.column("max_junction_c"),
        rpm_commands=recorder.column("rpm_command"),
        actual_rpms=recorder.column("mean_rpm"),
        # Executed, not demanded: a coordinated controller parked in a
        # deep p-state stretches busy time, and Table-I utilization must
        # report what the sockets actually ran.
        utilization_pct=recorder.column("executed_util_pct"),
        static_idle_w=sim.power_model.static_idle_w(),
    )
    return ExperimentResult(
        controller_name=controller.name,
        recorder=recorder,
        metrics=metrics,
        config=config,
    )


def run_experiment(
    controller: FanController,
    profile: UtilizationProfile,
    spec: Optional[ServerSpec] = None,
    config: Optional[ExperimentConfig] = None,
    ambient: Optional[AmbientModel] = None,
    engine: str = "kernel",
    faults: Optional[Iterable[Tuple[int, SensorFault]]] = None,
    metrics=None,
) -> ExperimentResult:
    """Run one controller against one workload profile.

    The run follows the paper's protocol: the server starts from a
    forced cold state (idle equilibrium at 3600 RPM), the controller's
    initial command is applied at ``t = 0``, then the closed loop steps
    at ``config.dt_s`` for the profile duration.  *engine* selects the
    chunked kernel (default) or the tick-by-tick reference loop; both
    produce bit-identical traces.

    *faults* is an optional iterable of ``(sensor_index, fault)``
    pairs injecting :class:`~repro.server.faults.SensorFault` modes
    into the die thermal channels (indices per
    :meth:`ServerSimulator.measured_cpu_temperatures_c`).  Fault
    windows take effect at the exact tick on both engines, and a
    dropped-out channel (NaN observation) makes the control plane hold
    its last commands until the channel returns.  Pass fresh fault
    instances per run — :class:`~repro.server.faults.SpikeFault` keeps
    RNG state.

    *metrics* is an optional
    :class:`~repro.obs.metrics.MetricsRegistry`; the kernel engine
    counts its integrated ticks and chunks into it.
    """
    if engine not in ("kernel", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    faults = tuple(faults) if faults is not None else ()
    profile, config, sim, loadgen, rpm_command, steps = _prepare(
        controller, profile, spec, config, ambient, faults
    )
    if engine == "reference":
        return _run_reference(
            controller, config, sim, loadgen, rpm_command, steps
        )

    kernel = SingleServerKernel(
        sim,
        loadgen,
        dt_s=config.dt_s,
        steps=steps,
        monitor_window_s=config.monitor_window_s,
        metrics=metrics,
    )
    kernel.set_fan_command(rpm_command)

    next_poll_s = 0.0
    tick = 0
    while tick < steps:
        time_s = kernel.tick_time(tick)
        if time_s >= next_poll_s - POLL_EPS_S:
            max_cpu_c, avg_cpu_c = kernel.poll_observation(time_s)
            rpm, pstate = poll_controller(
                controller, time_s, max_cpu_c, avg_cpu_c,
                kernel.monitored_utilization(), rpm_command,
            )
            if rpm is not None:
                rpm_command = rpm
                kernel.set_fan_command(rpm_command)
            if pstate is not None:
                kernel.set_pstate(pstate)
            next_poll_s = advance_poll_clock(controller, next_poll_s, time_s)
        end = kernel.chunk_end(tick, next_poll_s)
        kernel.integrate(tick, end)
        tick = end

    recorder = TraceRecorder(TRACE_COLUMNS, capacity=steps)
    recorder.record_chunk(kernel.finalize_columns())
    return _finish(controller, config, sim, recorder)


def measured_max(readings: Sequence[float]) -> float:
    """The hottest die reading; NaN when any channel reads NaN (a dropout)."""
    if any(value != value for value in readings):
        return math.nan
    return max(readings)


def _run_reference(
    controller, config, sim, loadgen, rpm_command, steps
) -> ExperimentResult:
    """The pre-kernel tick-by-tick loop (equivalence oracle)."""
    sim.set_fan_rpm(rpm_command)
    monitor = UtilizationMonitor(window_s=config.monitor_window_s)
    # The cold-start protocol idles the machine for >= 10 minutes before
    # t = 0, so the utilization monitor window starts filled with idle
    # samples (otherwise the first PWM on-phase would read as a 100%
    # spike and trigger a spurious fan change).  The warm-up grid is
    # generated by index so the sample count is exact for any dt_s.
    for t_warm in monitor_warmup_times(config.monitor_window_s, config.dt_s):
        monitor.observe(float(t_warm), 0.0, config.dt_s)
    recorder = TraceRecorder(TRACE_COLUMNS, capacity=steps)

    next_poll_s = 0.0
    time_s = 0.0
    for _ in range(steps):
        target = loadgen.target_pct(time_s)
        instantaneous = loadgen.instantaneous_pct(time_s)

        if time_s >= next_poll_s - POLL_EPS_S:
            measured = sim.measured_cpu_temperatures_c()
            rpm, pstate = poll_controller(
                controller, time_s, measured_max(measured),
                float(np.mean(measured)), monitor.utilization_pct(),
                rpm_command,
            )
            if rpm is not None:
                rpm_command = rpm
                sim.set_fan_rpm(rpm_command)
            if pstate is not None:
                sim.set_pstate(pstate)
            next_poll_s = advance_poll_clock(controller, next_poll_s, time_s)

        state = sim.step(config.dt_s, instantaneous)
        # The monitor sees what sar reports: the *executed* busy
        # fraction, which saturates at 100% when a too-deep p-state
        # cannot keep up with demand.
        monitor.observe(time_s, state.utilization_pct, config.dt_s)
        time_s = state.time_s

        measured_now = sim.measured_cpu_temperatures_c()
        recorder.record(
            {
                "time_s": time_s,
                "target_util_pct": target,
                "instantaneous_util_pct": instantaneous,
                "executed_util_pct": state.utilization_pct,
                "monitored_util_pct": monitor.utilization_pct(),
                "cpu0_junction_c": state.thermal.junction_c[0],
                "cpu1_junction_c": state.thermal.junction_c[
                    min(1, len(state.thermal.junction_c) - 1)
                ],
                "max_junction_c": state.max_junction_c,
                "measured_max_cpu_c": measured_max(measured_now),
                "dimm_bank_c": state.thermal.dimm_bank_c,
                "rpm_command": rpm_command,
                "mean_rpm": state.mean_fan_rpm,
                "power_total_w": state.power.total_w,
                "power_fan_w": state.power.fan_w,
                "power_leakage_w": state.power.cpu_leakage_w,
                "power_active_w": state.power.cpu_active_w,
                "power_memory_w": state.power.memory_w,
                "power_board_w": state.power.board_w,
                "pstate_index": state.pstate_index,
                "work_deficit_pct_s": sim.work_deficit_pct_s,
            }
        )

    return _finish(controller, config, sim, recorder)
