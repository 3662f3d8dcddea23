"""Chunked simulation kernels for single-server and fleet runs.

Between controller polls nothing in the closed loop depends on the
controller, so the runners advance the physics in *chunks*: poll →
integrate ``ceil(poll_interval / dt)`` ticks with every per-tick input
(workload samples, ambient series, sensor-noise draws, DVFS stretch)
precomputed for the chunk → poll again.  Traces land in preallocated
ndarray columns instead of per-tick Python object trees.

Two kernels live here because the repository pins two different
bit-level trace contracts:

* :class:`SingleServerKernel` reproduces
  :meth:`repro.server.server.ServerSimulator.step` *scalar* arithmetic
  exactly (``math.exp``, Python ``**``, per-fan ``sum()`` folds).
  ``np.exp`` / ``np.power`` and numpy reductions are **not**
  bit-identical to their scalar counterparts, so the N=1 hot loop stays
  scalar — stripped of object allocation, validation and attribute
  chasing — while everything without a sequential dependency is batched
  per chunk with elementwise-stable numpy operations (IEEE
  add/mul/div/min match scalar Python bit for bit).

* :class:`FleetVectorKernel` carries the numpy-batched (N servers ×
  S sockets) physics of the fleet engine.  Its
  :meth:`FleetVectorKernel.step_into` writes straight into preallocated
  trace rows, skips redundant per-tick validation and caches every
  quantity whose inputs did not change since the previous tick; its
  oracles are the ``reference`` fleet backend (one real
  :class:`ServerSimulator` per server, same tick loop) and the golden
  traces in ``tests/golden/``.

The sensor-noise batching relies on ``Generator.normal`` filling
arrays in C order from the same bit stream scalar draws consume (see
:meth:`repro.server.sensors.Sensor.sample_noise`), so seeded runs
reproduce the pre-kernel noisy traces draw for draw.
"""

from __future__ import annotations

from math import exp
from typing import Dict, List, Optional

import numpy as np

from repro.server.ambient import ConstantAmbient
from repro.server.fan import uniform_bank_total
from repro.server.power import (
    LEAKAGE_EVAL_MAX_C,
    leakage_power_w,
    leakage_slope_w_per_c,
)
from repro.server.server import CriticalTemperatureError, ServerSimulator
from repro.server.thermal import convective_resistance_k_w, substep_schedule
from repro.units import (
    AIR_DENSITY_KG_M3,
    AIR_SPECIFIC_HEAT_J_KG_K,
    CFM_TO_M3_S,
    airflow_heat_capacity_w_per_k,
    validate_non_negative,
    validate_temperature_c,
)
from repro.workloads.loadgen import LoadGen, monitor_warmup_times

#: Trace schema of a single-server closed-loop run (re-exported as
#: :data:`repro.experiments.runner.TRACE_COLUMNS`): times in s,
#: utilizations in %, temperatures in °C, fan speeds in RPM, powers in
#: W, and the accumulated DVFS work deficit in %·s.
SINGLE_SERVER_TRACE_COLUMNS = (
    "time_s",
    "target_util_pct",
    "instantaneous_util_pct",
    "executed_util_pct",
    "monitored_util_pct",
    "cpu0_junction_c",
    "cpu1_junction_c",
    "max_junction_c",
    "measured_max_cpu_c",
    "dimm_bank_c",
    "rpm_command",
    "mean_rpm",
    "power_total_w",
    "power_fan_w",
    "power_leakage_w",
    "power_active_w",
    "power_memory_w",
    "power_board_w",
    "pstate_index",
    "work_deficit_pct_s",
)

#: Poll-time comparison slack, seconds (shared by both runners).
POLL_EPS_S = 1e-9


def plan_tick_times(steps: int, dt_s: float) -> np.ndarray:
    """The ``steps + 1`` tick boundary times, accumulated like the loop.

    ``np.add.accumulate`` sums strictly sequentially, so
    ``plan_tick_times(n, dt)[k]`` is bit-identical to ``k`` repetitions
    of the simulators' ``time_s += dt_s`` — including any float drift,
    which the poll-clock comparisons and ambient lookups must see
    unchanged.
    """
    times = np.empty(steps + 1)
    times[0] = 0.0
    if steps:
        np.add.accumulate(np.full(steps, dt_s), out=times[1:])
    return times


class _MonitorMirror:
    """Bit-exact O(1)-per-tick replica of ``UtilizationMonitor``.

    The real monitor keeps a deque and re-sums the window's ``dt``
    values on every read — O(window) per tick.  On the runner's
    constant-``dt`` grid that fresh left-to-right sum over ``k`` equal
    values equals the ``k``-th sequential partial sum, so the mirror
    precomputes the partial-sum table once and tracks the window with a
    head index and a running integral whose update order matches
    ``UtilizationMonitor.observe`` operation for operation.
    """

    __slots__ = (
        "window_s",
        "dt_s",
        "_times",
        "_utils",
        "_head",
        "_integral",
        "_window_sums",
    )

    def __init__(self, window_s: float, dt_s: float, capacity: int):
        self.window_s = window_s
        self.dt_s = dt_s
        self._times: List[float] = []
        self._utils: List[float] = []
        self._head = 0
        self._integral = 0.0
        sums = plan_tick_times(capacity, dt_s)
        self._window_sums = sums.tolist()

    def observe(self, time_s: float, utilization_pct: float) -> None:
        """Record one ``dt_s``-long sample, evicting expired ones."""
        times = self._times
        utils = self._utils
        times.append(time_s)
        utils.append(utilization_pct)
        self._integral += utilization_pct * self.dt_s
        head = self._head
        window = self.window_s
        count = len(times)
        while head < count and time_s - times[head] >= window:
            self._integral -= utils[head] * self.dt_s
            head += 1
        self._head = head

    def state_dict(self) -> Dict[str, object]:
        """Mutable window state, for checkpointing."""
        return {
            "times": list(self._times),
            "utils": list(self._utils),
            "head": self._head,
            "integral": self._integral,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._times = [float(v) for v in state["times"]]
        self._utils = [float(v) for v in state["utils"]]
        self._head = int(state["head"])
        self._integral = float(state["integral"])

    def value(self) -> float:
        """Current windowed utilization estimate (0 before any sample)."""
        count = len(self._times) - self._head
        total_dt = self._window_sums[count]
        if total_dt <= 0.0:
            return 0.0
        value = self._integral / total_dt
        return min(100.0, max(0.0, value))


class SingleServerKernel:
    """Chunked integrator for one server, bit-exact with the scalar path.

    Construction captures the state of a prepared (cold-started)
    :class:`ServerSimulator` together with the whole run plan — tick
    times, LoadGen targets and instantaneous loads, the ambient series
    and the monitor warm-up — and preallocates one float64 column per
    trace field.  The runner then alternates controller polls with
    :meth:`integrate` calls over the ticks between polls.
    """

    def __init__(
        self,
        sim: ServerSimulator,
        loadgen: LoadGen,
        dt_s: float,
        steps: int,
        monitor_window_s: float,
        metrics=None,
    ):
        spec = sim.spec
        # Observability hook: counters are bound once here so the hot
        # integrate loop pays a single None check per chunk.  *metrics*
        # is a repro.obs.metrics.MetricsRegistry (kept untyped to avoid
        # importing obs into the kernel module).
        self._metric_ticks = None
        self._metric_chunks = None
        if metrics is not None:
            self._metric_ticks = metrics.counter(
                "repro_kernel_ticks_total",
                "Single-server kernel ticks integrated",
            )
            self._metric_chunks = metrics.counter(
                "repro_kernel_chunks_total",
                "Single-server kernel integrate() chunks",
            )
        self.spec = spec
        self.steps = steps
        self._dt = dt_s
        self._substeps, self._h = substep_schedule(dt_s)

        # ---- run plan -------------------------------------------------
        times = plan_tick_times(steps, dt_s)
        self._times = times
        self._times_pre = times[:steps]
        self._times_list = times.tolist()
        targets = loadgen.target_chunk(self._times_pre)
        instantaneous = loadgen.instantaneous_chunk(self._times_pre, targets)
        self._demand_list = instantaneous.tolist()
        inlet = sim.ambient.temperature_chunk(self._times_pre)
        bad = ~(np.isfinite(inlet) & (inlet >= -273.15))
        if np.any(bad):
            validate_temperature_c(float(inlet[int(np.argmax(bad))]), "inlet_c")
        self._inlet_list = inlet.tolist()

        # ---- trace columns -------------------------------------------
        self.columns: Dict[str, np.ndarray] = {
            name: np.empty(steps) for name in SINGLE_SERVER_TRACE_COLUMNS
        }
        self.columns["time_s"][:] = times[1:]
        self.columns["target_util_pct"][:] = targets
        self.columns["instantaneous_util_pct"][:] = instantaneous
        self.columns["power_board_w"].fill(spec.board_power_w)

        # ---- flattened spec parameters -------------------------------
        sockets = spec.sockets
        self._n_sockets = len(sockets)
        self._p_idle = [s.p_idle_w for s in sockets]
        self._k_act = [s.k_active_w_per_pct for s in sockets]
        self._leak_const = [s.leak_const_w for s in sockets]
        self._leak_k2 = [s.leak_k2_w for s in sockets]
        self._leak_k3 = [s.leak_k3_per_c for s in sockets]
        self._r_jh = [s.r_junction_heatsink_k_w for s in sockets]
        self._c_j = [s.c_junction_j_k for s in sockets]
        self._c_h = [s.c_heatsink_j_k for s in sockets]
        self._r_ha_ref = [s.r_heatsink_air_ref_k_w for s in sockets]
        self._rpm_ref_th = [s.rpm_ref_thermal for s in sockets]
        self._flow_exp = [s.flow_exponent for s in sockets]
        mem = spec.memory
        self._mem_idle = mem.p_idle_w
        self._mem_k = mem.k_active_w_per_pct
        self._mem_r_ref = mem.r_bank_air_ref_k_w
        self._mem_rpm_ref = mem.rpm_ref_thermal
        self._mem_flow_exp = mem.flow_exponent
        self._mem_c_bank = mem.c_bank_j_k
        self._preheat = mem.preheat_fraction
        fan = spec.fan
        self._fan_count = spec.fan_count
        self._rpm_min = fan.rpm_min
        self._rpm_max = fan.rpm_max
        self._fan_rpm_ref = fan.rpm_ref
        self._fan_power_ref = fan.power_at_ref_w
        self._fan_power_exp = fan.power_exponent
        self._cfm_ref = fan.cfm_at_ref
        self._max_delta = fan.slew_rpm_per_s * dt_s
        self._board = spec.board_power_w
        self._critical = spec.critical_temperature_c
        self._dvfs = spec.dvfs

        # ---- state handoff from the prepared simulator ----------------
        state = sim.thermal.state
        self._J = list(state.junction_c)
        self._H = list(state.heatsink_c)
        self._t_m = state.dimm_bank_c
        rpms = set(sim.fans.rpms)
        if len(rpms) != 1:
            raise ValueError(
                "the single-server kernel requires a uniform fan bank "
                "(the runner always commands all pairs together)"
            )
        self._rpm = rpms.pop()
        self._command = self._rpm
        self._pstate = sim.power_model.pstate_index
        self._refresh_pstate_scales()
        self._deficit = sim.work_deficit_pct_s
        self._leak_now = self._leakage_at(self._J)
        # persistent per-socket scratch, filled in place every tick so
        # the integrate loop never allocates (R003)
        self._active_buf = [0.0] * self._n_sockets
        self._rpm_cache_key: Optional[float] = None
        self._refresh_rpm_derived()

        # ---- sensors and monitor --------------------------------------
        self._temp_sensor = sim.temperature_sensor
        self._n_sensors = 2 * self._n_sockets
        # Injected sensor faults (repro.server.faults): the kernel
        # replays the scalar path's transform — after noise and
        # quantization, at the exact read time — so a fault window
        # opening mid-chunk takes effect at the correct tick, never the
        # next poll boundary.
        self._fault_sensors = sim.cpu_temp_fault_sensors
        self._any_faults = any(
            sensor.fault_count for sensor in self._fault_sensors
        )
        # The first RNG draws of a run are the tick-0 poll's sensor
        # read; later polls consume the tail of the previous chunk's
        # noise block (see integrate), keeping the stream order of the
        # per-tick scalar reads.
        if self._temp_sensor.spec.sigma > 0.0:
            self._pending_noise = self._temp_sensor.sample_noise(
                self._n_sensors
            ).tolist()
        else:
            self._pending_noise = [0.0] * self._n_sensors
        warmup = monitor_warmup_times(monitor_window_s, dt_s)
        self._monitor = _MonitorMirror(
            monitor_window_s, dt_s, steps + len(warmup)
        )
        for t in warmup.tolist():
            self._monitor.observe(t, 0.0)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _leakage_at(self, junctions: List[float]) -> List[float]:
        """Per-socket Eqn. (2) leakage via the scalar ``math.exp`` path."""
        return [
            leakage_power_w(
                self._leak_const[s],
                self._leak_k2[s],
                self._leak_k3[s],
                junctions[s],
            )
            for s in range(self._n_sockets)
        ]

    def _refresh_pstate_scales(self) -> None:
        dvfs = self._dvfs
        index = self._pstate
        self._freq_ratio = dvfs.frequency_ratio(index)
        self._static_scale = dvfs.static_power_scale(index)
        self._dynamic_scale = dvfs.dynamic_power_scale(index)

    def _refresh_rpm_derived(self) -> None:
        """Recompute everything that depends only on the rotor speed.

        Each quantity replicates its :class:`FanBank` /
        :class:`ThermalNetwork` counterpart operation for operation
        (per-fan values folded with ``sum()``-order addition, Python
        ``**`` for the affinity and convection laws).
        """
        rpm = self._rpm
        if rpm == self._rpm_cache_key:
            return
        count = self._fan_count
        mean_rpm = uniform_bank_total(rpm, count) / count
        self._mean_rpm = mean_rpm
        self._airflow = uniform_bank_total(
            self._cfm_ref * rpm / self._fan_rpm_ref, count
        )
        ratio = rpm / self._fan_rpm_ref
        self._fan_power = uniform_bank_total(
            self._fan_power_ref * ratio**self._fan_power_exp, count
        )
        capacity = airflow_heat_capacity_w_per_k(self._airflow)
        if capacity <= 0.0:
            raise ValueError("airflow must be positive to cool the server")
        self._capacity = capacity
        # the thermal network sees the *bank mean* rotor speed (which
        # differs from the per-fan value by 1 ulp for some floats —
        # sum(6 copies)/6 is not always exact), per ServerSimulator.step
        self._r_ma = convective_resistance_k_w(
            self._mem_r_ref, mean_rpm, self._mem_rpm_ref, self._mem_flow_exp
        )
        self._r_ha = [
            convective_resistance_k_w(
                self._r_ha_ref[s],
                mean_rpm,
                self._rpm_ref_th[s],
                self._flow_exp[s],
            )
            for s in range(self._n_sockets)
        ]
        self._rpm_cache_key = rpm

    # ------------------------------------------------------------------
    # controller-facing surface (poll boundaries)
    # ------------------------------------------------------------------
    def tick_time(self, tick: int) -> float:
        """Simulation time at the *start* of ``tick``."""
        return self._times_list[tick]

    def chunk_end(self, start: int, next_poll_s: float) -> int:
        """First tick at or past the poll deadline (capped at the end).

        Uses the same ``t >= next_poll - 1e-9`` predicate as the
        pre-kernel loop, evaluated against the identical accumulated
        tick times.
        """
        deadline = next_poll_s - POLL_EPS_S
        times = self._times_list
        steps = self.steps
        end = start + 1
        while end < steps and times[end] < deadline:
            end += 1
        return end

    def monitored_utilization(self) -> float:
        """The ``sar``-window utilization the controller observes."""
        return self._monitor.value()

    def poll_observation(self, time_s: float):
        """``(max, mean)`` of one noisy die-sensor read at *time_s*.

        Consumes the pre-drawn poll noise (same values the per-tick
        scalar ``Sensor.read`` calls would have drawn at this point in
        the stream) and reproduces ``max(measured)`` /
        ``float(np.mean(measured))`` — for fewer than 8 sensors numpy's
        reduction is the same left-to-right fold as the scalar code, so
        the fold is computed directly; wider sensor arrays go through
        ``np.mean`` itself.  Injected sensor faults transform each
        channel after noise and quantization, exactly as
        :meth:`ServerSimulator.measured_cpu_temperatures_c` applies
        them at this simulation time.
        """
        noise = self._pending_noise
        sensor = self._temp_sensor
        sigma = sensor.spec.sigma
        quantum = sensor.spec.quantum
        any_faults = self._any_faults
        fault_sensors = self._fault_sensors
        values: List[float] = []
        index = 0
        for t_j in self._J:
            for offset in (-0.5, 0.5):
                value = t_j + offset
                if sigma > 0.0:
                    value = value + noise[index]
                if quantum > 0.0:
                    value = round(value / quantum) * quantum
                if any_faults:
                    value = fault_sensors[index].transform(time_s, value)
                values.append(value)
                index += 1
        count = len(values)
        if count < 8:
            peak = values[0]
            acc = values[0]
            for value in values[1:]:
                if value > peak:
                    peak = value
                acc = acc + value
            return peak, acc / count
        array = np.array(values)
        return float(array.max()), float(np.mean(array))

    def set_fan_command(self, rpm: float) -> None:
        """Command all fan pairs to *rpm* (validated like ``FanModel``)."""
        validate_non_negative(rpm, "rpm")
        if not self._rpm_min <= rpm <= self._rpm_max:
            raise ValueError(
                f"rpm {rpm} outside supported range "
                f"[{self._rpm_min}, {self._rpm_max}]"
            )
        self._command = float(rpm)

    def set_pstate(self, index: int) -> None:
        """Command a p-state (validated against the spec's ladder)."""
        self._dvfs.state(index)  # raises IndexError if out of range
        self._pstate = index
        self._refresh_pstate_scales()

    @property
    def work_deficit_pct_s(self) -> float:
        """Accumulated demanded-but-unexecuted work, %·s."""
        return self._deficit

    @property
    def rpm_command(self) -> float:
        """The currently commanded fan speed."""
        return self._command

    # ------------------------------------------------------------------
    # chunk integration
    # ------------------------------------------------------------------
    def integrate(self, start: int, end: int) -> None:
        """Advance ticks ``start .. end-1`` and record their trace rows.

        The scalar loop below is
        :meth:`repro.server.server.ServerSimulator.step` +
        :meth:`repro.server.thermal.ThermalNetwork.step` +
        :meth:`repro.server.power.PowerModel.breakdown` inlined, with
        identical operation order; the chunk pre/post-processing uses
        only elementwise-stable numpy operations.
        """
        columns = self.columns
        columns["rpm_command"][start:end] = self._command
        columns["pstate_index"][start:end] = float(self._pstate)

        # one RNG call covers the chunk's per-tick sensor reads plus
        # the poll read that follows the chunk (stream order: record
        # draws tick-major, then the next poll's draws; a trailing
        # unused block at run end is unobservable)
        n_sensors = self._n_sensors
        sensor = self._temp_sensor
        sigma = sensor.spec.sigma
        quantum = sensor.spec.quantum
        if sigma > 0.0:
            noise_flat = sensor.sample_noise(
                (end - start + 1) * n_sensors
            ).tolist()
        else:
            noise_flat = None

        # locals for the hot loop
        demand_list = self._demand_list
        inlet_list = self._inlet_list
        times_list = self._times_list
        monitor_observe = self._monitor.observe
        monitor_value = self._monitor.value
        col_executed = columns["executed_util_pct"]
        col_mem = columns["power_memory_w"]
        col_monitored = columns["monitored_util_pct"]
        col_cpu0 = columns["cpu0_junction_c"]
        col_cpu1 = columns["cpu1_junction_c"]
        col_measured = columns["measured_max_cpu_c"]
        col_maxj = columns["max_junction_c"]
        col_dimm = columns["dimm_bank_c"]
        col_mean_rpm = columns["mean_rpm"]
        col_total = columns["power_total_w"]
        col_fan = columns["power_fan_w"]
        col_leak = columns["power_leakage_w"]
        col_active = columns["power_active_w"]
        col_deficit = columns["work_deficit_pct_s"]
        cpu1_index = min(1, self._n_sockets - 1)
        freq_ratio = self._freq_ratio
        mem_idle = self._mem_idle
        mem_k = self._mem_k
        J = self._J
        H = self._H
        t_m = self._t_m
        leak_now = self._leak_now
        rpm = self._rpm
        command = self._command
        max_delta = self._max_delta
        dt = self._dt
        h = self._h
        substeps = self._substeps
        n_sockets = self._n_sockets
        socket_range = range(n_sockets)
        p_idle = self._p_idle
        k_act = self._k_act
        static_scale = self._static_scale
        dynamic_scale = self._dynamic_scale
        leak_const = self._leak_const
        leak_k2 = self._leak_k2
        leak_k3 = self._leak_k3
        r_jh = self._r_jh
        c_j = self._c_j
        c_h = self._c_h
        preheat = self._preheat
        mem_c_bank = self._mem_c_bank
        board = self._board
        critical = self._critical
        deficit = self._deficit
        leak_max = LEAKAGE_EVAL_MAX_C

        mean_rpm = self._mean_rpm
        fan_power = self._fan_power
        capacity = self._capacity
        r_ma = self._r_ma
        r_ha = self._r_ha
        any_faults = self._any_faults
        fault_sensors = self._fault_sensors
        active = self._active_buf

        for tick in range(start, end):
            # fan slew toward the command (FanModel.step semantics)
            if rpm != command:
                delta = command - rpm
                if delta > max_delta:
                    delta = max_delta
                elif delta < -max_delta:
                    delta = -max_delta
                rpm += delta
                self._rpm = rpm
                self._refresh_rpm_derived()
                mean_rpm = self._mean_rpm
                fan_power = self._fan_power
                capacity = self._capacity
                r_ma = self._r_ma
                r_ha = self._r_ha

            # DVFS stretch (DvfsSpec.executed_utilization_pct /
            # work_deficit_pct, scalar)
            stretched = demand_list[tick] / freq_ratio
            if stretched <= 100.0:
                u = stretched
                rate = 0.0
            else:
                u = 100.0
                rate = (stretched - 100.0) * freq_ratio
            mem_power = mem_idle + mem_k * u
            inlet = inlet_list[tick]
            cpu_inlet = inlet + preheat * mem_power / capacity
            for s in socket_range:
                active[s] = (
                    p_idle[s] * static_scale + k_act[s] * u * dynamic_scale
                )

            for sub in range(substeps):
                if sub:
                    # every entry is rewritten before the physics loop
                    # below reads it, so in-place reuse of the carried
                    # buffer is bit-identical to a fresh list
                    for s in socket_range:
                        leak_now[s] = leak_const[s] + leak_k2[s] * exp(
                            leak_k3[s]
                            * (J[s] if J[s] < leak_max else leak_max)
                        )
                for s in socket_range:
                    t_j = J[s]
                    t_h = H[s]
                    heat_in = active[s] + leak_now[s]
                    q_jh = (t_j - t_h) / r_jh[s]
                    q_ha = (t_h - cpu_inlet) / r_ha[s]
                    J[s] = t_j + h * (heat_in - q_jh) / c_j[s]
                    H[s] = t_h + h * (q_jh - q_ha) / c_h[s]
                q_ma = (t_m - inlet) / r_ma
                t_m = t_m + h * (mem_power - q_ma) / mem_c_bank

            # post-step snapshot (PowerBreakdown fold order)
            for s in socket_range:
                leak_now[s] = leak_const[s] + leak_k2[s] * exp(
                    leak_k3[s] * (J[s] if J[s] < leak_max else leak_max)
                )
            active_total = 0.0
            for s in socket_range:
                active_total += active[s]
            leak_total = 0.0
            for s in socket_range:
                leak_total += leak_now[s]
            total = board + mem_power + active_total + leak_total + fan_power

            deficit += rate * dt

            max_j = J[0]
            for s in socket_range:
                if J[s] > max_j:
                    max_j = J[s]
            if max_j > critical:
                self._store_state(rpm, t_m, leak_now, deficit)
                raise CriticalTemperatureError(
                    f"junction reached {max_j:.1f} degC at "
                    f"t={times_list[tick + 1]:.0f}s (critical threshold "
                    f"{critical} degC)"
                )

            # noisy die-sensor read for this tick (Sensor.read scalar
            # arithmetic, noise from the chunk's pre-drawn block);
            # injected faults transform after noise + quantization at
            # the post-step time, like measured_cpu_temperatures_c
            noise_index = (tick - start) * n_sensors
            read_time = times_list[tick + 1]
            sensor_index = 0
            peak = None
            for s in socket_range:
                t_j = J[s]
                for offset in (-0.5, 0.5):
                    value = t_j + offset
                    if noise_flat is not None:
                        value = value + noise_flat[noise_index]
                        noise_index += 1
                    if quantum > 0.0:
                        value = round(value / quantum) * quantum
                    if any_faults:
                        value = fault_sensors[sensor_index].transform(
                            read_time, value
                        )
                        sensor_index += 1
                    if peak is None or value > peak:
                        peak = value

            monitor_observe(times_list[tick], u)
            col_executed[tick] = u
            col_mem[tick] = mem_power
            col_monitored[tick] = monitor_value()
            col_cpu0[tick] = J[0]
            col_cpu1[tick] = J[cpu1_index]
            col_measured[tick] = peak
            col_maxj[tick] = max_j
            col_dimm[tick] = t_m
            col_mean_rpm[tick] = mean_rpm
            col_total[tick] = total
            col_fan[tick] = fan_power
            col_leak[tick] = leak_total
            col_active[tick] = active_total
            col_deficit[tick] = deficit

        self._store_state(rpm, t_m, leak_now, deficit)
        if noise_flat is not None:
            self._pending_noise = noise_flat[(end - start) * n_sensors :]
        if self._metric_ticks is not None:
            self._metric_ticks.inc(end - start)
            self._metric_chunks.inc()

    def _store_state(self, rpm, t_m, leak_now, deficit) -> None:
        self._rpm = rpm
        self._t_m = t_m
        self._leak_now = leak_now
        self._deficit = deficit

    def finalize_columns(self) -> Dict[str, np.ndarray]:
        """The completed trace columns (all rows written)."""
        return self.columns

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_arrays(self, tick: int) -> Dict[str, np.ndarray]:
        """Array state after ``tick`` completed ticks, for an ``.npz``."""
        monitor = self._monitor.state_dict()
        state = {
            "junction_c": np.array(self._J),
            "heatsink_c": np.array(self._H),
            "dimm_bank_c": np.array(self._t_m),
            "rpm": np.array(self._rpm),
            "rpm_command": np.array(self._command),
            "pstate": np.array(self._pstate),
            "deficit": np.array(self._deficit),
            "leak_now": np.array(self._leak_now),
            "pending_noise": np.array(self._pending_noise),
            "monitor_times": np.array(monitor["times"]),
            "monitor_utils": np.array(monitor["utils"]),
            "monitor_head": np.array(monitor["head"]),
            "monitor_integral": np.array(monitor["integral"]),
        }
        for name, column in self.columns.items():
            state[f"col_{name}"] = column[:tick].copy()
        return state

    def state_objects(self) -> Dict[str, object]:
        """Pickleable control state: the sensor RNG + fault channels."""
        rng_state = None
        if self._temp_sensor.spec.sigma > 0.0:
            rng_state = self._temp_sensor.rng.bit_generator.state
        return {
            "rng_state": rng_state,
            "fault_sensors": self._fault_sensors,
        }

    def load_state(
        self,
        tick: int,
        arrays: Dict[str, np.ndarray],
        objects: Dict[str, object],
    ) -> None:
        """Restore a :meth:`state_arrays`/:meth:`state_objects` snapshot.

        Derived caches are rebuilt from the restored state by the same
        pure refresh helpers ``__init__`` uses, so the resumed kernel's
        next chunk is bit-identical to one that never stopped.
        """
        self._J = [float(v) for v in arrays["junction_c"]]
        self._H = [float(v) for v in arrays["heatsink_c"]]
        self._t_m = float(arrays["dimm_bank_c"])
        self._rpm = float(arrays["rpm"])
        self._command = float(arrays["rpm_command"])
        self._pstate = int(arrays["pstate"])
        self._deficit = float(arrays["deficit"])
        self._leak_now = [float(v) for v in arrays["leak_now"]]
        self._pending_noise = [float(v) for v in arrays["pending_noise"]]
        self._refresh_pstate_scales()
        self._rpm_cache_key = None
        self._refresh_rpm_derived()
        self._monitor.load_state(
            {
                "times": arrays["monitor_times"].tolist(),
                "utils": arrays["monitor_utils"].tolist(),
                "head": int(arrays["monitor_head"]),
                "integral": float(arrays["monitor_integral"]),
            }
        )
        rng_state = objects.get("rng_state")
        if rng_state is not None:
            self._temp_sensor.rng.bit_generator.state = rng_state
        fault_sensors = objects.get("fault_sensors")
        if fault_sensors is not None:
            self._fault_sensors = list(fault_sensors)
            self._any_faults = any(
                sensor.fault_count for sensor in self._fault_sensors
            )
        for name, column in self.columns.items():
            column[:tick] = arrays[f"col_{name}"]


#: Cold-start fan settle horizon, seconds (matches the paper protocol's
#: ">= 10 minutes idle" phase; long enough that any rotor reaches the
#: commanded speed exactly).
COLD_START_SETTLE_S = 600.0


class FleetVectorKernel:
    """Numpy-batched physics for a homogeneous-socket-count fleet.

    Per-server parameters are extracted once into flat arrays; the
    mutable state is a set of persistent ``(N,)`` / ``(N, S)`` arrays
    that :meth:`step_into` advances in place.
    """

    def __init__(self, fleet, metrics=None):
        # Observability hook, bound once (see SingleServerKernel).
        self._metric_steps = None
        if metrics is not None:
            self._metric_steps = metrics.counter(
                "repro_kernel_fleet_steps_total",
                "Fleet vector kernel physics steps",
            )
        servers = fleet.servers
        socket_counts = {spec.socket_count for spec in servers}
        if len(socket_counts) != 1:
            raise ValueError(
                "the vector backend needs every server to have the same "
                f"socket count (got {sorted(socket_counts)}); use "
                "backend='reference' for heterogeneous fleets"
            )
        n = len(servers)

        def per_server(getter) -> np.ndarray:
            return np.array([float(getter(s)) for s in servers])

        def per_socket(getter) -> np.ndarray:
            return np.array(
                [[float(getter(sock)) for sock in s.sockets] for s in servers]
            )

        # fan bank (uniform command across the bank, as the paper runs)
        self.fan_count = per_server(lambda s: s.fan_count)
        self.rpm_min = per_server(lambda s: s.fan.rpm_min)
        self.rpm_max = per_server(lambda s: s.fan.rpm_max)
        self.fan_rpm_ref = per_server(lambda s: s.fan.rpm_ref)
        self.fan_power_ref_w = per_server(lambda s: s.fan.power_at_ref_w)
        self.fan_power_exp = per_server(lambda s: s.fan.power_exponent)
        self.fan_cfm_ref = per_server(lambda s: s.fan.cfm_at_ref)
        self.fan_slew = per_server(lambda s: s.fan.slew_rpm_per_s)
        # board / memory
        self.board_w = per_server(lambda s: s.board_power_w)
        self.mem_idle_w = per_server(lambda s: s.memory.p_idle_w)
        self.mem_k_w_pct = per_server(lambda s: s.memory.k_active_w_per_pct)
        self.mem_r_ref = per_server(lambda s: s.memory.r_bank_air_ref_k_w)
        self.mem_rpm_ref = per_server(lambda s: s.memory.rpm_ref_thermal)
        self.mem_flow_exp = per_server(lambda s: s.memory.flow_exponent)
        self.mem_c_bank = per_server(lambda s: s.memory.c_bank_j_k)
        self.preheat_frac = per_server(lambda s: s.memory.preheat_fraction)
        self.critical_c = per_server(lambda s: s.critical_temperature_c)
        # sockets, (server, socket)
        self.sock_idle_w = per_socket(lambda k: k.p_idle_w)
        self.sock_k_w_pct = per_socket(lambda k: k.k_active_w_per_pct)
        self.leak_const_w = per_socket(lambda k: k.leak_const_w)
        self.leak_k2_w = per_socket(lambda k: k.leak_k2_w)
        self.leak_k3_per_c = per_socket(lambda k: k.leak_k3_per_c)
        self.r_jh = per_socket(lambda k: k.r_junction_heatsink_k_w)
        self.c_j = per_socket(lambda k: k.c_junction_j_k)
        self.r_ha_ref = per_socket(lambda k: k.r_heatsink_air_ref_k_w)
        self.rpm_ref_thermal = per_socket(lambda k: k.rpm_ref_thermal)
        self.flow_exp = per_socket(lambda k: k.flow_exponent)
        self.c_h = per_socket(lambda k: k.c_heatsink_j_k)

        initial = fleet.supply_temperatures_c(0.0)
        self.t_j = np.repeat(initial[:, None], self.sock_idle_w.shape[1], 1)
        self.t_h = self.t_j.copy()
        self.t_m = initial.copy()
        self.rpm = per_server(lambda s: s.default_fan_rpm)

        # DVFS: per-server p-state plus the three scaling factors the
        # scalar power model derives from it, kept as flat arrays so
        # the per-tick stretch/power math stays fully batched.
        self._fleet = fleet
        self._dvfs = [spec.dvfs for spec in servers]
        self.pstate = np.zeros(n, dtype=int)
        self.freq_ratio = np.ones(n)
        self.static_scale = np.ones(n)
        self.dynamic_scale = np.ones(n)

        # step caches (every cached value is bit-identical to
        # recomputing it, because its inputs are unchanged between
        # invalidations)
        self._fan_flow_scale = self.fan_count * self.fan_cfm_ref
        self._fan_power_scale = self.fan_count * self.fan_power_ref_w
        self._rpm_derived = None
        self._active_static = None
        self._stretch_trivial = True
        self._zero_deficit = np.zeros(n)

    def set_pstate(self, server_index: int, pstate_index: int) -> None:
        """Switch one server's sockets to *pstate_index* (validated)."""
        dvfs = self._dvfs[server_index]
        dvfs.state(pstate_index)  # raises IndexError if out of range
        self.pstate[server_index] = pstate_index
        self.freq_ratio[server_index] = dvfs.frequency_ratio(pstate_index)
        self.static_scale[server_index] = dvfs.static_power_scale(pstate_index)
        self.dynamic_scale[server_index] = dvfs.dynamic_power_scale(
            pstate_index
        )
        self._active_static = None
        self._stretch_trivial = bool((self.freq_ratio == 1.0).all())

    def force_cold_state(self, cold_start_rpm: float) -> None:
        """Settle every server at the idle equilibrium for *cold_start_rpm*.

        Mirrors the experiment protocol's pre-``t = 0`` phase by
        settling one real :class:`ServerSimulator` per server (init
        only — the hot path stays batched), so a cold-started fleet
        run is bit-compatible with ``run_experiment``.
        """
        supply = self._fleet.supply_temperatures_c(0.0)
        for i, spec in enumerate(self._fleet.servers):
            sim = ServerSimulator(
                spec=spec,
                ambient=ConstantAmbient(float(supply[i])),
                trip_on_critical=False,
            )
            sim.set_fan_rpm(cold_start_rpm)
            sim.fans.step(dt_s=COLD_START_SETTLE_S)
            sim.settle_to_steady_state(utilization_pct=0.0)
            self.t_j[i] = sim.thermal.state.junction_c
            self.t_h[i] = sim.thermal.state.heatsink_c
            self.t_m[i] = sim.thermal.state.dimm_bank_c
            self.rpm[i] = sim.fans.mean_rpm
        self._rpm_derived = None

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    #: The complete mutable state surface of the batched physics.
    STATE_KEYS = (
        "t_j",
        "t_h",
        "t_m",
        "rpm",
        "pstate",
        "freq_ratio",
        "static_scale",
        "dynamic_scale",
    )

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies of every mutable array, for checkpointing."""
        return {key: getattr(self, key).copy() for key in self.STATE_KEYS}

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output and drop derived caches.

        The dropped caches (``_rpm_derived``, ``_active_static``) are
        recomputed by :meth:`step_into` from the restored arrays, and
        recomputation is bit-identical to the cached values (see the
        cache comment in ``__init__``), so a restored kernel continues
        exactly as the one that was checkpointed.
        """
        for key in self.STATE_KEYS:
            target = getattr(self, key)
            value = np.asarray(state[key])
            if value.shape != target.shape:
                raise ValueError(
                    f"checkpointed kernel array {key!r} has shape "
                    f"{value.shape}, expected {target.shape}"
                )
            target[...] = value
        self._rpm_derived = None
        self._active_static = None
        self._stretch_trivial = bool((self.freq_ratio == 1.0).all())

    def _leakage(self, t_j: np.ndarray) -> np.ndarray:
        return leakage_power_w(
            self.leak_const_w, self.leak_k2_w, self.leak_k3_per_c, t_j
        )

    def leakage_slope_w_per_c(self) -> np.ndarray:
        """Per-server ``dP_leak/dT_j`` summed over sockets, W/°C."""
        return leakage_slope_w_per_c(
            self.leak_k2_w, self.leak_k3_per_c, self.t_j
        ).sum(axis=1)

    def mean_junction_c(self) -> np.ndarray:
        """Per-server mean junction temperature, °C."""
        return self.t_j.mean(axis=1)

    # ------------------------------------------------------------------
    # kernelized fast path
    # ------------------------------------------------------------------
    def step_into(
        self,
        dt_s: float,
        substeps: int,
        h: float,
        demand_pct: np.ndarray,
        rpm_command: np.ndarray,
        inlet_c: np.ndarray,
        out_power: np.ndarray,
        out_fan: np.ndarray,
        out_junction: np.ndarray,
        out_util: np.ndarray,
        out_rpm: np.ndarray,
        out_pstate: np.ndarray,
        out_deficit: np.ndarray,
    ):
        """One tick written into preallocated trace rows.

        Fan slew, then airflow and fan power at the new speed, the DVFS
        stretch, the RC thermal substeps and the power decomposition,
        in the single-server simulator's order.  Skips the per-call
        finiteness checks inside :func:`convective_resistance_k_w` /
        :func:`airflow_heat_capacity_w_per_k` (inputs are validated at
        command time; a single positivity guard preserves the zero-rpm
        error), allocates no per-tick state object, and caches every
        quantity whose inputs did not change since the previous tick —
        the rotor-speed-derived resistances/airflow/fan power while the
        fans are settled on their commands, the static-power term while
        no p-state changes, and the trivial DVFS stretch while every
        server runs nominal frequency.  Cached or not, the values are
        bit-identical to recomputing them.

        Returns ``(air_capacity_w_per_k, leakage_w)`` — the stream heat
        capacity (for the exhaust-rise recirculation step) and the
        per-server leakage (for scheduler views).
        """
        rpm = self.rpm
        derived = self._rpm_derived
        if derived is None or not np.array_equal(rpm_command, rpm):
            max_delta = self.fan_slew * dt_s
            rpm += np.clip(rpm_command - rpm, -max_delta, max_delta)
            if not (rpm > 0.0).all():
                raise ValueError("rpm must be positive for forced convection")
            airflow = self._fan_flow_scale * rpm / self.fan_rpm_ref
            fan_power = (
                self._fan_power_scale
                * (rpm / self.fan_rpm_ref) ** self.fan_power_exp
            )
            capacity = (
                airflow
                * CFM_TO_M3_S
                * AIR_DENSITY_KG_M3
                * AIR_SPECIFIC_HEAT_J_KG_K
            )
            r_ma = (
                self.mem_r_ref * (self.mem_rpm_ref / rpm) ** self.mem_flow_exp
            )
            r_ha = (
                self.r_ha_ref
                * (self.rpm_ref_thermal / rpm[:, None]) ** self.flow_exp
            )
            derived = self._rpm_derived = (
                airflow,
                fan_power,
                capacity,
                r_ma,
                r_ha,
            )
        else:
            airflow, fan_power, capacity, r_ma, r_ha = derived

        if self._stretch_trivial:
            # every server at nominal frequency: the stretch divides by
            # 1.0 (exact) and allocations are capped at 100%, so
            # executed == demanded and the deficit is exactly zero
            u = demand_pct
            deficit = self._zero_deficit
        else:
            stretched = demand_pct / self.freq_ratio
            u = np.minimum(100.0, stretched)
            deficit = np.where(
                stretched <= 100.0, 0.0, (stretched - 100.0) * self.freq_ratio
            )

        mem_power = self.mem_idle_w + self.mem_k_w_pct * u
        cpu_inlet = inlet_c + self.preheat_frac * mem_power / capacity

        active_static = self._active_static
        if active_static is None:
            active_static = self._active_static = (
                self.sock_idle_w * self.static_scale[:, None]
            )
        active = (
            active_static
            + self.sock_k_w_pct * u[:, None] * self.dynamic_scale[:, None]
        )
        t_j = self.t_j
        t_h = self.t_h
        cpu_inlet_col = cpu_inlet[:, None]
        for _ in range(substeps):
            heat_in = active + self._leakage(t_j)
            q_jh = (t_j - t_h) / self.r_jh
            q_ha = (t_h - cpu_inlet_col) / r_ha
            t_j += h * (heat_in - q_jh) / self.c_j
            t_h += h * (q_jh - q_ha) / self.c_h
            q_ma = (self.t_m - inlet_c) / r_ma
            self.t_m += h * (mem_power - q_ma) / self.mem_c_bank

        leakage = self._leakage(t_j)
        leakage_w = leakage.sum(axis=1)
        out_power[...] = (
            self.board_w + mem_power + active.sum(axis=1) + leakage_w + fan_power
        )
        out_fan[...] = fan_power
        out_junction[...] = t_j.max(axis=1)
        out_util[...] = u
        out_rpm[...] = rpm
        out_pstate[...] = self.pstate
        out_deficit[...] = deficit
        if self._metric_steps is not None:
            self._metric_steps.inc()
        return capacity, leakage_w

    # ------------------------------------------------------------------
    # shared surface
    # ------------------------------------------------------------------
    def check_critical(self, trip: bool) -> None:
        """Raise if any junction exceeds its critical threshold."""
        if not trip:
            return
        hottest = self.t_j.max(axis=1)
        over = np.nonzero(hottest > self.critical_c)[0]
        if over.size:
            i = int(over[0])
            raise CriticalTemperatureError(
                f"server {i} junction reached {hottest[i]:.1f} degC "
                f"(critical threshold {self.critical_c[i]:.1f} degC)"
            )

    def initial_views_data(self):
        """``(max_junction_c, leakage_w)`` before the first tick."""
        return self.t_j.max(axis=1), self._leakage(self.t_j).sum(axis=1)
