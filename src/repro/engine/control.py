"""The per-tick halves shared by every fleet backend.

:class:`~repro.fleet.engine.FleetEngine` has one tick loop.  The loop
is the coordinator: it evaluates the tick prologue, places demand,
steps the server slices, records the loop-owned trace columns and
seals checkpoint cuts.  This module holds the parts of a tick that
the loop and the slices share:

* :class:`TickInputs` — the tick prologue: aggregate demand, CRAC
  supply (series plus fault excursions) and the recirculated inlet;
* :class:`FleetSlice` — the per-slice half of a tick over servers
  ``[lo, hi)``: the controller poll, the fan cap, the physics step,
  the row write, the summary publish and the trip flag;
* :class:`FleetSummary` — the O(N) post-step summary rows the slices
  publish and the loop places the next tick from, plus the trip flags
  behind the one critical-trip rule;
* :class:`InProcessSlices` — the slices stepped one after another in
  this process (``vector``, ``reference`` and ``sharded`` inline).

``vector`` and ``reference`` run one slice over ``[0, N)``; each
``sharded`` shard runs one over its ``[lo, hi)``, in this process or
in a forked worker (:mod:`repro.engine.sharded`).  Placement with
outage attribution is :meth:`repro.fleet.scheduler.FleetScheduler.place`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controllers.base import (
    POLL_EPS_S,
    advance_poll_clock,
    poll_controller,
    start_controller,
)
from repro.engine.checkpoint import (
    CheckpointError,
    load_arrays,
    load_pickle,
    save_arrays,
    save_pickle,
)
from repro.engine.kernel import FleetVectorKernel, plan_tick_times
from repro.server.server import CriticalTemperatureError
from repro.server.thermal import substep_schedule


class TickInputs:
    """Per-tick demand total, CRAC supply and inlet of one run.

    Profile-backed demand and CRAC supply series are evaluated once for
    the whole horizon (elementwise-stable, so identical to per-tick
    evaluation); dynamic workloads (queue-backed) are asked tick by
    tick, before the tick's physics step.  With no recirculation the
    coupling product is skipped: the offsets are an exact zero vector.
    """

    def __init__(
        self, fleet: Any, workload: Any, plan: Any, steps: int, dt_s: float
    ) -> None:
        n = fleet.server_count
        times_pre = plan_tick_times(steps, dt_s)[:steps]
        #: Start-of-tick simulation times, s.
        self.times_list: List[float] = times_pre.tolist()
        self.workload = workload
        self.totals_list: Optional[List[float]] = None
        if not workload.dynamic:
            self.totals_list = (
                workload.profile.utilization_chunk(times_pre)
                * workload.server_count
            ).tolist()
        self.plan = plan
        self.coupling = fleet.recirculation
        self.zero_offsets = np.zeros(n)
        self.supply_base = fleet.supply_temperatures_c(0.0)
        self.supply_matrix: Optional[np.ndarray] = None
        if any(rack.crac is not None for rack in fleet.racks):
            self.supply_matrix = np.empty((steps, n))
            for column, model in enumerate(fleet.supply_models()):
                self.supply_matrix[:, column] = model.temperature_chunk(
                    times_pre
                )

    def demand_total(self, tick: int) -> float:
        """Aggregate demand of ``tick``, single-server percent."""
        if self.totals_list is not None:
            return self.totals_list[tick]
        return self.workload.total_demand_pct(self.times_list[tick])

    def inlet(self, tick: int, exhaust_rise: np.ndarray) -> np.ndarray:
        """``(supply + excursion) + recirculation`` per server, °C."""
        if self.supply_matrix is not None:
            supply = self.supply_matrix[tick]
        else:
            supply = self.supply_base
        plan = self.plan
        if plan is not None and plan.has_excursions:
            supply = supply + plan.supply_delta[tick]
        if self.coupling is None:
            return supply + self.zero_offsets
        return supply + self.coupling @ exhaust_rise


class FleetSummary:
    """Post-step summary rows of every server, plus the trip flags.

    Each slice publishes its rows after stepping; the loop places the
    next tick from the full-width arrays.  Subclasses may back the
    arrays with shared memory by overriding :meth:`_f64` / :meth:`_i64`
    (see :class:`repro.engine.sharded._SharedBlock`).
    """

    #: The arrays a checkpoint cut carries.
    ARRAYS = (
        "exhaust_rise",
        "executed",
        "max_junction",
        "leakage",
        "slope",
        "pstate",
    )

    def __init__(self, n: int, slice_count: int) -> None:
        #: Exhaust temperature rise ``P / (m_dot c_p)``, °C.
        self.exhaust_rise = self._f64(n)
        #: Executed utilization, %.
        self.executed = self._f64(n)
        #: Hottest junction, °C.
        self.max_junction = self._f64(n)
        #: Whole-CPU leakage power, W.
        self.leakage = self._f64(n)
        #: Marginal leakage cost ``dP_leak/dT_j``, W/°C.
        self.slope = self._f64(n)
        #: Active p-state.
        self.pstate = self._i64(n)
        #: Per-slice first over-threshold server (-1 = none), its
        #: junction and its critical threshold.
        self.trip_server = self._i64(slice_count)
        self.trip_server[:] = -1
        self.trip_temp = self._f64(slice_count)
        self.trip_threshold = self._f64(slice_count)

    def _f64(self, size: int) -> np.ndarray:
        return np.zeros(size)

    def _i64(self, size: int) -> np.ndarray:
        return np.zeros(size, dtype=np.int64)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the summary rows, for a checkpoint cut."""
        return {name: np.array(getattr(self, name)) for name in self.ARRAYS}

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output."""
        for name in self.ARRAYS:
            getattr(self, name)[:] = state[name]

    def raise_if_tripped(self) -> None:
        """The trip rule: raise for the first server over its threshold.

        Slices cover contiguous ascending server ranges, so the first
        slice with a flag holds the first tripped server in fleet index
        order.
        """
        hit = np.nonzero(self.trip_server >= 0)[0]
        if not hit.size:
            return
        k = int(hit[0])
        raise CriticalTemperatureError(
            f"server {int(self.trip_server[k])} junction reached "
            f"{self.trip_temp[k]:.1f} degC (critical threshold "
            f"{self.trip_threshold[k]:.1f} degC)"
        )


class FleetSlice:
    """The per-slice half of one tick over servers ``[lo, hi)``.

    Owns the slice's physics (a :class:`FleetVectorKernel` or the
    ``reference`` simulators), controllers, fan commands and poll
    clocks, and its rows of the per-server trace columns.  Each
    controller is polled on its own cadence (:func:`poll_controller`)
    with its server's hottest and mean junction and previous-tick
    executed utilization; an injected sensor fault transforms the
    observation first, and a dropped-out (NaN) reading makes the BMC
    hold the last fan and p-state commands while the poll clock still
    advances.  Commands are validated against the server's spec and
    reported with the global server index.
    """

    def __init__(
        self,
        index: int,
        lo: int,
        fleet: Any,
        physics: Any,
        controllers: Sequence[Any],
        rows: Any,
        summary: FleetSummary,
        plan: Any,
        dt_s: float,
        steps: int,
        times: List[float],
        trip_on_critical: bool,
        metrics: Any = None,
    ) -> None:
        width = len(controllers)
        self.index = index
        self.lo = lo
        self.hi = hi = lo + width
        self.fleet = fleet
        self.physics = physics
        self.controllers = list(controllers)
        #: The slice's trace rows (a :class:`~repro.telemetry.segments.TraceRows`).
        self.rows = rows
        self.summary = summary
        self.plan = plan
        self.dt_s = dt_s
        self.substeps, self.h = substep_schedule(dt_s)
        self.steps = steps
        #: Start-of-tick simulation times, s.
        self.times = times
        self.trip_on_critical = trip_on_critical
        #: Current fan command per server, RPM.
        self.rpm_command = np.empty(width)
        self.next_poll = np.zeros(width)
        self.next_poll_due = 0.0
        # the slice's views of the published summary rows
        self._exhaust_rise = summary.exhaust_rise[lo:hi]
        self._executed = summary.executed[lo:hi]
        self._max_junction = summary.max_junction[lo:hi]
        self._leakage = summary.leakage[lo:hi]
        self._slope = summary.slope[lo:hi]
        self._pstate = summary.pstate[lo:hi]
        self._timers = None
        if metrics is not None:
            self._timers = (
                metrics.timer(
                    "repro_fleet_control_poll",
                    "Controller polls (fan + p-state decisions)",
                ),
                metrics.timer(
                    "repro_fleet_thermal_step",
                    "Physics step (RC substeps + power)",
                ),
            )

    @property
    def _payload(self) -> str:
        return f"slice-{self.index:04d}"

    def start(self) -> None:
        """Fresh run: reset the controllers, publish the initial rows.

        Executed utilization, p-state and exhaust rise stay zero until
        the first step.
        """
        physics = self.physics
        rpm = physics.rpm
        for li, controller in enumerate(self.controllers):
            self.rpm_command[li] = self._validated_command(
                li, start_controller(controller, float(rpm[li]))
            )
        max_junction_c, leakage_w = physics.initial_summary()
        self._max_junction[:] = max_junction_c
        self._leakage[:] = leakage_w
        self._slope[:] = physics.leakage_slope_w_per_c()

    def _validated_command(self, li: int, rpm: float) -> float:
        index = self.lo + int(li)
        fan = self.fleet.servers[index].fan
        if not fan.rpm_min <= rpm <= fan.rpm_max:
            raise ValueError(
                f"server {index}: rpm {rpm} outside supported range "
                f"[{fan.rpm_min}, {fan.rpm_max}]"
            )
        return float(rpm)

    def _validated_pstate(self, li: int, pstate: int) -> int:
        index = self.lo + int(li)
        ladder = self.fleet.servers[index].dvfs
        if not 0 <= pstate < len(ladder):
            raise ValueError(
                f"server {index}: p-state {pstate} outside the "
                f"{len(ladder)}-state ladder"
            )
        return int(pstate)

    def step(
        self, tick: int, inlet: np.ndarray, allocations: np.ndarray
    ) -> None:
        """Poll, cap, step, write and publish the slice's ``tick``.

        *inlet* and *allocations* are full-width; the slice reads its
        own ``[lo, hi)``.
        """
        timers = self._timers
        if timers is not None:
            t0 = perf_counter()
        self.poll(self.times[tick])
        if timers is not None:
            timers[0].add(perf_counter() - t0)
            t0 = perf_counter()
        lo, hi = self.lo, self.hi
        plan = self.plan
        # a degraded fan bank caps the achievable rotor speed below the
        # controller's command (the command itself is untouched)
        if plan is not None and plan.has_fan_faults:
            rpm = np.minimum(self.rpm_command, plan.rpm_cap[tick][lo:hi])
        else:
            rpm = self.rpm_command
        rows = self.rows
        r = tick - rows.start
        out = rows.buffers
        power = out["power"][r]
        junction = out["junction"][r]
        util = out["util"][r]
        pstate = out["pstate"][r]
        physics = self.physics
        air_capacity, leakage_w = physics.step_into(
            self.dt_s,
            self.substeps,
            self.h,
            allocations[lo:hi],
            rpm,
            inlet[lo:hi],
            power,
            out["fan"][r],
            junction,
            util,
            out["rpm"][r],
            pstate,
            out["deficit"][r],
        )
        # publish the rows the loop places the next tick from; the
        # exhaust rise P / (m_dot c_p) uses the stream heat capacity
        # the step already computed
        np.divide(power, air_capacity, out=self._exhaust_rise)
        self._executed[:] = util
        self._max_junction[:] = junction
        self._leakage[:] = leakage_w
        self._slope[:] = physics.leakage_slope_w_per_c()
        self._pstate[:] = pstate
        if self.trip_on_critical:
            self._flag_trip(junction)
        if timers is not None:
            timers[1].add(perf_counter() - t0)
        rows.end_tick(tick, self.steps)

    def _flag_trip(self, junction: np.ndarray) -> None:
        """Flag the slice's first over-threshold server, if any."""
        over = np.nonzero(junction > self.physics.critical_c)[0]
        if over.size:
            li = int(over[0])
            summary = self.summary
            summary.trip_server[self.index] = self.lo + li
            summary.trip_temp[self.index] = float(junction[li])
            summary.trip_threshold[self.index] = float(
                self.physics.critical_c[li]
            )

    def poll(self, time_s: float) -> None:
        """Poll the controllers due at ``time_s``.

        Observations read the slice's pre-step summary rows and the
        physics' mean junction; p-state commands go to the physics.
        """
        if time_s < self.next_poll_due - POLL_EPS_S:
            return
        plan = self.plan
        transform = (
            plan.transform_observation
            if plan is not None and plan.has_sensor_faults
            else None
        )
        lo = self.lo
        physics = self.physics
        controllers = self.controllers
        rpm_command = self.rpm_command
        next_poll = self.next_poll
        max_junction_c = self._max_junction
        executed = self._executed
        avg_junction_c = physics.mean_junction_c()
        for li in np.nonzero(time_s >= next_poll - POLL_EPS_S)[0]:
            controller = controllers[li]
            max_c = float(max_junction_c[li])
            avg_c = float(avg_junction_c[li])
            if transform is not None:
                max_c, avg_c = transform(lo + int(li), time_s, max_c, avg_c)
            rpm, pstate = poll_controller(
                controller, time_s, max_c, avg_c, float(executed[li]),
                float(rpm_command[li]),
            )
            if rpm is not None:
                rpm_command[li] = self._validated_command(li, rpm)
            if pstate is not None:
                physics.set_pstate(
                    int(li), self._validated_pstate(li, int(pstate))
                )
            next_poll[li] = advance_poll_clock(
                controller, next_poll[li], time_s
            )
        self.next_poll_due = next_poll.min()

    def snapshot(self, staging: str) -> None:
        """Write the slice's state into a cut's staging directory.

        Kernel arrays, fan commands and poll clocks go in as arrays;
        controllers, the slice's stateful sensor-fault channels and the
        ``reference`` simulators (a tree of objects) are pickled.
        """
        arrays: Dict[str, np.ndarray] = {
            "rpm_command": self.rpm_command,
            "next_poll": self.next_poll,
            "next_poll_due": np.float64(self.next_poll_due),
        }
        objects: Dict[str, Any] = {
            "controllers": self.controllers,
            "sensor_channels": None
            if self.plan is None
            else list(self.plan.sensor_channels[self.lo : self.hi]),
        }
        if isinstance(self.physics, FleetVectorKernel):
            arrays.update(self.physics.state_arrays())
        else:
            objects["physics"] = self.physics
        save_arrays(staging, self._payload, arrays)
        save_pickle(staging, self._payload, objects)

    def restore(self, directory: str) -> None:
        """Load the state :meth:`snapshot` wrote into a committed cut."""
        objects = load_pickle(directory, self._payload)
        controllers = list(objects["controllers"])
        if len(controllers) != self.hi - self.lo:
            raise CheckpointError(
                f"checkpoint slice {self.index} holds {len(controllers)} "
                f"controllers, expected {self.hi - self.lo}"
            )
        self.controllers = controllers
        channels = objects["sensor_channels"]
        if self.plan is not None and channels is not None:
            self.plan.sensor_channels[self.lo : self.hi] = channels
        arrays = load_arrays(directory, self._payload)
        if "physics" in objects:
            self.physics = objects["physics"]
        else:
            self.physics.load_state_arrays(arrays)
        self.rpm_command[:] = arrays["rpm_command"]
        self.next_poll[:] = arrays["next_poll"]
        self.next_poll_due = float(arrays["next_poll_due"])

    def close(self) -> None:
        """Flush and close the slice's trace rows."""
        self.rows.close()


#: Builds slice ``index`` over ``[lo, hi)`` publishing into a summary.
SliceBuilder = Callable[[int, int, int, FleetSummary, Any], FleetSlice]


class InProcessSlices:
    """A run's slices, stepped one after another in this process.

    The other way to step slices is the forked workers of
    :mod:`repro.engine.sharded`; both offer the loop :attr:`summary`,
    :meth:`step` and :meth:`close`.
    """

    def __init__(
        self,
        build: SliceBuilder,
        bounds: Sequence[Tuple[int, int]],
        start_tick: int,
        metrics: Any = None,
    ) -> None:
        self.summary = FleetSummary(bounds[-1][1], len(bounds))
        self.slices = [
            build(index, lo, hi, self.summary, metrics)
            for index, (lo, hi) in enumerate(bounds)
        ]

    def step(
        self,
        tick: int,
        inlet: np.ndarray,
        allocations: np.ndarray,
        cut: Optional[str],
    ) -> None:
        """Step every slice; snapshot each into *cut* when one is due."""
        for fleet_slice in self.slices:
            fleet_slice.step(tick, inlet, allocations)
        if cut is not None:
            for fleet_slice in self.slices:
                fleet_slice.snapshot(cut)

    def close(self) -> None:
        """Close every slice's trace rows."""
        for fleet_slice in self.slices:
            fleet_slice.close()
