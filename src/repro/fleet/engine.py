"""Lock-step multi-server simulation engine.

Steps every server in the fleet through the same tick sequence the
single-server :class:`~repro.server.server.ServerSimulator` uses.
There is one tick loop for every backend (:meth:`FleetEngine._tick_stream`,
run by :class:`_TickLoop`); the loop is the coordinator.  Per tick it

1. evaluates the prologue (demand, CRAC supply, recirculated inlet)
   with :class:`~repro.engine.control.TickInputs` and places demand
   with :meth:`FleetScheduler.place`;
2. steps the server slices (:class:`~repro.engine.control.FleetSlice`:
   the controller polls, fan caps, physics ``step_into``, trace rows,
   summary publish and trip flag of servers ``[lo, hi)``);
3. raises a critical trip, records the loop-owned columns (inlet,
   unserved, respilled, fault-unserved) and feeds executed work back
   to a dynamic workload;
4. flushes the capture tap, seals a due checkpoint cut and yields.

Three backends are available:

* ``vector`` (default) — one slice over ``[0, N)`` whose physics is the
  :class:`~repro.engine.kernel.FleetVectorKernel`: persistent
  ``(N, ·)`` state arrays feed the placement policy directly
  (:meth:`~repro.fleet.scheduler.PlacementPolicy.order_indices`, the
  one placement interface on every backend), per-tick inputs are
  precomputed for the whole horizon, and the batched physics writes
  straight into the preallocated in-RAM trace block.
* ``reference`` — the same loop and slice with one real
  :class:`ServerSimulator` per server behind the kernel's physics
  interface: the physics oracle the batched math is tested against,
  and the naive baseline of ``benchmarks/bench_kernel.py``.  It also
  runs fleets whose servers differ in socket count.
* ``sharded`` — the same loop over contiguous kernel slices, stepped
  in forked worker processes over shared memory (or in-process with
  ``shard_mode="inline"``), with trace columns streamed to
  memory-mapped ``.npy`` segments instead of held in RAM; traces are
  bit-identical to ``vector``.  See :mod:`repro.engine.sharded` and
  ``docs/scaling.md``.

Each server keeps its *own* controller instance (any
:class:`~repro.core.controllers.base.FanController`), polled on its own
cadence through the same controller contract the single-server runner
uses.  A controller's p-state commands (``decide_pstate``; of the
shipped policies only the coordinated fan + DVFS one issues any) are
actuated per server: the demanded allocation is stretched by
``f_nom / f`` into executed utilization (numpy-batched, saturating at
100%), and the saturated remainder is accumulated as a per-server work
deficit that the fleet SLA metrics combine with scheduler-unserved
demand.  Controllers in the fleet observe ground-truth junction
temperatures and the previous tick's executed utilization (the fleet
engine trades the runner's noisy-sensor / ``sar``-window emulation for
scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # observability taps; annotation-only imports
    from repro.obs.capture import FleetCapture
    from repro.obs.metrics import MetricsRegistry

import numpy as np

from repro.core.controllers.base import FanController
from repro.core.controllers.default import FixedSpeedController
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointWriter,
    RunInterrupted,
    code_digest,
    load_arrays,
    load_pickle,
    prune_checkpoints,
    read_manifest,
    require_fingerprint,
    resolve_checkpoint,
)
from repro.engine.control import FleetSlice, InProcessSlices, TickInputs
from repro.engine.kernel import FleetVectorKernel
from repro.fleet.faults import FaultSchedule, FleetFaultPlan
from repro.fleet.metrics import FleetMetrics, compute_fleet_metrics
from repro.fleet.scheduler import (
    FleetLoadArrays,
    FleetScheduler,
    FleetWorkload,
    RoundRobinPolicy,
)
from repro.fleet.topology import Fleet, Rack
from repro.server.ambient import AmbientModel
from repro.server.power import leakage_slope_w_per_c
from repro.server.server import ServerSimulator
from repro.telemetry.segments import (
    FLEET_SCALAR_TRACE_COLUMNS,
    FLEET_TRACE_COLUMNS,
    TraceRows,
)
from repro.units import airflow_heat_capacity_w_per_k
from repro.workloads.profile import UtilizationProfile

#: The execution backends (see the module docstring).
BACKENDS = ("vector", "reference", "sharded")

#: Manifest kind of every fleet checkpoint; the run fingerprint tells
#: backends and shard layouts apart.
_CHECKPOINT_KIND = "fleet"

#: Per-server columns a slice writes (the loop writes ``inlet``, an
#: input to the step rather than an output of it).
_SLICE_COLUMNS = tuple(c for c in FLEET_TRACE_COLUMNS if c != "inlet")

#: Per-server columns the capture tap ingests.
_CAPTURE_COLUMNS = ("power", "fan", "junction", "util", "inlet", "rpm")


class _InletAmbient(AmbientModel):
    """The inlet the tick loop computed for one server's current tick."""

    def __init__(self, inlet_c: float):
        self.inlet_c = inlet_c

    def temperature_c(self, time_s: float) -> float:
        """The installed inlet, whatever *time_s*."""
        return self.inlet_c


class _ReferenceBackend:
    """One real :class:`ServerSimulator` per server (the naive loop).

    Offers the slice the physics surface of
    :class:`~repro.engine.kernel.FleetVectorKernel`; every per-server
    quantity comes from the wrapped simulator's own scalar code.  The
    simulators never trip themselves: the loop's one trip rule does.
    """

    def __init__(self, fleet: Fleet, seed: int):
        specs = fleet.servers
        supply = fleet.supply_temperatures_c(0.0)
        self.sims: List[ServerSimulator] = [
            ServerSimulator(
                spec=spec,
                ambient=_InletAmbient(float(supply[i])),
                seed=seed + i,
                trip_on_critical=False,
            )
            for i, spec in enumerate(specs)
        ]
        #: Per-server critical junction threshold, °C.
        self.critical_c = np.array(
            [spec.critical_temperature_c for spec in specs]
        )

    @property
    def rpm(self) -> np.ndarray:
        """Per-server mean rotor speed, RPM."""
        return np.array([sim.fans.mean_rpm for sim in self.sims])

    def set_pstate(self, server_index: int, pstate_index: int) -> None:
        """Switch one wrapped simulator to *pstate_index*."""
        self.sims[server_index].set_pstate(pstate_index)

    def force_cold_state(self, cold_start_rpm: float) -> None:
        """The experiment protocol's pre-``t = 0`` idle settle, per sim."""
        for sim in self.sims:
            sim.force_cold_state(cold_start_rpm)

    def _junctions(self):
        return [sim.thermal.state.junction_c for sim in self.sims]

    def _leakage_w(self) -> np.ndarray:
        return np.array(
            [
                sum(
                    sim.power_model.socket_leakage_w(sock, t)
                    for sock, t in zip(sim.spec.sockets, junctions)
                )
                for sim, junctions in zip(self.sims, self._junctions())
            ]
        )

    def initial_summary(self):
        """``(max_junction_c, leakage_w)`` before the first tick."""
        return np.array([max(j) for j in self._junctions()]), self._leakage_w()

    def mean_junction_c(self) -> np.ndarray:
        """Per-server mean junction temperature, °C."""
        return np.array([sum(j) / len(j) for j in self._junctions()])

    def leakage_slope_w_per_c(self) -> np.ndarray:
        """Per-server ``dP_leak/dT_j`` summed over sockets, W/°C."""
        return np.array(
            [
                sum(
                    float(
                        leakage_slope_w_per_c(
                            sock.leak_k2_w, sock.leak_k3_per_c, t
                        )
                    )
                    for sock, t in zip(sim.spec.sockets, junctions)
                )
                for sim, junctions in zip(self.sims, self._junctions())
            ]
        )

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
        """Step every simulator one tick; same contract as the kernel's.

        Returns ``(air_capacity_w_per_k, leakage_w)``.  The simulators
        integrate their own substeps (*substeps* and *h* are unused).
        """
        airflow = np.empty(len(self.sims))
        for i, sim in enumerate(self.sims):
            sim.ambient.inlet_c = float(inlet_c[i])
            sim.set_fan_rpm(float(rpm_command[i]))
            demand = float(demand_pct[i])
            index = sim.power_model.pstate_index
            # The same per-step deficit term the simulator accumulates
            # internally, surfaced per tick for the fleet traces.
            out_deficit[i] = sim.spec.dvfs.work_deficit_pct(demand, index)
            out_pstate[i] = index
            state = sim.step(dt_s, demand)
            out_power[i] = state.power.total_w
            out_fan[i] = state.power.fan_w
            out_junction[i] = max(state.thermal.junction_c)
            out_util[i] = state.utilization_pct
            out_rpm[i] = state.mean_fan_rpm
            airflow[i] = sim.fans.total_airflow_cfm()
        return airflow_heat_capacity_w_per_k(airflow), self._leakage_w()


def _subfleet(fleet: Fleet, lo: int, hi: int) -> Fleet:
    """Servers ``[lo, hi)`` as a standalone :class:`Fleet`.

    Rack fragments keep their name, CRAC supply setpoint and CRAC
    model, so per-server supply temperatures are bit-identical to the
    full fleet's slice.  Recirculation is dropped — slice kernels never
    evaluate the coupling (the loop owns it).  The whole fleet is
    returned as is.
    """
    if lo == 0 and hi == fleet.server_count:
        return fleet
    racks = []
    base = 0
    for rack in fleet.racks:
        count = len(rack.servers)
        a = max(lo, base)
        b = min(hi, base + count)
        if a < b:
            racks.append(
                Rack(
                    name=rack.name,
                    servers=list(rack.servers[a - base : b - base]),
                    crac_supply_c=rack.crac_supply_c,
                    crac=rack.crac,
                )
            )
        base += count
    return Fleet(racks=racks)


@dataclass
class FleetResult:
    """Traces and aggregates of one fleet run (ticks × servers)."""

    scheduler_name: str
    controller_name: str
    backend: str
    #: Tick length, s.
    dt_s: float
    #: Tick timestamps, s.
    times_s: np.ndarray
    #: Per-server wall power per tick, W.
    total_power_w: np.ndarray
    #: Per-server fan power per tick, W.
    fan_power_w: np.ndarray
    #: Hottest junction per server and tick, °C.
    max_junction_c: np.ndarray
    #: Executed (post-p-state-stretch) utilization per tick, %.
    utilization_pct: np.ndarray
    #: Per-server inlet temperature per tick, °C.
    inlet_c: np.ndarray
    #: Per-server mean fan speed per tick, RPM.
    mean_rpm: np.ndarray
    #: Demand the scheduler found no capacity for, single-server %.
    unserved_pct: np.ndarray
    #: P-state each server ran per tick (0 = nominal).
    pstate_index: np.ndarray
    #: DVFS deficit rate per tick and server, nominal percent.
    work_deficit_pct: np.ndarray
    metrics: FleetMetrics
    #: Per-tick per-server "any fault event active" mask (all False on
    #: fault-free runs).  See :mod:`repro.fleet.faults`.
    fault_active: Optional[np.ndarray] = None
    #: Work respilled off outage servers per tick, single-server %.
    respilled_pct: Optional[np.ndarray] = None
    #: Fault-attributable unserved demand per tick, single-server %.
    fault_unserved_pct: Optional[np.ndarray] = None

    @property
    def fleet_power_w(self) -> np.ndarray:
        """Summed fleet power per tick, W."""
        return self.total_power_w.sum(axis=1)

    @property
    def work_deficit_pct_s(self) -> np.ndarray:
        """Cumulative per-server DVFS deficit, %·s (ticks × servers).

        Accumulated with the same per-step additions as
        :attr:`ServerSimulator.work_deficit_pct_s`, so the N=1 trace is
        comparable bit-for-bit.
        """
        return np.cumsum(self.work_deficit_pct * self.dt_s, axis=0)


@dataclass(frozen=True)
class FleetTickView:
    """Read-only per-tick snapshot yielded by :meth:`FleetEngine.run_stream`.

    Array fields are length-N views into the engine's trace block for
    the just-completed tick; ``time_s`` is the end-of-tick timestamp
    (the same grid as :attr:`FleetResult.times_s`).
    """

    tick: int
    time_s: float
    total_power_w: np.ndarray
    fan_power_w: np.ndarray
    max_junction_c: np.ndarray
    utilization_pct: np.ndarray
    inlet_c: np.ndarray
    mean_rpm: np.ndarray
    unserved_pct: float
    #: True for ticks re-emitted from a restored checkpoint prefix (a
    #: resumed stream replays them so consumers can rebuild derived
    #: state deterministically before live ticks arrive).
    replayed: bool = False


def fleet_result(
    fleet: Fleet,
    dt_s: float,
    trace: Mapping[str, np.ndarray],
    fault_active: np.ndarray,
    scheduler_name: str,
    controller_name: str,
    backend: str,
) -> FleetResult:
    """A run's :class:`FleetResult`, metrics included, from its columns.

    *trace* maps every per-server and scalar trace column name to its
    ``(steps, n)`` / ``(steps,)`` array — the in-RAM block or the
    memory-mapped segments of :class:`~repro.telemetry.segments.FleetTraceReader`.
    """
    metrics = compute_fleet_metrics(
        fleet,
        dt_s,
        trace["power"],
        trace["fan"],
        trace["junction"],
        trace["util"],
        trace["inlet"],
        trace["unserved"],
        work_deficit_pct=trace["deficit"],
        fault_active=fault_active,
        respilled_pct=trace["respilled"],
        fault_unserved_pct=trace["fault_unserved"],
    )
    return FleetResult(
        scheduler_name=scheduler_name,
        controller_name=controller_name,
        backend=backend,
        dt_s=dt_s,
        times_s=np.arange(1, len(trace["unserved"]) + 1) * dt_s,
        total_power_w=trace["power"],
        fan_power_w=trace["fan"],
        max_junction_c=trace["junction"],
        utilization_pct=trace["util"],
        inlet_c=trace["inlet"],
        mean_rpm=trace["rpm"],
        unserved_pct=trace["unserved"],
        pstate_index=trace["pstate"],
        work_deficit_pct=trace["deficit"],
        metrics=metrics,
        fault_active=fault_active,
        respilled_pct=trace["respilled"],
        fault_unserved_pct=trace["fault_unserved"],
    )


class _TraceBlock:
    """The in-RAM trace sink: every column preallocated for the horizon.

    Same interface as the segment sink
    (:class:`~repro.telemetry.segments.ShardedTraceWriter`): rows are
    durable as soon as they are written, so its spill grid is one tick,
    and a checkpoint cut carries the per-server trace prefix.
    """

    spill_ticks = 1

    def __init__(self, steps: int, n: int) -> None:
        self.columns = {
            name: np.empty((steps, n), dtype=int if name == "pstate" else float)
            for name in FLEET_TRACE_COLUMNS
        }
        self.scalars = {
            name: np.zeros(steps) for name in FLEET_SCALAR_TRACE_COLUMNS
        }

    def rows(
        self, lo: int, hi: int, columns: Sequence[str], start_tick: int
    ) -> TraceRows:
        """Whole-horizon views of *columns* over ``[lo, hi)``."""
        return TraceRows({name: self.columns[name][:, lo:hi] for name in columns})

    def read_view(self, name: str) -> np.ndarray:
        """One per-server column."""
        return self.columns[name]

    def save_prefix(self, writer: CheckpointWriter, tick: int) -> None:
        """Add the per-server rows below the cut to a checkpoint."""
        writer.arrays(
            "trace", {name: col[:tick] for name, col in self.columns.items()}
        )

    def load_prefix(self, directory: str, tick: int) -> None:
        """Refill the per-server rows below a restored cut."""
        saved = load_arrays(directory, "trace")
        for name, col in self.columns.items():
            col[:tick] = saved[name]


class _TickLoop:
    """The state of one run of the fleet tick loop.

    Set up (fresh or from a verified checkpoint) here, stepped tick by
    tick by :meth:`tick` (the loop's per-tick body), closed by
    :meth:`close`.  *open_slices* is one of the two ways to step
    slices: :class:`~repro.engine.control.InProcessSlices` or the
    forked workers of :mod:`repro.engine.sharded`.
    """

    def __init__(
        self,
        engine: "FleetEngine",
        dt_s: float,
        steps: int,
        plan: Optional[FleetFaultPlan],
        sink: Any,
        bounds: Sequence[Tuple[int, int]],
        resume: Optional[Tuple[int, str]],
        open_slices: Callable[..., Any],
    ) -> None:
        n = engine.fleet.server_count
        self.engine = engine
        self.dt_s = dt_s
        self.steps = steps
        self.plan = plan
        self.sink = sink
        self.start_tick, resume_dir = resume if resume is not None else (0, None)
        self.inputs = inputs = TickInputs(
            engine.fleet, engine.workload, plan, steps, dt_s
        )
        self.rack_of = np.asarray(engine.fleet.rack_index_of_server)
        self.end_times = np.arange(1, steps + 1) * dt_s
        self.unserved = sink.scalars["unserved"]
        self.respilled = sink.scalars["respilled"]
        self.fault_unserved = sink.scalars["fault_unserved"]
        self.dynamic = engine.workload.dynamic

        loop_state = None
        if resume_dir is None:
            engine.scheduler.reset()
        else:
            loop_state = load_arrays(resume_dir, "loop")
            for name, column in sink.scalars.items():
                column[: self.start_tick] = loop_state[name]
            engine.scheduler = load_pickle(resume_dir, "loop")["scheduler"]
            sink.load_prefix(resume_dir, self.start_tick)

        # Observability taps — both None in plain batch runs, in which
        # case the loop body takes the exact uninstrumented path.
        self.capture = capture = engine.capture
        self.flush_start = 0
        if capture is not None:
            capture.bind(n)
            self.capture_columns = {
                name: sink.read_view(name) for name in _CAPTURE_COLUMNS
            }
            # Replay the restored trace prefix through the capture tap
            # in the exact chunk slices the uninterrupted run flushed:
            # the store (lost with the interrupted process) is rebuilt
            # bit-identically, and flush_start lands where it would be.
            while self.flush_start + capture.chunk_ticks <= self.start_tick:
                self._flush(self.flush_start + capture.chunk_ticks)
        self.timers = None
        if engine.metrics is not None:
            self.timers = (
                engine.metrics.timer(
                    "repro_fleet_placement",
                    "Placement policy + scheduler assignment",
                ),
                engine.metrics.timer(
                    "repro_fleet_trace_write",
                    "Capture flushes into the timeseries store",
                ),
            )

        # Checkpoint cuts land on the sink's spill grid (every tick in
        # RAM), where every trace row below the cut is durable.
        self.grid = sink.spill_ticks
        self.every = 0
        self.fingerprint: Optional[Dict[str, object]] = None
        if engine.checkpoint is not None:
            every = engine.checkpoint.every_ticks(dt_s)
            self.every = -(-every // self.grid) * self.grid
            self.fingerprint = engine._run_fingerprint(
                dt_s, steps, bounds, self.grid
            )

        self.inlet_rows = sink.rows(0, n, ("inlet",), self.start_tick)
        build = partial(
            engine._build_slice,
            sink=sink,
            plan=plan,
            dt_s=dt_s,
            steps=steps,
            times=inputs.times_list,
            start_tick=self.start_tick,
            resume_dir=resume_dir,
        )
        self.slices = open_slices(build, bounds, self.start_tick, engine.metrics)
        if loop_state is not None:
            # the cut tick's summary rows (resumed slices publish none)
            try:
                self.slices.summary.load_state_arrays(loop_state)
            except BaseException:
                self.close()
                raise

    def tick(self, tick: int) -> None:
        """One tick: place, step the slices, record, flush, seal."""
        engine = self.engine
        plan = self.plan
        inputs = self.inputs
        summary = self.slices.summary
        timers = self.timers
        steps = self.steps
        t1 = tick + 1

        total_demand = inputs.demand_total(tick)
        inlet = inputs.inlet(tick, summary.exhaust_rise)
        if timers is not None:
            t0 = perf_counter()
        (
            decision,
            self.respilled[tick],
            self.fault_unserved[tick],
        ) = engine.scheduler.place(
            FleetLoadArrays(
                utilization_pct=summary.executed,
                max_junction_c=summary.max_junction,
                inlet_c=inlet,
                leakage_w=summary.leakage,
                pstate_index=summary.pstate,
                rack_index=self.rack_of,
                leakage_slope_w_per_c=summary.slope,
            ),
            total_demand,
            plan.outage[tick]
            if plan is not None and plan.outage_any[tick]
            else None,
        )
        if timers is not None:
            timers[0].add(perf_counter() - t0)

        cut = self._due_cut(t1)
        self.slices.step(
            tick,
            inlet,
            decision.allocations_pct,
            None if cut is None else str(cut.staging),
        )
        summary.raise_if_tripped()

        rows = self.inlet_rows
        rows.buffers["inlet"][tick - rows.start] = inlet
        rows.end_tick(tick, steps)
        self.unserved[tick] = decision.unserved_pct
        if self.dynamic:
            engine.workload.record_executed(
                inputs.times_list[tick], float(summary.executed.sum()), self.dt_s
            )

        capture = self.capture
        if capture is not None and (
            t1 - self.flush_start >= capture.chunk_ticks or t1 == steps
        ):
            if timers is not None:
                t0 = perf_counter()
            self._flush(t1)
            if timers is not None:
                timers[1].add(perf_counter() - t0)
        if cut is not None:
            self._seal(cut)
        if (
            engine._stop_requested
            and t1 < steps
            and (engine.checkpoint is None or cut is not None)
        ):
            raise RunInterrupted(
                f"fleet run stopped at tick {t1}/{steps}",
                engine.last_checkpoint_path,
            )

    def _flush(self, stop: int) -> None:
        """Hand trace rows ``[flush_start, stop)`` to the capture tap."""
        start = self.flush_start
        self.capture.flush(
            self.end_times[start:stop],
            {
                name: np.asarray(column[start:stop])
                for name, column in self.capture_columns.items()
            },
            unserved_pct=self.unserved[start:stop],
        )
        self.flush_start = stop

    def _due_cut(self, t1: int) -> Optional[CheckpointWriter]:
        """The staged cut after tick ``t1 - 1``, if one is due.

        Due on the cadence, or at the next spill boundary once a stop
        was requested.
        """
        engine = self.engine
        if not self.every or t1 >= self.steps:
            return None
        if t1 % self.every and not (
            engine._stop_requested and t1 % self.grid == 0
        ):
            return None
        return CheckpointWriter(engine.checkpoint.root, t1)

    def _seal(self, writer: CheckpointWriter) -> None:
        """Add the loop's payload to a staged cut and commit it.

        Every slice has already written its own state into the staging
        directory; the loop adds the summary rows, the scalar trace
        prefix, the scheduler and (in RAM) the per-server trace prefix.
        """
        engine = self.engine
        t1 = writer.tick
        state = self.slices.summary.state_arrays()
        for name, column in self.sink.scalars.items():
            state[name] = column[:t1]
        writer.arrays("loop", state)
        writer.pickle("loop", {"scheduler": engine.scheduler})
        self.sink.save_prefix(writer, t1)
        engine.last_checkpoint_path = writer.commit(
            _CHECKPOINT_KIND, self.fingerprint
        )
        prune_checkpoints(engine.checkpoint.root, engine.checkpoint.keep)

    def close(self) -> None:
        """Stop the slices and close the loop's trace rows."""
        try:
            self.slices.close()
        finally:
            self.inlet_rows.close()


class FleetEngine:
    """Schedules, controls and steps N servers in lock-step."""

    def __init__(
        self,
        fleet: Fleet,
        workload: Union[FleetWorkload, UtilizationProfile],
        scheduler: Optional[FleetScheduler] = None,
        controller_factory: Optional[Callable[[int], FanController]] = None,
        backend: str = "vector",
        seed: int = 0,
        trip_on_critical: bool = True,
        cold_start: bool = False,
        cold_start_rpm: float = 3600.0,
        faults: Optional[FaultSchedule] = None,
        capture: Optional["FleetCapture"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        shards: Optional[Union[int, Sequence[int]]] = None,
        trace_dir: Optional[str] = None,
        shard_mode: str = "auto",
        stream_chunk_ticks: Optional[int] = None,
        checkpoint: Optional[CheckpointConfig] = None,
        barrier_timeout_s: Optional[float] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.fleet = fleet
        if not isinstance(workload, FleetWorkload):
            workload = FleetWorkload(workload, fleet.server_count)
        if workload.server_count != fleet.server_count:
            raise ValueError(
                f"workload is sized for {workload.server_count} servers, "
                f"fleet has {fleet.server_count}"
            )
        # Dynamic workloads (e.g. the facility WorkloadQueue) evaluate
        # demand tick by tick against mutable queue state, which the
        # sharded backend does not replicate and the checkpoint writer
        # does not persist — reject both up front.
        if workload.dynamic and backend == "sharded":
            raise ValueError(
                "dynamic workloads are not supported on the sharded "
                "backend; use 'vector' or 'reference'"
            )
        if workload.dynamic and checkpoint is not None:
            raise ValueError(
                "dynamic workloads cannot be checkpointed: queue state "
                "is not persisted"
            )
        self.workload = workload
        self.scheduler = (
            scheduler
            if scheduler is not None
            else FleetScheduler(RoundRobinPolicy())
        )
        if controller_factory is None:
            controller_factory = lambda index: FixedSpeedController()
        self.controllers: List[FanController] = [
            controller_factory(i) for i in range(fleet.server_count)
        ]
        self.backend = backend
        # Sharded-execution knobs (see repro.engine.sharded): the shard
        # partition, the streamed-trace directory (None = temporary),
        # the worker mode, and the spill-chunk length.  Validated here
        # so a bad partition fails at construction, not mid-run.
        if backend != "sharded" and (
            shards is not None
            or trace_dir is not None
            or stream_chunk_ticks is not None
        ):
            raise ValueError(
                "shards / trace_dir / stream_chunk_ticks require "
                f"backend='sharded', engine uses {backend!r}"
            )
        if shard_mode not in ("auto", "process", "inline"):
            raise ValueError(f"unknown shard_mode {shard_mode!r}")
        if stream_chunk_ticks is not None and int(stream_chunk_ticks) < 1:
            raise ValueError("stream_chunk_ticks must be >= 1")
        if shards is not None:
            from repro.telemetry.segments import partition_servers

            partition_servers(fleet.server_count, shards)
        if barrier_timeout_s is not None:
            if backend != "sharded":
                raise ValueError(
                    "barrier_timeout_s requires backend='sharded', "
                    f"engine uses {backend!r}"
                )
            from repro.engine.sharded import checked_barrier_timeout_s

            barrier_timeout_s = checked_barrier_timeout_s(
                barrier_timeout_s, "barrier_timeout_s"
            )
        if checkpoint is not None and not isinstance(
            checkpoint, CheckpointConfig
        ):
            raise TypeError(
                "checkpoint must be a CheckpointConfig, got "
                f"{type(checkpoint).__name__}"
            )
        self.shards = shards
        self.trace_dir = trace_dir
        self.shard_mode = shard_mode
        self.stream_chunk_ticks = stream_chunk_ticks
        self.barrier_timeout_s = barrier_timeout_s
        #: Periodic run-state checkpointing (None = disabled); see
        #: :mod:`repro.engine.checkpoint` and ``docs/resilience.md``.
        self.checkpoint = checkpoint
        #: Last committed checkpoint of the current/most recent run.
        self.last_checkpoint_path = None
        #: Tick the most recent run resumed from (0 = started fresh).
        self.last_resume_tick = 0
        self._stop_requested = False
        #: Wall-clock / RSS figures of the most recent sharded run
        #: (None until one completes; see repro.engine.sharded).
        self.last_run_stats: Optional[Dict[str, object]] = None
        self.seed = seed
        self.trip_on_critical = trip_on_critical
        if cold_start:
            for index, spec in enumerate(fleet.servers):
                if not spec.fan.rpm_min <= cold_start_rpm <= spec.fan.rpm_max:
                    raise ValueError(
                        f"server {index}: cold_start_rpm {cold_start_rpm} "
                        f"outside supported range "
                        f"[{spec.fan.rpm_min}, {spec.fan.rpm_max}]"
                    )
        self.cold_start = cold_start
        self.cold_start_rpm = float(cold_start_rpm)
        if faults is not None and not isinstance(faults, FaultSchedule):
            raise TypeError(
                f"faults must be a FaultSchedule, got {type(faults).__name__}"
            )
        if faults is not None:
            faults.validate_for(fleet)
        self.faults = faults
        # Observability taps (see repro.obs): both default to None and
        # cost nothing when absent.  ``capture`` streams trace rows
        # into a timeseries store at chunk granularity; ``metrics``
        # receives per-phase timers from the tick loop.
        self.capture = capture
        self.metrics = metrics
        #: Result of the most recent completed run (set by ``run`` and
        #: by exhausting :meth:`run_stream`).
        self.last_result: Optional[FleetResult] = None

    # ------------------------------------------------------------------
    # checkpoint / cooperative-stop plumbing
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the running loop to stop at the next tick boundary.

        With checkpointing configured the loop writes a final
        checkpoint first (at the next spill boundary), then raises
        :class:`~repro.engine.checkpoint.RunInterrupted` carrying its
        path; without, it raises immediately.  Safe to call from a
        signal handler.
        """
        self._stop_requested = True

    @property
    def controller_name(self) -> str:
        """The controllers' shared name, or ``"mixed"``."""
        names = {controller.name for controller in self.controllers}
        return names.pop() if len(names) == 1 else "mixed"

    def _run_fingerprint(
        self,
        dt_s: float,
        steps: int,
        bounds: Sequence[Tuple[int, int]],
        spill_ticks: int,
    ) -> Dict[str, object]:
        """JSON-able run identity pinned into checkpoint manifests.

        Backend, shard bounds and spill grid refuse a checkpoint from
        another backend or layout; ``code`` refuses one written by other
        code, whose trace rows and pickles this code did not produce.
        """
        return {
            "kind": _CHECKPOINT_KIND,
            "backend": self.backend,
            "server_count": self.fleet.server_count,
            "steps": int(steps),
            "dt_s": float(dt_s),
            "seed": self.seed,
            "scheduler": self.scheduler.name,
            "controllers": sorted({c.name for c in self.controllers}),
            "cold_start": bool(self.cold_start),
            "fault_events": len(self.faults.events)
            if self.faults is not None
            else 0,
            "shard_bounds": [list(b) for b in bounds],
            "spill_ticks": int(spill_ticks),
            "code": code_digest(),
        }

    def _open_checkpoint(
        self,
        resume_from,
        dt_s: float,
        steps: int,
        bounds: Sequence[Tuple[int, int]],
        spill_ticks: Optional[int] = None,
    ) -> Tuple[int, str, int]:
        """Verify a checkpoint for this run; ``(tick, directory, grid)``.

        Checks the payload checksums, the manifest kind and the run
        fingerprint.  A run that passes no *spill_ticks* (the segment
        sink) adopts the checkpointed spill grid: its trace rows on disk
        were written on it, and the cut tick is one of its boundaries.
        """
        directory = resolve_checkpoint(resume_from)
        manifest = read_manifest(directory)
        if manifest.get("kind") != _CHECKPOINT_KIND:
            raise CheckpointError(
                f"checkpoint at {directory} is a {manifest.get('kind')!r} "
                f"checkpoint, this run needs {_CHECKPOINT_KIND!r}"
            )
        if spill_ticks is None:
            spill_ticks = int(manifest["fingerprint"].get("spill_ticks", 1))
        require_fingerprint(
            manifest, self._run_fingerprint(dt_s, steps, bounds, spill_ticks)
        )
        tick = int(manifest["tick"])
        if not 0 < tick < steps:
            raise CheckpointError(
                f"checkpoint tick {tick} outside the run's 1..{steps - 1}"
            )
        self.last_resume_tick = tick
        # until a newer checkpoint commits, the resumed-from one is
        # still the right restart point after another interruption
        self.last_checkpoint_path = directory
        return tick, str(directory), spill_ticks

    def _prepare_run(
        self, dt_s: float, duration_s: Optional[float], resume_from
    ):
        """Validate a run's grid, reset run state; ``(steps, plan)``."""
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if duration_s is None:
            duration_s = self.workload.duration_s
        steps = int(round(duration_s / dt_s))
        if steps <= 0:
            raise ValueError("workload too short for the configured dt_s")
        if self.workload.dynamic and resume_from is not None:
            raise ValueError(
                "dynamic workloads cannot resume from a checkpoint"
            )
        self.workload.reset()
        # Compile the fault schedule once, on the engine's exact tick
        # grid, and hand the same mask arrays to every slice — they
        # cannot disagree about event timing.  An empty schedule
        # compiles to None: the loop takes the identical fault-free
        # path a run without a schedule takes.
        plan = (
            self.faults.compile(self.fleet, steps, dt_s)
            if self.faults is not None
            else None
        )
        self._stop_requested = False
        self.last_resume_tick = 0
        if resume_from is None:
            self.last_checkpoint_path = None
        return steps, plan

    def run(
        self,
        dt_s: float = 1.0,
        duration_s: Optional[float] = None,
        resume_from=None,
    ) -> FleetResult:
        """Run the whole scenario and return traces plus metrics.

        The ``vector`` and ``reference`` backends drain
        :meth:`run_stream`; the ``sharded`` backend runs the same loop
        over shard slices with streamed traces (bit-identical to
        ``vector``, see :mod:`repro.engine.sharded`).
        """
        if self.backend == "sharded":
            from repro.engine.sharded import run_sharded

            steps, plan = self._prepare_run(dt_s, duration_s, resume_from)
            self.last_result = run_sharded(
                self, dt_s, steps, plan, resume_from
            )
        else:
            for _ in self.run_stream(dt_s, duration_s, resume_from):
                pass
        return self.last_result

    def run_stream(
        self,
        dt_s: float = 1.0,
        duration_s: Optional[float] = None,
        resume_from=None,
    ) -> Iterator["FleetTickView"]:
        """Incrementally run the scenario, yielding one view per tick.

        The streaming form of :meth:`run` for the in-process backends:
        the tick loop executes underneath, but control returns to the
        caller after every tick — the live telemetry service paces this
        generator against wall clock.  After exhaustion the full
        :class:`FleetResult` is available as :attr:`last_result`.

        The yielded arrays are views into the engine's trace block:
        read them, never write them.
        """
        if self.backend == "sharded":
            raise ValueError(
                "run_stream yields from the in-RAM trace block; the "
                "'sharded' backend cannot stream"
            )
        steps, plan = self._prepare_run(dt_s, duration_s, resume_from)
        n = self.fleet.server_count
        bounds = ((0, n),)
        resume = None
        if resume_from is not None:
            resume = self._open_checkpoint(resume_from, dt_s, steps, bounds, 1)[:2]
        block = _TraceBlock(steps, n)

        def stream() -> Iterator[FleetTickView]:
            columns = block.columns
            unserved = block.scalars["unserved"]
            for tick, time_s in self._tick_stream(
                dt_s, steps, plan, block, bounds, resume
            ):
                yield FleetTickView(
                    tick=tick,
                    time_s=time_s,
                    total_power_w=columns["power"][tick],
                    fan_power_w=columns["fan"][tick],
                    max_junction_c=columns["junction"][tick],
                    utilization_pct=columns["util"][tick],
                    inlet_c=columns["inlet"][tick],
                    mean_rpm=columns["rpm"][tick],
                    unserved_pct=float(unserved[tick]),
                    replayed=tick < self.last_resume_tick,
                )
            self.last_result = fleet_result(
                self.fleet,
                dt_s,
                {**columns, **block.scalars},
                plan.fault_active
                if plan is not None
                else np.zeros((steps, n), dtype=bool),
                self.scheduler.name,
                self.controller_name,
                self.backend,
            )

        return stream()

    # ------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------
    def _build_slice(
        self,
        index: int,
        lo: int,
        hi: int,
        summary: Any,
        metrics: Optional["MetricsRegistry"],
        *,
        sink: Any,
        plan: Optional[FleetFaultPlan],
        dt_s: float,
        steps: int,
        times: List[float],
        start_tick: int,
        resume_dir: Optional[str],
    ) -> FleetSlice:
        """Slice *index* over ``[lo, hi)``: fresh, cold-started or restored.

        Called in this process for in-process slices and in each forked
        worker after the fork, so a worker holds only its own slice.
        """
        if self.backend == "reference":
            physics: Any = _ReferenceBackend(self.fleet, self.seed)
        else:
            physics = FleetVectorKernel(
                _subfleet(self.fleet, lo, hi), metrics=metrics
            )
        fleet_slice = FleetSlice(
            index,
            lo,
            self.fleet,
            physics,
            self.controllers[lo:hi],
            sink.rows(lo, hi, _SLICE_COLUMNS, start_tick),
            summary,
            plan,
            dt_s,
            steps,
            times,
            self.trip_on_critical,
            metrics,
        )
        if resume_dir is None:
            if self.cold_start:
                physics.force_cold_state(self.cold_start_rpm)
            fleet_slice.start()
        else:
            fleet_slice.restore(resume_dir)
            self.controllers[lo:hi] = fleet_slice.controllers
        return fleet_slice

    def _tick_stream(
        self,
        dt_s: float,
        steps: int,
        plan: Optional[FleetFaultPlan],
        sink: Any,
        bounds: Sequence[Tuple[int, int]],
        resume: Optional[Tuple[int, str]] = None,
        open_slices: Callable[..., Any] = InProcessSlices,
    ) -> Iterator[Tuple[int, float]]:
        """The fleet tick loop, yielding ``(tick, time_s)``.

        The one loop behind :meth:`run`, :meth:`run_stream` and
        :func:`~repro.engine.sharded.run_sharded`; the yield sits after
        the tick's trace rows are final.  ``time_s`` is the
        *end-of-tick* timestamp, matching ``FleetResult.times_s``.

        With *resume* (``(tick, checkpoint directory)``, verified by
        :meth:`_open_checkpoint`) the restored ticks are re-yielded
        first, then the loop continues from the checkpointed tick with
        restored physics, controller, scheduler and fault-channel state
        — the completed trace is bit-identical to an uninterrupted run.
        """
        loop = _TickLoop(
            self, dt_s, steps, plan, sink, bounds, resume, open_slices
        )
        try:
            for tick in range(loop.start_tick):
                yield tick, loop.end_times[tick]
            for tick in range(loop.start_tick, steps):
                loop.tick(tick)
                yield tick, loop.end_times[tick]
        finally:
            loop.close()
        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_ticks_total", "Fleet engine ticks executed"
            ).inc(steps)
            self.metrics.gauge(
                "repro_fleet_sim_time_seconds", "Simulated seconds completed"
            ).set(steps * dt_s)
