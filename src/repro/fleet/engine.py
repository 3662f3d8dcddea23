"""Lock-step multi-server simulation engine.

Steps every server in the fleet through the same tick sequence the
single-server :class:`~repro.server.server.ServerSimulator` uses.  One
tick loop drives the in-process backends; per tick it evaluates the
prologue (demand, CRAC supply, recirculated inlet) and the controller
polls through the shared control plane of :mod:`repro.engine.control`,
places demand with :meth:`FleetScheduler.place`, and advances a
physics object through ``step_into``.

Three backends are available:

* ``vector`` (default) — the physics is the
  :class:`~repro.engine.kernel.FleetVectorKernel`: persistent
  ``(N, ·)`` state arrays feed the placement policy directly
  (:meth:`~repro.fleet.scheduler.PlacementPolicy.order_indices`),
  per-tick inputs (aggregate demand, CRAC supplies) are precomputed
  for the whole horizon, and the batched physics writes straight into
  the preallocated trace block.  Custom view-based policies
  transparently fall back to per-tick :class:`ServerLoadView`
  construction.
* ``reference`` — one real :class:`ServerSimulator` per server behind
  the kernel's physics interface, driven by the same loop: the physics
  oracle the batched math is tested against, and the naive baseline of
  ``benchmarks/bench_kernel.py``.  It also runs fleets whose servers
  differ in socket count.
* ``sharded`` — the ``vector`` physics partitioned across per-shard
  kernels (worker processes over shared memory, or in-process with
  ``shard_mode="inline"``) with trace columns streamed to
  memory-mapped ``.npy`` segments instead of held in RAM; traces are
  bit-identical to ``vector``.  See :mod:`repro.engine.sharded` and
  ``docs/scaling.md``.

Each server keeps its *own* controller instance (any
:class:`~repro.core.controllers.base.FanController`), polled on its own
cadence exactly as the single-server runner does.  Controllers that
additionally expose ``decide_pstate`` (the coordinated fan + DVFS
policy) have their p-state commands actuated per server: the demanded
allocation is stretched by ``f_nom / f`` into executed utilization
(numpy-batched, saturating at 100%), and the saturated remainder is
accumulated as a per-server work deficit that the fleet SLA metrics
combine with scheduler-unserved demand.  Controllers in the fleet
observe ground-truth junction temperatures and the previous tick's
executed utilization (the fleet engine trades the runner's
noisy-sensor / ``sar``-window emulation for scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
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
    load_arrays,
    load_pickle,
    prune_checkpoints,
    read_manifest,
    require_fingerprint,
    resolve_checkpoint,
)
from repro.engine.control import ControlSlice, TickInputs
from repro.engine.kernel import COLD_START_SETTLE_S, FleetVectorKernel
from repro.fleet.faults import FaultSchedule, FleetFaultPlan
from repro.fleet.metrics import FleetMetrics, compute_fleet_metrics
from repro.fleet.scheduler import (
    FleetLoadArrays,
    FleetScheduler,
    FleetWorkload,
    RoundRobinPolicy,
)
from repro.fleet.topology import Fleet
from repro.server.ambient import AmbientModel
from repro.server.power import leakage_slope_w_per_c
from repro.server.server import ServerSimulator
from repro.server.thermal import substep_schedule
from repro.units import airflow_heat_capacity_w_per_k
from repro.workloads.profile import UtilizationProfile

#: Checkpoint kind of the in-process loop (both in-process backends).
_CHECKPOINT_KIND = "fleet-vector"


class _InletAmbient(AmbientModel):
    """The inlet the tick loop computed for one server's current tick."""

    def __init__(self, inlet_c: float):
        self.inlet_c = inlet_c

    def temperature_c(self, time_s: float) -> float:
        """The installed inlet, whatever *time_s*."""
        return self.inlet_c


class _ReferenceBackend:
    """One real :class:`ServerSimulator` per server (the naive loop).

    Offers the tick loop the physics surface of
    :class:`~repro.engine.kernel.FleetVectorKernel`; every per-server
    quantity comes from the wrapped simulator's own scalar code.
    """

    def __init__(self, fleet: Fleet, seed: int, trip_on_critical: bool):
        supply = fleet.supply_temperatures_c(0.0)
        self.sims: List[ServerSimulator] = [
            ServerSimulator(
                spec=spec,
                ambient=_InletAmbient(float(supply[i])),
                seed=seed + i,
                trip_on_critical=trip_on_critical,
            )
            for i, spec in enumerate(fleet.servers)
        ]

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
            sim.set_fan_rpm(cold_start_rpm)
            sim.fans.step(dt_s=COLD_START_SETTLE_S)
            sim.settle_to_steady_state(utilization_pct=0.0)

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

    def initial_views_data(self):
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
        integrate their own substeps (*substeps* and *h* are unused)
        and trip on critical temperatures themselves.
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

    def check_critical(self, trip: bool) -> None:
        """The wrapped simulators trip during :meth:`step_into` themselves."""


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
        if backend not in ("vector", "reference", "sharded"):
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
        # sharded coordinator does not replicate and the checkpoint
        # writer does not persist — reject both up front.
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
            if not float(barrier_timeout_s) > 0.0:
                raise ValueError("barrier_timeout_s must be positive")
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
        self.barrier_timeout_s = (
            float(barrier_timeout_s) if barrier_timeout_s is not None else None
        )
        #: Periodic run-state checkpointing (None = disabled); see
        #: :mod:`repro.engine.checkpoint` and ``docs/resilience.md``.
        self.checkpoint = checkpoint
        #: Last committed checkpoint of the current/most recent run.
        self.last_checkpoint_path = None
        #: Tick the most recent run resumed from (0 = started fresh).
        self.last_resume_tick = 0
        self._stop_requested = False
        self._checkpoint_requested = False
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
        # receives per-phase timers from the kernel loop.
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
        checkpoint first, then raises
        :class:`~repro.engine.checkpoint.RunInterrupted` carrying its
        path; without, it raises immediately.  Safe to call from a
        signal handler.
        """
        self._stop_requested = True

    def request_checkpoint(self) -> None:
        """Ask the running loop for an off-cadence checkpoint."""
        self._checkpoint_requested = True

    def _run_fingerprint(
        self, dt_s: float, steps: int, kind: str
    ) -> Dict[str, object]:
        """JSON-able run identity pinned into checkpoint manifests."""
        return {
            "kind": kind,
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
        }

    def _write_run_checkpoint(
        self,
        tick: int,
        dt_s: float,
        steps: int,
        plan: Optional[FleetFaultPlan],
        trace: Dict[str, np.ndarray],
        state: Dict[str, np.ndarray],
        physics,
    ):
        """Commit one atomic checkpoint after ``tick`` completed ticks.

        The kernel's state goes in as arrays; the ``reference``
        simulators, whose state is a tree of objects, are pickled.
        """
        cfg = self.checkpoint
        writer = CheckpointWriter(cfg.root, tick)
        if self.backend == "reference":
            writer.pickle("backend", physics)
        else:
            state.update(
                {
                    f"kernel_{key}": value
                    for key, value in physics.state_arrays().items()
                }
            )
        writer.arrays("state", state)
        writer.arrays("trace", {name: trace[name][:tick] for name in trace})
        writer.pickle(
            "control",
            {
                "controllers": self.controllers,
                "scheduler": self.scheduler,
                "sensor_channels": plan.sensor_channels
                if plan is not None
                else None,
            },
        )
        kind = _CHECKPOINT_KIND
        path = writer.commit(kind, self._run_fingerprint(dt_s, steps, kind))
        prune_checkpoints(cfg.root, cfg.keep)
        self.last_checkpoint_path = path
        self._checkpoint_requested = False
        return path

    def _load_run_checkpoint(
        self,
        resume_from,
        dt_s: float,
        steps: int,
        plan: Optional[FleetFaultPlan],
        trace: Dict[str, np.ndarray],
    ):
        """Restore an in-process-loop checkpoint; returns (tick, state, dir).

        Verifies payload checksums and the run fingerprint, refills the
        trace prefix, and swaps in the pickled controllers, scheduler
        and stateful fault-sensor channels.
        """
        directory = resolve_checkpoint(resume_from)
        manifest = read_manifest(directory)
        kind = _CHECKPOINT_KIND
        if manifest.get("kind") != kind:
            raise CheckpointError(
                f"checkpoint at {directory} is a {manifest.get('kind')!r} "
                f"checkpoint, this run needs {kind!r}"
            )
        require_fingerprint(
            manifest, self._run_fingerprint(dt_s, steps, kind)
        )
        tick = int(manifest["tick"])
        if not 0 < tick < steps:
            raise CheckpointError(
                f"checkpoint tick {tick} outside the run's 1..{steps - 1}"
            )
        state = load_arrays(directory, "state")
        saved_trace = load_arrays(directory, "trace")
        for name in trace:
            trace[name][:tick] = saved_trace[name]
        control = load_pickle(directory, "control")
        self.controllers = list(control["controllers"])
        if len(self.controllers) != self.fleet.server_count:
            raise CheckpointError(
                "checkpointed controller count does not match the fleet"
            )
        self.scheduler = control["scheduler"]
        channels = control["sensor_channels"]
        if plan is not None and channels is not None:
            plan.sensor_channels[:] = channels
        self.last_resume_tick = tick
        # until a newer checkpoint commits, the resumed-from one is
        # still the right restart point after another interruption
        self.last_checkpoint_path = directory
        return tick, state, directory

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
        # grid, and hand the same mask arrays to whichever loop runs —
        # the backends cannot disagree about event timing.  An empty
        # schedule compiles to None: the loops take the identical
        # fault-free path a run without a schedule takes.
        plan = (
            self.faults.compile(self.fleet, steps, dt_s)
            if self.faults is not None
            else None
        )
        self._stop_requested = False
        self._checkpoint_requested = False
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

        The ``vector`` and ``reference`` backends drain the in-process
        tick loop (:meth:`run_stream` yields from the same loop); the
        ``sharded`` backend partitions it across shard workers with
        streamed traces (bit-identical to ``vector``, see
        :mod:`repro.engine.sharded`).
        """
        steps, plan = self._prepare_run(dt_s, duration_s, resume_from)
        if self.backend == "sharded":
            from repro.engine.sharded import run_sharded

            result = run_sharded(self, dt_s, steps, plan, resume_from)
        else:
            trace = self._alloc_traces(steps)
            for _ in self._kernel_tick_stream(
                dt_s, steps, plan, trace, resume_from
            ):
                pass
            result = self._result_from_traces(dt_s, steps, trace, plan)
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    # shared setup / teardown
    # ------------------------------------------------------------------
    def _result_from_traces(
        self,
        dt_s: float,
        steps: int,
        trace: Dict[str, np.ndarray],
        plan: Optional[FleetFaultPlan],
    ) -> FleetResult:
        n = self.fleet.server_count
        fault_active = (
            plan.fault_active
            if plan is not None
            else np.zeros((steps, n), dtype=bool)
        )
        metrics = compute_fleet_metrics(
            self.fleet,
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
        controller_names = {c.name for c in self.controllers}
        return FleetResult(
            scheduler_name=self.scheduler.name,
            controller_name=(
                controller_names.pop()
                if len(controller_names) == 1
                else "mixed"
            ),
            backend=self.backend,
            dt_s=dt_s,
            times_s=np.arange(1, steps + 1) * dt_s,
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

    def _alloc_traces(self, steps: int) -> Dict[str, np.ndarray]:
        """Preallocate the whole-horizon trace block for one run."""
        n = self.fleet.server_count
        return {
            "power": np.empty((steps, n)),
            "fan": np.empty((steps, n)),
            "junction": np.empty((steps, n)),
            "util": np.empty((steps, n)),
            "inlet": np.empty((steps, n)),
            "rpm": np.empty((steps, n)),
            "unserved": np.empty(steps),
            "pstate": np.empty((steps, n), dtype=int),
            "deficit": np.empty((steps, n)),
            "respilled": np.zeros(steps),
            "fault_unserved": np.zeros(steps),
        }

    def _capture_flush(
        self,
        times_rec: np.ndarray,
        trace: Dict[str, np.ndarray],
        start: int,
        stop: int,
    ) -> None:
        """Hand trace rows ``[start, stop)`` to the capture tap."""
        self.capture.flush(
            times_rec[start:stop],
            {
                "power": trace["power"][start:stop],
                "fan": trace["fan"][start:stop],
                "junction": trace["junction"][start:stop],
                "util": trace["util"][start:stop],
                "inlet": trace["inlet"][start:stop],
                "rpm": trace["rpm"][start:stop],
            },
            unserved_pct=trace["unserved"][start:stop],
        )

    # ------------------------------------------------------------------
    # the in-process tick loop (backends "vector" and "reference")
    # ------------------------------------------------------------------
    def run_stream(
        self,
        dt_s: float = 1.0,
        duration_s: Optional[float] = None,
        resume_from=None,
    ) -> Iterator["FleetTickView"]:
        """Incrementally run the scenario, yielding one view per tick.

        The streaming twin of :meth:`run` for the in-process backends:
        the identical tick loop executes underneath (bit-identical
        traces), but control returns to the caller after every tick —
        the live telemetry service paces this generator against wall
        clock.  After exhaustion the full :class:`FleetResult` is
        available as :attr:`last_result`.

        The yielded arrays are views into the engine's trace block:
        read them, never write them.
        """
        if self.backend == "sharded":
            raise ValueError(
                "run_stream drives the in-process tick loop; the "
                "'sharded' backend cannot stream"
            )
        steps, plan = self._prepare_run(dt_s, duration_s, resume_from)
        trace = self._alloc_traces(steps)

        def stream() -> Iterator[FleetTickView]:
            for tick, time_s in self._kernel_tick_stream(
                dt_s, steps, plan, trace, resume_from
            ):
                yield FleetTickView(
                    tick=tick,
                    time_s=time_s,
                    total_power_w=trace["power"][tick],
                    fan_power_w=trace["fan"][tick],
                    max_junction_c=trace["junction"][tick],
                    utilization_pct=trace["util"][tick],
                    inlet_c=trace["inlet"][tick],
                    mean_rpm=trace["rpm"][tick],
                    unserved_pct=float(trace["unserved"][tick]),
                    replayed=tick < self.last_resume_tick,
                )
            self.last_result = self._result_from_traces(
                dt_s, steps, trace, plan
            )

        return stream()

    def _build_physics(self, restored, directory):
        """The backend's physics object: fresh, cold-started or restored."""
        if self.backend == "reference":
            if restored is not None:
                return load_pickle(directory, "backend")
            physics = _ReferenceBackend(
                self.fleet, self.seed, self.trip_on_critical
            )
        else:
            physics = FleetVectorKernel(self.fleet, metrics=self.metrics)
            if restored is not None:
                physics.load_state_arrays(
                    {
                        key: restored[f"kernel_{key}"]
                        for key in FleetVectorKernel.STATE_KEYS
                    }
                )
                return physics
        if self.cold_start:
            physics.force_cold_state(self.cold_start_rpm)
        return physics

    def _kernel_tick_stream(
        self,
        dt_s: float,
        steps: int,
        plan: Optional[FleetFaultPlan],
        trace: Dict[str, np.ndarray],
        resume_from=None,
    ) -> Iterator[tuple]:
        """The per-tick loop, yielding ``(tick, time_s)``.

        Single implementation behind both :meth:`run` (which drains
        it) and :meth:`run_stream`, for both in-process backends; the
        yield sits after the tick's trace rows are final.  ``time_s``
        in the yielded pair is the *end-of-tick* timestamp, matching
        ``FleetResult.times_s``.

        With ``resume_from`` the restored ticks are re-yielded first
        (their trace rows come from the checkpoint), then the loop
        continues from the checkpointed tick with restored physics,
        controller, scheduler and fault-channel state — the completed
        trace is bit-identical to an uninterrupted run.
        """
        n = self.fleet.server_count
        start_tick = 0
        restored = None
        directory = None
        if resume_from is not None:
            start_tick, restored, directory = self._load_run_checkpoint(
                resume_from, dt_s, steps, plan, trace
            )
        physics = self._build_physics(restored, directory)
        control = ControlSlice(self.fleet, self.controllers, plan=plan)
        if restored is not None:
            control.load_state_arrays(restored)
            executed = restored["executed"].copy()
            pstate_now = restored["pstate_now"].copy()
            exhaust_rise = restored["exhaust_rise"].copy()
            max_junction_c = restored["max_junction"].copy()
            leak_w = restored["leak_w"].copy()
        else:
            self.scheduler.reset()
            control.reset(physics.rpm)
            executed = np.zeros(n)
            pstate_now = np.zeros(n, dtype=int)
            exhaust_rise = np.zeros(n)
            max_junction_c, leak_w = physics.initial_views_data()
        inputs = TickInputs(self.fleet, self.workload, plan, steps, dt_s)
        times_pre_list = inputs.times_list
        rack_of = np.asarray(self.fleet.rack_index_of_server)
        substeps, h = substep_schedule(dt_s)
        # the leakage slope feeds only leakage-aware rankings and view
        # fallbacks, so it is computed lazily from the pre-step state
        slope_fn = physics.leakage_slope_w_per_c

        trace_power = trace["power"]
        trace_fan = trace["fan"]
        trace_junction = trace["junction"]
        trace_util = trace["util"]
        trace_inlet = trace["inlet"]
        trace_rpm = trace["rpm"]
        trace_unserved = trace["unserved"]
        trace_pstate = trace["pstate"]
        trace_deficit = trace["deficit"]
        trace_respilled = trace["respilled"]
        trace_fault_unserved = trace["fault_unserved"]

        scheduler = self.scheduler
        apply_faults = plan is not None
        dynamic_demand = self.workload.dynamic

        # Observability taps — both None in plain batch runs, in which
        # case the loop body takes the exact pre-existing path.
        capture = self.capture
        times_rec = np.arange(1, steps + 1) * dt_s
        flush_start = 0
        chunk_ticks = capture.chunk_ticks if capture is not None else 0
        if capture is not None:
            capture.bind(n)
            # Replay the restored trace prefix through the capture tap
            # in the exact chunk slices the uninterrupted run flushed:
            # the store (lost with the interrupted process) is rebuilt
            # bit-identically, and flush_start lands where it would be.
            while flush_start + chunk_ticks <= start_tick:
                self._capture_flush(
                    times_rec, trace, flush_start, flush_start + chunk_ticks
                )
                flush_start += chunk_ticks
        timers = None
        if self.metrics is not None:
            timers = (
                self.metrics.timer(
                    "repro_fleet_placement",
                    "Placement policy + scheduler assignment",
                ),
                self.metrics.timer(
                    "repro_fleet_control_poll",
                    "Controller polls (fan + p-state decisions)",
                ),
                self.metrics.timer(
                    "repro_fleet_thermal_step",
                    "Physics step (RC substeps + power)",
                ),
                self.metrics.timer(
                    "repro_fleet_trace_write",
                    "Capture flushes into the timeseries store",
                ),
            )

        ckpt_cfg = self.checkpoint
        ckpt_every = ckpt_cfg.every_ticks(dt_s) if ckpt_cfg is not None else 0

        for tick in range(start_tick):
            yield tick, times_rec[tick]

        for tick in range(start_tick, steps):
            time_s = times_pre_list[tick]
            total_demand = inputs.demand_total(tick)
            inlet = inputs.inlet(tick, exhaust_rise)

            if timers is not None:
                _t0 = perf_counter()
            (
                decision,
                trace_respilled[tick],
                trace_fault_unserved[tick],
            ) = scheduler.place(
                FleetLoadArrays(
                    utilization_pct=executed,
                    max_junction_c=max_junction_c,
                    inlet_c=inlet,
                    leakage_w=leak_w,
                    pstate_index=pstate_now,
                    rack_index=rack_of,
                    leakage_slope_fn=slope_fn,
                ),
                total_demand,
                plan.outage[tick]
                if apply_faults and plan.outage_any[tick]
                else None,
            )
            if timers is not None:
                timers[0].add(perf_counter() - _t0)
                _t0 = perf_counter()
            control.poll(time_s, physics, max_junction_c, executed)
            if timers is not None:
                timers[1].add(perf_counter() - _t0)

            # a degraded fan bank caps the achievable rotor speed below
            # the controller's command (the command itself is untouched)
            if apply_faults and plan.has_fan_faults:
                actuated_rpm = np.minimum(
                    control.rpm_command, plan.rpm_cap[tick]
                )
            else:
                actuated_rpm = control.rpm_command

            if timers is not None:
                _t0 = perf_counter()
            air_capacity, leak_w = physics.step_into(
                dt_s,
                substeps,
                h,
                decision.allocations_pct,
                actuated_rpm,
                inlet,
                trace_power[tick],
                trace_fan[tick],
                trace_junction[tick],
                trace_util[tick],
                trace_rpm[tick],
                trace_pstate[tick],
                trace_deficit[tick],
            )
            physics.check_critical(self.trip_on_critical)

            max_junction_c = trace_junction[tick]
            executed = trace_util[tick]
            pstate_now = trace_pstate[tick]
            # the exhaust temperature rise P / (m_dot c_p), with the
            # stream heat capacity the step already computed
            exhaust_rise = trace_power[tick] / air_capacity
            trace_inlet[tick] = inlet
            trace_unserved[tick] = decision.unserved_pct
            if dynamic_demand:
                self.workload.record_executed(
                    time_s, float(executed.sum()), dt_s
                )
            if timers is not None:
                timers[2].add(perf_counter() - _t0)

            if capture is not None and (
                tick + 1 - flush_start >= chunk_ticks or tick + 1 == steps
            ):
                if timers is not None:
                    _t0 = perf_counter()
                self._capture_flush(times_rec, trace, flush_start, tick + 1)
                flush_start = tick + 1
                if timers is not None:
                    timers[3].add(perf_counter() - _t0)

            if (
                ckpt_cfg is not None
                and tick + 1 < steps
                and (
                    (tick + 1) % ckpt_every == 0
                    or self._checkpoint_requested
                    or self._stop_requested
                )
            ):
                state = control.state_arrays()
                state.update(
                    executed=np.array(executed),
                    pstate_now=np.array(pstate_now),
                    exhaust_rise=np.array(exhaust_rise),
                    max_junction=np.array(max_junction_c),
                    leak_w=np.array(leak_w),
                )
                self._write_run_checkpoint(
                    tick + 1, dt_s, steps, plan, trace, state, physics
                )
            if self._stop_requested and tick + 1 < steps:
                raise RunInterrupted(
                    f"fleet run stopped at tick {tick + 1}/{steps}",
                    self.last_checkpoint_path,
                )

            yield tick, times_rec[tick]

        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_ticks_total", "Fleet engine ticks executed"
            ).inc(steps)
            self.metrics.gauge(
                "repro_fleet_sim_time_seconds", "Simulated seconds completed"
            ).set(steps * dt_s)
