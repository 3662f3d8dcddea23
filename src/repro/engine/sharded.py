"""Sharded fleet execution: per-shard kernels, streamed trace segments.

The ``vector`` backend of :class:`~repro.fleet.engine.FleetEngine` runs
one :class:`~repro.engine.kernel.FleetVectorKernel` over all N servers
in a single process and keeps every ``(steps, N)`` trace column in RAM.
This module is the ``sharded`` backend: the fleet is partitioned into
contiguous server slices, each owned by a worker that runs its own
kernel slice and spills its trace rows to the memory-mapped ``.npy``
segments of :mod:`repro.telemetry.segments`, while the coordinator
keeps everything cross-server — CRAC supplies, the recirculation
coupling, the placement policy's single global ranking and fill, and
fault attribution.  Both sides run the in-process loop's own per-tick
code from :mod:`repro.engine.control`: the coordinator its tick
prologue (:class:`~repro.engine.control.TickInputs` and
:meth:`~repro.fleet.scheduler.FleetScheduler.place`), each worker the
controller poll (:class:`~repro.engine.control.ControlSlice`) over its
``[lo, hi)``.

Bit-identity with ``vector`` holds by construction, not by tolerance:

* Every per-server physics expression in the kernel is elementwise or
  a per-row (per-server) reduction, so evaluating it over a contiguous
  row slice produces bit-identical results.
* The only cross-server couplings — the ``coupling @ exhaust_rise``
  recirculation product and the scheduler's ranked fill — stay on the
  coordinator, evaluated by the same code over the same gathered
  full-width arrays as the single-process loop.
* Controllers, poll clocks and stateful sensor-fault channels are
  partitioned with their servers; no per-server state is ever touched
  by two shards.

Per tick the coordinator and the k workers exchange exactly O(N)
values through shared memory: workers publish their post-step summary
rows (exhaust rise, executed utilization, hottest junction, leakage
and its slope, p-state), the coordinator publishes the inlet vector
and the placement allocations.  Two barriers sequence each tick:

.. code-block:: text

   coordinator                      workers (x k)
   -----------                      -------------
   trip check / capture flush
   supply + coupling + schedule
   publish inlet, allocations
   request checkpoint cut?
   ---------- barrier "go" ------------------------
                                    poll controllers [lo, hi)
                                    step_into -> chunk buffer
                                    spill chunk at boundary
                                    publish summary rows
                                    snapshot slice if cut requested
   ---------- barrier "done" ----------------------
   seal + commit checkpoint

Worker processes are forked (the ``process`` mode requires the
``fork`` start method; ``inline`` drives the same shard objects
sequentially in-process and is the default fallback), so controllers,
specs and the compiled fault plan are inherited copy-on-write without
pickling.  Critical-temperature trips are reported through shared trip
flags and re-raised by the coordinator with the globally-first server
index — the same server, message and exception type as ``vector``.

Checkpoints are a *consistent cut*: the coordinator announces the cut
tick through shared memory before the "go" barrier, every worker
snapshots its slice right after stepping that tick (a spill boundary,
so all trace rows below the cut are already durable on disk), and the
coordinator seals the checksummed manifest after the "done" barrier.
A supervisor wraps the process driver: worker death (detected by a
sentinel watcher that breaks the barriers immediately instead of
waiting out the timeout) is classified as restartable, and the run is
rebuilt from the latest checkpoint with bounded retries and
exponential backoff.  Barrier timeouts scale with the fleet size and
are overridable per engine or via ``REPRO_BARRIER_TIMEOUT_S``.

In ``process`` mode the coordinator's copies of the per-server
controller objects are *not* mutated (each worker advances its own
inherited copies), and the per-phase loop timers of the metrics
registry are not populated (tick counters and simulated-time gauges
are).  Traces land under ``trace_dir`` and are reassembled lazily by
:class:`~repro.telemetry.segments.FleetTraceReader`; when no directory
is given a temporary one is used and the result is materialized to RAM
before cleanup.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
from math import gcd
from multiprocessing.connection import wait as _sentinel_wait
from threading import BrokenBarrierError, Event, Thread
from time import monotonic, perf_counter, sleep
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointWriter,
    RunInterrupted,
    latest_checkpoint,
    load_arrays,
    load_pickle,
    prune_checkpoints,
    read_manifest,
    require_fingerprint,
    resolve_checkpoint,
    save_arrays,
    save_pickle,
    staging_dir_for_tick,
)
from repro.engine.control import ControlSlice, TickInputs
from repro.engine.kernel import FleetVectorKernel
from repro.server.server import CriticalTemperatureError
from repro.server.thermal import substep_schedule
from repro.telemetry.segments import (
    FLEET_TRACE_COLUMNS,
    FleetTraceReader,
    ShardedTraceWriter,
    ShardTraceWriter,
    default_chunk_ticks,
    partition_servers,
)

if TYPE_CHECKING:  # annotation-only; avoids an import cycle at runtime
    from repro.fleet.engine import FleetEngine, FleetResult
    from repro.fleet.faults import FleetFaultPlan

#: Per-server columns written by shard workers (the coordinator owns
#: ``inlet``, which is an input to the step, not an output of it).
_WORKER_COLUMNS = tuple(c for c in FLEET_TRACE_COLUMNS if c != "inlet")

#: Barrier timeout floor, s: even a tiny fleet gets a minute per tick
#: before a silent worker fails the run.
_BARRIER_TIMEOUT_FLOOR_S = 60.0

#: Barrier timeout growth, s per server: 0.006 s x 100k servers = the
#: 600 s budget the previously fixed timeout granted the largest drill.
_BARRIER_TIMEOUT_PER_SERVER_S = 0.006

#: Chaos-test seams (set by tests, inherited over ``fork``): called as
#: ``hook(shard_id, tick)`` in each worker right before it steps, and
#: ``hook(tick)`` on the coordinator right after each tick completes.
CHAOS_WORKER_HOOK: Optional[Callable[[int, int], None]] = None
CHAOS_COORDINATOR_HOOK: Optional[Callable[[int], None]] = None


def default_barrier_timeout_s(server_count: int) -> float:
    """Per-tick barrier budget scaled with the fleet size."""
    return max(
        _BARRIER_TIMEOUT_FLOOR_S,
        _BARRIER_TIMEOUT_PER_SERVER_S * int(server_count),
    )


def resolve_barrier_timeout_s(
    engine: "FleetEngine", server_count: int
) -> float:
    """Engine override > ``REPRO_BARRIER_TIMEOUT_S`` > scaled default."""
    if engine.barrier_timeout_s is not None:
        return float(engine.barrier_timeout_s)
    env = os.environ.get("REPRO_BARRIER_TIMEOUT_S")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"REPRO_BARRIER_TIMEOUT_S must be a number, got {env!r}"
            ) from None
        if not value > 0.0:
            raise ValueError("REPRO_BARRIER_TIMEOUT_S must be positive")
        return value
    return default_barrier_timeout_s(server_count)


class ShardCrashError(RuntimeError):
    """A sharded run failed below the coordinator.

    ``restartable`` distinguishes a worker that *died* (killed, OOM,
    wedged past the barrier timeout — worth restarting from the last
    checkpoint) from one that *raised* (a deterministic error that
    would simply recur on replay).
    """

    def __init__(self, message: str, restartable: bool = False) -> None:
        super().__init__(message)
        self.restartable = restartable


def _subfleet(fleet: Any, lo: int, hi: int) -> Any:
    """Servers ``[lo, hi)`` as a standalone :class:`Fleet`.

    Rack fragments keep their name, CRAC supply setpoint and CRAC
    model, so per-server supply temperatures are bit-identical to the
    full fleet's slice.  Recirculation is dropped — shard kernels never
    evaluate the coupling (the coordinator owns it).
    """
    from repro.fleet.topology import Fleet, Rack

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


class _SharedBlock:
    """The O(N) cross-process exchange arrays for one sharded run.

    Backed by ``multiprocessing.RawArray`` buffers in ``process`` mode
    (anonymous shared memory inherited over ``fork``) and by plain
    numpy arrays in ``inline`` mode; either way the coordinator and the
    workers see the same storage through numpy views.
    """

    def __init__(self, n: int, shard_count: int, ctx: Any = None) -> None:
        def f64(size: int) -> np.ndarray:
            if ctx is None:
                return np.zeros(size)
            return np.frombuffer(ctx.RawArray("d", size))

        def i64(size: int) -> np.ndarray:
            if ctx is None:
                return np.zeros(size, dtype=np.int64)
            return np.frombuffer(ctx.RawArray("q", size), dtype=np.int64)

        #: Worker-published post-step summaries, full width.
        self.exhaust_rise = f64(n)
        self.executed = f64(n)
        self.max_junction = f64(n)
        self.leakage = f64(n)
        self.slope = f64(n)
        self.pstate = i64(n)
        #: Coordinator-published per-tick inputs, full width.
        self.inlet = f64(n)
        self.allocations = f64(n)
        #: Per-shard critical-trip reports (-1 = no trip) and the
        #: cooperative stop flag.
        self.trip_server = i64(shard_count)
        self.trip_server[:] = -1
        self.trip_temp = f64(shard_count)
        self.trip_threshold = f64(shard_count)
        self.stop = i64(1)
        #: Supervision: per-shard completed-tick watermark and the
        #: wall-clock of each worker's last sign of life.
        self.progress = i64(shard_count)
        self.heartbeat = f64(shard_count)
        #: Checkpoint protocol: the cut tick every worker must snapshot
        #: after stepping (0 = no cut pending).
        self.ckpt_tick = i64(1)


class _ShardWorker:
    """One shard: kernel slice, controllers ``[lo, hi)``, trace spills.

    :meth:`step` is the poll / fan-cap / ``step_into`` / handoff section
    of the in-process tick loop over the shard's slice: the poll is the
    shared :class:`~repro.engine.control.ControlSlice` over ``[lo, hi)``
    and the remaining expressions are the loop's own, so the slice's
    rows are bit-identical to the ``vector`` backend's.
    """

    def __init__(
        self,
        engine: "FleetEngine",
        shard_id: int,
        lo: int,
        hi: int,
        shared: _SharedBlock,
        plan: Optional["FleetFaultPlan"],
        dt_s: float,
        steps: int,
        writer: ShardTraceWriter,
        chunk_ticks: int,
        times: List[float],
        barrier_timeout_s: float = _BARRIER_TIMEOUT_FLOOR_S,
        checkpoint_root: Optional[str] = None,
        resume_dir: Optional[str] = None,
        start_tick: int = 0,
    ) -> None:
        self.engine = engine
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self.shared = shared
        self.plan = plan
        self.dt_s = dt_s
        self.steps = steps
        self.writer = writer
        self.chunk_ticks = chunk_ticks
        self.times = times
        self.barrier_timeout_s = barrier_timeout_s
        self.checkpoint_root = checkpoint_root
        self.resume_dir = resume_dir
        self.start_tick = start_tick
        self.substeps, self.h = substep_schedule(dt_s)

    @property
    def _shard_name(self) -> str:
        return f"shard-{self.shard_id:04d}"

    def setup(self) -> None:
        """Build the shard kernel; cold-start or restore its state."""
        engine = self.engine
        lo, hi = self.lo, self.hi
        width = hi - lo
        self._sl = slice(lo, hi)
        kernel = FleetVectorKernel(_subfleet(engine.fleet, lo, hi))
        self.kernel = kernel
        if self.resume_dir is None:
            if engine.cold_start:
                kernel.force_cold_state(engine.cold_start_rpm)
            controllers = engine.controllers[lo:hi]
        else:
            state = load_arrays(self.resume_dir, self._shard_name)
            kernel.load_state_arrays(
                {
                    key: state[f"kernel_{key}"]
                    for key in FleetVectorKernel.STATE_KEYS
                }
            )
            control = load_pickle(self.resume_dir, self._shard_name)
            controllers = list(control["controllers"])
            if len(controllers) != width:
                raise CheckpointError(
                    f"checkpoint shard {self.shard_id} holds "
                    f"{len(controllers)} controllers, expected {width}"
                )
            channels = control["sensor_channels"]
            if self.plan is not None and channels is not None:
                self.plan.sensor_channels[lo:hi] = channels
        self.control = ControlSlice(
            engine.fleet, controllers, lo=lo, plan=self.plan
        )
        if self.resume_dir is None:
            self.control.reset(kernel.rpm)
        else:
            self.control.load_state_arrays(state)
        self.apply_faults = self.plan is not None

        # chunk buffers: the only O(chunk x width) state a worker holds
        self._buffers = {
            name: np.empty(
                (self.chunk_ticks, width),
                dtype=np.int64 if name == "pstate" else np.float64,
            )
            for name in _WORKER_COLUMNS
        }
        self._buf_power = self._buffers["power"]
        self._buf_fan = self._buffers["fan"]
        self._buf_junction = self._buffers["junction"]
        self._buf_util = self._buffers["util"]
        self._buf_rpm = self._buffers["rpm"]
        self._buf_pstate = self._buffers["pstate"]
        self._buf_deficit = self._buffers["deficit"]
        self._chunk_start = self.start_tick

        # pre-step state the poll reads: views into the shard's slice
        # of the published summary arrays
        self._junction_view = self.shared.max_junction[self._sl]
        self._executed_view = self.shared.executed[self._sl]

        if self.resume_dir is None:
            # initial publish (executed / p-state / exhaust stay zero,
            # matching the in-process loop's pre-first-tick state); on
            # resume the coordinator restores the full summary arrays
            # from its own payload instead
            max_junction_c, leak_w = kernel.initial_views_data()
            self.shared.max_junction[self._sl] = max_junction_c
            self.shared.leakage[self._sl] = leak_w
            self.shared.slope[self._sl] = kernel.leakage_slope_w_per_c()

    def step(self, tick: int) -> None:  # reprolint: hot
        """One tick over the shard slice: poll, physics, publish, spill."""
        plan = self.plan
        kernel = self.kernel
        sl = self._sl
        shared = self.shared
        control = self.control

        control.poll(
            self.times[tick], kernel, self._junction_view, self._executed_view
        )

        # a degraded fan bank caps the achievable rotor speed below the
        # controller's command (the command itself is untouched)
        if self.apply_faults and plan.has_fan_faults:
            actuated_rpm = np.minimum(control.rpm_command, plan.rpm_cap[tick][sl])
        else:
            actuated_rpm = control.rpm_command

        r = tick - self._chunk_start
        air_capacity, leak_w = kernel.step_into(
            self.dt_s,
            self.substeps,
            self.h,
            shared.allocations[sl],
            actuated_rpm,
            shared.inlet[sl],
            self._buf_power[r],
            self._buf_fan[r],
            self._buf_junction[r],
            self._buf_util[r],
            self._buf_rpm[r],
            self._buf_pstate[r],
            self._buf_deficit[r],
        )
        if self.engine.trip_on_critical:
            self._check_critical(self._buf_junction[r])

        # publish the post-step summary rows the coordinator schedules
        # from at the next tick (same expressions as the in-process
        # loop's state handoff; the slope is published eagerly —
        # identical to the lazy provider, it reads the same post-step
        # t_j)
        shared.exhaust_rise[sl] = self._buf_power[r] / air_capacity
        shared.executed[sl] = self._buf_util[r]
        shared.max_junction[sl] = self._buf_junction[r]
        shared.leakage[sl] = leak_w
        shared.slope[sl] = kernel.leakage_slope_w_per_c()
        shared.pstate[sl] = self._buf_pstate[r]

        if tick + 1 - self._chunk_start >= self.chunk_ticks or (
            tick + 1 == self.steps
        ):
            self._spill(tick + 1)

    def mark_progress(self, tick: int) -> None:
        """Publish the completed-tick watermark and a heartbeat."""
        self.shared.progress[self.shard_id] = tick + 1
        self.shared.heartbeat[self.shard_id] = monotonic()

    def maybe_checkpoint(self, tick: int) -> None:
        """Snapshot this slice if a cut is announced for ``tick + 1``.

        Called right after :meth:`step` every tick; the fast path is a
        pair of scalar reads and must stay allocation-free (it is
        registered in the reprolint hot-path config).  The snapshot
        itself is cold-path work in :meth:`_snapshot_slice`.
        """
        root = self.checkpoint_root
        if root is None or int(self.shared.ckpt_tick[0]) != tick + 1:
            return
        self._snapshot_slice(root, tick)

    def _snapshot_slice(self, root: str, tick: int) -> None:
        """Write this slice's state into the announced cut's staging dir.

        A cut is only ever announced at a spill boundary, so every
        trace row below it is already on disk and the snapshot is
        exactly the worker's carried state: kernel arrays, controller
        objects, poll clocks, fan commands and the shard's stateful
        sensor-fault channels.
        """
        staging = staging_dir_for_tick(root, tick + 1)
        arrays: Dict[str, np.ndarray] = {
            f"kernel_{key}": value
            for key, value in self.kernel.state_arrays().items()
        }
        arrays.update(self.control.state_arrays())
        save_arrays(staging, self._shard_name, arrays)
        channels = None
        if self.plan is not None:
            channels = list(self.plan.sensor_channels[self.lo : self.hi])
        save_pickle(
            staging,
            self._shard_name,
            {
                "controllers": self.control.controllers,
                "sensor_channels": channels,
            },
        )

    def _check_critical(self, hottest: np.ndarray) -> None:
        """Record a trip flag instead of raising (the coordinator raises).

        Same selection as ``FleetVectorKernel.check_critical`` — the
        first over-threshold server in index order — reported with the
        global index so the coordinator can pick the globally-first
        trip across shards and replicate the vector error message.
        """
        over = np.nonzero(hottest > self.kernel.critical_c)[0]
        if over.size:
            li = int(over[0])
            self.shared.trip_server[self.shard_id] = self.lo + li
            self.shared.trip_temp[self.shard_id] = float(hottest[li])
            self.shared.trip_threshold[self.shard_id] = float(
                self.kernel.critical_c[li]
            )

    def _spill(self, stop_tick: int) -> None:
        """Write buffered rows ``[chunk_start, stop_tick)`` to disk."""
        rows = stop_tick - self._chunk_start
        self.writer.record_chunk(
            self._chunk_start,
            {name: buf[:rows] for name, buf in self._buffers.items()},
        )
        self._chunk_start = stop_tick

    def close(self) -> None:
        """Flush and close the shard's segment files."""
        self.writer.close()


class _Coordinator:
    """The cross-server plane: inlets, placement, attribution, capture.

    :meth:`begin_tick` runs the in-process loop's tick prologue — the
    shared :class:`~repro.engine.control.TickInputs` and
    :meth:`~repro.fleet.scheduler.FleetScheduler.place` — over the
    gathered full-width arrays and publishes its outputs (inlet,
    allocations) for the workers.
    """

    def __init__(
        self,
        engine: "FleetEngine",
        dt_s: float,
        steps: int,
        plan: Optional["FleetFaultPlan"],
        inputs: TickInputs,
        shared: _SharedBlock,
        inlet_writer: ShardTraceWriter,
        chunk_ticks: int,
        trace_writer: ShardedTraceWriter,
        checkpoint: Optional[CheckpointConfig] = None,
        ckpt_every_ticks: Optional[int] = None,
        fingerprint: Optional[Mapping[str, Any]] = None,
        resume_dir: Optional[str] = None,
        start_tick: int = 0,
    ) -> None:
        from repro.fleet.scheduler import FleetLoadArrays

        self._load_arrays = FleetLoadArrays
        self.engine = engine
        self.dt_s = dt_s
        self.steps = steps
        self.plan = plan
        self.shared = shared
        self.inlet_writer = inlet_writer
        self.chunk_ticks = chunk_ticks
        self.trace_writer = trace_writer
        self.checkpoint = checkpoint
        self.ckpt_every_ticks = ckpt_every_ticks
        self.fingerprint: Dict[str, Any] = (
            dict(fingerprint) if fingerprint is not None else {}
        )
        self.start_tick = int(start_tick)
        self._ckpt_writer: Optional[CheckpointWriter] = None

        self.inputs = inputs
        n = engine.fleet.server_count
        self.rack_of = np.asarray(engine.fleet.rack_index_of_server)
        if resume_dir is None:
            engine.scheduler.reset()
        else:
            engine.scheduler = load_pickle(resume_dir, "coordinator")[
                "scheduler"
            ]

        # coordinator-owned 1-D traces (O(steps), kept in RAM)
        self.trace_unserved = np.empty(steps)
        self.trace_respilled = np.zeros(steps)
        self.trace_fault_unserved = np.zeros(steps)
        if resume_dir is not None:
            restored = load_arrays(resume_dir, "coordinator")
            t = self.start_tick
            self.trace_unserved[:t] = restored["unserved"]
            self.trace_respilled[:t] = restored["respilled"]
            self.trace_fault_unserved[:t] = restored["fault_unserved"]
            # the post-step summaries of the cut tick: restored *here*,
            # before any worker runs, so resumed workers skip their
            # initial publish
            shared.exhaust_rise[:] = restored["exhaust_rise"]
            shared.executed[:] = restored["executed"]
            shared.max_junction[:] = restored["max_junction"]
            shared.leakage[:] = restored["leakage"]
            shared.slope[:] = restored["slope"]
            shared.pstate[:] = restored["pstate"]

        # inlet chunk buffer, spilled on the same boundaries as the
        # workers' physics columns
        self._buf_inlet = np.empty((chunk_ticks, n))
        self._chunk_start = self.start_tick

        # capture tap: flushed from the read-side memory maps of the
        # freshly-spilled segments, on the capture's own chunk cadence
        # (the writer chunk divides it, see run_sharded)
        self.capture = engine.capture
        self.times_rec = np.arange(1, steps + 1) * dt_s
        self._flush_start = 0
        self._capture_cols: Dict[str, np.ndarray] = {}
        if self.capture is not None:
            self.capture.bind(n)
            self._capture_cols = {
                name: trace_writer.read_view(name)
                for name in ("power", "fan", "junction", "util", "inlet", "rpm")
            }
            if self.start_tick > 0:
                # replay the restored prefix through the tap in the
                # exact flush slices the uninterrupted run used, so
                # every downstream capture artifact is bit-identical
                cap_chunk = int(self.capture.chunk_ticks)
                target = ((self.start_tick - 1) // cap_chunk) * cap_chunk
                while self._flush_start < target:
                    self._capture_flush(self._flush_start + cap_chunk)

    def _raise_if_tripped(self) -> None:
        """Re-raise the globally-first critical trip, vector-style."""
        tripped = self.shared.trip_server
        hit = np.nonzero(tripped >= 0)[0]
        if not hit.size:
            return
        shard = int(hit[np.argmin(tripped[hit])])
        i = int(tripped[shard])
        raise CriticalTemperatureError(
            f"server {i} junction reached "
            f"{self.shared.trip_temp[shard]:.1f} degC (critical threshold "
            f"{self.shared.trip_threshold[shard]:.1f} degC)"
        )

    def _capture_flush(self, stop: int) -> None:
        """Hand trace rows ``[flush_start, stop)`` to the capture tap."""
        start = self._flush_start
        self.capture.flush(
            self.times_rec[start:stop],
            {
                name: np.asarray(col[start:stop])
                for name, col in self._capture_cols.items()
            },
            unserved_pct=self.trace_unserved[start:stop],
        )
        self._flush_start = stop

    def begin_tick(self, tick: int) -> None:  # reprolint: hot
        """Trip check, capture flush, then schedule + publish tick inputs."""
        self._raise_if_tripped()
        if (
            self.capture is not None
            and tick - self._flush_start >= self.capture.chunk_ticks
        ):
            self._capture_flush(tick)

        plan = self.plan
        shared = self.shared
        inputs = self.inputs
        inlet = inputs.inlet(tick, shared.exhaust_rise)
        (
            decision,
            self.trace_respilled[tick],
            self.trace_fault_unserved[tick],
        ) = self.engine.scheduler.place(
            self._load_arrays(
                utilization_pct=shared.executed,
                max_junction_c=shared.max_junction,
                inlet_c=inlet,
                leakage_w=shared.leakage,
                pstate_index=shared.pstate,
                rack_index=self.rack_of,
                leakage_slope_w_per_c=shared.slope,
            ),
            inputs.demand_total(tick),
            plan.outage[tick]
            if plan is not None and plan.outage_any[tick]
            else None,
        )

        shared.inlet[:] = inlet
        shared.allocations[:] = decision.allocations_pct
        self.trace_unserved[tick] = decision.unserved_pct

        r = tick - self._chunk_start
        self._buf_inlet[r] = inlet
        if tick + 1 - self._chunk_start >= self.chunk_ticks or (
            tick + 1 == self.steps
        ):
            self.inlet_writer.record_chunk(
                self._chunk_start, {"inlet": self._buf_inlet[: r + 1]}
            )
            self._chunk_start = tick + 1

    def maybe_request_checkpoint(self, tick: int) -> None:
        """Announce a cut after ``tick`` if one is due at its boundary.

        Called between :meth:`begin_tick` and the "go" barrier.  Cuts
        land only on spill boundaries (the cadence is pre-aligned to a
        multiple of ``chunk_ticks``; a stop/checkpoint request waits
        for the next boundary), so the announced tick's trace rows are
        durable before the manifest is sealed.
        """
        if self.checkpoint is None or self.ckpt_every_ticks is None:
            return
        t1 = tick + 1
        if t1 >= self.steps:
            return
        due = t1 % self.ckpt_every_ticks == 0
        if not due and (
            self.engine._stop_requested or self.engine._checkpoint_requested
        ):
            due = t1 % self.chunk_ticks == 0
        if not due:
            return
        self._ckpt_writer = CheckpointWriter(self.checkpoint.root, t1)
        self.shared.ckpt_tick[0] = t1

    def maybe_commit_checkpoint(self, tick: int) -> Optional[str]:
        """Seal the cut announced for ``tick``, if any; return its path.

        Runs after the "done" barrier every tick; the fast path is two
        scalar reads and must stay allocation-free (registered in the
        reprolint hot-path config).  Sealing is cold-path work in
        :meth:`_seal_cut`.
        """
        if self.checkpoint is None:
            return None
        t1 = tick + 1
        if int(self.shared.ckpt_tick[0]) != t1:
            return None
        return self._seal_cut(t1)

    def _seal_cut(self, t1: int) -> str:
        """Complete and atomically commit the cut announced for ``t1``.

        Every worker's slice snapshot is already staged (the "done"
        barrier passed), so adding the coordinator payload (scalar
        traces, the published summary arrays, the scheduler) completes
        the consistent cut before the atomic rename.
        """
        writer = self._ckpt_writer
        assert writer is not None
        writer.arrays(
            "coordinator",
            {
                "unserved": self.trace_unserved[:t1].copy(),
                "respilled": self.trace_respilled[:t1].copy(),
                "fault_unserved": self.trace_fault_unserved[:t1].copy(),
                "exhaust_rise": np.array(self.shared.exhaust_rise),
                "executed": np.array(self.shared.executed),
                "max_junction": np.array(self.shared.max_junction),
                "leakage": np.array(self.shared.leakage),
                "slope": np.array(self.shared.slope),
                "pstate": np.array(self.shared.pstate),
            },
        )
        writer.pickle("coordinator", {"scheduler": self.engine.scheduler})
        path = writer.commit(
            "fleet-sharded",
            self.fingerprint,
            extra={"chunk_ticks": self.chunk_ticks},
        )
        prune_checkpoints(self.checkpoint.root, self.checkpoint.keep)
        self.shared.ckpt_tick[0] = 0
        self._ckpt_writer = None
        self.engine.last_checkpoint_path = path
        self.engine._checkpoint_requested = False
        return str(path)

    def finish(self) -> None:
        """Post-loop trip check and the final capture flush."""
        self._raise_if_tripped()
        if self.capture is not None:
            self._capture_flush(self.steps)
        self.inlet_writer.close()


def _worker_main(
    worker: _ShardWorker, go: Any, done: Any, errors: Any
) -> None:
    """Worker-process entry: run the shard through the barrier protocol."""
    timeout = worker.barrier_timeout_s
    try:
        worker.setup()
        done.wait(timeout=timeout)
        for tick in range(worker.start_tick, worker.steps):
            go.wait(timeout=timeout)
            if worker.shared.stop[0]:
                break
            if CHAOS_WORKER_HOOK is not None:
                CHAOS_WORKER_HOOK(worker.shard_id, tick)
            worker.step(tick)
            worker.maybe_checkpoint(tick)
            worker.mark_progress(tick)
            done.wait(timeout=timeout)
        worker.close()
    except BrokenBarrierError:
        # a peer or the coordinator already failed and broke the
        # barriers — secondary noise, never the root cause; reporting
        # it would mask the real error during classification
        pass
    except BaseException as exc:  # propagate, then unblock everyone
        try:
            errors.put_nowait(
                (worker.shard_id, type(exc).__name__, str(exc))
            )
            errors.cancel_join_thread()
        except Exception:
            pass
        go.abort()
        done.abort()


def _collect_worker_error(
    errors: Any,
    procs: Sequence[Any] = (),
    shared: Optional[_SharedBlock] = None,
    tick: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> ShardCrashError:
    """Classify a broken barrier into one :class:`ShardCrashError`.

    A reported worker exception is deterministic and not restartable;
    a dead or silent worker (killed, OOM, wedged) is — the run can be
    rebuilt from the last checkpoint.  The grace ``get`` absorbs the
    race between a worker's error enqueue and its barrier abort.
    """
    details = []
    try:
        shard_id, kind, message = errors.get(True, 1.0)
        details.append(f"shard {shard_id}: {kind}: {message}")
        while True:
            shard_id, kind, message = errors.get_nowait()
            details.append(f"shard {shard_id}: {kind}: {message}")
    except Exception:
        pass
    if details:
        return ShardCrashError(
            "sharded fleet run failed: " + "; ".join(sorted(details)),
            restartable=False,
        )
    dead = [
        shard_id
        for shard_id, proc in enumerate(procs)
        if not proc.is_alive()
    ]
    if dead:
        return ShardCrashError(
            f"shard worker(s) {dead} died without reporting an error "
            "(killed or out of memory)",
            restartable=True,
        )
    laggards: List[int] = []
    if shared is not None and tick is not None:
        laggards = [
            shard_id
            for shard_id, done_tick in enumerate(shared.progress)
            if int(done_tick) <= tick
        ]
    budget = f" after {timeout_s:.0f}s" if timeout_s is not None else ""
    at = f" at tick {tick}" if tick is not None else ""
    return ShardCrashError(
        f"sharded fleet run barrier timed out{budget}{at}; "
        f"shards that failed to arrive: {laggards or 'unknown'}",
        restartable=True,
    )


def _drive_inline(
    coordinator: _Coordinator,
    workers: Sequence[_ShardWorker],
    steps: int,
    start_tick: int = 0,
) -> None:
    """Sequential driver: same shard objects, no processes, no barriers."""
    engine = coordinator.engine
    try:
        for worker in workers:
            worker.setup()
        for tick in range(start_tick, steps):
            coordinator.begin_tick(tick)
            coordinator.maybe_request_checkpoint(tick)
            for worker in workers:
                worker.step(tick)
            for worker in workers:
                worker.maybe_checkpoint(tick)
            path = coordinator.maybe_commit_checkpoint(tick)
            if (
                engine._stop_requested
                and tick + 1 < steps
                and (coordinator.checkpoint is None or path is not None)
            ):
                raise RunInterrupted(
                    f"sharded run stopped at tick {tick + 1}/{steps}",
                    engine.last_checkpoint_path,
                )
        coordinator.finish()
    finally:
        for worker in workers:
            worker.close()


def _watch_sentinels(
    procs: Sequence[Any],
    go: Any,
    done: Any,
    stop: Event,
    shared: "_SharedBlock",
    steps: int,
) -> None:
    """Break the barriers the moment any worker process *crashes*.

    Without this, a SIGKILLed worker leaves the coordinator and every
    sibling blocked until the barrier timeout; process sentinels turn
    that into an immediate, classifiable failure.  An exit is a crash
    only if the worker had ticks left to run and no cooperative stop
    was flagged: at end of run the workers can clear the final barrier
    and exit before the coordinator observes its own release, and
    aborting then would break the barrier out from under it.
    """
    remaining = {proc.sentinel: shard for shard, proc in enumerate(procs)}
    while remaining and not stop.is_set():
        ready = _sentinel_wait(list(remaining), timeout=0.25)
        crashed = False
        for sentinel in ready:
            shard = remaining.pop(sentinel, None)
            if (
                shard is not None
                and int(shared.progress[shard]) < steps
                and not shared.stop[0]
            ):
                crashed = True
        if crashed and not stop.is_set():
            go.abort()
            done.abort()
            return


def _drive_process(
    coordinator: _Coordinator,
    workers: Sequence[_ShardWorker],
    steps: int,
    shared: _SharedBlock,
    start_tick: int = 0,
    timeout_s: float = _BARRIER_TIMEOUT_FLOOR_S,
) -> None:
    """Forked driver: one process per shard, two barriers per tick."""
    engine = coordinator.engine
    ctx = multiprocessing.get_context("fork")
    go = ctx.Barrier(len(workers) + 1)
    done = ctx.Barrier(len(workers) + 1)
    errors = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(worker, go, done, errors),
            daemon=True,
        )
        for worker in workers
    ]

    def wait(barrier: Any, tick: Optional[int] = None) -> None:
        try:
            barrier.wait(timeout=timeout_s)
        except BrokenBarrierError:
            raise _collect_worker_error(
                errors, procs, shared, tick, timeout_s
            ) from None

    def release_into_stop() -> None:
        shared.stop[0] = 1
        try:
            go.wait(timeout=5.0)
        except Exception:
            go.abort()
            done.abort()

    for proc in procs:
        proc.start()
    stop_watch = Event()
    watcher = Thread(
        target=_watch_sentinels,
        args=(procs, go, done, stop_watch, shared, steps),
        daemon=True,
    )
    watcher.start()
    try:
        wait(done, start_tick - 1)  # initial publishes visible
        for tick in range(start_tick, steps):
            try:
                coordinator.begin_tick(tick)
                coordinator.maybe_request_checkpoint(tick)
            except Exception:
                # release the workers into a cooperative stop before
                # re-raising (trip or scheduling error on our side)
                release_into_stop()
                raise
            wait(go, tick)
            wait(done, tick)
            path = coordinator.maybe_commit_checkpoint(tick)
            if CHAOS_COORDINATOR_HOOK is not None:
                CHAOS_COORDINATOR_HOOK(tick)
            if (
                engine._stop_requested
                and tick + 1 < steps
                and (coordinator.checkpoint is None or path is not None)
            ):
                release_into_stop()
                raise RunInterrupted(
                    f"sharded run stopped at tick {tick + 1}/{steps}",
                    engine.last_checkpoint_path,
                )
        coordinator.finish()
    finally:
        stop_watch.set()
        shared.stop[0] = 1
        for proc in procs:
            proc.join(timeout=10.0)
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)


def resolve_shard_mode(mode: str) -> str:
    """Map a ``shard_mode`` setting to ``"process"`` or ``"inline"``.

    ``auto`` picks ``process`` when the ``fork`` start method exists
    (Linux/macOS CPython) and the current process may have children
    (daemonic workers — e.g. a parallel sweep's pool — may not), and
    falls back to ``inline`` otherwise; requesting ``process`` where it
    cannot work is an error — the worker protocol inherits unpicklable
    state (controller closures, compiled fault plans) by design.
    """
    if mode not in ("auto", "process", "inline"):
        raise ValueError(f"unknown shard_mode {mode!r}")
    fork_ok = "fork" in multiprocessing.get_all_start_methods()
    daemonic = multiprocessing.current_process().daemon
    if mode == "auto":
        return "process" if fork_ok and not daemonic else "inline"
    if mode == "process" and not fork_ok:
        raise ValueError(
            "shard_mode='process' needs the fork start method; "
            "use shard_mode='inline' on this platform"
        )
    if mode == "process" and daemonic:
        raise ValueError(
            "shard_mode='process' cannot fork workers from a daemonic "
            "process (e.g. inside a parallel sweep); use "
            "shard_mode='inline' there"
        )
    return mode


def ru_maxrss_kib(ru_maxrss: int, platform: Optional[str] = None) -> int:
    """Normalize a ``getrusage().ru_maxrss`` reading to KiB.

    POSIX leaves the unit unspecified: Linux reports KiB but macOS
    reports bytes, so labeling the raw value ``_kb`` overstates Darwin
    peak RSS by 1024x.  ``platform`` defaults to ``sys.platform`` and
    exists for tests.
    """
    if platform is None:
        platform = sys.platform
    if platform == "darwin":
        return int(ru_maxrss) // 1024
    return int(ru_maxrss)


def run_sharded(
    engine: "FleetEngine",
    dt_s: float,
    steps: int,
    plan: Optional["FleetFaultPlan"],
    resume_from: Optional[str] = None,
) -> "FleetResult":
    """Run *engine*'s scenario sharded; returns a vector-bit-identical result.

    Called by :meth:`FleetEngine.run` for ``backend="sharded"`` with
    the already-validated tick count and the pre-compiled fault plan
    (compiled once, before any fork, so every worker inherits the same
    masks and stateful sensor channels).  Streams traces into
    ``engine.trace_dir`` (a temporary, deleted directory when None) and
    records wall-clock / peak-RSS figures in ``engine.last_run_stats``.

    With ``engine.checkpoint`` set, consistent-cut checkpoints are
    committed on the (spill-aligned) cadence and restartable worker
    deaths are retried from the latest cut, up to
    ``checkpoint.max_restarts`` times with exponential backoff; with
    ``resume_from``, the run continues from that cut and the finished
    trace is bit-identical to the uninterrupted run.
    """
    wall_t0 = perf_counter()
    fleet = engine.fleet
    n = fleet.server_count
    socket_counts = {spec.socket_count for spec in fleet.servers}
    if len(socket_counts) != 1:
        raise ValueError(
            "the sharded backend needs every server to have the same "
            f"socket count (got {sorted(socket_counts)}); use "
            "backend='reference' for heterogeneous fleets"
        )
    shards: Union[int, Sequence[int]] = (
        engine.shards if engine.shards is not None else min(2, n)
    )
    bounds = partition_servers(n, shards)
    mode = resolve_shard_mode(engine.shard_mode)
    ckpt_cfg: Optional[CheckpointConfig] = engine.checkpoint

    trace_dir = engine.trace_dir
    temporary = trace_dir is None
    if temporary and (ckpt_cfg is not None or resume_from is not None):
        raise ValueError(
            "sharded checkpoint/resume needs a persistent trace_dir: "
            "the streamed trace rows on disk are part of the "
            "checkpointed state"
        )
    if temporary:
        trace_dir = tempfile.mkdtemp(prefix="repro-sharded-")

    chunk_ticks = (
        engine.stream_chunk_ticks
        if engine.stream_chunk_ticks is not None
        else default_chunk_ticks(n)
    )
    chunk_ticks = min(int(chunk_ticks), steps)
    if engine.capture is not None:
        # worker spill boundaries must land on (divide) the capture's
        # flush boundaries: the capture reads rows back through the
        # segment files, so they must be on disk by flush time
        chunk_ticks = gcd(chunk_ticks, int(engine.capture.chunk_ticks))

    timeout_s = resolve_barrier_timeout_s(engine, n)
    ckpt_every: Optional[int] = None
    if ckpt_cfg is not None:
        # checkpoint cuts must land on spill boundaries: at a cut tick
        # the workers have just spilled, so every trace row below the
        # cut is already durable and the snapshot is state-only.  The
        # spill chunk is shrunk to divide the cadence (it still divides
        # the capture chunk), then the cadence is rounded up onto the
        # resulting boundary grid.
        every = ckpt_cfg.every_ticks(dt_s)
        chunk_ticks = gcd(chunk_ticks, min(every, steps))
        ckpt_every = -(-every // chunk_ticks) * chunk_ticks

    start_tick = 0
    resume_dir: Optional[str] = None
    if resume_from is not None:
        resolved = resolve_checkpoint(resume_from)
        manifest = read_manifest(resolved)
        if manifest.get("kind") != "fleet-sharded":
            raise CheckpointError(
                f"checkpoint {resolved} is kind "
                f"{manifest.get('kind')!r}, expected 'fleet-sharded'"
            )
        start_tick = int(manifest["tick"])
        if not 0 < start_tick < steps:
            raise CheckpointError(
                f"checkpoint tick {start_tick} outside the resumable "
                f"range (0, {steps})"
            )
        # adopt the checkpointed run's spill grid: the trace rows on
        # disk were written on it, and the cut tick is one of its
        # boundaries — a resumed writer must stay on the same grid
        chunk_ticks = int(manifest.get("chunk_ticks", chunk_ticks))
        if engine.capture is not None and (
            int(engine.capture.chunk_ticks) % chunk_ticks
        ):
            raise CheckpointError(
                f"capture chunk_ticks {engine.capture.chunk_ticks} is "
                f"not a multiple of the checkpointed spill grid "
                f"{chunk_ticks}"
            )
        if start_tick % chunk_ticks:
            raise CheckpointError(
                f"checkpoint tick {start_tick} is not on the spill "
                f"grid ({chunk_ticks} ticks)"
            )
        if ckpt_cfg is not None:
            every = ckpt_cfg.every_ticks(dt_s)
            ckpt_every = -(-every // chunk_ticks) * chunk_ticks
        resume_dir = str(resolved)

    fingerprint = engine._run_fingerprint(dt_s, steps, "fleet-sharded")
    fingerprint["shard_bounds"] = [list(b) for b in bounds]
    fingerprint["stream_chunk_ticks"] = int(chunk_ticks)
    if resume_from is not None:
        require_fingerprint(manifest, fingerprint)
        engine.last_resume_tick = start_tick
        engine.last_checkpoint_path = resolved

    ctx = (
        multiprocessing.get_context("fork") if mode == "process" else None
    )
    inputs = TickInputs(fleet, engine.workload, plan, steps, dt_s)

    def build(
        attempt_resume: Optional[str], attempt_start: int
    ) -> Tuple[
        _SharedBlock, ShardedTraceWriter, List[_ShardWorker], _Coordinator
    ]:
        shared = _SharedBlock(n, len(bounds), ctx)
        if attempt_start:
            shared.progress[:] = attempt_start
        writer = ShardedTraceWriter(
            trace_dir,
            steps,
            n,
            chunk_ticks=chunk_ticks,
            resume=attempt_resume is not None,
        )
        workers = [
            _ShardWorker(
                engine,
                shard_id,
                lo,
                hi,
                shared,
                plan,
                dt_s,
                steps,
                writer.shard_writer(lo, hi, columns=_WORKER_COLUMNS),
                chunk_ticks,
                inputs.times_list,
                barrier_timeout_s=timeout_s,
                checkpoint_root=(
                    str(ckpt_cfg.root) if ckpt_cfg is not None else None
                ),
                resume_dir=attempt_resume,
                start_tick=attempt_start,
            )
            for shard_id, (lo, hi) in enumerate(bounds)
        ]
        coordinator = _Coordinator(
            engine,
            dt_s,
            steps,
            plan,
            inputs,
            shared,
            writer.shard_writer(0, n, columns=("inlet",)),
            chunk_ticks,
            writer,
            checkpoint=ckpt_cfg,
            ckpt_every_ticks=ckpt_every,
            fingerprint=fingerprint,
            resume_dir=attempt_resume,
            start_tick=attempt_start,
        )
        return shared, writer, workers, coordinator

    try:
        restarts = 0
        attempt_resume, attempt_start = resume_dir, start_tick
        while True:
            shared, writer, workers, coordinator = build(
                attempt_resume, attempt_start
            )
            try:
                if mode == "process":
                    _drive_process(
                        coordinator,
                        workers,
                        steps,
                        shared,
                        attempt_start,
                        timeout_s,
                    )
                else:
                    _drive_inline(
                        coordinator, workers, steps, attempt_start
                    )
                break
            except ShardCrashError as crash:
                if (
                    not crash.restartable
                    or ckpt_cfg is None
                    or restarts >= ckpt_cfg.max_restarts
                ):
                    raise
                latest = latest_checkpoint(ckpt_cfg.root)
                if latest is None:
                    raise
                manifest = read_manifest(latest)
                require_fingerprint(manifest, fingerprint)
                restarts += 1
                backoff = ckpt_cfg.restart_backoff_s * 2 ** (restarts - 1)
                if backoff > 0:
                    sleep(backoff)
                attempt_resume = str(latest)
                attempt_start = int(manifest["tick"])
                engine.last_resume_tick = attempt_start
                engine.last_checkpoint_path = latest

        writer.write_scalar("unserved", coordinator.trace_unserved)
        writer.write_scalar("respilled", coordinator.trace_respilled)
        writer.write_scalar(
            "fault_unserved", coordinator.trace_fault_unserved
        )
        if plan is not None:
            writer.write_fault_active(plan.fault_active)
        controller_names = {c.name for c in engine.controllers}
        writer.finalize(
            {
                "backend": "sharded",
                "dt_s": dt_s,
                "scheduler": engine.scheduler.name,
                "controller": (
                    controller_names.pop()
                    if len(controller_names) == 1
                    else "mixed"
                ),
                "shard_bounds": [list(b) for b in bounds],
                "shard_mode": mode,
            }
        )

        # sample the peak RSS *before* metrics aggregation faults the
        # memory-mapped columns in: this is the streaming loop's
        # resident footprint, the figure the scale benchmark bounds
        usage_self = resource.getrusage(resource.RUSAGE_SELF)
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
        engine.last_run_stats = {
            "backend": "sharded",
            "shard_mode": mode,
            "shards": len(bounds),
            "server_count": n,
            "steps": steps,
            "sim_time_s": steps * dt_s,
            "stream_chunk_ticks": chunk_ticks,
            "barrier_timeout_s": timeout_s,
            "resume_tick": start_tick,
            "restarts": restarts,
            "wall_stream_s": perf_counter() - wall_t0,
            "ru_maxrss_stream_kb": ru_maxrss_kib(usage_self.ru_maxrss),
            "ru_maxrss_children_kb": ru_maxrss_kib(usage_children.ru_maxrss),
            "trace_dir": None if temporary else str(trace_dir),
        }

        reader = FleetTraceReader(trace_dir)
        result = reader.to_result(fleet, materialize=temporary)
        engine.last_run_stats["wall_total_s"] = perf_counter() - wall_t0
        if engine.metrics is not None:
            engine.metrics.counter(
                "repro_fleet_ticks_total", "Fleet engine ticks executed"
            ).inc(steps)
            engine.metrics.gauge(
                "repro_fleet_sim_time_seconds", "Simulated seconds completed"
            ).set(steps * dt_s)
        return result
    finally:
        if temporary:
            shutil.rmtree(trace_dir, ignore_errors=True)
