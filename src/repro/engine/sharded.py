"""Sharded fleet execution: forked slice workers, streamed trace segments.

The ``sharded`` backend of :class:`~repro.fleet.engine.FleetEngine`
runs the engine's one tick loop over contiguous server slices, each
with its own :class:`~repro.engine.kernel.FleetVectorKernel`, and
streams the trace columns to the memory-mapped ``.npy`` segments of
:mod:`repro.telemetry.segments` instead of holding them in RAM.  The
loop keeps everything cross-server — CRAC supplies, the recirculation
coupling, the placement policy's single global ranking and fill, fault
attribution, the trip rule and checkpoint sealing — and each slice
runs the per-slice half of a tick
(:class:`~repro.engine.control.FleetSlice`) over its ``[lo, hi)``.
With ``shard_mode="inline"`` the loop steps the slices itself, as it
does for ``vector``; this module holds what is specific to processes:
the shared-memory block, the fork/barrier driver, the sentinel
watcher, error classification, supervisor restarts, and the partition
and spill-grid resolution of :func:`run_sharded`.

Bit-identity with ``vector`` holds by construction, not by tolerance:

* Every per-server physics expression in the kernel is elementwise or
  a per-row (per-server) reduction, so evaluating it over a contiguous
  row slice produces bit-identical results.
* The only cross-server couplings — the ``coupling @ exhaust_rise``
  recirculation product and the scheduler's ranked fill — stay in the
  loop, evaluated by the same code over the same full-width arrays for
  every backend.
* Controllers, poll clocks and stateful sensor-fault channels are
  partitioned with their servers; no per-server state is ever touched
  by two slices.

In ``process`` mode the loop publishes, the workers step slices.  Per
tick the loop and the k workers exchange exactly O(N) values through
shared memory: the loop publishes the inlet vector and the placement
allocations, the workers publish their post-step summary rows (exhaust
rise, executed utilization, hottest junction, leakage and its slope,
p-state) and trip flags.  Two barriers sequence each tick:

.. code-block:: text

   loop                             workers (x k)
   ----                             -------------
   supply + coupling + schedule
   publish inlet, allocations
   announce a due cut
   ---------- barrier "go" ------------------------
                                    FleetSlice.step over [lo, hi):
                                    poll, step_into, row write,
                                    summary publish, trip flag,
                                    spill at a chunk boundary
                                    snapshot the slice if a cut is due
   ---------- barrier "done" ----------------------
   raise a trip, record inlet and
   scalar columns, flush capture,
   seal the cut

Worker processes are forked (the ``process`` mode requires the
``fork`` start method; ``inline`` is the default fallback), so
controllers, specs and the compiled fault plan are inherited
copy-on-write without pickling.  Each worker builds its slice after
the fork, so the coordinator holds only the O(N) summary arrays and
the O(steps) scalar traces.

Checkpoints follow the loop's one cut protocol: a cut lands on a spill
boundary (so every trace row below it is already on disk), each worker
snapshots its slice into the cut's staging directory right after
stepping, and the loop seals the checksummed manifest after the "done"
barrier.  A supervisor wraps the run: worker death (detected by a
sentinel watcher that breaks the barriers immediately instead of
waiting out the timeout) is classified as restartable, and the run is
rebuilt from the latest checkpoint with bounded retries and
exponential backoff.  Barrier timeouts scale with the fleet size and
are overridable per engine or via ``REPRO_BARRIER_TIMEOUT_S``.

In ``process`` mode the coordinator's copies of the per-server
controller objects are *not* mutated (each worker advances its own
inherited copies), and the poll and physics-step timers of the metrics
registry are not populated (the loop's placement and trace-write
timers, tick counters and simulated-time gauges are).  Traces land
under ``trace_dir`` and are reassembled lazily by
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
from functools import partial
from math import gcd
from multiprocessing.connection import wait as _sentinel_wait
from threading import TIMEOUT_MAX, BrokenBarrierError, Event, Thread
from time import monotonic, perf_counter, sleep
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.checkpoint import (
    CheckpointError,
    latest_checkpoint,
    staging_dir_for_tick,
)
from repro.engine.control import FleetSummary, InProcessSlices, SliceBuilder
from repro.telemetry.segments import (
    FleetTraceReader,
    ShardedTraceWriter,
    default_chunk_ticks,
    partition_servers,
)

if TYPE_CHECKING:  # annotation-only; avoids an import cycle at runtime
    from repro.fleet.engine import FleetEngine, FleetResult
    from repro.fleet.faults import FleetFaultPlan

#: Barrier timeout floor, s: even a tiny fleet gets a minute per tick
#: before a silent worker fails the run.
_BARRIER_TIMEOUT_FLOOR_S = 60.0

#: Barrier timeout growth, s per server: 0.006 s x 100k servers = the
#: 600 s budget the previously fixed timeout granted the largest drill.
_BARRIER_TIMEOUT_PER_SERVER_S = 0.006

#: Chaos-test seams (set by tests, inherited over ``fork``): called as
#: ``hook(shard_id, tick)`` in each worker right before it steps, and
#: ``hook(tick)`` on the coordinator right after each tick's slices
#: have stepped.
CHAOS_WORKER_HOOK: Optional[Callable[[int, int], None]] = None
CHAOS_COORDINATOR_HOOK: Optional[Callable[[int], None]] = None


def default_barrier_timeout_s(server_count: int) -> float:
    """Per-tick barrier budget scaled with the fleet size."""
    return max(
        _BARRIER_TIMEOUT_FLOOR_S,
        _BARRIER_TIMEOUT_PER_SERVER_S * int(server_count),
    )


def checked_barrier_timeout_s(value: float, setting: str) -> float:
    """*value* as a barrier timeout, or a ``ValueError`` naming *setting*.

    A barrier wait accepts only finite timeouts up to
    ``threading.TIMEOUT_MAX``; anything else (``inf`` included) would
    end the run with a bare ``OSError`` at the first wait.
    """
    value = float(value)
    if not 0.0 < value <= TIMEOUT_MAX:
        raise ValueError(
            f"{setting} must be a finite number of seconds in "
            f"(0, {TIMEOUT_MAX:g}], got {value!r}"
        )
    return value


def resolve_barrier_timeout_s(
    engine: "FleetEngine", server_count: int
) -> float:
    """Engine override > ``REPRO_BARRIER_TIMEOUT_S`` > scaled default."""
    if engine.barrier_timeout_s is not None:
        return checked_barrier_timeout_s(
            engine.barrier_timeout_s, "barrier_timeout_s"
        )
    env = os.environ.get("REPRO_BARRIER_TIMEOUT_S")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"REPRO_BARRIER_TIMEOUT_S must be a number, got {env!r}"
            ) from None
        return checked_barrier_timeout_s(value, "REPRO_BARRIER_TIMEOUT_S")
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


class _SharedBlock(FleetSummary):
    """The O(N) cross-process exchange arrays for one process-mode run.

    The summary rows and trip flags every slice publishes, plus the
    loop's per-tick inputs (inlet, allocations), the cooperative stop
    flag, the supervision watermarks and the announced cut tick — all
    backed by ``multiprocessing.RawArray`` buffers (anonymous shared
    memory inherited over ``fork``) seen through numpy views.
    """

    def __init__(self, n: int, slice_count: int, ctx: Any) -> None:
        self._ctx = ctx
        super().__init__(n, slice_count)
        #: Loop-published per-tick inputs, full width.
        self.inlet = self._f64(n)
        self.allocations = self._f64(n)
        #: The cooperative stop flag.
        self.stop = self._i64(1)
        #: Supervision: per-shard completed-tick watermark and the
        #: wall-clock of each worker's last sign of life.
        self.progress = self._i64(slice_count)
        self.heartbeat = self._f64(slice_count)
        #: Checkpoint protocol: the cut tick every worker must snapshot
        #: after stepping (0 = no cut due).
        self.ckpt_tick = self._i64(1)

    def _f64(self, size: int) -> np.ndarray:
        return np.frombuffer(self._ctx.RawArray("d", size))

    def _i64(self, size: int) -> np.ndarray:
        return np.frombuffer(self._ctx.RawArray("q", size), dtype=np.int64)


class _ProcessSlices:
    """The slices stepped by forked workers, two barriers per tick.

    The loop's other way to step slices (see
    :class:`~repro.engine.control.InProcessSlices`): :meth:`step`
    publishes the tick's inputs and waits on the go/done barriers while
    each worker runs :class:`~repro.engine.control.FleetSlice` code
    over its own ``[lo, hi)``.
    """

    def __init__(
        self,
        build: SliceBuilder,
        bounds: Sequence[Tuple[int, int]],
        start_tick: int,
        metrics: Any,
        *,
        steps: int,
        timeout_s: float,
        checkpoint_root: Optional[str],
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.summary = shared = _SharedBlock(bounds[-1][1], len(bounds), ctx)
        shared.progress[:] = start_tick
        self.steps = steps
        self.timeout_s = timeout_s
        self.checkpoint_root = checkpoint_root
        self._next_tick = start_tick
        self.go = ctx.Barrier(len(bounds) + 1)
        self.done = ctx.Barrier(len(bounds) + 1)
        self.errors = ctx.Queue()
        # worker-side slices feed no metrics registry: the parent's
        # registry would never see a forked copy's updates
        self.procs = [
            ctx.Process(
                target=_worker_main,
                args=(self, build, index, lo, hi, start_tick),
                daemon=True,
            )
            for index, (lo, hi) in enumerate(bounds)
        ]
        for proc in self.procs:
            proc.start()
        self._watch_stop = Event()
        Thread(
            target=_watch_sentinels,
            args=(self.procs, self.go, self.done, self._watch_stop, shared, steps),
            daemon=True,
        ).start()
        try:
            self._wait(self.done, start_tick - 1)  # initial publishes visible
        except BaseException:
            self.close()
            raise

    def _wait(self, barrier: Any, tick: int) -> None:
        try:
            barrier.wait(timeout=self.timeout_s)
        except BrokenBarrierError:
            raise self._crash(tick) from None

    def _crash(self, tick: int) -> ShardCrashError:
        """Classify a broken barrier into one :class:`ShardCrashError`.

        A reported worker exception is deterministic and not
        restartable; a dead or silent worker (killed, OOM, wedged) is —
        the run can be rebuilt from the last checkpoint.  The grace
        ``get`` absorbs the race between a worker's error enqueue and
        its barrier abort.
        """
        details = []
        try:
            shard_id, kind, message = self.errors.get(True, 1.0)
            details.append(f"shard {shard_id}: {kind}: {message}")
            while True:
                shard_id, kind, message = self.errors.get_nowait()
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
            for shard_id, proc in enumerate(self.procs)
            if not proc.is_alive()
        ]
        if dead:
            return ShardCrashError(
                f"shard worker(s) {dead} died without reporting an error "
                "(killed or out of memory)",
                restartable=True,
            )
        laggards = [
            shard_id
            for shard_id, done_tick in enumerate(self.summary.progress)
            if int(done_tick) <= tick
        ]
        return ShardCrashError(
            f"sharded fleet run barrier timed out after "
            f"{self.timeout_s:.0f}s at tick {tick}; shards that failed to "
            f"arrive: {laggards or 'unknown'}",
            restartable=True,
        )

    def step(
        self,
        tick: int,
        inlet: np.ndarray,
        allocations: np.ndarray,
        cut: Optional[str],
    ) -> None:
        """Publish the tick's inputs and a due cut; wait out the workers."""
        shared = self.summary
        shared.inlet[:] = inlet
        shared.allocations[:] = allocations
        shared.ckpt_tick[0] = 0 if cut is None else tick + 1
        self._wait(self.go, tick)
        self._wait(self.done, tick)
        self._next_tick = tick + 1
        if CHAOS_COORDINATOR_HOOK is not None:
            CHAOS_COORDINATOR_HOOK(tick)

    def close(self) -> None:
        """Release the workers into a cooperative stop and reap them."""
        self._watch_stop.set()
        self.summary.stop[0] = 1
        if self._next_tick < self.steps:
            # the workers wait on "go" for a tick the loop never ran
            try:
                self.go.wait(timeout=5.0)
            except Exception:
                self.go.abort()
                self.done.abort()
        for proc in self.procs:
            proc.join(timeout=10.0)
        for proc in self.procs:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)


def _worker_main(
    driver: _ProcessSlices,
    build: SliceBuilder,
    index: int,
    lo: int,
    hi: int,
    start_tick: int,
) -> None:
    """Worker-process entry: build the slice, step it through the barriers."""
    shared = driver.summary
    go, done = driver.go, driver.done
    timeout = driver.timeout_s
    root = driver.checkpoint_root
    try:
        fleet_slice = build(index, lo, hi, shared, None)
        done.wait(timeout=timeout)
        for tick in range(start_tick, driver.steps):
            go.wait(timeout=timeout)
            if shared.stop[0]:
                break
            if CHAOS_WORKER_HOOK is not None:
                CHAOS_WORKER_HOOK(index, tick)
            fleet_slice.step(tick, shared.inlet, shared.allocations)
            if root is not None and int(shared.ckpt_tick[0]) == tick + 1:
                fleet_slice.snapshot(str(staging_dir_for_tick(root, tick + 1)))
            shared.progress[index] = tick + 1
            shared.heartbeat[index] = monotonic()
            done.wait(timeout=timeout)
        fleet_slice.close()
    except BrokenBarrierError:
        # a peer or the coordinator already failed and broke the
        # barriers — secondary noise, never the root cause; reporting
        # it would mask the real error during classification
        pass
    except BaseException as exc:  # propagate, then unblock everyone
        try:
            driver.errors.put_nowait((index, type(exc).__name__, str(exc)))
            driver.errors.cancel_join_thread()
        except Exception:
            pass
        go.abort()
        done.abort()


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
    masks and stateful sensor channels).  Resolves the partition, the
    shard mode and the spill grid, then drains the engine's tick loop
    over the shard slices into the segment sink under
    ``engine.trace_dir`` (a temporary, deleted directory when None),
    and records wall-clock / peak-RSS figures in
    ``engine.last_run_stats``.

    With ``engine.checkpoint`` set, restartable worker deaths are
    retried from the latest cut, up to ``checkpoint.max_restarts``
    times with exponential backoff; with ``resume_from``, the run
    continues from that cut and the finished trace is bit-identical to
    the uninterrupted run.
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
    ckpt_cfg = engine.checkpoint
    capture = engine.capture
    temporary = engine.trace_dir is None
    if temporary and (ckpt_cfg is not None or resume_from is not None):
        raise ValueError(
            "sharded checkpoint/resume needs a persistent trace_dir: "
            "the streamed trace rows on disk are part of the "
            "checkpointed state"
        )

    # The spill grid.  Spill boundaries must divide the capture's flush
    # boundaries (the capture reads rows back through the segment
    # files, so they must be on disk by flush time) and the checkpoint
    # cadence (cuts land on spill boundaries; the loop rounds the
    # cadence up onto the grid).
    chunk_ticks = (
        engine.stream_chunk_ticks
        if engine.stream_chunk_ticks is not None
        else default_chunk_ticks(n)
    )
    chunk_ticks = min(int(chunk_ticks), steps)
    if capture is not None:
        chunk_ticks = gcd(chunk_ticks, int(capture.chunk_ticks))
    if ckpt_cfg is not None:
        chunk_ticks = gcd(chunk_ticks, min(ckpt_cfg.every_ticks(dt_s), steps))
    resume: Optional[Tuple[int, str]] = None
    if resume_from is not None:
        # a resumed run stays on the checkpointed run's spill grid
        start, directory, chunk_ticks = engine._open_checkpoint(
            resume_from, dt_s, steps, bounds
        )
        resume = (start, directory)
        if capture is not None and int(capture.chunk_ticks) % chunk_ticks:
            raise CheckpointError(
                f"capture chunk_ticks {capture.chunk_ticks} is not a "
                f"multiple of the checkpointed spill grid {chunk_ticks}"
            )
    resume_tick = resume[0] if resume is not None else 0
    timeout_s = resolve_barrier_timeout_s(engine, n)
    open_slices: Callable[..., Any] = InProcessSlices
    if mode == "process":
        open_slices = partial(
            _ProcessSlices,
            steps=steps,
            timeout_s=timeout_s,
            checkpoint_root=None if ckpt_cfg is None else str(ckpt_cfg.root),
        )

    trace_dir = engine.trace_dir
    if trace_dir is None:
        trace_dir = tempfile.mkdtemp(prefix="repro-sharded-")
    try:
        sink = ShardedTraceWriter(
            trace_dir,
            steps,
            n,
            chunk_ticks=chunk_ticks,
            resume=resume is not None,
        )
        restarts = 0
        while True:
            try:
                for _ in engine._tick_stream(
                    dt_s, steps, plan, sink, bounds, resume, open_slices
                ):
                    pass
                break
            except ShardCrashError as crash:
                latest = (
                    latest_checkpoint(ckpt_cfg.root)
                    if ckpt_cfg is not None
                    else None
                )
                if (
                    not crash.restartable
                    or ckpt_cfg is None
                    or latest is None
                    or restarts >= ckpt_cfg.max_restarts
                ):
                    raise
                restarts += 1
                backoff = ckpt_cfg.restart_backoff_s * 2 ** (restarts - 1)
                if backoff > 0:
                    sleep(backoff)
                start, directory, _ = engine._open_checkpoint(
                    latest, dt_s, steps, bounds, chunk_ticks
                )
                resume = (start, directory)

        sink.finalize(
            {
                "backend": "sharded",
                "dt_s": dt_s,
                "scheduler": engine.scheduler.name,
                "controller": engine.controller_name,
                "shard_bounds": [list(b) for b in bounds],
                "shard_mode": mode,
            },
            None if plan is None else plan.fault_active,
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
            "stream_chunk_ticks": sink.chunk_ticks,
            "barrier_timeout_s": timeout_s,
            "resume_tick": resume_tick,
            "restarts": restarts,
            "wall_stream_s": perf_counter() - wall_t0,
            "ru_maxrss_stream_kb": ru_maxrss_kib(usage_self.ru_maxrss),
            "ru_maxrss_children_kb": ru_maxrss_kib(usage_children.ru_maxrss),
            "trace_dir": None if temporary else str(trace_dir),
        }

        reader = FleetTraceReader(trace_dir)
        result = reader.to_result(fleet, materialize=temporary)
        engine.last_run_stats["wall_total_s"] = perf_counter() - wall_t0
        return result
    finally:
        if temporary:
            shutil.rmtree(trace_dir, ignore_errors=True)
