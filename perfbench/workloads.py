"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload turns an input variant (a seed in ``[0, VARIANTS)``) into
inputs, runs one *operation* on them and returns an :class:`OpResult`:
host timings, the work done, and the simulated outputs the runner
verifies.  A verified unit is one Table I cell (``paper_table1``) or
one fleet/facility run (the others).

Why these four (each stresses some layers and bypasses others, so an
optimisation of one layer has a workload that must move and one that
must not):

* ``paper_table1`` — the paper's own result: the offline LUT pipeline,
  then Table I (4 tests x 3 schemes) through ``run_experiment``.  It
  exercises the single-server kernel, the controllers, the models and
  the LUT, and bypasses every fleet, sharded and facility layer.
* ``fleet_control`` — the control plane: 2,000 uncoupled servers, each
  with a paper LUT controller polled every 5 s tick, leakage-aware
  placement, seeded flash crowds, 10 simulated minutes driven through
  ``run_stream``.  Controller polls and the per-server
  ``Fleet.servers`` rebuilds dominate.
* ``scale_stream`` — the data plane at scale: 10,000 uncoupled servers
  on the ``sharded`` backend (2 forked shards) with fixed-speed fans
  polled every 300 s, 30 simulated minutes with traces streamed to
  ``.npy`` and read back.  Setup, exchange and spill dominate; there
  is almost no polling.
* ``facility_day`` — per-tick fixed costs: 192 coupled servers over 4
  simulated hours (480 ticks) with a queue-driven workload, a fault
  drill, capture and facility composition (cooling, power chain,
  carbon).

Sizes are chosen so that one operation takes about a second or two on
a 2-core machine: a run then repeats each input variant and times the
fastest repeat, which keeps the figures steady under bursty load from
other processes.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Set

import numpy as np

from repro import (
    CoolingPlant,
    CracExcursionEvent,
    ExperimentConfig,
    FacilityEngine,
    FaultSchedule,
    Fleet,
    FleetEngine,
    FleetScheduler,
    LeakageAwarePolicy,
    LUTController,
    PowerChain,
    Rack,
    ServerOutageEvent,
    build_diurnal_carbon_model,
    build_diurnal_profile,
    build_job_queue,
    build_paper_lut,
    build_uniform_fleet,
    default_server_spec,
    net_savings_pct,
    paper_controllers,
    paper_test_profiles,
    run_experiment,
)
from repro.core.controllers.default import FixedSpeedController
from repro.obs.capture import FleetCapture
from repro.telemetry.segments import FleetTraceReader
from repro.workloads.profile import StaircaseProfile

#: Number of seeded input variants.  The outputs of every variant are
#: recorded (``expected.json``), so each run is checked against values
#: from the recording commit, whatever its seed.
VARIANTS = 16

#: The LUT is characterised on this seed; the Table I profiles and
#: sensor noise come from the input variant, so the controller is
#: checked on load it was not tuned on.
LUT_SEED = 0

#: Offset of the Table I test3/test4 profile seeds (the paper's own
#: profiles use 1234).
PROFILE_SEED_BASE = 1000

JOULES_PER_KWH = 3.6e6


@dataclass
class OpResult:
    """Host timings, work done and simulated outputs of one operation."""

    #: Host s from operation start to the first simulated tick.
    setup_s: float
    #: Host s for the whole operation, setup included.
    wall_s: float
    #: Simulated servers x ticks.
    server_ticks: int
    #: Host ms per simulated tick: one sample per ``run_stream`` yield
    #: after the first, per Table I cell, or per run where every tick
    #: happens inside one call.  Equal inputs give aligned samples.
    tick_ms: List[float]
    #: Bytes of per-tick trace produced (on disk when streamed).
    trace_bytes: int
    #: Simulated outputs per unit (Table I cell or run), for verification.
    outputs: Dict[str, Dict[str, float]]
    #: Units whose invariants failed inside the operation.
    failed: Set[str] = field(default_factory=set)
    #: Shard-worker restarts of a sharded run (``last_run_stats``).
    restarts: int = 0


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def _uncoupled_fleet(racks: int, per_rack: int) -> Fleet:
    spec = default_server_spec()
    return Fleet(
        racks=tuple(
            Rack(name=f"rack{r}", servers=tuple(spec for _ in range(per_rack)))
            for r in range(racks)
        ),
        recirculation=None,
    )


def _fleet_trace_bytes(result) -> int:
    names = (
        "total_power_w", "fan_power_w", "max_junction_c", "utilization_pct",
        "inlet_c", "mean_rpm", "unserved_pct", "pstate_index",
        "work_deficit_pct",
    )
    return int(sum(np.asarray(getattr(result, name)).nbytes for name in names))


def _fleet_outputs(metrics) -> Dict[str, float]:
    return {
        "energy_kwh": metrics.energy_kwh,
        "fan_energy_kwh": metrics.fan_energy_kwh,
        "peak_power_w": metrics.peak_power_w,
        "hot_spot_c": metrics.hot_spot_c,
        "mean_inlet_c": metrics.mean_inlet_c,
        "sla_total_pct_s": metrics.sla_total_pct_s,
        "sla_violation_ticks": metrics.sla_violation_ticks,
    }


# ----------------------------------------------------------------------
# paper_table1
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Size:
    tests: tuple = ("test1", "test2", "test3", "test4")


def _table1_orderings(row) -> List[str]:
    """The Table I claims that ``bench_table1`` pins, as failure notes."""
    default, bang, lut = row["Default"], row["Bang-bang"], row["LUT"]
    d, b, l = default["m"], bang["m"], lut["m"]
    checks = {
        "default holds 3300 RPM": d.fan_speed_changes == 0
        and abs(d.avg_rpm - 3300.0) < 10.0,
        "default stays cool": d.max_temperature_c < 67.0,
        "LUT saves energy": 0.0 < lut["savings"] < 15.0,
        "LUT saves at least bang-bang": lut["savings"]
        >= bang["savings"] - 0.3,
        "LUT cuts peak power": l.peak_power_w < d.peak_power_w
        and l.peak_power_w <= b.peak_power_w + 6.0,
        "thermal envelope": l.max_temperature_c <= 75.5
        and b.max_temperature_c <= 80.0,
        "slow adaptive fans": all(
            m.avg_rpm < 2600.0 and m.fan_speed_changes <= 20 for m in (b, l)
        ),
    }
    return [name for name, ok in checks.items() if not ok]


def paper_table1(variant: int, size: Table1Size, spans, workdir: Path):
    t0 = perf_counter()
    lut = build_paper_lut(seed=LUT_SEED)
    profiles = paper_test_profiles(seed=PROFILE_SEED_BASE + variant)
    config = ExperimentConfig(seed=variant)
    setup_s = perf_counter() - t0

    lut_digest = {
        "lut_rpm_sum": float(sum(lut.rpms)),
        "lut_rpm_weighted": float(np.dot(lut.levels_pct, lut.rpms)),
    }
    outputs: Dict[str, Dict[str, float]] = {}
    failed: Set[str] = set()
    tick_ms: List[float] = []
    server_ticks = trace_bytes = 0
    for test in size.tests:
        row = {}
        baseline = None
        for controller in paper_controllers(lut=lut):
            t = perf_counter()
            result = run_experiment(controller, profiles[test], config=config)
            elapsed = perf_counter() - t
            steps = len(result.column("time_s"))
            tick_ms.append(elapsed * 1e3 / steps)
            server_ticks += steps
            trace_bytes += sum(a.nbytes for a in result.as_arrays().values())
            m = result.metrics
            if baseline is None:
                baseline, savings = m, None
            else:
                savings = net_savings_pct(baseline, m)
            row[controller.name] = {"m": m, "savings": savings}
            cell = {
                "energy_kwh": m.energy_kwh,
                "peak_power_w": m.peak_power_w,
                "max_temperature_c": m.max_temperature_c,
                "fan_speed_changes": m.fan_speed_changes,
                "avg_rpm": m.avg_rpm,
            }
            if savings is not None:
                cell["net_savings_pct"] = savings
            if controller.name == "LUT":
                cell.update(lut_digest)
            outputs[f"{test}/{controller.name}"] = cell
        if _table1_orderings(row):
            failed.update(f"{test}/{scheme}" for scheme in row)
    return OpResult(
        setup_s=setup_s,
        wall_s=perf_counter() - t0,
        server_ticks=server_ticks,
        tick_ms=tick_ms,
        trace_bytes=trace_bytes,
        outputs=outputs,
        failed=failed,
    )


# ----------------------------------------------------------------------
# fleet_control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetControlSize:
    racks: int = 50
    per_rack: int = 40
    hours: float = 1.0 / 6.0
    dt_s: float = 5.0


def _fleet_demand(variant: int, duration_s: float):
    """Steady 55% load plus seeded one-minute flash crowds (+35%).

    A quarter of the minutes surge.  The seed picks which ones, not how
    many or how large, so runs on different seeds do similar amounts of
    placement and fan-command churn; surges start on whole minutes, the
    LUT controllers' 60 s lockout grid.
    """
    minutes = int(round(duration_s / 60.0))
    levels = np.full(minutes, 55.0)
    rng = np.random.default_rng(variant)
    surges = rng.choice(np.arange(1, minutes), minutes // 4, replace=False)
    levels[surges] += 35.0
    return StaircaseProfile(levels.tolist(), 60.0)


def fleet_control(variant: int, size: FleetControlSize, spans, workdir):
    t0 = perf_counter()
    horizon_s = size.hours * 3600.0
    with spans.span("fleet.topology.build"):
        fleet = _uncoupled_fleet(size.racks, size.per_rack)
    lut = build_paper_lut(seed=LUT_SEED)
    engine = FleetEngine(
        fleet,
        _fleet_demand(variant, horizon_s),
        scheduler=FleetScheduler(LeakageAwarePolicy()),
        controller_factory=lambda i: LUTController(
            lut, poll_interval_s=size.dt_s
        ),
        seed=variant,
    )
    setup_s = None
    tick_ms: List[float] = []
    power_sum_w = 0.0
    with spans.span("fleet.engine"):
        last = None
        for view in engine.run_stream(dt_s=size.dt_s, duration_s=horizon_s):
            arrived = perf_counter()
            if last is None:
                setup_s = arrived - t0
            else:
                tick_ms.append((arrived - last) * 1e3)
            power_sum_w += float(view.total_power_w.sum())
            last = perf_counter()
    wall_s = perf_counter() - t0
    result = engine.last_result
    metrics = result.metrics
    failed = set()
    streamed_kwh = power_sum_w * size.dt_s / JOULES_PER_KWH
    if not _close(streamed_kwh, metrics.energy_kwh):
        failed.add("run")
    steps = len(result.times_s)
    return OpResult(
        setup_s=setup_s,
        wall_s=wall_s,
        server_ticks=fleet.server_count * steps,
        tick_ms=tick_ms,
        trace_bytes=_fleet_trace_bytes(result),
        outputs={"run": _fleet_outputs(metrics)},
        failed=failed,
    )


# ----------------------------------------------------------------------
# scale_stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleSize:
    racks: int = 10
    per_rack: int = 1000
    hours: float = 0.5
    dt_s: float = 30.0
    shards: int = 2
    #: Forked shard workers; the traced run uses ``inline`` so that
    #: worker-side calls land in the one traced process.
    shard_mode: str = "process"


def scale_stream(variant: int, size: ScaleSize, spans, workdir: Path):
    t0 = perf_counter()
    horizon_s = size.hours * 3600.0
    with spans.span("fleet.topology.build"):
        fleet = _uncoupled_fleet(size.racks, size.per_rack)
    demand = build_diurnal_profile(
        duration_s=horizon_s, base_pct=30.0, peak_pct=70.0,
        peak_hour=0.0, sample_dt_s=300.0, seed=variant,
    )
    trace_dir = workdir / f"scale-{os.getpid()}-{variant}"
    engine = FleetEngine(
        fleet,
        demand,
        controller_factory=lambda i: FixedSpeedController(
            rpm=3000.0, poll_interval_s=300.0
        ),
        backend="sharded",
        shards=size.shards,
        trace_dir=str(trace_dir),
        shard_mode=size.shard_mode,
        seed=variant,
    )
    setup_s = perf_counter() - t0
    try:
        result = engine.run(dt_s=size.dt_s)
        reader = FleetTraceReader(trace_dir)
        mean_power_w = float(reader.column("power").sum(axis=1).mean())
        wall_s = perf_counter() - t0
        trace_bytes = sum(p.stat().st_size for p in trace_dir.glob("*.npy"))
        metrics = result.metrics
        steps = len(result.times_s)
        restarts = engine.last_run_stats["restarts"]
        outputs = _fleet_outputs(metrics)
        outputs["mean_fleet_power_w"] = mean_power_w
        del result, reader
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    failed = set()
    read_back_kwh = mean_power_w * steps * size.dt_s / JOULES_PER_KWH
    if restarts or not _close(read_back_kwh, metrics.energy_kwh):
        failed.add("run")
    return OpResult(
        setup_s=setup_s,
        wall_s=wall_s,
        server_ticks=fleet.server_count * steps,
        tick_ms=[(wall_s - setup_s) * 1e3 / steps],
        trace_bytes=trace_bytes,
        outputs={"run": outputs},
        failed=failed,
        restarts=restarts,
    )


# ----------------------------------------------------------------------
# facility_day
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FacilitySize:
    racks: int = 4
    per_rack: int = 48
    hours: float = 4.0
    dt_s: float = 30.0
    jobs_per_hour: float = 400.0


def _fault_drill(variant: int, fleet: Fleet, horizon_s: float):
    """A seeded CRAC excursion on one rack plus two server outages."""
    rng = np.random.default_rng(10_000 + variant)
    window_s = 0.1 * horizon_s
    crac_start = float(rng.uniform(0.2, 0.6)) * horizon_s
    outage_starts = rng.uniform(0.1, 0.8, size=2) * horizon_s
    servers = rng.choice(fleet.server_count, size=2, replace=False)
    return FaultSchedule(
        events=(
            CracExcursionEvent(
                start_s=crac_start,
                end_s=crac_start + window_s,
                delta_c=float(rng.uniform(1.5, 3.0)),
                rack=int(rng.integers(fleet.rack_count)),
            ),
            *(
                ServerOutageEvent(
                    start_s=float(start), end_s=float(start) + window_s,
                    server=int(server),
                )
                for start, server in zip(outage_starts, servers)
            ),
        )
    )


def facility_day(variant: int, size: FacilitySize, spans, workdir):
    t0 = perf_counter()
    horizon_s = size.hours * 3600.0
    with spans.span("fleet.topology.build"):
        fleet = build_uniform_fleet(
            rack_count=size.racks, servers_per_rack=size.per_rack
        )
    lut = build_paper_lut(seed=LUT_SEED)
    queue = build_job_queue(
        "diurnal",
        fleet.server_count,
        duration_s=horizon_s,
        seed=variant,
        jobs_per_hour=size.jobs_per_hour,
    )
    engine = FleetEngine(
        fleet,
        queue,
        scheduler=FleetScheduler(LeakageAwarePolicy()),
        controller_factory=lambda i: LUTController(
            lut, poll_interval_s=size.dt_s
        ),
        seed=variant,
        faults=_fault_drill(variant, fleet, horizon_s),
        capture=FleetCapture(),
    )
    facility = FacilityEngine(
        engine,
        cooling=CoolingPlant(),
        power=PowerChain(rated_power_w=fleet.server_count * 600.0),
        carbon=build_diurnal_carbon_model(duration_s=horizon_s),
    )
    setup_s = perf_counter() - t0
    result = facility.run(dt_s=size.dt_s)
    wall_s = perf_counter() - t0
    m = result.metrics
    q = m.queue
    steps = len(result.times_s)
    outputs = _fleet_outputs(m.fleet)
    outputs.update(
        pue=m.pue,
        facility_energy_kwh=m.facility_energy_kwh,
        cooling_energy_kwh=m.cooling_energy_kwh,
        carbon_kg=m.carbon_kg,
        fault_time_s=m.fleet.fault_time_s,
        respilled_pct_s=m.fleet.respilled_pct_s,
        jobs_arrived=q.arrived,
        jobs_completed=q.completed,
        sla_violations=q.sla_violations,
    )
    ok = (
        1.0 < m.pue <= 2.5
        and m.carbon_kg > 0.0
        and m.facility_energy_kwh > m.it_energy_kwh
        and q.arrived == q.pending + q.running + q.completed
        and m.fleet.fault_time_s > 0.0
    )
    return OpResult(
        setup_s=setup_s,
        wall_s=wall_s,
        server_ticks=fleet.server_count * steps,
        tick_ms=[(wall_s - setup_s) * 1e3 / steps],
        trace_bytes=_fleet_trace_bytes(result.fleet),
        outputs={"run": outputs},
        failed=set() if ok else {"run"},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable
    size: object
    #: Operations per call of ``op`` (Table I cells, or one run).
    units: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_table1", paper_table1, Table1Size(), 12),
        Workload("fleet_control", fleet_control, FleetControlSize(), 1),
        Workload("scale_stream", scale_stream, ScaleSize(), 1),
        Workload("facility_day", facility_day, FacilitySize(), 1),
    )
}
