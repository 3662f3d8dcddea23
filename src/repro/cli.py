"""Command-line interface: the paper's workflow as subcommands.

::

    python -m repro characterize --output samples.csv
    python -m repro fit --samples samples.csv
    python -m repro lut --samples samples.csv --output lut.json
    python -m repro run --controller lut --test test3 --lut lut.json
    python -m repro table1
    python -m repro fig --figure 2a
    python -m repro fleet --racks 2 --servers-per-rack 4 --policy coolest-first
    python -m repro fleet --controller coordinated --policy dvfs-aware
    python -m repro fleet --faults drill.json

Every subcommand prints plain text and writes optional artifacts, so
the full reproduction can be driven from a shell with no Python.
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.core.controllers.bangbang import BangBangController
from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.core.controllers.mpc import build_mpc_from_characterization
from repro.core.controllers.oracle import OracleController
from repro.core.controllers.pid import PIController
from repro.core.lut import LookupTable, build_lut_from_characterization
from repro.engine.checkpoint import (
    EX_TEMPFAIL,
    CheckpointConfig,
    CheckpointError,
    RunInterrupted,
)
from repro.experiments.characterization import run_characterization_steady
from repro.experiments.report import (
    build_paper_lut,
    build_table1,
    fig1a_series,
    fig1b_series,
    fig2a_series,
    fig2b_series,
    fig3_series,
    render_table1,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.models.fitting import (
    CharacterizationSample,
    fit_fan_power_model,
    fit_power_model,
)
from repro.fleet import (
    PLACEMENT_POLICIES,
    FaultSchedule,
    FleetEngine,
    FleetScheduler,
    build_uniform_fleet,
)
from repro.reporting import ascii_chart, format_table, sparkline
from repro.server.dvfs import default_dvfs_ladder
from repro.server.specs import default_server_spec
from repro.sweep import (
    DEFAULT_CACHE_DIR,
    build_fleet_workload,
    fleet_grid,
    run_sweep,
)
from repro.units import hours, kilowatts_to_watts
from repro.workloads.tests import paper_test_profiles

SAMPLE_COLUMNS = (
    "utilization_pct",
    "fan_rpm",
    "avg_cpu_temperature_c",
    "compute_power_w",
    "fan_power_w",
)


def _write_samples(samples: Sequence[CharacterizationSample], path: Path) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SAMPLE_COLUMNS)
        for s in samples:
            writer.writerow(
                [
                    s.utilization_pct,
                    s.fan_rpm,
                    s.avg_cpu_temperature_c,
                    s.compute_power_w,
                    s.fan_power_w,
                ]
            )


def _read_samples(path: Path) -> List[CharacterizationSample]:
    with path.open("r", newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(SAMPLE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise SystemExit(f"samples file missing columns: {sorted(missing)}")
        return [
            CharacterizationSample(
                utilization_pct=float(row["utilization_pct"]),
                fan_rpm=float(row["fan_rpm"]),
                avg_cpu_temperature_c=float(row["avg_cpu_temperature_c"]),
                compute_power_w=float(row["compute_power_w"]),
                fan_power_w=float(row["fan_power_w"]),
            )
            for row in reader
        ]


def _samples_or_default(args) -> List[CharacterizationSample]:
    if args.samples is not None:
        return _read_samples(Path(args.samples))
    return run_characterization_steady(seed=args.seed)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_characterize(args) -> int:
    samples = run_characterization_steady(
        seed=args.seed, aggregate=not args.raw
    )
    rows = [
        [
            f"{s.utilization_pct:.0f}",
            f"{s.fan_rpm:.0f}",
            f"{s.avg_cpu_temperature_c:.1f}",
            f"{s.compute_power_w:.1f}",
            f"{s.fan_power_w:.1f}",
        ]
        for s in samples
    ]
    print(format_table(["util%", "rpm", "T(C)", "P_compute(W)", "P_fan(W)"], rows))
    if args.output:
        _write_samples(samples, Path(args.output))
        print(f"\nwrote {len(samples)} samples to {args.output}")
    return 0


def cmd_fit(args) -> int:
    samples = _samples_or_default(args)
    fitted = fit_power_model(samples)
    fan = fit_fan_power_model(
        [s.fan_rpm for s in samples], [s.fan_power_w for s in samples]
    )
    print("power model: P_compute = C + k1*U + k2*exp(k3*T)")
    print(f"  C  = {fitted.c_w:.2f} W")
    print(f"  k1 = {fitted.k1_w_per_pct:.4f} W/%")
    print(f"  k2 = {fitted.k2_w:.4f} W")
    print(f"  k3 = {fitted.k3_per_c:.5f} /degC")
    print(
        f"  RMSE = {fitted.quality.rmse_w:.3f} W, "
        f"accuracy = {fitted.quality.accuracy_pct:.2f}%"
    )
    print(
        f"fan model: P_fan = {fan.coeff_w:.1f} W * (rpm/{fan.rpm_ref:.0f})"
        f"^{fan.exponent:.2f}"
    )
    return 0


def cmd_lut(args) -> int:
    samples = _samples_or_default(args)
    fitted = fit_power_model(samples)
    fan = fit_fan_power_model(
        [s.fan_rpm for s in samples], [s.fan_power_w for s in samples]
    )
    lut, results = build_lut_from_characterization(
        samples, fitted, fan, max_temperature_c=args.max_temp
    )
    rows = [
        [
            f"{r.utilization_pct:.0f}",
            f"{r.fan_rpm:.0f}",
            f"{r.predicted_temperature_c:.1f}",
            f"{r.predicted_leak_plus_fan_w:.1f}",
        ]
        for r in results
    ]
    print(format_table(["util%", "rpm", "T_pred(C)", "leak+fan(W)"], rows))
    if args.output:
        lut.save(Path(args.output))
        print(f"\nwrote LUT to {args.output}")
    return 0


def _build_controller(name: str, args):
    if name == "default":
        return FixedSpeedController(rpm=args.rpm)
    if name == "bangbang":
        return BangBangController()
    if name == "pi":
        return PIController()
    if name == "oracle":
        return OracleController()
    if name == "lut":
        if args.lut:
            lut = LookupTable.load(Path(args.lut))
        else:
            lut = build_paper_lut(seed=args.seed)
        return LUTController(lut)
    if name == "mpc":
        samples = _samples_or_default(args)
        fitted = fit_power_model(samples)
        fan = fit_fan_power_model(
            [s.fan_rpm for s in samples], [s.fan_power_w for s in samples]
        )
        return build_mpc_from_characterization(samples, fitted, fan)
    raise SystemExit(f"unknown controller {name!r}")


def cmd_run(args) -> int:
    profiles = paper_test_profiles()
    if args.test not in profiles:
        raise SystemExit(f"unknown test {args.test!r} (have {sorted(profiles)})")
    controller = _build_controller(args.controller, args)
    result = run_experiment(
        controller, profiles[args.test], config=ExperimentConfig(seed=args.seed)
    )
    m = result.metrics
    print(f"controller : {result.controller_name}")
    print(f"test       : {args.test}")
    print(f"energy     : {m.energy_kwh:.4f} kWh (net {m.net_energy_kwh:.4f})")
    print(f"peak power : {m.peak_power_w:.0f} W")
    print(f"max temp   : {m.max_temperature_c:.1f} degC")
    print(f"fan changes: {m.fan_speed_changes}")
    print(f"avg RPM    : {m.avg_rpm:.0f}")
    if args.trace:
        path = result.recorder.to_csv(Path(args.trace))
        print(f"trace      : {path}")
    return 0


def cmd_table1(args) -> int:
    table = build_table1(config=ExperimentConfig(seed=args.seed))
    print(render_table1(table))
    return 0


def cmd_fig(args) -> int:
    if args.figure == "1a":
        series = fig1a_series(seed=args.seed)
        chart = {
            f"{rpm:.0f}RPM": (d["time_min"], d["cpu0_temp_c"])
            for rpm, d in sorted(series.items())
        }
        print(ascii_chart(chart, xlabel="time (min)", ylabel="temperature degC"))
    elif args.figure == "1b":
        series = fig1b_series(seed=args.seed)
        chart = {
            f"{u:.0f}%": (d["time_min"], d["cpu0_temp_c"])
            for u, d in sorted(series.items())
        }
        print(ascii_chart(chart, xlabel="time (min)", ylabel="temperature degC"))
    elif args.figure == "2a":
        data = fig2a_series()
        chart = {
            "leak": (data["temperature_c"], data["leakage_w"]),
            "fan": (data["temperature_c"], data["fan_power_w"]),
            "sum": (data["temperature_c"], data["leak_plus_fan_w"]),
        }
        print(ascii_chart(chart, xlabel="avg CPU temp (degC)", ylabel="power W"))
        best = int(np.argmin(data["leak_plus_fan_w"]))
        print(
            f"minimum {data['leak_plus_fan_w'][best]:.1f} W at "
            f"{data['temperature_c'][best]:.1f} degC / "
            f"{data['fan_rpm'][best]:.0f} RPM"
        )
    elif args.figure == "2b":
        series = fig2b_series()
        chart = {
            f"{u:.0f}%": (d["temperature_c"], d["leak_plus_fan_w"])
            for u, d in sorted(series.items())
        }
        print(ascii_chart(chart, xlabel="avg CPU temp (degC)", ylabel="leak+fan W"))
    elif args.figure == "3":
        series = fig3_series(seed=args.seed)
        chart = {
            scheme: (d["time_min"], d["max_cpu_temp_c"])
            for scheme, d in series.items()
        }
        print(ascii_chart(chart, xlabel="time (min)", ylabel="max CPU temp degC"))
    else:
        raise SystemExit(f"unknown figure {args.figure!r}")
    return 0


def _build_fleet_engine(args, backend: str) -> FleetEngine:
    """Shared fleet/workload/controller assembly for fleet-style commands."""
    if args.racks <= 0 or args.servers_per_rack <= 0:
        raise SystemExit("--racks and --servers-per-rack must be positive")
    if args.dt <= 0:
        raise SystemExit("--dt must be positive")
    if args.hours <= 0:
        raise SystemExit("--hours must be positive")
    spec = default_server_spec()
    if args.controller == "coordinated":
        # The coordinated fan+DVFS policy needs sockets with an actual
        # voltage/frequency ladder to actuate.
        spec = replace(spec, dvfs=default_dvfs_ladder())
    fleet = build_uniform_fleet(
        rack_count=args.racks,
        servers_per_rack=args.servers_per_rack,
        spec=spec,
        crac_supply_c=args.crac_supply,
    )
    try:
        profile = build_fleet_workload(
            args.workload, hours(args.hours), seed=args.seed
        )
    except ValueError as exc:
        raise SystemExit(f"cannot build {args.workload!r} workload: {exc}")
    faults = None
    if args.faults:
        try:
            faults = FaultSchedule.from_json(Path(args.faults))
            faults.validate_for(fleet)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load fault spec {args.faults!r}: {exc}")
    if args.controller in ("lut", "coordinated"):
        # build (or load) the LUT once and share it across all servers
        # instead of re-running the characterization per controller.
        if args.lut:
            lut = LookupTable.load(Path(args.lut))
        else:
            lut = build_paper_lut(seed=args.seed)
        if args.controller == "lut":
            factory = lambda index: LUTController(lut)  # noqa: E731
        else:
            factory = lambda index: CoordinatedController(  # noqa: E731
                lut, spec.dvfs
            )
    else:
        factory = lambda index: _build_controller(  # noqa: E731
            args.controller, args
        )

    sharded_kwargs = {}
    if getattr(args, "shards", None) is not None:
        sharded_kwargs["shards"] = args.shards
    if getattr(args, "trace_dir", None) is not None:
        sharded_kwargs["trace_dir"] = args.trace_dir
    if getattr(args, "barrier_timeout", None) is not None:
        sharded_kwargs["barrier_timeout_s"] = args.barrier_timeout
    if getattr(args, "checkpoint_dir", None) is not None:
        sharded_kwargs["checkpoint"] = CheckpointConfig(
            directory=args.checkpoint_dir,
            every_s=args.checkpoint_every,
            keep=args.checkpoint_keep,
            # serve has no --max-restarts (supervised restart is a
            # sharded-run concern); fall back to the config default
            max_restarts=getattr(args, "max_restarts", 2),
        )
    try:
        return FleetEngine(
            fleet,
            profile,
            scheduler=FleetScheduler(PLACEMENT_POLICIES[args.policy]()),
            controller_factory=factory,
            backend=backend,
            seed=args.seed,
            faults=faults,
            **sharded_kwargs,
        )
    except ValueError as exc:
        # e.g. --shards/--trace-dir without --backend sharded, or a
        # shard count exceeding the server count
        raise SystemExit(str(exc))


def cmd_fleet(args) -> int:
    engine = _build_fleet_engine(args, backend=args.backend)
    fleet = engine.fleet
    faults = engine.faults
    try:
        result = engine.run(dt_s=args.dt, resume_from=args.resume)
    except RunInterrupted as exc:
        # Exit-code hygiene: a stopped-but-checkpointed run is
        # resumable (EX_TEMPFAIL, 75); anything else is a failure.
        if exc.checkpoint_path is not None:
            print(
                f"run interrupted; resume with "
                f"--resume {exc.checkpoint_path}",
                file=sys.stderr,
            )
            return EX_TEMPFAIL
        print(f"run interrupted, no checkpoint: {exc}", file=sys.stderr)
        return 1
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    m = result.metrics

    print(
        f"fleet      : {fleet.rack_count} racks x "
        f"{fleet.racks[0].server_count} servers "
        f"({fleet.server_count} total), CRAC {args.crac_supply:.1f} degC"
    )
    print(
        f"scenario   : {args.workload} x {args.hours:g} h, dt {args.dt:g} s, "
        f"policy {result.scheduler_name}, controller {result.controller_name}, "
        f"backend {result.backend}"
    )
    print()
    rows = [
        [
            rack.name,
            f"{rack.server_count}",
            f"{rack.energy_kwh:.3f}",
            f"{rack.fan_energy_kwh:.3f}",
            f"{rack.peak_power_w:.0f}",
            f"{rack.hot_spot_c:.1f}",
            f"{rack.mean_inlet_c:.2f}",
            f"{rack.mean_utilization_pct:.1f}",
            f"{rack.dvfs_deficit_pct_s:.1f}",
        ]
        for rack in m.racks
    ]
    rows.append(
        [
            "fleet",
            f"{m.server_count}",
            f"{m.energy_kwh:.3f}",
            f"{m.fan_energy_kwh:.3f}",
            f"{m.peak_power_w:.0f}",
            f"{m.hot_spot_c:.1f}",
            f"{m.mean_inlet_c:.2f}",
            f"{m.mean_utilization_pct:.1f}",
            f"{m.dvfs_deficit_pct_s:.1f}",
        ]
    )
    print(
        format_table(
            [
                "rack",
                "servers",
                "E(kWh)",
                "E_fan(kWh)",
                "peak(W)",
                "hotspot(C)",
                "inlet(C)",
                "util%",
                "deficit(%s)",
            ],
            rows,
        )
    )
    print()
    print(
        f"SLA        : {m.sla_unserved_pct_s:.1f} pct*s unserved demand + "
        f"{m.dvfs_deficit_pct_s:.1f} pct*s DVFS deficit = "
        f"{m.sla_total_pct_s:.1f} pct*s lost work over "
        f"{m.sla_violation_ticks} violation ticks"
    )
    if faults is not None:
        print(
            f"faults     : {len(faults)} events, {m.fault_time_s:.0f} s "
            f"in degraded operation ({m.fault_ticks} ticks); "
            f"{m.respilled_pct_s:.1f} pct*s respilled off outage servers, "
            f"{m.fault_sla_pct_s:.1f} pct*s SLA loss attributable to faults"
        )
    print(f"fleet power: {sparkline(result.fleet_power_w)}")
    return 0


def cmd_facility(args) -> int:
    from repro.facility import (
        CoolingPlant,
        FacilityEngine,
        PowerChain,
        build_diurnal_carbon_model,
        build_job_queue,
    )
    from repro.facility.workload import QUEUE_KINDS

    if args.racks <= 0 or args.servers_per_rack <= 0:
        raise SystemExit("--racks and --servers-per-rack must be positive")
    if args.dt <= 0 or args.hours <= 0:
        raise SystemExit("--dt and --hours must be positive")
    if args.arrivals not in QUEUE_KINDS:
        raise SystemExit(f"unknown arrival process {args.arrivals!r}")
    spec = default_server_spec()
    if args.controller == "coordinated":
        spec = replace(spec, dvfs=default_dvfs_ladder())
    fleet = build_uniform_fleet(
        rack_count=args.racks,
        servers_per_rack=args.servers_per_rack,
        spec=spec,
        crac_supply_c=args.crac_supply,
    )
    try:
        queue = build_job_queue(
            args.arrivals,
            server_count=fleet.server_count,
            duration_s=hours(args.hours),
            seed=args.seed,
            jobs_per_hour=args.jobs_per_hour,
            mean_work_pct_s=args.mean_work_minutes * 60.0 * 100.0,
        )
    except ValueError as exc:
        raise SystemExit(f"cannot build {args.arrivals!r} queue: {exc}")
    if args.controller in ("lut", "coordinated"):
        if args.lut:
            lut = LookupTable.load(Path(args.lut))
        else:
            lut = build_paper_lut(seed=args.seed)
        if args.controller == "lut":
            factory = lambda index: LUTController(lut)  # noqa: E731
        else:
            factory = lambda index: CoordinatedController(  # noqa: E731
                lut, spec.dvfs
            )
    else:
        factory = lambda index: _build_controller(  # noqa: E731
            args.controller, args
        )
    try:
        engine = FleetEngine(
            fleet,
            queue,
            scheduler=FleetScheduler(PLACEMENT_POLICIES[args.policy]()),
            controller_factory=factory,
            backend=args.backend,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    cooling = (
        None
        if args.no_cooling
        else CoolingPlant(supply_c=args.plant_supply)
    )
    rated_w = (
        kilowatts_to_watts(args.rated_kw)
        if args.rated_kw is not None
        else fleet.server_count * 600.0
    )
    power = None if args.no_power_chain else PowerChain(rated_power_w=rated_w)
    carbon = (
        None
        if args.no_carbon
        else build_diurnal_carbon_model(
            duration_s=hours(args.hours),
            base_g_per_kwh=args.carbon_base,
            peak_g_per_kwh=args.carbon_peak,
        )
    )
    facility = FacilityEngine(engine, cooling=cooling, power=power, carbon=carbon)
    result = facility.run(dt_s=args.dt)
    m = result.metrics
    q = m.queue

    print(
        f"facility   : {fleet.rack_count} racks x "
        f"{fleet.racks[0].server_count} servers "
        f"({fleet.server_count} total), CRAC {args.crac_supply:.1f} degC, "
        f"plant supply {args.plant_supply:.1f} degC"
    )
    print(
        f"scenario   : {args.arrivals} arrivals x {args.hours:g} h, "
        f"dt {args.dt:g} s, policy {result.fleet.scheduler_name}, "
        f"controller {result.fleet.controller_name}, backend "
        f"{result.fleet.backend}"
    )
    print()
    print(
        format_table(
            ["energy", "kWh"],
            [
                ["IT (racks)", f"{m.it_energy_kwh:.3f}"],
                ["cooling plant", f"{m.cooling_energy_kwh:.3f}"],
                ["UPS/PDU losses", f"{m.chain_loss_kwh:.3f}"],
                ["facility (utility)", f"{m.facility_energy_kwh:.3f}"],
            ],
        )
    )
    print()
    print(f"PUE        : {m.pue:.3f}")
    print(
        f"carbon     : {m.carbon_kg:.3f} kg CO2 "
        f"(mean intensity {m.mean_intensity_g_per_kwh:.0f} g/kWh)"
    )
    print(f"peak feed  : {m.peak_utility_power_w:.0f} W at the utility meter")
    if q is not None:
        print(
            f"queue      : {q.arrived} arrived = {q.completed} completed + "
            f"{q.running} running + {q.pending} pending"
            f"{' (drained)' if q.drained else ''}"
        )
        print(
            f"SLA        : {q.sla_violations} deadline violation(s), "
            f"mean wait {q.mean_wait_s:.0f} s, "
            f"mean turnaround {q.mean_turnaround_s:.0f} s"
        )
    print(f"utility W  : {sparkline(result.utility_power_w)}")
    return 0


def cmd_serve(args) -> int:
    from repro.obs import LiveTelemetryService, ServiceConfig

    engine = _build_fleet_engine(args, backend="vector")
    if args.time_scale < 0:
        raise SystemExit("--time-scale must be >= 0 (0 = fastest possible)")
    service = LiveTelemetryService(
        engine,
        config=ServiceConfig(
            host=args.host,
            port=args.port,
            dt_s=args.dt,
            time_scale=args.time_scale,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_s=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
        ),
    )
    print(
        f"serving {engine.fleet.server_count}-server "
        f"{args.workload} x {args.hours:g} h scenario on "
        f"http://{args.host}:{args.port}  "
        f"(/metrics /channels /alerts /stream; Ctrl-C stops)"
    )
    try:
        asyncio.run(service.serve_forever())
    except KeyboardInterrupt:
        pass
    if service.interrupted_checkpoint is not None:
        # Graceful degradation: SIGTERM sealed a final checkpoint; the
        # next start with the same --checkpoint-dir resumes from it.
        print(
            f"interrupted; will resume from {service.interrupted_checkpoint}",
            file=sys.stderr,
        )
        return EX_TEMPFAIL
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import Baseline, LintEngine, render_json, render_text

    root = Path(args.root).resolve()
    engine = LintEngine(root)
    findings = engine.run([Path(p) for p in args.paths])

    baseline_path = Path(args.baseline)
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    if args.write_baseline:
        Baseline().save(baseline_path, findings)
        print(
            f"wrote baseline with {len(findings)} finding(s) to {baseline_path}"
        )
        return 0

    baseline = Baseline.load(baseline_path)
    new, old = LintEngine.split_baselined(findings, baseline)
    if args.report:
        Path(args.report).write_text(render_json(new, old))
    if args.format == "json":
        print(render_json(new, old), end="")
    else:
        print(render_text(new, old, baseline))
    return 1 if new else 0


def _parse_list(text: str, cast, option: str) -> List:
    """Split a comma-separated CLI value and cast each element."""
    items = [item.strip() for item in str(text).split(",") if item.strip()]
    if not items:
        raise SystemExit(f"{option} needs at least one value")
    try:
        return [cast(item) for item in items]
    except ValueError:
        raise SystemExit(f"{option}: cannot parse {text!r}")


def cmd_sweep(args) -> int:
    if args.racks <= 0:
        raise SystemExit("--racks must be positive")
    if args.hours <= 0 or args.dt <= 0:
        raise SystemExit("--hours and --dt must be positive")
    if args.workers < 0:
        raise SystemExit("--workers must be >= 0 (0 = one per core)")
    servers = _parse_list(args.servers_per_rack, int, "--servers-per-rack")
    if any(n <= 0 for n in servers):
        raise SystemExit("--servers-per-rack values must be positive")
    policies = _parse_list(args.policy, str, "--policy")
    for policy in policies:
        if policy not in PLACEMENT_POLICIES:
            raise SystemExit(
                f"unknown policy {policy!r} (have {sorted(PLACEMENT_POLICIES)})"
            )
    controllers = _parse_list(args.controller, str, "--controller")
    for controller in controllers:
        if controller not in ("default", "bangbang", "lut", "pi", "coordinated"):
            raise SystemExit(f"unknown controller {controller!r}")
    cracs = _parse_list(args.crac, float, "--crac")

    grid = fleet_grid(
        server_counts=servers,
        policies=policies,
        controllers=controllers,
        crac_supplies_c=cracs,
        racks=args.racks,
        workload=args.workload,
        hours=args.hours,
        dt_s=args.dt,
        seed=args.seed,
        backend=args.backend,
        shards=args.shards,
    )
    workers = args.workers if args.workers > 0 else None
    cache = None if args.no_cache else args.cache_dir
    # Progress lines flow through the executor's logger (see
    # repro.sweep.executor); --quiet swallows them, and the global
    # --log-level flag controls whether they reach the terminal.
    progress = (lambda line: None) if args.quiet else None  # noqa: E731
    table = run_sweep(
        grid,
        workers=workers,
        cache=cache,
        progress=progress,
        retries=args.retries,
        backoff_s=args.backoff,
    )

    failures = 0
    rows = []
    for row in table.rows():
        if row.get("error") is not None:
            failures += 1
            rows.append(
                [
                    f"{args.racks * row['servers_per_rack']}",
                    row["policy"],
                    row["controller"],
                    f"{row['crac_supply_c']:.1f}",
                    f"FAILED: {row['error']}",
                    "-",
                    "-",
                    "-",
                    "-",
                ]
            )
            continue
        rows.append(
            [
                f"{args.racks * row['servers_per_rack']}",
                row["policy"],
                row["controller"],
                f"{row['crac_supply_c']:.1f}",
                f"{row['energy_kwh']:.3f}",
                f"{row['fan_energy_kwh']:.3f}",
                f"{row['peak_power_w']:.0f}",
                f"{row['hot_spot_c']:.1f}",
                f"{row['sla_total_pct_s']:.1f}",
            ]
        )
    print(
        format_table(
            [
                "servers",
                "policy",
                "controller",
                "crac(C)",
                "E(kWh)",
                "E_fan(kWh)",
                "peak(W)",
                "hotspot(C)",
                "SLA(%s)",
            ],
            rows,
        )
    )
    print(
        f"\npoints     : {len(table)} total, {table.executed_count} executed, "
        f"{table.cache_hit_count} cached"
    )
    if cache is not None:
        print(f"cache      : {cache}")
    if failures:
        print(
            f"failures   : {failures} point(s) exhausted their retry "
            f"budget (kept uncached; re-run retries exactly those)"
        )
    if args.csv:
        path = table.to_csv(Path(args.csv))
        print(f"table      : {path}")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Leakage/temperature-aware server control (DATE'13) reproduction",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        dest="log_level",
        help="logging threshold for all repro modules (sweep progress "
        "and serve alerts flow through logging)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="run the steady-state sweep")
    p.add_argument("--output", help="write samples CSV here")
    p.add_argument("--raw", action="store_true", help="keep raw per-poll samples")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("fit", help="fit the power/fan models")
    p.add_argument("--samples", help="samples CSV (default: run a sweep)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("lut", help="build the optimum-fan-speed table")
    p.add_argument("--samples", help="samples CSV (default: run a sweep)")
    p.add_argument("--output", help="write LUT JSON here")
    p.add_argument("--max-temp", type=float, default=75.0, dest="max_temp")
    p.set_defaults(func=cmd_lut)

    p = sub.add_parser("run", help="run one controller on one test workload")
    p.add_argument(
        "--controller",
        default="lut",
        choices=("default", "bangbang", "lut", "pi", "oracle", "mpc"),
    )
    p.add_argument("--test", default="test3")
    p.add_argument("--lut", help="LUT JSON for the lut controller")
    p.add_argument("--samples", help="samples CSV for the mpc controller")
    p.add_argument("--rpm", type=float, default=3300.0, help="default-controller RPM")
    p.add_argument("--trace", help="write the full trace CSV here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("table1", help="regenerate Table I")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fig", help="regenerate a figure as an ASCII chart")
    p.add_argument("--figure", required=True, choices=("1a", "1b", "2a", "2b", "3"))
    p.set_defaults(func=cmd_fig)

    p = sub.add_parser("fleet", help="run a multi-server fleet scenario")
    p.add_argument("--racks", type=int, default=2, help="number of racks")
    p.add_argument(
        "--servers-per-rack", type=int, default=4, dest="servers_per_rack"
    )
    p.add_argument(
        "--policy",
        default="coolest-first",
        choices=sorted(PLACEMENT_POLICIES),
        help="job placement policy",
    )
    p.add_argument(
        "--workload",
        default="diurnal",
        choices=("diurnal", "batch", "flashcrowd", "mixed"),
    )
    p.add_argument(
        "--controller",
        default="lut",
        choices=("default", "bangbang", "lut", "pi", "coordinated"),
        help="per-server fan (or coordinated fan+DVFS) controller",
    )
    p.add_argument("--hours", type=float, default=24.0, help="scenario length")
    p.add_argument("--dt", type=float, default=60.0, help="tick length, s")
    p.add_argument(
        "--crac-supply", type=float, default=24.0, dest="crac_supply",
        help="CRAC supply temperature, degC",
    )
    p.add_argument("--rpm", type=float, default=3300.0, help="default-controller RPM")
    p.add_argument("--lut", help="LUT JSON for the lut controller")
    p.add_argument(
        "--faults",
        help="JSON fault spec (list of sensor/fan/outage/crac events, "
        "see docs/faults.md) injected into the run",
    )
    p.add_argument(
        "--backend",
        default="vector",
        choices=("vector", "reference", "sharded"),
        help="vector = kernelized batch, reference = one "
        "ServerSimulator per server (the physics oracle), sharded = "
        "multi-process workers with streamed traces (see docs/scaling.md)",
    )
    p.add_argument(
        "--shards",
        type=int,
        help="worker shard count for --backend sharded",
    )
    p.add_argument(
        "--trace-dir",
        dest="trace_dir",
        help="directory for streamed trace segments "
        "(--backend sharded; default: a self-cleaning temp dir)",
    )
    p.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        help="write periodic run checkpoints here (see docs/resilience.md); "
        "an interrupted run exits 75 and can continue with --resume",
    )
    p.add_argument(
        "--checkpoint-every",
        type=float,
        default=300.0,
        dest="checkpoint_every",
        help="checkpoint cadence in simulated seconds",
    )
    p.add_argument(
        "--checkpoint-keep",
        type=int,
        default=2,
        dest="checkpoint_keep",
        help="retained checkpoint generations",
    )
    p.add_argument(
        "--resume",
        help="continue a checkpointed run: a checkpoint directory, or a "
        "checkpoint root (resumes from its latest cut); the continued "
        "run is bit-identical to an uninterrupted one",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        dest="max_restarts",
        help="automatic in-run restarts of a crashed shard worker from "
        "the last checkpoint (--backend sharded with --checkpoint-dir)",
    )
    p.add_argument(
        "--barrier-timeout",
        type=float,
        dest="barrier_timeout",
        help="sharded tick-barrier timeout in seconds (default scales "
        "with the server count; env REPRO_BARRIER_TIMEOUT_S also works)",
    )
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "facility",
        help="run a facility-composed scenario: job queue -> fleet -> "
        "cooling plant -> power chain -> carbon",
    )
    p.add_argument("--racks", type=int, default=2, help="number of racks")
    p.add_argument(
        "--servers-per-rack", type=int, default=4, dest="servers_per_rack"
    )
    p.add_argument(
        "--policy",
        default="coolest-first",
        choices=sorted(PLACEMENT_POLICIES),
        help="job placement policy",
    )
    p.add_argument(
        "--arrivals",
        default="diurnal",
        choices=("poisson", "diurnal", "bursty"),
        help="job arrival process feeding the queue",
    )
    p.add_argument(
        "--jobs-per-hour",
        type=float,
        default=12.0,
        dest="jobs_per_hour",
        help="arrival rate (peak rate for diurnal arrivals)",
    )
    p.add_argument(
        "--mean-work-minutes",
        type=float,
        default=5.0,
        dest="mean_work_minutes",
        help="mean job size, minutes of one full server",
    )
    p.add_argument(
        "--controller",
        default="lut",
        choices=("default", "bangbang", "lut", "pi", "coordinated"),
        help="per-server fan (or coordinated fan+DVFS) controller",
    )
    p.add_argument("--hours", type=float, default=24.0, help="scenario length")
    p.add_argument("--dt", type=float, default=60.0, help="tick length, s")
    p.add_argument(
        "--crac-supply", type=float, default=24.0, dest="crac_supply",
        help="CRAC supply temperature, degC",
    )
    p.add_argument(
        "--plant-supply",
        type=float,
        default=24.0,
        dest="plant_supply",
        help="cooling-plant supply setpoint for the COP curve, degC",
    )
    p.add_argument(
        "--rated-kw",
        type=float,
        dest="rated_kw",
        help="UPS/PDU nameplate rating, kW (default: 0.6 kW per server)",
    )
    p.add_argument(
        "--carbon-base",
        type=float,
        default=120.0,
        dest="carbon_base",
        help="cleanest grid intensity, g CO2 per kWh",
    )
    p.add_argument(
        "--carbon-peak",
        type=float,
        default=450.0,
        dest="carbon_peak",
        help="dirtiest grid intensity, g CO2 per kWh",
    )
    p.add_argument(
        "--no-cooling",
        action="store_true",
        dest="no_cooling",
        help="disable the cooling plant (no cooling power)",
    )
    p.add_argument(
        "--no-power-chain",
        action="store_true",
        dest="no_power_chain",
        help="disable the UPS/PDU chain (lossless delivery)",
    )
    p.add_argument(
        "--no-carbon",
        action="store_true",
        dest="no_carbon",
        help="disable carbon accounting",
    )
    p.add_argument("--rpm", type=float, default=3300.0, help="default-controller RPM")
    p.add_argument("--lut", help="LUT JSON for the lut controller")
    p.add_argument(
        "--backend",
        default="vector",
        choices=("vector", "reference"),
        help="queue-driven demand is evaluated tick by tick, so the "
        "sharded backend is not available here",
    )
    p.set_defaults(func=cmd_facility)

    p = sub.add_parser(
        "sweep",
        help="run a cross-product fleet scenario sweep in parallel",
    )
    p.add_argument("--racks", type=int, default=2, help="racks per point")
    p.add_argument(
        "--servers-per-rack",
        default="2,4",
        dest="servers_per_rack",
        help="comma-separated axis, servers per rack",
    )
    p.add_argument(
        "--policy",
        default="round-robin,coolest-first",
        help="comma-separated placement-policy axis",
    )
    p.add_argument(
        "--controller",
        default="lut",
        help="comma-separated controller axis "
        "(default,bangbang,lut,pi,coordinated)",
    )
    p.add_argument(
        "--crac",
        default="24",
        help="comma-separated CRAC supply axis, degC",
    )
    p.add_argument(
        "--workload",
        default="diurnal",
        choices=("diurnal", "batch", "flashcrowd", "mixed"),
    )
    p.add_argument("--hours", type=float, default=24.0, help="scenario length")
    p.add_argument("--dt", type=float, default=60.0, help="tick length, s")
    p.add_argument(
        "--backend",
        default="vector",
        choices=("vector", "reference", "sharded"),
        help="vector = kernelized batch, reference = one "
        "ServerSimulator per server (the physics oracle), sharded = "
        "multi-process workers with streamed traces (see docs/scaling.md)",
    )
    p.add_argument(
        "--shards",
        type=int,
        help="worker shard count per point for --backend sharded "
        "(enters the result-cache hash)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = one per core)",
    )
    p.add_argument(
        "--cache-dir",
        default=str(DEFAULT_CACHE_DIR),
        dest="cache_dir",
        help="content-hash result cache directory",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        dest="no_cache",
        help="neither read nor write the result cache",
    )
    p.add_argument("--csv", help="write the tidy sweep table CSV here")
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="per-point retry budget: a point that still fails lands in "
        "the table as an error row while the rest of the grid completes",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        help="first retry delay in seconds (doubles per attempt)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run a fleet scenario live and serve its telemetry over HTTP",
    )
    p.add_argument("--racks", type=int, default=2, help="number of racks")
    p.add_argument(
        "--servers-per-rack", type=int, default=4, dest="servers_per_rack"
    )
    p.add_argument(
        "--policy",
        default="coolest-first",
        choices=sorted(PLACEMENT_POLICIES),
        help="job placement policy",
    )
    p.add_argument(
        "--workload",
        default="diurnal",
        choices=("diurnal", "batch", "flashcrowd", "mixed"),
    )
    p.add_argument(
        "--controller",
        default="pi",
        choices=("default", "bangbang", "lut", "pi", "coordinated"),
        help="per-server fan (or coordinated fan+DVFS) controller",
    )
    p.add_argument("--hours", type=float, default=12.0, help="scenario length")
    p.add_argument("--dt", type=float, default=60.0, help="tick length, s")
    p.add_argument(
        "--crac-supply", type=float, default=24.0, dest="crac_supply",
        help="CRAC supply temperature, degC",
    )
    p.add_argument("--rpm", type=float, default=3300.0, help="default-controller RPM")
    p.add_argument("--lut", help="LUT JSON for the lut controller")
    p.add_argument(
        "--faults",
        help="JSON fault spec injected into the run; detection is "
        "scored against it once the scenario completes",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8787, help="bind port")
    p.add_argument(
        "--time-scale",
        type=float,
        default=60.0,
        dest="time_scale",
        help="simulated seconds per wall second (0 = fastest possible)",
    )
    p.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        help="checkpoint the live run here: SIGTERM seals a final cut "
        "(exit 75) and the next start resumes from the latest one",
    )
    p.add_argument(
        "--checkpoint-every",
        type=float,
        default=300.0,
        dest="checkpoint_every",
        help="checkpoint cadence in simulated seconds",
    )
    p.add_argument(
        "--checkpoint-keep",
        type=int,
        default=2,
        dest="checkpoint_keep",
        help="retained checkpoint generations",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "lint",
        help="run the reprolint domain checkers (units, RNG, hot paths, "
        "trace schemas)",
    )
    p.add_argument("paths", nargs="+", help="files or directories to lint")
    p.add_argument(
        "--root",
        default=".",
        help="lint root; relative paths and the baseline resolve against it",
    )
    p.add_argument(
        "--baseline",
        default="reprolint-baseline.json",
        help="grandfathered-findings JSON (a missing file is empty)",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        dest="write_baseline",
        help="capture the current findings as the new baseline and exit 0",
    )
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--report", help="also write the JSON report to this path")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
