"""Scenario runners: one function per sweep-point *kind*.

A point's flat parameter mapping is the one description of a run:
the sweep kinds here and the ``repro run|fleet|facility|serve``
commands all build from it.  :func:`build_run` turns a ``fleet`` or
``facility`` mapping into its engine and :func:`run_experiment_point`
runs an ``experiment`` mapping; each runner returns the point's
*row* — a flat ``{column: float | int | str}`` mapping that the
executor assembles into a :class:`~repro.sweep.result.SweepResult`
table and the cache persists as JSON.

Expensive shared artifacts — the characterization behind
:func:`~repro.experiments.report.build_paper_lut`, the fitted power
models the MPC needs — are memoized **per worker process** keyed by
their content hash, so a grid that re-characterizes per silicon
variant (e.g. the leakage sweep) builds each LUT once per worker, not
once per point.

Registered kinds:

* ``"experiment"`` — one controller on one workload profile on one
  (possibly scaled) server spec; row = Table-I metrics (kWh, W, °C,
  RPM) plus the junction-temperature spread (°C).
* ``"lut_vs_default"`` — the sensitivity pairing: the LUT scheme vs
  the firmware default on the same spec/profile; row = both metric
  sets plus the net saving (%) and the LUT's full-load speed (RPM).
* ``"fleet"`` — a rack-scale :class:`FleetEngine` scenario; row =
  fleet aggregates (kWh, W, °C, %·s of lost work).
* ``"facility"`` — a fleet scenario composed with the facility layers
  (job queue → cooling plant → power chain → carbon); row = facility
  energy split (kWh), PUE, carbon (kg), and queue/SLA counters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from typing import Any, Callable, Dict, Mapping, Union

import numpy as np

from repro.core.controllers.bangbang import BangBangController
from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.core.controllers.mpc import build_mpc_from_characterization
from repro.core.controllers.oracle import OracleController
from repro.core.controllers.pid import PIController
from repro.core.lut import build_lut_from_spec
from repro.experiments.characterization import run_characterization_steady
from repro.experiments.metrics import ExperimentMetrics, net_savings_pct
from repro.experiments.report import build_paper_lut
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.experiments.sensitivity import scale_leakage, scale_sensor_noise
from repro.facility import (
    CoolingPlant,
    FacilityEngine,
    PowerChain,
    build_diurnal_carbon_model,
    build_job_queue,
)
from repro.fleet.engine import FleetEngine
from repro.fleet.faults import FaultSchedule
from repro.fleet.scheduler import PLACEMENT_POLICIES, FleetScheduler
from repro.fleet.topology import build_uniform_fleet
from repro.models.fitting import fit_models
from repro.server.ambient import ConstantAmbient
from repro.server.dvfs import default_dvfs_ladder
from repro.server.specs import default_server_spec
from repro.sweep.spec import ScenarioSpec, content_hash, resolve_params
from repro.units import hours, kilowatts_to_watts
from repro.workloads.datacenter import (
    build_batch_window_profile,
    build_diurnal_profile,
    build_flash_crowd_profile,
    combine_profiles,
)
from repro.workloads.tests import paper_test_profiles

#: Registered scenario runners, keyed by spec kind.
SCENARIO_KINDS: Dict[str, Callable[[Mapping[str, Any]], Dict[str, Any]]] = {}

#: Per-process memo for expensive derived artifacts (LUTs, model fits).
_PROCESS_MEMO: Dict[str, Any] = {}


def register_scenario(kind: str):
    """Class-less plugin hook: register *func* as the runner for *kind*."""

    def decorator(func):
        """Install *func* in the registry under *kind* (must be new)."""
        if kind in SCENARIO_KINDS:
            raise ValueError(f"scenario kind {kind!r} already registered")
        SCENARIO_KINDS[kind] = func
        return func

    return decorator


def run_scenario(spec: ScenarioSpec) -> Dict[str, Any]:
    """Execute one sweep point and return its row of scalar results."""
    try:
        runner = SCENARIO_KINDS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown scenario kind {spec.kind!r} "
            f"(registered: {sorted(SCENARIO_KINDS)})"
        ) from None
    return runner(spec.params)


def _memoized(tag: str, key_value: Any, build: Callable[[], Any]) -> Any:
    """Build-once-per-process cache for expensive derived artifacts."""
    try:
        key = f"{tag}:{content_hash(key_value)}"
    except TypeError:
        return build()  # unhashable inputs: just rebuild
    if key not in _PROCESS_MEMO:
        _PROCESS_MEMO[key] = build()
    return _PROCESS_MEMO[key]


#: FleetEngine settings that cannot change a run's results.  They stay
#: out of the content hash and reach :func:`build_run` as keywords.
ENGINE_OPTIONS = frozenset({"checkpoint", "trace_dir", "barrier_timeout_s"})


# ----------------------------------------------------------------------
# spec, profile and controller chain
# ----------------------------------------------------------------------
def _derived_spec(params: Mapping[str, Any]):
    """The server spec after leakage / sensor-noise scaling.

    The coordinated fan+DVFS policy needs sockets with a real p-state
    ladder to actuate, so under it a single-state spec gets the
    default ladder.  *params* are resolved (:func:`resolve_params`).
    """
    spec = params["spec"]
    spec = spec if spec is not None else default_server_spec()
    leakage_factor = float(params["leakage_factor"])
    if leakage_factor != 1.0:
        spec = scale_leakage(spec, leakage_factor)
    noise_factor = float(params["noise_factor"])
    if noise_factor != 1.0:
        spec = scale_sensor_noise(spec, noise_factor)
    if params.get("controller") == "coordinated" and len(spec.dvfs) == 1:
        spec = replace(spec, dvfs=default_dvfs_ladder())
    return spec


def _resolve_profile(params: Mapping[str, Any]):
    """The workload profile: an object or a paper-test name."""
    profile = params["profile"]
    seed = int(params["profile_seed"])
    if isinstance(profile, str):
        named = _memoized(
            "paper_tests", seed, lambda: paper_test_profiles(seed=seed)
        )
        if profile not in named:
            raise ValueError(
                f"unknown test profile {profile!r} (have {sorted(named)})"
            )
        return named[profile]
    return profile


def _resolve_lut(params: Mapping[str, Any], spec):
    """The lookup table: given, ladder-rebuilt, or the paper pipeline's."""
    lut = params["lut"]
    if lut is not None:
        return lut
    max_temp = float(params["lut_max_temperature_c"])
    ladder = params["lut_candidates_rpm"]
    if ladder is not None:
        ladder = tuple(float(r) for r in ladder)
        return _memoized(
            "ladder_lut",
            {"spec": spec, "ladder": ladder, "max_temp": max_temp},
            lambda: build_lut_from_spec(
                spec, candidates_rpm=ladder, max_temperature_c=max_temp
            ),
        )
    seed = int(params["characterization_seed"])
    return _memoized(
        "paper_lut",
        {"spec": spec, "seed": seed, "max_temp": max_temp},
        lambda: build_paper_lut(
            spec=spec, seed=seed, max_temperature_c=max_temp
        ),
    )


def _fitted_models(samples):
    """*samples* plus the power and fan models the MPC fits to them."""
    return (samples, *fit_models(samples))


def _mpc_models(params: Mapping[str, Any], spec):
    """The MPC's models: fitted to ``samples``, else to *spec*'s own."""
    samples = params["samples"]
    if samples is not None:
        return _fitted_models(list(samples))
    seed = int(params["characterization_seed"])
    return _memoized(
        "mpc_models",
        {"spec": spec, "seed": seed},
        lambda: _fitted_models(
            run_characterization_steady(spec=spec, seed=seed)
        ),
    )


def _build_controller(params: Mapping[str, Any], spec) -> Callable[[int], Any]:
    """The named controller chain for *spec*, as a per-server factory.

    Expensive artifacts (the LUT, the MPC's fitted models) resolve
    once per run; each factory call returns a fresh controller, since
    controllers keep state (lockout clocks, integrators).  *params*
    are resolved (:func:`resolve_params`).
    """
    name = str(params["controller"])
    if name == "default":
        # Baseline consistency: without an explicit rpm the firmware
        # default of *this* spec is used, matching the lut_vs_default
        # kind's baseline (not a hardcoded 3300 RPM).
        rpm = params["rpm"]
        rpm = float(rpm) if rpm is not None else spec.default_fan_rpm
        if not spec.fan.rpm_min <= rpm <= spec.fan.rpm_max:
            raise ValueError(
                f"rpm {rpm} outside supported range "
                f"[{spec.fan.rpm_min}, {spec.fan.rpm_max}]"
            )
        return lambda index: FixedSpeedController(rpm=rpm)
    if name == "bangbang":
        thresholds = params["thresholds"]
        bands = {} if thresholds is None else {"thresholds": thresholds}
        return lambda index: BangBangController(**bands)
    if name == "pi":
        target_c = float(params["pi_target_c"])
        return lambda index: PIController(target_c=target_c)
    if name == "oracle":
        return lambda index: OracleController(spec=spec)
    if name in ("lut", "coordinated"):
        lut = _resolve_lut(params, spec)
        lockout_s = float(params["lut_lockout_s"])
        if name == "lut":
            return lambda index: LUTController(lut, lockout_s=lockout_s)
        return lambda index: CoordinatedController(
            lut, spec.dvfs, lockout_s=lockout_s
        )
    if name == "mpc":
        samples, fitted, fan = _mpc_models(params, spec)
        return lambda index: build_mpc_from_characterization(
            samples, fitted, fan
        )
    raise ValueError(f"unknown controller {name!r}")


def _metrics_row(metrics, prefix: str = "") -> Dict[str, Any]:
    """Flatten :class:`ExperimentMetrics` into ``prefix``-ed columns.

    Derived from the dataclass fields so the sweep tables track the
    metrics schema automatically.
    """
    return {
        f"{prefix}{field.name}": getattr(metrics, field.name)
        for field in dataclasses.fields(metrics)
    }


def metrics_from_row(row: Mapping[str, Any], prefix: str = ""):
    """Rebuild :class:`ExperimentMetrics` from ``prefix``-ed row columns.

    The inverse of the flattening the ``experiment`` and
    ``lut_vs_default`` runners apply; works on table rows and cached
    JSON rows alike (units as in the dataclass: kWh, W, °C, RPM, %, s).
    """
    return ExperimentMetrics(
        **{
            field.name: row[f"{prefix}{field.name}"]
            for field in dataclasses.fields(ExperimentMetrics)
        }
    )


# ----------------------------------------------------------------------
# kind: experiment — one controller, one profile, one (scaled) spec
# ----------------------------------------------------------------------
def run_experiment_point(params: Mapping[str, Any]) -> ExperimentResult:
    """Run the single-server closed loop an ``experiment`` point describes.

    Bad input raises :class:`ValueError`.  ``repro run`` prints the
    result; the ``experiment`` kind flattens it into its row.
    """
    params = resolve_params("experiment", params)
    spec = _derived_spec(params)
    return run_experiment(
        _build_controller(params, spec)(0),
        _resolve_profile(params),
        spec=spec,
        config=ExperimentConfig(seed=int(params["seed"])),
        ambient=ConstantAmbient(float(params["ambient_c"])),
    )


@register_scenario("experiment")
def run_experiment_scenario(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Single-server closed-loop run; row = Table-I metrics + T spread."""
    result = run_experiment_point(params)
    row = _metrics_row(result.metrics)
    row["controller_name"] = result.controller_name
    row["temperature_std_c"] = float(
        np.std(result.column("max_junction_c"))
    )
    return row


# ----------------------------------------------------------------------
# kind: lut_vs_default — the sensitivity pairing
# ----------------------------------------------------------------------
@register_scenario("lut_vs_default")
def run_lut_vs_default_scenario(params: Mapping[str, Any]) -> Dict[str, Any]:
    """LUT scheme vs firmware default on one spec/profile/ambient.

    With no explicit ``lut`` parameter the LUT is re-characterized on
    the (scaled) spec — the behaviour the leakage-strength sweep needs
    — memoized per worker process.
    """
    params = resolve_params("lut_vs_default", params)
    spec = _derived_spec(params)
    profile = _resolve_profile(params)
    lut = _resolve_lut(params, spec)
    config = ExperimentConfig(seed=int(params["seed"]))
    ambient = ConstantAmbient(float(params["ambient_c"]))
    default_run, lut_run = (
        run_experiment(
            _build_controller(
                resolve_params("experiment", dict(params, controller=name)),
                spec,
            )(0),
            profile,
            spec=spec,
            config=config,
            ambient=ambient,
        )
        for name in ("default", "lut")
    )
    row = _metrics_row(default_run.metrics, "default_")
    row.update(_metrics_row(lut_run.metrics, "lut_"))
    row["net_savings_pct"] = net_savings_pct(
        default_run.metrics, lut_run.metrics
    )
    row["lut_rpm_at_100"] = float(lut.query(100.0))
    return row


# ----------------------------------------------------------------------
# kinds: fleet and facility — one build_run
# ----------------------------------------------------------------------
def build_fleet_workload(name: str, duration_s: float, seed: int = 0):
    """Named aggregate-demand profile for fleet scenarios."""
    if name == "diurnal":
        return build_diurnal_profile(duration_s=duration_s, seed=seed)
    if name == "batch":
        return build_batch_window_profile(duration_s=duration_s)
    if name == "flashcrowd":
        return build_flash_crowd_profile(duration_s=duration_s, seed=seed)
    if name == "mixed":
        return combine_profiles(
            [
                build_diurnal_profile(duration_s=duration_s, seed=seed),
                build_batch_window_profile(
                    duration_s=duration_s, batch_pct=40.0
                ),
            ]
        )
    raise ValueError(f"unknown fleet workload {name!r}")


def build_run(
    kind: str, params: Mapping[str, Any], **engine_options: Any
) -> Union[FleetEngine, FacilityEngine]:
    """Build the engine a ``fleet`` or ``facility`` point describes.

    *params* is the point's parameter mapping (checked and completed
    by :func:`resolve_params`); every ``repro fleet``, ``facility`` and
    ``serve`` invocation is such a mapping.  *engine_options* are the
    :data:`ENGINE_OPTIONS` (checkpointing, the trace directory, the
    barrier timeout), which cannot change results and so stay out of
    the point's content hash.

    Returns a :class:`~repro.fleet.engine.FleetEngine` for ``"fleet"``
    and a :class:`~repro.facility.engine.FacilityEngine` for
    ``"facility"``; run either with ``.run(dt_s=params["dt_s"])``.
    Bad input raises :class:`ValueError`.
    """
    if kind not in ("fleet", "facility"):
        raise ValueError(f"build_run builds fleet or facility, not {kind!r}")
    unknown = sorted(set(engine_options) - ENGINE_OPTIONS)
    if unknown:
        raise TypeError(f"unknown engine option(s) {unknown}")
    params = resolve_params(kind, params)
    spec = _derived_spec(params)
    fleet = build_uniform_fleet(
        rack_count=int(params["racks"]),
        servers_per_rack=int(params["servers_per_rack"]),
        spec=spec,
        crac_supply_c=float(params["crac_supply_c"]),
    )
    seed = int(params["seed"])
    duration_s = hours(float(params["hours"]))
    if kind == "fleet":
        workload = build_fleet_workload(
            str(params["workload"]), duration_s, seed=seed
        )
    else:
        workload = build_job_queue(
            str(params["arrivals"]),
            fleet.server_count,
            duration_s=duration_s,
            seed=seed,
            jobs_per_hour=float(params["jobs_per_hour"]),
            mean_work_pct_s=float(params["mean_work_pct_s"]),
            deadline_slack=float(params["deadline_slack"]),
        )
    # sharded-only knob: an int or explicit shard sizes; enters the cache
    # hash like every other param, so sharded rows never collide with
    # vector rows.
    shards = params.get("shards")
    if isinstance(shards, (list, tuple)):
        shards = tuple(int(s) for s in shards)
    elif shards is not None:
        shards = int(shards)
    engine = FleetEngine(
        fleet,
        workload,
        scheduler=FleetScheduler(PLACEMENT_POLICIES[params["policy"]]()),
        controller_factory=_build_controller(params, spec),
        backend=str(params["backend"]),
        seed=seed,
        faults=FaultSchedule.resolve(params.get("faults")),
        shards=shards,
        **engine_options,
    )
    if kind == "fleet":
        return engine
    # The plant holds the CRAC supply unless told otherwise (the row's
    # default), so a warmer CRAC setpoint also earns the plant's COP gain.
    plant_supply_c = float(params["plant_supply_c"])
    rated_kw = params["rated_kw"]
    rated_w = (
        kilowatts_to_watts(float(rated_kw))
        if rated_kw is not None
        else fleet.server_count * 600.0
    )
    return FacilityEngine(
        engine,
        cooling=None
        if params["no_cooling"]
        else CoolingPlant(supply_c=plant_supply_c),
        power=None
        if params["no_power_chain"]
        else PowerChain(rated_power_w=rated_w),
        carbon=None
        if params["no_carbon"]
        else build_diurnal_carbon_model(
            duration_s=duration_s,
            base_g_per_kwh=float(params["carbon_base_g_per_kwh"]),
            peak_g_per_kwh=float(params["carbon_peak_g_per_kwh"]),
        ),
    )


@register_scenario("fleet")
def run_fleet_scenario(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One FleetEngine scenario; row = fleet aggregates (kWh, W, °C, %·s).

    The optional ``faults`` parameter (a
    :class:`~repro.fleet.faults.FaultSchedule` or a list of event
    mappings, the JSON form) injects fleet-scale fault events; the row
    then carries the degraded-mode aggregates (``fault_time_s``,
    ``respilled_pct_s``, ``fault_sla_pct_s``).  Both forms
    content-hash deterministically, so fault grids are cache-correct;
    pick one representation per sweep (they hash differently).
    """
    params = resolve_params("fleet", params)
    m = build_run("fleet", params).run(dt_s=float(params["dt_s"])).metrics
    return {
        "server_count": m.server_count,
        "duration_s": m.duration_s,
        "energy_kwh": m.energy_kwh,
        "fan_energy_kwh": m.fan_energy_kwh,
        "peak_power_w": m.peak_power_w,
        "avg_power_w": m.avg_power_w,
        "hot_spot_c": m.hot_spot_c,
        "mean_utilization_pct": m.mean_utilization_pct,
        "mean_inlet_c": m.mean_inlet_c,
        "sla_unserved_pct_s": m.sla_unserved_pct_s,
        "dvfs_deficit_pct_s": m.dvfs_deficit_pct_s,
        "sla_total_pct_s": m.sla_total_pct_s,
        "sla_violation_ticks": m.sla_violation_ticks,
        "fault_time_s": m.fault_time_s,
        "respilled_pct_s": m.respilled_pct_s,
        "fault_sla_pct_s": m.fault_sla_pct_s,
    }


@register_scenario("facility")
def run_facility_scenario(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One facility-composed scenario; row = PUE/energy/carbon + queue.

    The IT side is a :class:`FleetEngine` driven by a
    :class:`~repro.facility.workload.WorkloadQueue` job-arrival
    process (``arrivals`` ∈ poisson/diurnal/bursty) instead of an
    aggregate utilization profile; the facility layers are composed
    around the run by :class:`~repro.facility.engine.FacilityEngine`.
    Queue-driven demand is evaluated tick by tick, so the sharded
    backend is rejected here (the engine raises).
    """
    params = resolve_params("facility", params)
    m = build_run("facility", params).run(dt_s=float(params["dt_s"])).metrics
    q = m.queue
    row: Dict[str, Any] = {
        "server_count": m.fleet.server_count,
        "duration_s": m.fleet.duration_s,
        "it_energy_kwh": m.it_energy_kwh,
        "cooling_energy_kwh": m.cooling_energy_kwh,
        "chain_loss_kwh": m.chain_loss_kwh,
        "facility_energy_kwh": m.facility_energy_kwh,
        "pue": m.pue,
        "carbon_kg": m.carbon_kg,
        "mean_intensity_g_per_kwh": m.mean_intensity_g_per_kwh,
        "peak_utility_power_w": m.peak_utility_power_w,
        "hot_spot_c": m.fleet.hot_spot_c,
        "sla_unserved_pct_s": m.fleet.sla_unserved_pct_s,
    }
    if q is not None:
        row.update(
            {
                "jobs_arrived": q.arrived,
                "jobs_completed": q.completed,
                "jobs_pending": q.pending,
                "jobs_running": q.running,
                "queue_sla_violations": q.sla_violations,
                "mean_wait_s": q.mean_wait_s,
                "mean_turnaround_s": q.mean_turnaround_s,
                "queue_drained": int(q.drained),
            }
        )
    return row
