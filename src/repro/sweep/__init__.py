"""Parallel scenario-sweep orchestration.

The paper's argument is built on sweeps — workload tests, ambient /
leakage / noise sensitivity, controller ablations — and the ROADMAP's
north star is "as many scenarios as you can imagine".  This package
makes a sweep a *declaration* instead of a hand-rolled loop:

* :mod:`repro.sweep.spec` — :class:`ScenarioSpec` (one point) and
  :class:`GridSpec` (a cross product of parameter axes), both reduced
  to a canonical content hash, and :data:`PARAMETERS`, the one table
  of the built-in kinds' run parameters,
* :mod:`repro.sweep.scenarios` — the runner registry mapping spec
  kinds (``experiment``, ``lut_vs_default``, ``fleet``, ``facility``)
  onto the existing engines through :func:`build_run`, with
  per-process memoization of expensive artifacts (LUT
  characterizations, model fits),
* :mod:`repro.sweep.executor` — :func:`run_sweep`: cache resolution,
  a ``multiprocessing`` fan-out, deterministic row ordering, progress
  logging,
* :mod:`repro.sweep.cache` — the content-addressed JSON result cache
  (``benchmarks/results/cache/`` by default): a warm re-run performs
  zero engine invocations,
* :mod:`repro.sweep.result` — :class:`SweepResult`, the tidy table
  (named ndarray columns, lossless CSV export, bit-identical
  comparison).

Quickstart::

    from repro.sweep import GridSpec, run_sweep

    grid = GridSpec(
        kind="fleet",
        base={"racks": 1, "hours": 1.0, "controller": "default"},
        axes={
            "servers_per_rack": [2, 4],
            "policy": ["round-robin", "coolest-first"],
            "crac_supply_c": [22.0, 24.0, 27.0],
        },
    )
    table = run_sweep(grid, workers=4, cache="benchmarks/results/cache")
    print(table.column("energy_kwh"))
"""

from typing import Any, Sequence

from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.sweep.executor import default_worker_count, run_sweep
from repro.sweep.result import SweepResult
from repro.sweep.scenarios import (
    ENGINE_OPTIONS,
    SCENARIO_KINDS,
    build_fleet_workload,
    build_run,
    metrics_from_row,
    register_scenario,
    run_experiment_point,
    run_scenario,
)
from repro.sweep.spec import (
    CACHE_SCHEMA_VERSION,
    KIND_PARAMS,
    PARAMETERS,
    GridSpec,
    Parameter,
    ScenarioSpec,
    canonical,
    content_hash,
    resolve_params,
)

#: The parameters every :func:`fleet_grid` point carries (table defaults).
_GRID_BASE = ("racks", "workload", "hours", "dt_s", "seed", "backend")


def fleet_grid(
    server_counts: Sequence[int] = (2, 4),
    policies: Sequence[str] = ("round-robin", "coolest-first"),
    controllers: Sequence[str] = (PARAMETERS["controller"].default,),
    crac_supplies_c: Sequence[float] = (PARAMETERS["crac_supply_c"].default,),
    **base: Any,
) -> GridSpec:
    """The cross-product fleet sweep: servers × policy × controller × CRAC.

    ``server_counts`` are servers *per rack* (total servers per point is
    ``racks`` times that); ``crac_supplies_c`` are CRAC supply setpoints
    in °C.  Single-valued axes are allowed — the grid simply has extent
    1 along them.  *base* holds the ``fleet`` parameters every point
    shares: ``racks``, ``workload``, ``hours``, ``dt_s``, ``seed`` and
    ``backend`` always (at their :data:`PARAMETERS` defaults unless
    given, cast by the row's parse type), any other (``shards``,
    ``spec``, ``lut``, ...) when given and not None.
    """
    params = {}
    for row in (PARAMETERS[name] for name in _GRID_BASE):
        value = base.pop(row.name, row.default)
        params[row.name] = value if row.parse is None else row.parse(value)
    params.update((name, value) for name, value in base.items() if value is not None)
    return GridSpec(
        kind="fleet",
        base=params,
        axes={
            "servers_per_rack": [int(n) for n in server_counts],
            "policy": list(policies),
            "controller": list(controllers),
            "crac_supply_c": [float(t) for t in crac_supplies_c],
        },
    )


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ENGINE_OPTIONS",
    "GridSpec",
    "KIND_PARAMS",
    "PARAMETERS",
    "Parameter",
    "ResultCache",
    "SCENARIO_KINDS",
    "ScenarioSpec",
    "SweepResult",
    "build_fleet_workload",
    "build_run",
    "canonical",
    "content_hash",
    "default_worker_count",
    "fleet_grid",
    "metrics_from_row",
    "register_scenario",
    "resolve_params",
    "run_experiment_point",
    "run_scenario",
    "run_sweep",
]
