#!/usr/bin/env python3
"""Build (or rebuild) the golden reference traces in ``tests/golden/``.

Each golden trace is a small seeded run committed as CSV; the
regression suite (``tests/test_golden_traces.py``) recomputes the same
scenarios and asserts exact (bit-for-bit after round-trip) equality.
Floats are written with ``repr`` — the shortest exact round-trip form
— so parsing a file reproduces the original float64 values exactly.

Regenerate after an *intentional* model or schema change::

    PYTHONPATH=src python tests/regen_golden_traces.py [FILE ...]

(no FILE rebuilds every golden) and commit the updated files together
with the change that explains them.  A diff you cannot explain is a
regression, not a reason to regenerate.

``run_rows.json`` is not a trace: it holds the sweep row of every
point in :data:`RUN_POINTS`, the matrix on which each CLI run command
must equal its sweep point (``tests/test_run_description.py``).
``cli_flags.json`` is not a trace either: it holds every command's
options (:func:`cli_flags`), the command-line surface ``tests/test_cli.py``
checks the live parser against.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

if __name__ == "__main__":  # standalone: put src/ on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

Table = Tuple[List[str], List[np.ndarray]]


# ----------------------------------------------------------------------
# scenario builders (everything seeded, nothing expensive)
# ----------------------------------------------------------------------
def golden_run_experiment() -> Table:
    """Single-server closed loop: bang-bang on a 200 s staircase."""
    from repro.core.controllers.bangbang import BangBangController
    from repro.experiments.runner import (
        ExperimentConfig,
        TRACE_COLUMNS,
        run_experiment,
    )
    from repro.workloads.profile import StaircaseProfile

    result = run_experiment(
        BangBangController(),
        StaircaseProfile([25.0, 75.0, 100.0, 40.0], 50.0),
        config=ExperimentConfig(dt_s=1.0, seed=11),
    )
    names = list(TRACE_COLUMNS)
    return names, [np.asarray(result.column(name)) for name in names]


def _fleet_table(result) -> Table:
    """Flatten a FleetResult into per-server golden columns."""
    names: List[str] = ["time_s", "unserved_pct", "respilled_pct", "fault_unserved_pct"]
    columns: List[np.ndarray] = [
        result.times_s,
        result.unserved_pct,
        result.respilled_pct,
        result.fault_unserved_pct,
    ]
    per_server = (
        "total_power_w",
        "fan_power_w",
        "max_junction_c",
        "utilization_pct",
        "inlet_c",
        "mean_rpm",
        "pstate_index",
        "work_deficit_pct",
        "fault_active",
    )
    server_count = result.total_power_w.shape[1]
    for name in per_server:
        trace = np.asarray(getattr(result, name), dtype=float)
        for server in range(server_count):
            names.append(f"{name}_s{server}")
            columns.append(trace[:, server])
    return names, columns


def golden_fleet_coordinated() -> Table:
    """4 coupled servers under coordinated fan+DVFS control, 200 ticks."""
    from dataclasses import replace

    from repro.core.controllers.coordinated import CoordinatedController
    from repro.core.lut import build_lut_from_spec
    from repro.fleet import (
        FleetEngine,
        FleetScheduler,
        PLACEMENT_POLICIES,
        build_uniform_fleet,
    )
    from repro.server.dvfs import default_dvfs_ladder
    from repro.server.specs import default_server_spec
    from repro.workloads.profile import StaircaseProfile

    spec = replace(default_server_spec(), dvfs=default_dvfs_ladder())
    lut = build_lut_from_spec(spec)
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2, spec=spec)
    result = FleetEngine(
        fleet,
        StaircaseProfile([20.0, 70.0, 95.0, 40.0], 100.0),
        scheduler=FleetScheduler(PLACEMENT_POLICIES["dvfs-aware"]()),
        controller_factory=lambda i: CoordinatedController(lut, spec.dvfs),
    ).run(dt_s=2.0)
    return _fleet_table(result)


def golden_fleet_fault_drill() -> Table:
    """The compound fault drill on a 2x2 fleet, 200 ticks.

    Sensor stuck-low + fan derate + one-server outage + CRAC
    excursion — the degraded-operation scenario family PR 5 opened.
    """
    from repro.core.controllers.pid import PIController
    from repro.fleet import build_uniform_fleet

    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2)
    return _fleet_table(_run_fault_drill(fleet, lambda i: PIController()))


def _run_fault_drill(fleet, controller_factory, backend: str = "vector"):
    """The compound drill on a 2x2 *fleet*: 200 ticks of 2 s."""
    from repro.fleet import (
        CracExcursionEvent,
        FanDegradationEvent,
        FaultSchedule,
        FleetEngine,
        FleetScheduler,
        PLACEMENT_POLICIES,
        SensorFaultEvent,
        ServerOutageEvent,
    )
    from repro.workloads.profile import StaircaseProfile

    schedule = FaultSchedule(
        events=(
            SensorFaultEvent(
                server=0, mode="stuck", value=30.0, start_s=60.0, end_s=260.0
            ),
            FanDegradationEvent(server=1, rpm_factor=0.6, start_s=120.0),
            ServerOutageEvent(server=3, start_s=100.0, end_s=300.0),
            CracExcursionEvent(delta_c=3.0, rack=1, start_s=40.0, end_s=200.0),
        )
    )
    return FleetEngine(
        fleet,
        StaircaseProfile([30.0, 85.0, 55.0, 70.0], 100.0),
        scheduler=FleetScheduler(PLACEMENT_POLICIES["coolest-first"]()),
        controller_factory=controller_factory,
        faults=schedule,
        backend=backend,
    ).run(dt_s=2.0)


def golden_fleet_reference() -> Table:
    """The compound fault drill on the ``reference`` backend, 200 ticks.

    One real ``ServerSimulator`` per server under the coordinated
    fan+DVFS controller and p-state ladder of the coordinated golden —
    pins the physics oracle itself, with every fault kind active, to
    an exact CSV surface.
    """
    from dataclasses import replace

    from repro.core.controllers.coordinated import CoordinatedController
    from repro.core.lut import build_lut_from_spec
    from repro.fleet import build_uniform_fleet
    from repro.server.dvfs import default_dvfs_ladder
    from repro.server.specs import default_server_spec

    spec = replace(default_server_spec(), dvfs=default_dvfs_ladder())
    lut = build_lut_from_spec(spec)
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2, spec=spec)
    result = _run_fault_drill(
        fleet,
        lambda i: CoordinatedController(lut, spec.dvfs),
        backend="reference",
    )
    return _fleet_table(result)


def golden_fleet_sharded() -> Table:
    """2-shard sharded backend on a faulted 2x2 fleet, 200 ticks.

    Leakage-aware placement + bang-bang control (distinct from the
    other fleet goldens), with a mid-run outage whose respilled work
    crosses the shard boundary — pins the sharded coordinator/worker
    exchange and the streamed-trace reassembly to an exact CSV surface.
    """
    from repro.core.controllers.bangbang import BangBangController
    from repro.fleet import (
        FaultSchedule,
        FleetEngine,
        FleetScheduler,
        PLACEMENT_POLICIES,
        ServerOutageEvent,
        build_uniform_fleet,
    )
    from repro.workloads.profile import StaircaseProfile

    schedule = FaultSchedule(
        events=(ServerOutageEvent(server=1, start_s=120.0, end_s=280.0),)
    )
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2)
    result = FleetEngine(
        fleet,
        StaircaseProfile([35.0, 90.0, 65.0, 80.0], 100.0),
        scheduler=FleetScheduler(PLACEMENT_POLICIES["leakage-aware"]()),
        controller_factory=lambda i: BangBangController(),
        faults=schedule,
        backend="sharded",
        shards=2,
        shard_mode="inline",
        stream_chunk_ticks=32,
    ).run(dt_s=2.0)
    return _fleet_table(result)


def golden_facility() -> Table:
    """Facility composition over a queue-driven 2x2 fleet, 200 ticks.

    Diurnal job arrivals feed the queue-driven workload; the fleet's
    IT power is composed through the cooling plant, UPS/PDU chain, and
    diurnal carbon model — pinning the whole facility surface (return
    temperature, COP, chain losses, per-tick carbon) to an exact CSV.
    """
    from repro.core.controllers.pid import PIController
    from repro.facility import (
        CoolingPlant,
        FacilityEngine,
        PowerChain,
        build_diurnal_carbon_model,
        build_job_queue,
    )
    from repro.fleet import (
        FleetEngine,
        FleetScheduler,
        PLACEMENT_POLICIES,
        build_uniform_fleet,
    )

    duration_s = 200 * 60.0
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2)
    queue = build_job_queue(
        "diurnal",
        fleet.server_count,
        duration_s=duration_s,
        seed=5,
        jobs_per_hour=9.0,
    )
    engine = FleetEngine(
        fleet,
        queue,
        scheduler=FleetScheduler(PLACEMENT_POLICIES["coolest-first"]()),
        controller_factory=lambda i: PIController(),
    )
    result = FacilityEngine(
        engine,
        cooling=CoolingPlant(),
        power=PowerChain(rated_power_w=fleet.server_count * 600.0),
        carbon=build_diurnal_carbon_model(duration_s=duration_s),
    ).run(dt_s=60.0)
    names = [
        "time_s",
        "it_power_w",
        "cooling_power_w",
        "utility_power_w",
        "return_c",
        "carbon_kg",
    ]
    columns = [
        result.times_s,
        result.fleet.total_power_w.sum(axis=1),
        result.cooling_power_w,
        result.utility_power_w,
        result.return_c,
        result.carbon_kg,
    ]
    return names, columns


#: Golden file name → builder.
GOLDEN_BUILDERS = {
    "run_experiment.csv": golden_run_experiment,
    "fleet_coordinated.csv": golden_fleet_coordinated,
    "fleet_fault_drill.csv": golden_fleet_fault_drill,
    "fleet_reference.csv": golden_fleet_reference,
    "fleet_sharded.csv": golden_fleet_sharded,
    "facility.csv": golden_facility,
}


# ----------------------------------------------------------------------
# run_rows.json: the sweep rows of the CLI run-command matrix
# ----------------------------------------------------------------------
#: File holding the sweep row of every point in :data:`RUN_POINTS`.
RUN_ROWS_FILE = "run_rows.json"


def _fleet_point(controller: str, policy: str, backend: str, **extra):
    """A 1x2-server, 0.5 h flash-crowd fleet point."""
    params = {
        "racks": 1,
        "servers_per_rack": 2,
        "policy": policy,
        "workload": "flashcrowd",
        "controller": controller,
        "hours": 0.5,
        "dt_s": 60.0,
        "crac_supply_c": 24.0,
        "seed": 0,
        "backend": backend,
    }
    params.update(extra)
    return "fleet", params


def _facility_point(controller: str, arrivals: str):
    """A 1x2-server, 1 h queue-driven facility point at a 24 degC CRAC."""
    return "facility", {
        "racks": 1,
        "servers_per_rack": 2,
        "policy": "coolest-first",
        "arrivals": arrivals,
        "jobs_per_hour": 6.0,
        "controller": controller,
        "hours": 1.0,
        "dt_s": 60.0,
        "crac_supply_c": 24.0,
        "seed": 0,
        "backend": "vector",
    }


def _experiment_point(controller: str):
    """One controller on paper Test 2 at seed 3."""
    return "experiment", {
        "controller": controller,
        "profile": "test2",
        "seed": 3,
        "characterization_seed": 3,
    }


#: Point id → ``(kind, params)``.  Every fleet controller, placement
#: policy and backend appears at least once; ``tests/test_run_description.py``
#: runs the matching CLI command for each point.
RUN_POINTS = {
    "fleet-default-round-robin-vector": _fleet_point(
        "default", "round-robin", "vector"
    ),
    "fleet-bangbang-coolest-first-reference": _fleet_point(
        "bangbang", "coolest-first", "reference"
    ),
    "fleet-lut-leakage-aware-vector": _fleet_point(
        "lut", "leakage-aware", "vector"
    ),
    "fleet-pi-least-utilized-sharded": _fleet_point(
        "pi", "least-utilized", "sharded", shards=2
    ),
    "fleet-coordinated-dvfs-aware-vector": _fleet_point(
        "coordinated", "dvfs-aware", "vector"
    ),
    "facility-pi-poisson": _facility_point("pi", "poisson"),
    "facility-lut-diurnal": _facility_point("lut", "diurnal"),
    "facility-coordinated-bursty": _facility_point("coordinated", "bursty"),
    **{
        f"experiment-{name}-test2": _experiment_point(name)
        for name in ("default", "bangbang", "lut", "pi", "oracle", "mpc")
    },
}


def run_rows() -> Dict[str, Dict]:
    """The sweep row of every point in :data:`RUN_POINTS`."""
    from repro.sweep import ScenarioSpec, run_scenario

    return {
        point_id: run_scenario(ScenarioSpec(kind, params))
        for point_id, (kind, params) in RUN_POINTS.items()
    }


# ----------------------------------------------------------------------
# cli_flags.json: the command-line surface
# ----------------------------------------------------------------------
#: File holding every command's options (see :func:`cli_flags`).
CLI_FLAGS_FILE = "cli_flags.json"


def _parsed_default(parser, action):
    """What ``parse_args`` gives *action*'s dest when the flag is absent.

    ``set_defaults`` wins over the action's own default, and a string
    default goes through the action's type, as argparse does.
    """
    default = parser._defaults.get(action.dest, action.default)
    if isinstance(default, str) and default is action.default and action.type:
        return action.type(default)
    return default


def cli_flags() -> Dict[str, Dict[str, Dict]]:
    """Every command's options, keyed by command then option strings.

    The top-level options sit under ``""``.  Each option records its
    parsed default, choices, action, nargs, metavar and whether it is
    required; help texts and dests are left out.
    """
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {}
    for name, command in [("", parser), *sorted(commands.choices.items())]:
        surface[name] = {
            " ".join(action.option_strings) or action.dest: {
                "default": _parsed_default(command, action),
                "choices": None
                if action.choices is None
                else list(action.choices),
                "action": type(action).__name__,
                "nargs": action.nargs,
                "metavar": action.metavar,
                "required": action.required,
            }
            for action in command._actions
            if action is not commands
        }
    return surface


def write_cli_flags(path: Path, surface: Dict[str, Dict[str, Dict]]) -> None:
    """Write :func:`cli_flags` as sorted, indented JSON."""
    path.write_text(json.dumps(surface, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# exact-round-trip CSV I/O
# ----------------------------------------------------------------------
def write_golden(path: Path, table: Table) -> None:
    """Write columns to *path* with exact-round-trip float formatting."""
    names, columns = table
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in zip(*columns):
            writer.writerow([repr(float(value)) for value in row])


def read_golden(path: Path) -> Dict[str, np.ndarray]:
    """Parse a golden CSV back into exact float64 columns."""
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        names = next(reader)
        rows = [[float(value) for value in row] for row in reader]
    data = np.asarray(rows)
    return {name: data[:, k] for k, name in enumerate(names)}


def write_run_rows(path: Path, rows: Dict[str, Dict]) -> None:
    """Write sweep rows as JSON (floats via ``repr``, so exact)."""
    path.write_text(json.dumps(rows, indent=1) + "\n")


def read_run_rows(path: Path) -> Dict[str, Dict]:
    """Parse the rows :func:`write_run_rows` wrote."""
    return json.loads(path.read_text())


def main(names: Sequence[str] = ()) -> int:
    """Rebuild the named golden files (default: all) under ``tests/golden/``."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    known = set(GOLDEN_BUILDERS) | {RUN_ROWS_FILE, CLI_FLAGS_FILE}
    wanted = set(names) or known
    if wanted - known:
        raise SystemExit(f"unknown golden file(s): {sorted(wanted - known)}")
    for name, builder in GOLDEN_BUILDERS.items():
        if name not in wanted:
            continue
        table = builder()
        write_golden(GOLDEN_DIR / name, table)
        rows = len(table[1][0])
        print(f"wrote {GOLDEN_DIR / name} ({rows} rows x {len(table[0])} cols)")
    if RUN_ROWS_FILE in wanted:
        write_run_rows(GOLDEN_DIR / RUN_ROWS_FILE, run_rows())
        print(f"wrote {GOLDEN_DIR / RUN_ROWS_FILE} ({len(RUN_POINTS)} rows)")
    if CLI_FLAGS_FILE in wanted:
        surface = cli_flags()
        write_cli_flags(GOLDEN_DIR / CLI_FLAGS_FILE, surface)
        print(f"wrote {GOLDEN_DIR / CLI_FLAGS_FILE} ({len(surface)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
