"""Every ``repro run``, ``fleet`` and ``facility`` invocation is a sweep point.

For each point of ``RUN_POINTS`` (``tests/regen_golden_traces.py``) the
CLI command below and ``run_scenario`` on the point's parameters must
give the same numbers: the fleet and facility metrics bit for bit, and
every field ``repro run`` prints.  ``tests/golden/run_rows.json`` pins
the sweep rows of the same matrix; rebuild it only on an intentional
change with ``PYTHONPATH=src python tests/regen_golden_traces.py
run_rows.json``.
"""

import dataclasses

import pytest

from regen_golden_traces import (
    GOLDEN_DIR,
    RUN_POINTS,
    RUN_ROWS_FILE,
    read_run_rows,
)
from repro.cli import main
from repro.facility import FacilityEngine
from repro.fleet import FleetEngine
from repro.sweep import ScenarioSpec, run_scenario

_FLEET = ["--racks", "1", "--servers-per-rack", "2", "--dt", "60"]
_FLEET_RUN = ["fleet", *_FLEET, "--hours", "0.5", "--workload", "flashcrowd"]
_FACILITY_RUN = ["facility", *_FLEET, "--hours", "1", "--jobs-per-hour", "6"]

#: Point id → the CLI argv that must reproduce it.
CLI_ARGV = {
    "fleet-default-round-robin-vector": [
        *_FLEET_RUN, "--controller", "default", "--policy", "round-robin",
    ],
    "fleet-bangbang-coolest-first-reference": [
        *_FLEET_RUN, "--controller", "bangbang", "--policy", "coolest-first",
        "--backend", "reference",
    ],
    "fleet-lut-leakage-aware-vector": [
        *_FLEET_RUN, "--controller", "lut", "--policy", "leakage-aware",
    ],
    "fleet-pi-least-utilized-sharded": [
        *_FLEET_RUN, "--controller", "pi", "--policy", "least-utilized",
        "--backend", "sharded", "--shards", "2",
    ],
    "fleet-coordinated-dvfs-aware-vector": [
        *_FLEET_RUN, "--controller", "coordinated", "--policy", "dvfs-aware",
    ],
    "facility-pi-poisson": [
        *_FACILITY_RUN, "--controller", "pi", "--arrivals", "poisson",
    ],
    "facility-lut-diurnal": [
        *_FACILITY_RUN, "--controller", "lut", "--arrivals", "diurnal",
    ],
    "facility-coordinated-bursty": [
        *_FACILITY_RUN, "--controller", "coordinated", "--arrivals", "bursty",
    ],
    **{
        f"experiment-{name}-test2": [
            "--seed", "3", "run", "--controller", name, "--test", "test2",
        ]
        for name in ("default", "bangbang", "lut", "pi", "oracle", "mpc")
    },
}

_ENGINES = {"fleet": FleetEngine, "facility": FacilityEngine}


def _ids(kind):
    return [i for i, (k, _) in RUN_POINTS.items() if k == kind]


def _recorded_runs(monkeypatch, engine_class):
    """Collect every result ``engine_class.run`` returns from now on."""
    results = []
    real_run = engine_class.run

    def run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(engine_class, "run", run)
    return results


def _bits(metrics):
    """Exact rendering of a metrics dataclass (floats via ``repr``)."""
    return repr(dataclasses.asdict(metrics))


def test_matrix_has_a_command_per_point():
    assert set(CLI_ARGV) == set(RUN_POINTS)


@pytest.mark.parametrize("point_id", _ids("fleet") + _ids("facility"))
def test_engine_command_matches_sweep_point(point_id, monkeypatch, capsys):
    kind, params = RUN_POINTS[point_id]
    runs = _recorded_runs(monkeypatch, _ENGINES[kind])
    assert main(CLI_ARGV[point_id]) == 0
    capsys.readouterr()
    run_scenario(ScenarioSpec(kind, params))
    cli_result, sweep_result = runs
    assert _bits(cli_result.metrics) == _bits(sweep_result.metrics)


@pytest.mark.parametrize("point_id", _ids("experiment"))
def test_run_command_prints_the_sweep_row(point_id, capsys):
    kind, params = RUN_POINTS[point_id]
    assert main(CLI_ARGV[point_id]) == 0
    printed = capsys.readouterr().out
    row = run_scenario(ScenarioSpec(kind, params))
    assert printed == (
        f"controller : {row['controller_name']}\n"
        f"test       : {params['profile']}\n"
        f"energy     : {row['energy_kwh']:.4f} kWh "
        f"(net {row['net_energy_kwh']:.4f})\n"
        f"peak power : {row['peak_power_w']:.0f} W\n"
        f"max temp   : {row['max_temperature_c']:.1f} degC\n"
        f"fan changes: {row['fan_speed_changes']}\n"
        f"avg RPM    : {row['avg_rpm']:.0f}\n"
    )


@pytest.fixture(scope="module")
def golden_rows():
    path = GOLDEN_DIR / RUN_ROWS_FILE
    if not path.is_file():
        pytest.fail(
            f"missing {path}; generate it with: PYTHONPATH=src python "
            f"tests/regen_golden_traces.py {RUN_ROWS_FILE}"
        )
    return read_run_rows(path)


@pytest.mark.parametrize("point_id", list(RUN_POINTS))
def test_sweep_row_matches_golden(point_id, golden_rows):
    kind, params = RUN_POINTS[point_id]
    row = run_scenario(ScenarioSpec(kind, params))
    # JSON keeps floats as repr, so the round trip is exact
    assert row == golden_rows[point_id]


def test_plant_supply_defaults_to_the_crac_supply(monkeypatch, capsys):
    # a warmer CRAC setpoint also moves the plant's COP curve, as in
    # the sweep: the command equals the point without plant_supply_c
    kind, params = RUN_POINTS["facility-pi-poisson"]
    runs = _recorded_runs(monkeypatch, FacilityEngine)
    argv = CLI_ARGV["facility-pi-poisson"] + ["--crac-supply", "27"]
    assert main(argv) == 0
    assert "CRAC 27.0 degC, plant supply 27.0 degC" in capsys.readouterr().out
    run_scenario(ScenarioSpec(kind, dict(params, crac_supply_c=27.0)))
    cli_result, sweep_result = runs
    assert _bits(cli_result.metrics) == _bits(sweep_result.metrics)
    assert cli_result.metrics.pue < 1.33  # 1.365 with a 24 degC plant


_ONE_SERVER = ["--racks", "1", "--servers-per-rack", "1"]
_RPM_RANGE = "rpm 99999.0 outside supported range [1800.0, 4200.0]"

#: Case id → bad argv and the message it must exit with.
BAD_INPUT = {
    "facility-rated-kw-0": (
        ["facility", *_ONE_SERVER, "--rated-kw", "0"],
        "rated_power_w must be",
    ),
    "facility-rated-kw-negative": (
        ["facility", *_ONE_SERVER, "--rated-kw", "-1"],
        "rated_power_w must be",
    ),
    "run-rpm": (
        ["run", "--controller", "default", "--rpm", "99999"],
        _RPM_RANGE,
    ),
    "fleet-rpm": (
        ["fleet", *_ONE_SERVER, "--controller", "default", "--rpm", "99999"],
        _RPM_RANGE,
    ),
    "facility-rpm": (
        ["facility", *_ONE_SERVER, "--controller", "default", "--rpm", "99999"],
        _RPM_RANGE,
    ),
    "sweep-shards-without-sharded": (
        ["sweep", *_ONE_SERVER, "--shards", "2", "--hours", "0.25",
         "--no-cache", "--quiet"],
        "shards requires backend='sharded'",
    ),
    "fleet-hours-0": (
        ["fleet", *_ONE_SERVER, "--hours", "0"],
        "hours must be positive",
    ),
    "facility-dt-negative": (
        ["facility", *_ONE_SERVER, "--dt", "-60"],
        "dt_s must be positive",
    ),
    "serve-time-scale-negative": (
        ["serve", *_ONE_SERVER, "--time-scale", "-1"],
        "time_scale must be >= 0",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_exits_with_a_one_line_message(case):
    argv, message = BAD_INPUT[case]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    code = excinfo.value.code
    # a str code: Python prints it to stderr and exits 1
    assert isinstance(code, str) and "\n" not in code
    assert message in code


#: Options that configure the front end, not the run: they need no
#: sweep parameter.
FRONT_END_OPTIONS = {"trace", "resume", "host", "port", "time_scale"}
#: The checkpoint flags: the ``checkpoint`` engine option of ``fleet``,
#: the ServiceConfig of ``serve``.
CHECKPOINT_FLAGS = {
    "checkpoint_dir",
    "checkpoint_every",
    "checkpoint_keep",
    "max_restarts",
}
#: Run command → the sweep kind its invocations are points of.
COMMAND_KINDS = {
    "run": "experiment",
    "fleet": "fleet",
    "facility": "facility",
    "serve": "fleet",
}


@pytest.mark.parametrize("command", sorted(COMMAND_KINDS))
def test_every_flag_has_a_destination(command):
    import argparse

    from repro.cli import build_parser
    from repro.sweep import ENGINE_OPTIONS, KIND_PARAMS

    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    destinations = (
        KIND_PARAMS[COMMAND_KINDS[command]]
        | ENGINE_OPTIONS
        | FRONT_END_OPTIONS
        | CHECKPOINT_FLAGS
    )
    orphans = [
        action.option_strings
        for action in subparsers.choices[command]._actions
        if action.dest not in destinations | {"help"}
    ]
    assert orphans == [], (
        f"repro {command} flags with no sweep parameter or engine option"
    )
