"""One table of run parameters for the sweep, the CLI and the docs.

``repro.sweep.PARAMETERS`` holds every run parameter of the built-in
kinds once.  These tests pin what derives from it: the command-line
surface (``tests/golden/cli_flags.json``, rebuilt only on an intended
change with ``PYTHONPATH=src python tests/regen_golden_traces.py
cli_flags.json``), each flag's default, the parameter table in
``docs/sweeps.md``, ``fleet_grid``'s base and the default rules of
:func:`repro.sweep.resolve_params`.
"""

import argparse
import json
from pathlib import Path

import pytest

import repro.sweep.scenarios as scenarios
from regen_golden_traces import (
    CLI_FLAGS_FILE,
    GOLDEN_DIR,
    _parsed_default,
    cli_flags,
)
from repro.cli import COMMAND_PARAMS, build_parser
from repro.sweep import (
    KIND_PARAMS,
    PARAMETERS,
    ScenarioSpec,
    fleet_grid,
    resolve_params,
    run_experiment_point,
    run_scenario,
)

DOC = Path(__file__).resolve().parent.parent / "docs" / "sweeps.md"
BEGIN = "<!-- parameter table: generated from repro.sweep.PARAMETERS -->"
END = "<!-- end of parameter table -->"

#: ``repro serve``'s own defaults: a PI-controlled 12 h scenario.
SERVE_OVERRIDES = {"controller": "pi", "hours": 12.0}


def _parsers():
    """``(command, parser)`` for the top level ("") and each subcommand."""
    parser = build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [("", parser), *commands.choices.items()]


def _flags(parser):
    """The parser's run-parameter flags: ``{dest: action}``."""
    return {
        action.dest: action
        for action in parser._actions
        if action.dest in PARAMETERS
        and PARAMETERS[action.dest].flag in action.option_strings
    }


def test_cli_surface_matches_the_recorded_one():
    recorded = json.loads((GOLDEN_DIR / CLI_FLAGS_FILE).read_text())
    live = json.loads(json.dumps(cli_flags()))
    assert sorted(live) == sorted(recorded)
    for command in recorded:
        assert json.dumps(live[command], sort_keys=True) == json.dumps(
            recorded[command], sort_keys=True
        ), f"repro {command or '(top level)'} options changed"


@pytest.mark.parametrize("command", sorted(COMMAND_PARAMS))
def test_generated_flags_default_to_their_rows(command):
    parser = dict(_parsers())[command]
    overrides = SERVE_OVERRIDES if command == "serve" else {}
    flags = _flags(parser)
    for name in COMMAND_PARAMS[command]:
        expected = overrides.get(name, PARAMETERS[name].default)
        assert _parsed_default(parser, flags[name]) == expected, name


def test_rows_belong_to_known_kinds():
    for row in PARAMETERS.values():
        assert set(row.kinds) <= set(KIND_PARAMS), row.name
        if row.default_from is not None:
            assert set(row.kinds) <= set(PARAMETERS[row.default_from].kinds)


# ----------------------------------------------------------------------
# the docs table
# ----------------------------------------------------------------------
def render_parameter_table() -> str:
    """The ``docs/sweeps.md`` table: one line per row of the table."""
    commands = {name: [] for name in PARAMETERS}
    for command, names in COMMAND_PARAMS.items():
        for name in names:
            commands[name].append(command or "all")
    lines = [
        "| parameter | kinds | default | flag (commands) | meaning |",
        "|---|---|---|---|---|",
    ]
    for row in PARAMETERS.values():
        kinds = "all" if len(row.kinds) == len(KIND_PARAMS) else ", ".join(
            row.kinds
        )
        if row.default_from is not None:
            default = f"`{row.default_from}`"
        else:
            default = "—" if row.default is None else f"`{row.default!r}`"
        flag = (
            "—"
            if row.flag is None
            else f"`{row.flag}` ({', '.join(commands[row.name])})"
        )
        meaning = row.help
        if row.choices:
            meaning += "; one of " + ", ".join(f"`{c}`" for c in row.choices)
        if row.positive:
            meaning += "; must be > 0"
        if row.requires is not None:
            other, value = row.requires
            meaning += f"; only with `{other}={value!r}`"
        lines.append(
            f"| `{row.name}` | {kinds} | {default} | {flag} | {meaning} |"
        )
    return "\n".join(lines)


def test_docs_table_matches_the_rows():
    text = DOC.read_text()
    assert BEGIN in text and END in text, f"{DOC} lost its table markers"
    block = text.split(BEGIN, 1)[1].split(END, 1)[0].strip()
    expected = render_parameter_table()
    assert block == expected, (
        f"the parameter table in {DOC} has drifted; replace the block "
        f"between its markers with:\n\n{expected}\n"
    )


# ----------------------------------------------------------------------
# defaults
# ----------------------------------------------------------------------
def test_resolve_fills_every_parameter_of_the_kind():
    for kind, names in KIND_PARAMS.items():
        assert set(resolve_params(kind, {})) == names


def test_unset_and_none_take_the_default():
    for value in ({}, {"hours": None}):
        assert resolve_params("fleet", value)["hours"] == 24.0


def test_defaults_taken_from_another_parameter():
    facility = resolve_params("facility", {"crac_supply_c": 27.0})
    assert facility["plant_supply_c"] == 27.0
    experiment = resolve_params("experiment", {"seed": 5})
    assert experiment["characterization_seed"] == 5
    given = resolve_params("experiment", {"seed": 5, "characterization_seed": 7})
    assert given["characterization_seed"] == 7


def test_fleet_grid_base_comes_from_the_table():
    grid = fleet_grid(racks=1, hours=1, shards=None)
    assert grid.base == {
        "racks": 1,
        "workload": "diurnal",
        "hours": 1.0,
        "dt_s": 60.0,
        "seed": 0,
        "backend": "vector",
    }
    # cast by the row's parse type, so equal grids hash equally
    assert isinstance(grid.base["hours"], float)


class _Characterized(Exception):
    """Raised in place of the MPC's characterization, once its seed is known."""


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("experiment", {}),
        ("fleet", {"racks": 1, "servers_per_rack": 1, "hours": 0.25}),
    ],
)
@pytest.mark.parametrize("given, expected", [({}, 5), ({"characterization_seed": 7}, 7)])
def test_mpc_characterizes_at_the_point_seed(
    kind, extra, given, expected, monkeypatch
):
    # Rows alone cannot tell the seeds apart (at seed 3 or 5 the mpc
    # rows of test2 and test3 coincide), so record the seed itself.
    seeds = []

    def characterize(spec, seed):
        seeds.append(seed)
        raise _Characterized

    monkeypatch.setattr(scenarios, "_PROCESS_MEMO", {})
    monkeypatch.setattr(scenarios, "run_characterization_steady", characterize)
    params = dict(extra, controller="mpc", seed=5, **given)
    with pytest.raises(_Characterized):
        if kind == "experiment":
            run_experiment_point(params)
        else:
            run_scenario(ScenarioSpec(kind, params))
    assert seeds == [expected]
