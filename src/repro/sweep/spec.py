"""Declarative scenario and grid specifications.

A :class:`ScenarioSpec` names one simulation to run — a scenario
*kind* (resolved against the runner registry in
:mod:`repro.sweep.scenarios`) plus a flat parameter mapping.  A
:class:`GridSpec` is the cross product of parameter axes layered onto
a base scenario; enumerating it yields one :class:`ScenarioSpec` per
grid point in a deterministic order (first axis slowest, last axis
fastest — ``itertools.product`` order).

Parameters may be plain primitives (numbers, strings, booleans,
``None``), tuples/lists of them, numpy arrays, dataclasses (e.g.
:class:`~repro.server.specs.ServerSpec`), or ordinary objects whose
state lives in ``__dict__`` (the workload profiles).  Everything a
spec holds is reduced to a canonical JSON document, whose SHA-256 is
the spec's *content hash* — the key the result cache files under
``benchmarks/results/cache/`` are named by.  Parameters that cannot
be canonicalized (anything holding a callable) make the spec
uncacheable but still runnable.

:data:`PARAMETERS` is the one table of the built-in kinds' run
parameters: which kinds take each one, its default, its help text,
its command-line flag and the checks its values must pass.  The
sweep runners (:func:`resolve_params`), the ``repro`` commands' flags
and the table in ``docs/sweeps.md`` all derive from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.facility.workload import QUEUE_KINDS
from repro.fleet.engine import BACKENDS
from repro.fleet.scheduler import PLACEMENT_POLICIES

#: Bumped whenever the rows the scenario runners produce change, in
#: shape or in value; stale cache entries from older schemas are ignored.
#: v2: fleet rows gained the degraded-mode columns (fault_time_s,
#: respilled_pct_s, fault_sla_pct_s).
#: v3: the fleet and facility kinds honour ``lut_lockout_s`` (v2 rows
#: of points with a non-default lockout ran with the 60 s default).
#: v4: PI no longer integrates a sensor dropout's held polls (v3 rows
#: of ``pi`` points with a dropout fault wound up across the gap).
#: v5: the MPC characterizes at ``seed`` when ``characterization_seed``
#: is unset (v4 rows of such ``mpc`` points characterized at seed 0).
CACHE_SCHEMA_VERSION = 5

#: Parameter values rendered directly into the tidy result table.
_SCALAR_TYPES = (bool, int, float, str)

#: Memo sentinel for specs whose parameters cannot be hashed (a plain
#: value so the memo survives pickling to worker processes).
_UNCACHEABLE = "__uncacheable__"


def canonical(value: Any) -> Any:
    """Reduce *value* to a JSON-able document with deterministic order.

    Raises :class:`TypeError` for values with no stable content
    representation (callables, open files, ...).
    """
    if value is None or isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, type) or isinstance(
        value,
        (
            types.FunctionType,
            types.BuiltinFunctionType,
            types.MethodType,
            types.ModuleType,
        ),
    ):
        raise TypeError(
            f"{value!r} has no stable content representation"
        )
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__type__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"mapping keys must be strings, got {key!r}")
            out[key] = canonical(value[key])
        return out
    state = getattr(value, "__dict__", None)
    if state is not None:
        cls = type(value)
        return {
            "__type__": f"{cls.__module__}.{cls.__qualname__}",
            "state": canonical(state),
        }
    raise TypeError(
        f"value of type {type(value).__name__!r} has no canonical "
        "content representation"
    )


def content_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of *value*."""
    document = json.dumps(
        canonical(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """One runnable sweep point: a scenario kind plus its parameters."""

    #: Registered runner name (see :data:`repro.sweep.scenarios.SCENARIO_KINDS`).
    kind: str
    #: Flat parameter mapping handed to the runner.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Human-readable point label for progress logging and tables.
    label: str = ""

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("kind must be a non-empty string")
        object.__setattr__(self, "params", dict(self.params))

    def cache_key(self) -> str:
        """Content hash of (schema, kind, params) naming the cache entry.

        Memoized: specs are frozen and ``params`` is treated as
        immutable after construction, so the (potentially deep)
        canonicalization runs at most once per spec.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is None:
            try:
                cached = content_hash(
                    {
                        "schema": CACHE_SCHEMA_VERSION,
                        "kind": self.kind,
                        "params": self.params,
                    }
                )
            except TypeError:
                object.__setattr__(self, "_cache_key", _UNCACHEABLE)
                raise
            object.__setattr__(self, "_cache_key", cached)
        elif cached == _UNCACHEABLE:
            raise TypeError(
                f"spec {self.kind!r} holds parameters with no stable "
                "content representation"
            )
        return cached

    @property
    def cacheable(self) -> bool:
        """Whether every parameter has a stable content representation."""
        try:
            self.cache_key()
        except TypeError:
            return False
        return True

    def describe(self) -> str:
        """The label, or a ``k=v`` rendering of the scalar parameters."""
        if self.label:
            return self.label
        scalars = ", ".join(
            f"{k}={v!r}"
            for k, v in self.params.items()
            if v is None or isinstance(v, _SCALAR_TYPES)
        )
        return f"{self.kind}({scalars})"


@dataclass(frozen=True, eq=False)
class GridSpec:
    """A cross product of parameter axes over a base scenario.

    ``axes`` maps parameter names to the values each takes; the grid
    enumerates every combination (first axis slowest).  ``base`` holds
    the parameters shared by every point.  Axis names must not repeat
    base names — a silent override would make two different sweeps
    hash identically.
    """

    kind: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(
            self, "axes", {k: tuple(v) for k, v in self.axes.items()}
        )
        for name, values in self.axes.items():
            if len(values) == 0:
                raise ValueError(f"axis {name!r} has no values")
            if name in self.base:
                raise ValueError(
                    f"axis {name!r} collides with a base parameter"
                )

    def __len__(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def points(self) -> Tuple[ScenarioSpec, ...]:
        """Every grid point as a :class:`ScenarioSpec`, in product order."""
        names = list(self.axes)
        specs = []
        for combo in itertools.product(*self.axes.values()):
            params: Dict[str, Any] = dict(self.base)
            params.update(zip(names, combo))
            label = ", ".join(
                f"{name}={value}" for name, value in zip(names, combo)
            )
            specs.append(
                ScenarioSpec(kind=self.kind, params=params, label=label)
            )
        return tuple(specs)


# ----------------------------------------------------------------------
# the run parameters of the built-in kinds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Parameter:
    """One run parameter: the kinds that take it, its default, its flag."""

    #: Name in a point's parameter mapping (and the flag's dest).
    name: str
    #: The scenario kinds that take it.
    kinds: Tuple[str, ...]
    #: Value when a point leaves it unset (None: the help says what
    #: the runner does instead).
    default: Any
    #: One line for ``--help`` and for the table in ``docs/sweeps.md``.
    help: str
    #: Command-line flag, or None for a sweep-only parameter.
    flag: Optional[str] = None
    #: Parses the flag's text and casts fleet_grid's base (None: as is).
    parse: Optional[Callable[[str], Any]] = None
    #: The values it may take (empty: any).
    choices: Tuple[str, ...] = ()
    #: Whether a value must be greater than zero.
    positive: bool = False
    #: Unset, it takes the value of this other parameter.
    default_from: Optional[str] = None
    #: ``(other, value)``: it may be set only when *other* has *value*.
    requires: Optional[Tuple[str, str]] = None
    #: Placeholder for the flag's value in ``--help``.
    metavar: Optional[str] = None


def _minutes_of_work(minutes: str) -> float:
    """``--mean-work-minutes``: minutes of one full server, as %·s."""
    return float(minutes) * 60.0 * 100.0


_ALL = ("experiment", "lut_vs_default", "fleet", "facility")
_CONTROLLED = ("experiment", "fleet", "facility")
_SINGLE = ("experiment", "lut_vs_default")
_FLEETS = ("fleet", "facility")

#: Every run parameter of the built-in kinds, keyed by name.
PARAMETERS: Dict[str, Parameter] = {
    row.name: row
    for row in (
        Parameter("seed", _ALL, 0, "run seed: sensor noise, workload and "
                  "arrival draws", flag="--seed", parse=int),
        Parameter("controller", _CONTROLLED, "lut", "per-server fan (or "
                  "coordinated fan+DVFS) controller", flag="--controller",
                  choices=("default", "bangbang", "lut", "pi", "coordinated",
                           "oracle", "mpc")),
        Parameter("rpm", _CONTROLLED, None, "default-controller RPM "
                  "(default: the spec's firmware speed)", flag="--rpm",
                  parse=float),
        Parameter("thresholds", _CONTROLLED, None, "bang-bang temperature "
                  "bands, a BangBangThresholds (default: the paper's)"),
        Parameter("pi_target_c", _CONTROLLED, 70.0,
                  "PI target temperature, degC"),
        Parameter("lut_lockout_s", _CONTROLLED, 60.0, "least time between "
                  "two fan changes of lut and coordinated, s"),
        Parameter("samples", _CONTROLLED, None, "characterization samples "
                  "the mpc controller fits (the flag loads a CSV; default: "
                  "characterize the spec)", flag="--samples"),
        Parameter("lut", _ALL, None, "LUT of lut and coordinated (the flag "
                  "loads a JSON file; default: characterize the spec)",
                  flag="--lut"),
        Parameter("lut_candidates_rpm", _ALL, None, "fan-speed ladder to "
                  "rebuild the LUT from, instead of a characterization"),
        Parameter("lut_max_temperature_c", _ALL, 75.0, "highest predicted "
                  "CPU temperature a LUT entry may allow, degC",
                  flag="--max-temp", parse=float),
        Parameter("characterization_seed", _ALL, None, "seed of the "
                  "characterization behind the LUT and the MPC's models",
                  default_from="seed"),
        Parameter("spec", _ALL, None,
                  "server spec, a ServerSpec (default: the paper's server)"),
        Parameter("leakage_factor", _ALL, 1.0, "scales the spec's leakage"),
        Parameter("noise_factor", _ALL, 1.0,
                  "scales the spec's sensor noise"),
        Parameter("profile", _SINGLE, "test3", "workload: a profile object "
                  "or a paper-test name", flag="--test", metavar="TEST"),
        Parameter("profile_seed", _SINGLE, 1234,
                  "seed of the paper-test profiles"),
        Parameter("ambient_c", _SINGLE, 24.0, "ambient temperature, degC"),
        Parameter("racks", _FLEETS, 2, "number of racks", flag="--racks",
                  parse=int, positive=True),
        Parameter("servers_per_rack", _FLEETS, 4, "servers in each rack",
                  flag="--servers-per-rack", parse=int, positive=True),
        Parameter("policy", _FLEETS, "coolest-first", "job placement policy",
                  flag="--policy", choices=tuple(sorted(PLACEMENT_POLICIES))),
        Parameter("hours", _FLEETS, 24.0, "scenario length, h",
                  flag="--hours", parse=float, positive=True),
        Parameter("dt_s", _FLEETS, 60.0, "tick length, s", flag="--dt",
                  parse=float, positive=True),
        Parameter("crac_supply_c", _FLEETS, 24.0, "CRAC supply temperature, "
                  "degC", flag="--crac-supply", parse=float),
        Parameter("backend", _FLEETS, "vector", "vector = kernelized batch, "
                  "reference = one ServerSimulator per server (the physics "
                  "oracle), sharded = multi-process workers with streamed "
                  "traces (see docs/scaling.md; not for facility runs)",
                  flag="--backend", choices=BACKENDS),
        Parameter("shards", ("fleet",), None, "worker shard count, or shard "
                  "sizes, of the sharded backend", flag="--shards", parse=int,
                  requires=("backend", "sharded")),
        Parameter("workload", ("fleet",), "diurnal", "aggregate-demand "
                  "profile", flag="--workload",
                  choices=("diurnal", "batch", "flashcrowd", "mixed")),
        Parameter("faults", ("fleet",), None, "fault events, a FaultSchedule "
                  "or its JSON list (the flag loads a JSON file, see "
                  "docs/faults.md); serve scores its detection against them",
                  flag="--faults"),
        Parameter("arrivals", ("facility",), "diurnal", "job arrival process "
                  "feeding the queue", flag="--arrivals", choices=QUEUE_KINDS),
        Parameter("jobs_per_hour", ("facility",), 12.0, "arrival rate (peak "
                  "rate for diurnal arrivals)", flag="--jobs-per-hour",
                  parse=float),
        Parameter("mean_work_pct_s", ("facility",), 30000.0, "mean job size, "
                  "pct*s (the flag takes minutes of one full server)",
                  flag="--mean-work-minutes", parse=_minutes_of_work,
                  metavar="MINUTES"),
        Parameter("deadline_slack", ("facility",), 4.0, "a job's deadline "
                  "after arrival, in multiples of its least service time"),
        Parameter("plant_supply_c", ("facility",), None, "cooling-plant "
                  "supply setpoint for the COP curve, degC (default: the "
                  "CRAC supply)",
                  flag="--plant-supply", parse=float,
                  default_from="crac_supply_c"),
        Parameter("rated_kw", ("facility",), None, "UPS/PDU nameplate "
                  "rating, kW (default: 0.6 kW per server)",
                  flag="--rated-kw", parse=float),
        Parameter("carbon_base_g_per_kwh", ("facility",), 120.0, "cleanest "
                  "grid intensity, g CO2 per kWh", flag="--carbon-base",
                  parse=float),
        Parameter("carbon_peak_g_per_kwh", ("facility",), 450.0, "dirtiest "
                  "grid intensity, g CO2 per kWh", flag="--carbon-peak",
                  parse=float),
        Parameter("no_cooling", ("facility",), False, "disable the cooling "
                  "plant (no cooling power)", flag="--no-cooling"),
        Parameter("no_power_chain", ("facility",), False, "disable the "
                  "UPS/PDU chain (lossless delivery)", flag="--no-power-chain"),
        Parameter("no_carbon", ("facility",), False,
                  "disable carbon accounting", flag="--no-carbon"),
    )
}

#: The parameters each built-in kind accepts.
KIND_PARAMS: Dict[str, FrozenSet[str]] = {
    kind: frozenset(row.name for row in PARAMETERS.values() if kind in row.kinds)
    for kind in _ALL
}


def resolve_params(kind: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Check a *kind* point's *params* against :data:`PARAMETERS`.

    Returns every parameter of *kind*: its value in *params*, or its
    default where *params* leaves it out or None.  Raises
    :class:`ValueError` for a name *kind* does not take (a typo'd axis
    would otherwise yield N identical rows), a value outside a row's
    choices, a non-positive value of a positive row, and a value set
    without the one its row requires.
    """
    allowed = KIND_PARAMS[kind]
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for scenario kind {kind!r}: {unknown} "
            f"(allowed: {sorted(allowed)})"
        )
    rows = [row for row in PARAMETERS.values() if kind in row.kinds]
    resolved = {
        row.name: row.default if params.get(row.name) is None
        else params[row.name]
        for row in rows
    }
    for row in rows:
        value = params.get(row.name)
        if value is None:
            if row.default_from is not None:
                resolved[row.name] = resolved[row.default_from]
            continue
        if row.choices and value not in row.choices:
            raise ValueError(
                f"unknown {row.name} {value!r} (have {list(row.choices)})"
            )
        if row.positive and not float(value) > 0.0:
            raise ValueError(f"{row.name} must be positive, got {value}")
        if row.requires is not None:
            other, wanted = row.requires
            if resolved[other] != wanted:
                raise ValueError(f"{row.name} requires {other}={wanted!r}")
    return resolved
