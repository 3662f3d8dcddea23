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
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import types
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence, Tuple

import numpy as np

#: Bumped whenever the rows the scenario runners produce change, in
#: shape or in value; stale cache entries from older schemas are ignored.
#: v2: fleet rows gained the degraded-mode columns (fault_time_s,
#: respilled_pct_s, fault_sla_pct_s).
#: v3: the fleet and facility kinds honour ``lut_lockout_s`` (v2 rows
#: of points with a non-default lockout ran with the 60 s default).
#: v4: PI no longer integrates a sensor dropout's held polls (v3 rows
#: of ``pi`` points with a dropout fault wound up across the gap).
CACHE_SCHEMA_VERSION = 4

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
