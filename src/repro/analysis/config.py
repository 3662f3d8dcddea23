"""Project-wide configuration for the ``reprolint`` checkers.

Everything domain-specific the rules need lives here in one place: the
unit-suffix lexicon (mirroring the conventions documented in
:mod:`repro.units`), the sanctioned unit-conversion functions, the
modules allowed to construct RNGs, the marked hot functions, and the
trace-schema surface.  Rules import from this module only, so adding a
new unit or hot function never requires touching checker logic.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Tuple

#: Recognized unit-suffix strings, longest-match-first at the *end* of
#: a ``snake_case`` name, mapped to a canonical unit token.  Compound
#: suffixes (rates, products, thermal resistances) must precede their
#: components so ``sla_total_pct_s`` reads as percent-seconds, not
#: seconds.  Single-letter suffixes additionally require a stem of at
#: least two characters (``time_s`` carries a unit, the physics-local
#: ``t_j`` / ``c_j`` subscripts do not).
UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("g_per_kwh", "g/kWh"),
    ("w_per_pct", "W/%"),
    ("w_per_c", "W/degC"),
    ("w_per_k", "W/K"),
    ("rpm_per_s", "RPM/s"),
    ("j_kg_k", "J/(kg*K)"),
    ("kg_m3", "kg/m^3"),
    ("pct_s", "%*s"),
    ("m3_s", "m^3/s"),
    ("per_c", "1/degC"),
    ("k_w", "K/W"),
    ("j_k", "J/K"),
    ("kwh", "kWh"),
    ("rpm", "RPM"),
    ("kg", "kg"),
    ("cfm", "CFM"),
    ("pct", "%"),
    ("hz", "Hz"),
    ("c", "degC"),
    ("w", "W"),
    ("s", "s"),
    ("j", "J"),
    ("v", "V"),
    ("a", "A"),
)

#: Minimum stem length (characters before the suffix) for
#: single-letter unit suffixes; filters physics subscripts like
#: ``t_j`` / ``c_h`` / ``q_ma`` out of the lexicon.
SINGLE_LETTER_MIN_STEM = 2

#: :mod:`repro.units` conversion functions, as sanctioned casts: a
#: call yields the mapped unit regardless of the argument's unit.
CONVERSION_RESULT_UNITS: Mapping[str, str] = {
    "minutes": "s",
    "hours": "s",
    "joules_to_kwh": "kWh",
    "kwh_to_joules": "J",
    "cfm_to_m3_s": "m^3/s",
    "m3_s_to_cfm": "CFM",
    "grams_to_kilograms": "kg",
    "kilowatts_to_watts": "W",
    "validate_temperature_c": "degC",
    "validate_utilization_pct": "%",
}

#: Builtins that return a value in the same unit as their argument(s).
UNIT_PRESERVING_CALLS: FrozenSet[str] = frozenset(
    {"float", "abs", "min", "max", "round", "sum"}
)

#: Modules (``/``-separated path suffixes relative to the lint root)
#: allowed to construct RNGs via ``np.random.default_rng``.  Keeping
#: construction confined to these entry points is what keeps the
#: repository's draw-order contracts auditable: every bit-identity
#: test (kernel vs. reference, vector vs. sharded, serial vs. parallel
#: sweeps) relies on knowing exactly who draws from which stream.
RNG_ENTRY_MODULES: FrozenSet[str] = frozenset(
    {
        "repro/server/server.py",
        "repro/server/faults.py",
        "repro/workloads/datacenter.py",
        "repro/workloads/queuing.py",
        "repro/workloads/profile.py",
        "repro/facility/workload.py",
    }
)

#: Marked hot functions: ``module-path-suffix -> qualified names``.
#: Inside these, per-tick allocation (allocating numpy calls,
#: list-appends in loops, comprehensions) is flagged by R003 —
#: PR 4's kernelization exists precisely to keep these loops
#: allocation-free.  Functions carrying a ``# reprolint: hot`` marker
#: comment on their ``def`` line are treated identically.
HOT_FUNCTIONS: Mapping[str, FrozenSet[str]] = {
    "repro/engine/kernel.py": frozenset(
        {
            "SingleServerKernel.integrate",
            "FleetVectorKernel.step_into",
        }
    ),
    "repro/telemetry/recorder.py": frozenset(
        {"TraceRecorder.record_chunk"}
    ),
    "repro/fleet/engine.py": frozenset({"_TickLoop.tick"}),
    "repro/engine/control.py": frozenset(
        {"FleetSlice.step", "InProcessSlices.step"}
    ),
    "repro/engine/sharded.py": frozenset({"_ProcessSlices.step"}),
    "repro/telemetry/segments.py": frozenset(
        {"ShardTraceWriter.record_chunk"}
    ),
    "repro/facility/workload.py": frozenset(
        {
            "WorkloadQueue.total_demand_pct",
            "WorkloadQueue.record_executed",
        }
    ),
}

#: numpy namespace calls that allocate a fresh array per invocation.
ALLOCATING_NP_CALLS: FrozenSet[str] = frozenset(
    {
        "array",
        "asarray",
        "asanyarray",
        "ascontiguousarray",
        "empty",
        "empty_like",
        "zeros",
        "zeros_like",
        "ones",
        "ones_like",
        "full",
        "full_like",
        "concatenate",
        "append",
        "stack",
        "vstack",
        "hstack",
        "dstack",
        "column_stack",
        "tile",
        "repeat",
        "arange",
        "linspace",
        "copy",
    }
)

#: Module-level constants whose names end with this suffix declare a
#: trace schema (a tuple of column-name strings).
SCHEMA_CONSTANT_SUFFIX = "TRACE_COLUMNS"

#: Column names legitimately recorded/consumed outside any declared
#: ``*TRACE_COLUMNS`` schema (sweep tables carry per-kind metric
#: columns assembled dynamically by the scenario runners).
EXTRA_TRACE_COLUMNS: FrozenSet[str] = frozenset()

#: Rule identifiers, in catalog order.
RULE_IDS: Tuple[str, ...] = ("R001", "R002", "R003", "R004")

#: One-line rule summaries (also rendered by the reporters).
RULE_SUMMARIES: Dict[str, str] = {
    "R001": "unit-consistency: no cross-unit arithmetic on suffixed names",
    "R002": "RNG discipline: seeded Generators, constructed only at entry points",
    "R003": "hot-path allocation: marked kernels stay allocation-free",
    "R004": "trace-schema consistency: recorded/consumed columns match schemas",
}
