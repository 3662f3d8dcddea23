"""Fleet simulation: rack-scale topology, scheduling, and batching.

Turns the single-server reproduction into a data-center-scale
experiment platform, the extension the paper's conclusion proposes:

* :mod:`repro.fleet.topology` — racks, fleets, CRAC supplies, and the
  heat-recirculation coupling between server exhausts and inlets,
* :mod:`repro.fleet.scheduler` — pluggable job-placement policies
  (round-robin, least-utilized, coolest-first, leakage-aware,
  dvfs-aware) splitting an aggregate demand trace across the fleet,
* :mod:`repro.fleet.engine` — the vectorized lock-step engine stepping
  N servers per tick with numpy-batched thermal/power/leakage math,
  each server under its own fan (and, for coordinated controllers,
  DVFS p-state) controller,
* :mod:`repro.fleet.metrics` — fleet energy, coincident peak power,
  hot-spot temperature, SLA violations (scheduler-unserved demand plus
  DVFS work deficit), degraded-mode aggregates, and per-rack
  breakdowns,
* :mod:`repro.fleet.faults` — declarative fleet-scale fault injection
  (sensor faults, fan degradation, server outages, CRAC excursions)
  compiled to per-tick masks for every engine backend.
"""

from repro.fleet.engine import FleetEngine, FleetResult
from repro.fleet.faults import (
    SENSOR_FAULT_MODES,
    CracExcursionEvent,
    FanDegradationEvent,
    FaultSchedule,
    FleetFaultPlan,
    SensorFaultEvent,
    ServerOutageEvent,
)
from repro.fleet.metrics import (
    FleetMetrics,
    RackMetrics,
    compute_fleet_metrics,
)
from repro.fleet.scheduler import (
    PLACEMENT_POLICIES,
    CoolestFirstPolicy,
    DvfsAwarePolicy,
    FleetLoadArrays,
    FleetScheduler,
    FleetWorkload,
    LeakageAwarePolicy,
    LeastUtilizedPolicy,
    PlacementPolicy,
    RoundRobinPolicy,
    SchedulingDecision,
)
from repro.fleet.topology import (
    Fleet,
    Rack,
    build_recirculation_matrix,
    build_uniform_fleet,
)

__all__ = [
    "FleetEngine",
    "FleetResult",
    "SENSOR_FAULT_MODES",
    "CracExcursionEvent",
    "FanDegradationEvent",
    "FaultSchedule",
    "FleetFaultPlan",
    "SensorFaultEvent",
    "ServerOutageEvent",
    "FleetMetrics",
    "RackMetrics",
    "compute_fleet_metrics",
    "PLACEMENT_POLICIES",
    "CoolestFirstPolicy",
    "DvfsAwarePolicy",
    "FleetLoadArrays",
    "FleetScheduler",
    "FleetWorkload",
    "LeakageAwarePolicy",
    "LeastUtilizedPolicy",
    "PlacementPolicy",
    "RoundRobinPolicy",
    "SchedulingDecision",
    "Fleet",
    "Rack",
    "build_recirculation_matrix",
    "build_uniform_fleet",
]
