"""Job placement across the fleet: pluggable scheduling policies.

Every tick the engine converts the aggregate demand (a
``workloads.datacenter`` utilization profile scaled to the whole
fleet) into per-server utilization targets.  A
:class:`PlacementPolicy` ranks the servers on the fleet's ``(N,)``
state arrays (:class:`FleetLoadArrays`); the scheduler then fills
them greedily in that order, capping each server at 100% and
reporting any unserved remainder as an SLA violation.

Policies:

* :class:`RoundRobinPolicy` — rotate the fill order every tick
  (classic load spreading, thermally blind),
* :class:`LeastUtilizedPolicy` — fill the currently least-busy
  servers first,
* :class:`CoolestFirstPolicy` — fill the servers with the coldest
  hottest-junction first (thermal-aware placement),
* :class:`LeakageAwarePolicy` — fill the servers with the smallest
  marginal leakage cost ``dP_leak/dT = k2·k3·exp(k3·T)`` first, the
  fleet-level analogue of the paper's leakage-aware control,
* :class:`DvfsAwarePolicy` — fill the servers running closest to
  nominal frequency first, so demand lands where a coordinated
  fan+DVFS controller has the headroom to execute it without deficit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.units import validate_non_negative
from repro.workloads.profile import UtilizationProfile

#: Per-server utilization ceiling, percent.
SERVER_CAP_PCT = 100.0


class FleetLoadArrays:
    """What a placement policy observes: one ``(N,)`` array per field.

    Element *i* of every array describes server *i* (flat rack-major
    index).  The tick loop builds one bundle per tick around its live
    summary rows, so a policy may read the arrays but must not modify
    them or hold the bundle across ticks.
    """

    __slots__ = (
        "utilization_pct",
        "max_junction_c",
        "inlet_c",
        "leakage_w",
        "pstate_index",
        "rack_index",
        "leakage_slope_w_per_c",
    )

    def __init__(
        self,
        utilization_pct: np.ndarray,
        max_junction_c: np.ndarray,
        inlet_c: np.ndarray,
        leakage_w: np.ndarray,
        pstate_index: np.ndarray,
        rack_index: np.ndarray,
        leakage_slope_w_per_c: np.ndarray,
    ):
        #: Executed utilization over the previous tick, percent.
        self.utilization_pct = utilization_pct
        #: Hottest junction per server, °C.
        self.max_junction_c = max_junction_c
        #: Inlet (post-recirculation) air temperature, °C.
        self.inlet_c = inlet_c
        #: Instantaneous whole-CPU leakage power, watts.
        self.leakage_w = leakage_w
        #: Active p-state during the previous tick (0 = nominal).
        self.pstate_index = pstate_index
        #: Rack index of each server.
        self.rack_index = rack_index
        #: Marginal leakage cost ``dP_leak/dT_j`` per server, W/°C.
        self.leakage_slope_w_per_c = leakage_slope_w_per_c


class PlacementPolicy(ABC):
    """Ranks servers; earlier in the order means filled first.

    :meth:`order_indices` is the one method a policy defines.  Rank on
    the :class:`FleetLoadArrays` fields: one key is
    ``np.argsort(arrays.<field>, kind="stable")`` (negate the field for
    descending order), several keys are ``np.lexsort`` with the primary
    key last.  Both keep ties in server-index order.
    """

    name = "policy"

    def reset(self) -> None:
        """Clear internal state between runs."""

    @abstractmethod
    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """Every server index exactly once, highest priority first.

        :meth:`FleetScheduler.place` refuses any other result with a
        ``ValueError``.
        """


class RoundRobinPolicy(PlacementPolicy):
    """Rotate the fill order by one server every scheduling tick."""

    name = "round-robin"

    def __init__(self) -> None:
        self._start = 0

    def reset(self) -> None:
        """Start the next run's rotation at server 0."""
        self._start = 0

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """Servers from this tick's start index on, wrapping around."""
        n = len(arrays.utilization_pct)
        start = self._start % n
        self._start += 1
        return (start + np.arange(n)) % n


class LeastUtilizedPolicy(PlacementPolicy):
    """Fill the currently least-busy servers first."""

    name = "least-utilized"

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """Ascending executed utilization, ties by server index."""
        return np.argsort(arrays.utilization_pct, kind="stable")


class CoolestFirstPolicy(PlacementPolicy):
    """Fill the thermally coldest servers first."""

    name = "coolest-first"

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """Ascending hottest junction, ties by server index."""
        return np.argsort(arrays.max_junction_c, kind="stable")


class LeakageAwarePolicy(PlacementPolicy):
    """Fill the servers with the smallest marginal leakage cost first.

    The exponential leakage model makes ``dP_leak/dT`` grow with
    temperature, so a watt of extra load is cheapest on the server
    whose junctions sit lowest on the exponential; inlet temperature
    breaks ties (a cooler inlet means the added heat settles lower).
    """

    name = "leakage-aware"

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """Ascending leakage slope, then ascending inlet."""
        return np.lexsort((arrays.inlet_c, arrays.leakage_slope_w_per_c))


class DvfsAwarePolicy(PlacementPolicy):
    """Fill the nominal-frequency, already-loaded servers first.

    When per-server controllers also actuate DVFS (the coordinated
    fan + p-state policy), demand placed on a server parked in a deep
    p-state stretches its busy time and — once the stretch saturates —
    becomes a work deficit.  Controllers observe the *previous* tick,
    so every reallocation onto a freshly-idle server opens a one-tick
    deficit window (its governor is parking it at the very moment the
    scheduler loads it).  Filling the lowest p-state index first keeps
    demand where the frequency headroom is, and breaking ties by
    *descending* executed utilization keeps the busy set stable so
    those windows never open in steady state.
    """

    name = "dvfs-aware"

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """Ascending p-state, then descending utilization."""
        return np.lexsort((-arrays.utilization_pct, arrays.pstate_index))


#: Registry used by the CLI and examples.
PLACEMENT_POLICIES = {
    policy.name: policy
    for policy in (
        RoundRobinPolicy,
        LeastUtilizedPolicy,
        CoolestFirstPolicy,
        LeakageAwarePolicy,
        DvfsAwarePolicy,
    )
}


@dataclass(frozen=True)
class SchedulingDecision:
    """Per-server utilization targets for one tick."""

    allocations_pct: np.ndarray
    #: Demand that did not fit anywhere, in single-server percent units.
    unserved_pct: float


def _ranks_each_once(order: np.ndarray, n: int) -> bool:
    """Whether *order* holds each of ``range(n)`` exactly once, in O(N)."""
    if order.shape != (n,) or order.dtype.kind not in "iu":
        return False
    if n and order.min() < 0:
        return False
    # n values leave no bin of range(n) empty only if they are that range
    return bool(np.bincount(order, minlength=n).all())


class FleetScheduler:
    """Greedy capacity filler driven by a placement policy.

    *server_cap_pct* models the per-server admission ceiling real
    clusters run with (thermal / tail-latency headroom); demand that
    does not fit under the caps anywhere is reported unserved.
    """

    def __init__(
        self,
        policy: PlacementPolicy,
        server_cap_pct: float = SERVER_CAP_PCT,
    ):
        if not 0.0 < server_cap_pct <= SERVER_CAP_PCT:
            raise ValueError(
                f"server_cap_pct must be in (0, {SERVER_CAP_PCT}], "
                f"got {server_cap_pct}"
            )
        self.policy = policy
        self.server_cap_pct = float(server_cap_pct)

    @property
    def name(self) -> str:
        """The underlying policy name (used in reports)."""
        return self.policy.name

    def reset(self) -> None:
        """Clear policy state between runs."""
        self.policy.reset()

    def place(
        self,
        arrays: FleetLoadArrays,
        total_demand_pct: float,
        outage: Optional[np.ndarray] = None,
    ) -> Tuple[SchedulingDecision, float, float]:
        """One tick's placement: ``(decision, respilled, fault_unserved)``.

        Ranks **once** with :meth:`PlacementPolicy.order_indices`
        (stateful policies advance exactly one tick), refuses a ranking
        that does not hold each server index exactly once, and fills
        with :meth:`assign_indexed`.  On an outage tick (*outage* marks
        the down servers) the ranking is filled twice: over the up
        servers (the decision) and over all of them (the
        counterfactual).  Counterfactual work on down servers is the
        respilled work, and unserved demand beyond the counterfactual's
        is fault-attributable.  Both terms are 0.0 on other ticks.
        """
        n = len(arrays.utilization_pct)
        order = np.asarray(self.policy.order_indices(arrays))
        if not _ranks_each_once(order, n):
            raise ValueError(
                f"policy {self.policy.name!r} returned an invalid ranking: "
                f"it must hold each server index in range({n}) exactly once"
            )
        if outage is None:
            return self.assign_indexed(order, n, total_demand_pct), 0.0, 0.0
        counterfactual = self.assign_indexed(order, n, total_demand_pct)
        decision = self.assign_indexed(
            order[~outage[order]], n, total_demand_pct
        )
        respilled = float(counterfactual.allocations_pct[outage].sum())
        fault_unserved = max(
            0.0, decision.unserved_pct - counterfactual.unserved_pct
        )
        return decision, respilled, fault_unserved

    def assign_indexed(
        self, order: np.ndarray, server_count: int, total_demand_pct: float
    ) -> SchedulingDecision:
        """Greedy fill along a pre-ranked *order*, vectorized.

        Fills the servers of *order* one after another, each up to the
        cap, until the demand runs out.  ``np.subtract.accumulate``
        subtracts strictly sequentially, so the remaining-demand
        sequence (and therefore the partial final share and the
        unserved remainder) equals a per-server Python loop's bit for
        bit.  *order* may rank only a subset of the servers (the outage
        fill skips the down ones); the rest keep zero allocation.  The
        caller validates *order*, as :meth:`place` does.
        """
        validate_non_negative(total_demand_pct, "total_demand_pct")
        allocations = np.zeros(server_count)
        total = float(total_demand_pct)
        if total <= 0.0:
            return SchedulingDecision(
                allocations_pct=allocations, unserved_pct=max(0.0, total)
            )
        cap = self.server_cap_pct
        # remaining-demand sequence [total, total - cap, ...] exactly as
        # the loop computes it; every fill but the last takes the full
        # cap, so the sequence needs at most min(n, ceil(total/cap)) + 1
        # entries.
        count_max = min(len(order), int(np.ceil(total / cap)) + 1)
        remaining_seq = np.full(count_max + 1, cap)
        remaining_seq[0] = total
        np.subtract.accumulate(remaining_seq, out=remaining_seq)
        fills = int((remaining_seq[:count_max] > 0.0).sum())
        allocations[order[:fills]] = np.minimum(cap, remaining_seq[:fills])
        return SchedulingDecision(
            allocations_pct=allocations,
            unserved_pct=max(0.0, float(remaining_seq[fills])),
        )


class FleetWorkload:
    """An aggregate demand trace split across *server_count* machines.

    Wraps a :class:`UtilizationProfile` whose value is interpreted as
    the **fleet-average** utilization percentage, so the same diurnal /
    batch-window / flash-crowd builders that drive one server scale to
    any fleet size.
    """

    #: Profile-backed demand is a pure function of time, so the engine
    #: may precompute it for the whole horizon.  Subclasses whose
    #: demand depends on run state (e.g. the facility
    #: :class:`~repro.facility.workload.WorkloadQueue`) set this True
    #: and are evaluated tick by tick instead.
    dynamic = False

    def __init__(self, profile: UtilizationProfile, server_count: int):
        if server_count <= 0:
            raise ValueError("server_count must be positive")
        self.profile = profile
        self.server_count = server_count

    def reset(self) -> None:
        """Restore pre-run state (no-op for pure profile demand)."""

    def record_executed(
        self, time_s: float, executed_total_pct: float, dt_s: float
    ) -> None:
        """Feed back the work the fleet executed this tick (no-op here).

        Dynamic workloads use this to drain queued jobs; profile-backed
        demand ignores it.
        """

    @property
    def duration_s(self) -> float:
        """Nominal workload length, seconds."""
        return self.profile.duration_s

    def fleet_average_pct(self, time_s: float) -> float:
        """The underlying profile value at *time_s*."""
        return self.profile.utilization_pct(time_s)

    def total_demand_pct(self, time_s: float) -> float:
        """Aggregate demand in single-server percent units.

        100% × *server_count* is the whole fleet flat out.
        """
        return self.profile.utilization_pct(time_s) * self.server_count
