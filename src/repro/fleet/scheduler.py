"""Job placement across the fleet: pluggable scheduling policies.

Every tick the engine converts the aggregate demand (a
``workloads.datacenter`` utilization profile scaled to the whole
fleet) into per-server utilization targets.  A
:class:`PlacementPolicy` ranks the servers; the scheduler then fills
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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.units import validate_non_negative
from repro.workloads.profile import UtilizationProfile

#: Per-server utilization ceiling, percent.
SERVER_CAP_PCT = 100.0


@dataclass(frozen=True)
class ServerLoadView:
    """What a placement policy may observe about one server."""

    index: int
    rack_index: int
    #: Executed utilization over the previous tick, percent.
    utilization_pct: float
    #: Hottest junction temperature, °C.
    max_junction_c: float
    #: Inlet (post-recirculation) air temperature, °C.
    inlet_c: float
    #: Instantaneous whole-CPU leakage power, watts.
    leakage_w: float
    #: Marginal leakage cost ``dP_leak/dT_j`` summed over sockets, W/°C.
    leakage_slope_w_per_c: float
    #: Active p-state during the previous tick (0 = nominal frequency).
    pstate_index: int = 0


class FleetLoadArrays:
    """Array view of the whole fleet, one element per server.

    The kernelized fleet engine keeps per-server state in persistent
    ``(N,)`` arrays; policies that implement
    :meth:`PlacementPolicy.order_indices` rank directly on them instead
    of having the engine materialize N :class:`ServerLoadView` objects
    every tick (the pre-kernel hot spot).

    The leakage slope is evaluated lazily: it costs an ``(N, S)``
    exponential, and only leakage-aware rankings (or the view
    fallback) read it.  The provider reads the **live** fleet state,
    so the first access must happen while the pre-step state is
    current — i.e. inside ``order_indices`` during the scheduling
    phase, before the tick's physics step (the value is cached from
    then on).  Do not hold the object across ticks.
    """

    __slots__ = (
        "utilization_pct",
        "max_junction_c",
        "inlet_c",
        "leakage_w",
        "pstate_index",
        "rack_index",
        "_slope",
        "_slope_fn",
    )

    def __init__(
        self,
        utilization_pct: np.ndarray,
        max_junction_c: np.ndarray,
        inlet_c: np.ndarray,
        leakage_w: np.ndarray,
        pstate_index: np.ndarray,
        rack_index: np.ndarray,
        leakage_slope_w_per_c: Optional[np.ndarray] = None,
        leakage_slope_fn=None,
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
        if leakage_slope_w_per_c is None and leakage_slope_fn is None:
            raise ValueError(
                "need leakage_slope_w_per_c or a leakage_slope_fn provider"
            )
        self._slope = leakage_slope_w_per_c
        self._slope_fn = leakage_slope_fn

    @property
    def leakage_slope_w_per_c(self) -> np.ndarray:
        """Marginal leakage cost ``dP_leak/dT_j`` per server, W/°C."""
        if self._slope is None:
            self._slope = self._slope_fn()
        return self._slope

    def views(self) -> List[ServerLoadView]:
        """One :class:`ServerLoadView` per server, for view policies."""
        slope = self.leakage_slope_w_per_c
        return [
            ServerLoadView(
                index=i,
                rack_index=int(self.rack_index[i]),
                utilization_pct=float(self.utilization_pct[i]),
                max_junction_c=float(self.max_junction_c[i]),
                inlet_c=float(self.inlet_c[i]),
                leakage_w=float(self.leakage_w[i]),
                leakage_slope_w_per_c=float(slope[i]),
                pstate_index=int(self.pstate_index[i]),
            )
            for i in range(len(self.utilization_pct))
        ]


class PlacementPolicy(ABC):
    """Ranks servers; earlier in the order means filled first."""

    name = "policy"

    def reset(self) -> None:
        """Clear internal state between runs."""

    @abstractmethod
    def order(self, views: Sequence[ServerLoadView]) -> Sequence[int]:
        """Return all server indices, highest placement priority first."""

    def order_indices(self, arrays: FleetLoadArrays):
        """Array-based ranking; ``None`` falls back to :meth:`order`.

        Implementations must produce exactly the permutation
        :meth:`order` would return for view objects built from the
        same arrays (the engine's bit-identical trace contract rides
        on it).  The default opts out, so custom view-based policies
        keep working unchanged.
        """
        return None


class RoundRobinPolicy(PlacementPolicy):
    """Rotate the fill order by one server every scheduling tick."""

    name = "round-robin"

    def __init__(self) -> None:
        self._start = 0

    def reset(self) -> None:
        self._start = 0

    def order(self, views: Sequence[ServerLoadView]) -> Sequence[int]:
        n = len(views)
        start = self._start % n
        self._start += 1
        return [views[(start + k) % n].index for k in range(n)]

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """The same rotation, sharing the tick counter with `order`."""
        n = len(arrays.utilization_pct)
        start = self._start % n
        self._start += 1
        return (start + np.arange(n)) % n


class LeastUtilizedPolicy(PlacementPolicy):
    """Fill the currently least-busy servers first."""

    name = "least-utilized"

    def order(self, views: Sequence[ServerLoadView]) -> Sequence[int]:
        utils = np.array([v.utilization_pct for v in views])
        return [views[i].index for i in np.argsort(utils, kind="stable")]

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """Stable argsort on the persistent utilization array."""
        return np.argsort(arrays.utilization_pct, kind="stable")


class CoolestFirstPolicy(PlacementPolicy):
    """Fill the thermally coldest servers first."""

    name = "coolest-first"

    def order(self, views: Sequence[ServerLoadView]) -> Sequence[int]:
        temps = np.array([v.max_junction_c for v in views])
        return [views[i].index for i in np.argsort(temps, kind="stable")]

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """Stable argsort on the persistent junction array."""
        return np.argsort(arrays.max_junction_c, kind="stable")


class LeakageAwarePolicy(PlacementPolicy):
    """Fill the servers with the smallest marginal leakage cost first.

    The exponential leakage model makes ``dP_leak/dT`` grow with
    temperature, so a watt of extra load is cheapest on the server
    whose junctions sit lowest on the exponential; inlet temperature
    breaks ties (a cooler inlet means the added heat settles lower).
    """

    name = "leakage-aware"

    def order(self, views: Sequence[ServerLoadView]) -> Sequence[int]:
        slopes = np.array([v.leakage_slope_w_per_c for v in views])
        inlets = np.array([v.inlet_c for v in views])
        return [views[i].index for i in np.lexsort((inlets, slopes))]

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """The same slope-then-inlet lexsort, array-direct."""
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

    def order(self, views: Sequence[ServerLoadView]) -> Sequence[int]:
        pstates = np.array([v.pstate_index for v in views])
        utils = np.array([v.utilization_pct for v in views])
        return [views[i].index for i in np.lexsort((-utils, pstates))]

    def order_indices(self, arrays: FleetLoadArrays) -> np.ndarray:
        """The same p-state-then-utilization lexsort, array-direct."""
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

    def _fill(
        self, order, server_count: int, total_demand_pct: float
    ) -> SchedulingDecision:
        """The greedy Python fill along *order* (may skip servers)."""
        allocations = np.zeros(server_count)
        remaining = float(total_demand_pct)
        for index in order:
            if remaining <= 0.0:
                break
            share = min(self.server_cap_pct, remaining)
            allocations[index] = share
            remaining -= share
        return SchedulingDecision(
            allocations_pct=allocations, unserved_pct=max(0.0, remaining)
        )

    def _ordered(self, views: Sequence[ServerLoadView]) -> List[int]:
        """The policy's validated fill order for *views*."""
        if not views:
            raise ValueError("need at least one server view")
        order = list(self.policy.order(views))
        if sorted(order) != list(range(len(views))):
            raise ValueError(
                f"policy {self.policy.name!r} returned an invalid order"
            )
        return order

    def assign(
        self, views: Sequence[ServerLoadView], total_demand_pct: float
    ) -> SchedulingDecision:
        """Split *total_demand_pct* (single-server % units) across servers.

        For degraded fleets (down servers excluded from the fill) use
        :meth:`assign_with_spill`, which also produces the healthy
        counterfactual the fault metrics need.
        """
        validate_non_negative(total_demand_pct, "total_demand_pct")
        return self._fill(self._ordered(views), len(views), total_demand_pct)

    def assign_with_spill(
        self,
        views: Sequence[ServerLoadView],
        total_demand_pct: float,
        available: np.ndarray,
    ) -> Tuple[SchedulingDecision, SchedulingDecision]:
        """One degraded fill plus its all-servers-up counterfactual.

        The policy is ranked **once** (stateful policies like
        round-robin must advance exactly one tick); the same order is
        then filled twice — restricted to *available* servers, and
        unrestricted.  The pair lets the engine attribute lost work to
        the outage: counterfactual allocations landing on down servers
        are the respilled work, and any unserved demand beyond the
        counterfactual's is fault-attributable SLA loss.
        """
        validate_non_negative(total_demand_pct, "total_demand_pct")
        order = self._ordered(views)
        counterfactual = self._fill(order, len(views), total_demand_pct)
        degraded = self._fill(
            [index for index in order if available[index]],
            len(views),
            total_demand_pct,
        )
        return degraded, counterfactual

    def place(
        self,
        arrays: FleetLoadArrays,
        total_demand_pct: float,
        outage: Optional[np.ndarray] = None,
    ) -> Tuple[SchedulingDecision, float, float]:
        """One tick's placement: ``(decision, respilled, fault_unserved)``.

        Ranks with :meth:`PlacementPolicy.order_indices` and fills with
        :meth:`assign_indexed`; policies without an array ranking fall
        back to views and :meth:`assign`.  On an outage tick (*outage*
        marks the down servers) the degraded fill comes with its
        all-servers-up counterfactual along the same single ranking
        (see :meth:`assign_with_spill`): the counterfactual work that
        landed on down servers is the respilled work, and unserved
        demand beyond the counterfactual's is fault-attributable.
        Both attribution terms are 0.0 on other ticks.
        """
        order = self.policy.order_indices(arrays)
        if order is None:
            views = arrays.views()
            if outage is None:
                return self.assign(views, total_demand_pct), 0.0, 0.0
            decision, counterfactual = self.assign_with_spill(
                views, total_demand_pct, ~outage
            )
        else:
            n = len(arrays.utilization_pct)
            if outage is None:
                return self.assign_indexed(order, n, total_demand_pct), 0.0, 0.0
            order = np.asarray(order)
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
        """Greedy fill along a trusted pre-ranked *order*, vectorized.

        Fast path for policies providing
        :meth:`PlacementPolicy.order_indices`: skips the view
        materialization and the O(N log N) permutation validation of
        :meth:`assign` and replaces the per-server Python fill loop
        with ``np.subtract.accumulate`` — which subtracts strictly
        sequentially, reproducing the loop's ``remaining`` sequence
        (and therefore the partial final share and the unserved
        remainder) bit for bit.  *order* may rank only a subset of the
        servers (the fault path filters out outage servers); the rest
        keep zero allocation.
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

    def split(
        self,
        scheduler: FleetScheduler,
        views: Sequence[ServerLoadView],
        time_s: float,
    ) -> SchedulingDecision:
        """Convenience: demand at *time_s* pushed through *scheduler*."""
        if len(views) != self.server_count:
            raise ValueError(
                f"expected {self.server_count} views, got {len(views)}"
            )
        return scheduler.assign(views, self.total_demand_pct(time_s))
