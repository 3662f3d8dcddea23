"""Unit tests for the fleet placement policies and the fleet workload."""

import numpy as np
import pytest

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
)
from repro.workloads.profile import ConstantProfile


def make_arrays(**columns):
    """One fleet's placement arrays from per-field lists (defaults filled)."""
    n = len(next(iter(columns.values())))
    fields = {
        "utilization_pct": [0.0] * n,
        "max_junction_c": [50.0] * n,
        "inlet_c": [24.0] * n,
        "leakage_w": [30.0] * n,
        "pstate_index": [0] * n,
        "rack_index": [0] * n,
        "leakage_slope_w_per_c": [0.3] * n,
    }
    fields.update(columns)
    return FleetLoadArrays(
        **{name: np.asarray(values) for name, values in fields.items()}
    )


def ranking(policy, **columns):
    """*policy*'s ranking of the fleet described by *columns*, as a list."""
    return list(policy.order_indices(make_arrays(**columns)))


def place(scheduler, demand_pct, **columns):
    """The decision of one outage-free placement of *demand_pct*."""
    decision, respilled, fault_unserved = scheduler.place(
        make_arrays(**columns), demand_pct
    )
    assert respilled == fault_unserved == 0.0
    return decision


class TestPolicyOrders:
    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy()
        idle = [0.0, 0.0, 0.0]
        assert ranking(policy, utilization_pct=idle) == [0, 1, 2]
        assert ranking(policy, utilization_pct=idle) == [1, 2, 0]
        assert ranking(policy, utilization_pct=idle) == [2, 0, 1]
        policy.reset()
        assert ranking(policy, utilization_pct=idle) == [0, 1, 2]

    def test_least_utilized_prefers_idle(self):
        order = ranking(LeastUtilizedPolicy(), utilization_pct=[80.0, 10.0, 40.0])
        assert order == [1, 2, 0]

    def test_coolest_first_prefers_cold(self):
        order = ranking(CoolestFirstPolicy(), max_junction_c=[70.0, 45.0, 55.0])
        assert order == [1, 2, 0]

    def test_leakage_aware_prefers_flat_slope(self):
        order = ranking(
            LeakageAwarePolicy(), leakage_slope_w_per_c=[0.9, 0.2, 0.5]
        )
        assert order == [1, 2, 0]

    def test_leakage_aware_ties_break_on_inlet(self):
        order = ranking(
            LeakageAwarePolicy(),
            leakage_slope_w_per_c=[0.4, 0.4],
            inlet_c=[28.0, 22.0],
        )
        assert order == [1, 0]

    def test_dvfs_aware_prefers_nominal_frequency(self):
        assert ranking(DvfsAwarePolicy(), pstate_index=[3, 0, 2]) == [1, 2, 0]

    def test_dvfs_aware_ties_break_on_busier_server(self):
        """Among equal p-states the *busier* server goes first: keeping
        the busy set stable is what prevents the one-tick deficit
        window every reallocation opens."""
        order = ranking(
            DvfsAwarePolicy(),
            pstate_index=[0, 0, 3, 3],
            utilization_pct=[20.0, 90.0, 0.0, 66.0],
        )
        assert order == [1, 0, 3, 2]

    def test_order_only_policy_cannot_be_built(self):
        """The array ranking is the one abstract method: a policy that
        ranks only per-server records fails when it is constructed."""
        assert PlacementPolicy.__abstractmethods__ == {"order_indices"}

        class RecordRanking(PlacementPolicy):
            def order(self, views):
                return list(range(len(views)))

        with pytest.raises(TypeError, match="order_indices"):
            RecordRanking()

    def test_registry_names(self):
        assert set(PLACEMENT_POLICIES) == {
            "round-robin",
            "least-utilized",
            "coolest-first",
            "leakage-aware",
            "dvfs-aware",
        }
        for name, cls in PLACEMENT_POLICIES.items():
            assert cls().name == name


class TestGreedyFill:
    def test_demand_conserved(self):
        scheduler = FleetScheduler(CoolestFirstPolicy())
        decision = place(scheduler, 180.0, max_junction_c=[60.0, 40.0, 50.0])
        assert decision.allocations_pct.sum() == pytest.approx(180.0)
        assert decision.unserved_pct == 0.0

    def test_fills_priority_order_to_cap(self):
        scheduler = FleetScheduler(CoolestFirstPolicy())
        decision = place(scheduler, 150.0, max_junction_c=[60.0, 40.0, 50.0])
        # coolest (index 1) gets 100, next coolest (index 2) the rest.
        assert decision.allocations_pct == pytest.approx([0.0, 100.0, 50.0])

    def test_overload_reports_unserved(self):
        scheduler = FleetScheduler(RoundRobinPolicy())
        decision = place(scheduler, 250.0, utilization_pct=[0.0, 0.0])
        assert decision.allocations_pct == pytest.approx([100.0, 100.0])
        assert decision.unserved_pct == pytest.approx(50.0)

    def test_zero_demand_idles_everyone(self):
        scheduler = FleetScheduler(LeastUtilizedPolicy())
        decision = place(scheduler, 0.0, utilization_pct=[5.0, 7.0])
        assert np.all(decision.allocations_pct == 0.0)

    def test_negative_demand_rejected(self):
        scheduler = FleetScheduler(RoundRobinPolicy())
        with pytest.raises(ValueError):
            place(scheduler, -1.0, utilization_pct=[0.0])

    def test_bad_policy_order_detected(self):
        """A ranking that repeats a server is refused: filled as given,
        [0, 0, 1] would place 150% of a 250% demand and report none of
        the other 100% unserved."""

        class BrokenPolicy(RoundRobinPolicy):
            name = "broken"

            def order_indices(self, arrays):
                return [0, 0, 1]

        scheduler = FleetScheduler(BrokenPolicy())
        with pytest.raises(ValueError, match="'broken' returned an invalid"):
            place(scheduler, 250.0, utilization_pct=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "bad",
        [
            [0, 1],
            [0, 1, 2, 0],
            [0, 1, 3],
            [-1, 0, 1],
            [2.0, 1.0, 0.0],
            [True, False, True],
            [[0, 1, 2]],
        ],
        ids=["short", "long", "past-end", "negative", "float", "mask", "2d"],
    )
    def test_non_permutation_rankings_refused(self, bad):
        class BadPolicy(RoundRobinPolicy):
            name = "bad"

            def order_indices(self, arrays):
                return bad

        scheduler = FleetScheduler(BadPolicy())
        arrays = make_arrays(utilization_pct=[0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="range\\(3\\) exactly once"):
            scheduler.place(arrays, 120.0)
        with pytest.raises(ValueError, match="'bad' returned an invalid"):
            scheduler.place(arrays, 120.0, np.array([False, True, False]))

    @pytest.mark.parametrize(
        "good",
        [[2, 0, 1], np.array([2, 0, 1], dtype=np.uint32)],
        ids=["list", "uint32"],
    )
    def test_any_integer_permutation_accepted(self, good):
        class GivenPolicy(RoundRobinPolicy):
            def order_indices(self, arrays):
                return good

        decision = place(
            FleetScheduler(GivenPolicy()), 150.0, utilization_pct=[0.0] * 3
        )
        assert decision.allocations_pct == pytest.approx([50.0, 0.0, 100.0])


class TestFleetWorkload:
    def test_total_demand_scales_with_fleet_size(self):
        workload = FleetWorkload(ConstantProfile(40.0, 600.0), server_count=8)
        assert workload.total_demand_pct(0.0) == pytest.approx(320.0)
        assert workload.fleet_average_pct(0.0) == pytest.approx(40.0)
        assert workload.duration_s == 600.0

    def test_invalid_server_count_rejected(self):
        with pytest.raises(ValueError):
            FleetWorkload(ConstantProfile(50.0, 600.0), server_count=0)
