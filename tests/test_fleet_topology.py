"""Unit tests for rack/fleet topology and heat recirculation."""

import numpy as np
import pytest

from repro.engine.control import TickInputs
from repro.fleet.faults import CracExcursionEvent, FaultSchedule
from repro.fleet.scheduler import FleetWorkload
from repro.fleet.topology import (
    Fleet,
    Rack,
    build_recirculation_matrix,
    build_uniform_fleet,
)
from repro.server.ambient import SinusoidalAmbient
from repro.server.specs import default_server_spec
from repro.workloads.profile import ConstantProfile


def make_rack(name="r0", servers=2, supply_c=24.0, crac=None):
    spec = default_server_spec()
    return Rack(
        name=name,
        servers=tuple(spec for _ in range(servers)),
        crac_supply_c=supply_c,
        crac=crac,
    )


def tick_inputs(fleet, plan=None, steps=1, dt_s=1.0):
    """The engine's tick prologue for *fleet* under a constant demand."""
    workload = FleetWorkload(ConstantProfile(50.0, 600.0), fleet.server_count)
    return TickInputs(fleet, workload, plan, steps, dt_s)


class TestRack:
    def test_counts_and_supply(self):
        rack = make_rack(servers=3, supply_c=22.0)
        assert rack.server_count == 3
        assert rack.supply_model().temperature_c(0.0) == 22.0

    def test_explicit_crac_model_wins(self):
        crac = SinusoidalAmbient(mean_c=20.0, amplitude_c=1.0, period_s=600.0)
        rack = make_rack(supply_c=24.0, crac=crac)
        assert rack.supply_model() is crac

    def test_empty_rack_rejected(self):
        with pytest.raises(ValueError):
            Rack(name="bad", servers=())

    def test_unphysical_supply_rejected(self):
        with pytest.raises(ValueError):
            make_rack(supply_c=-400.0)


class TestFleet:
    def test_flat_indexing_is_rack_major(self):
        fleet = Fleet(racks=(make_rack("a", 2), make_rack("b", 3)))
        assert fleet.server_count == 5
        assert fleet.rack_count == 2
        assert fleet.rack_index_of_server == (0, 0, 1, 1, 1)
        assert [s == slice(0, 2) for s in fleet.rack_slices()][0]
        assert fleet.rack_slices() == [slice(0, 2), slice(2, 5)]

    def test_supply_temperatures_per_server(self):
        fleet = Fleet(
            racks=(
                make_rack("cold", 2, supply_c=20.0),
                make_rack("warm", 1, supply_c=26.0),
            )
        )
        assert fleet.supply_temperatures_c(0.0) == pytest.approx(
            [20.0, 20.0, 26.0]
        )

    def test_matrix_shape_validated(self):
        with pytest.raises(ValueError, match="2x2"):
            Fleet(racks=(make_rack(servers=2),), recirculation=np.zeros((3, 3)))

    def test_negative_coupling_rejected(self):
        matrix = np.array([[0.0, -0.1], [0.1, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            Fleet(racks=(make_rack(servers=2),), recirculation=matrix)

    def test_nonzero_diagonal_rejected(self):
        matrix = np.array([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            Fleet(racks=(make_rack(servers=2),), recirculation=matrix)

    def test_row_sum_at_least_one_rejected(self):
        matrix = np.array([[0.0, 1.0], [0.1, 0.0]])
        with pytest.raises(ValueError, match="row sums"):
            Fleet(racks=(make_rack(servers=2),), recirculation=matrix)

    def test_inlets_add_recirculated_exhaust(self):
        matrix = np.array([[0.0, 0.5], [0.25, 0.0]])
        fleet = Fleet(racks=(make_rack(servers=2),), recirculation=matrix)
        inlets = tick_inputs(fleet).inlet(0, np.array([4.0, 8.0]))
        # server 0 receives half of server 1's 8 degC rise, and so on.
        np.testing.assert_array_equal(inlets, [28.0, 25.0])

    def test_equality_comparison_does_not_raise_on_matrix(self):
        # dataclass __eq__ must not compare the ndarray elementwise
        a = build_uniform_fleet(rack_count=1, servers_per_rack=2)
        b = build_uniform_fleet(rack_count=1, servers_per_rack=2)
        assert a == b
        assert a != Fleet(racks=(make_rack(servers=3),))

    def test_uncoupled_fleet_inlets_equal_supply(self):
        fleet = Fleet(racks=(make_rack(servers=2),))
        inlets = tick_inputs(fleet).inlet(0, np.array([5.0, 5.0]))
        np.testing.assert_array_equal(inlets, [24.0, 24.0])

    def test_crac_excursion_adds_supply_delta(self):
        """An excursion on rack 1 over ticks [1, 3) warms that rack's
        inlets by its delta on exactly those ticks."""
        fleet = Fleet(
            racks=(make_rack("a", 1), make_rack("b", 2)),
            recirculation=np.array(
                [[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.0]]
            ),
        )
        excursion = CracExcursionEvent(
            delta_c=3.0, rack=1, start_s=1.0, end_s=3.0
        )
        plan = FaultSchedule(events=(excursion,)).compile(fleet, 4, 1.0)
        inputs = tick_inputs(fleet, plan, steps=4)
        rise = np.array([4.0, 8.0, 2.0])
        coupled = [28.0, 24.0, 25.0]
        for tick, delta in enumerate([0.0, 3.0, 3.0, 0.0]):
            np.testing.assert_array_equal(
                inputs.inlet(tick, rise),
                np.add(coupled, [0.0, delta, delta]),
            )


class TestBuilders:
    def test_uniform_fleet_shape(self):
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=4)
        assert fleet.server_count == 8
        assert fleet.rack_count == 2
        assert fleet.recirculation.shape == (8, 8)

    def test_matrix_neighbor_decay(self):
        matrix = build_recirculation_matrix(
            [4], intra_rack_coupling=0.06, cross_rack_coupling=0.0
        )
        assert matrix[0, 1] == pytest.approx(0.06)
        assert matrix[0, 2] == pytest.approx(0.03)  # distance 2 halves it
        assert matrix[0, 3] == 0.0  # beyond default reach
        assert np.all(np.diag(matrix) == 0.0)

    def test_cross_rack_uniform(self):
        matrix = build_recirculation_matrix(
            [2, 2], intra_rack_coupling=0.0, cross_rack_coupling=0.01
        )
        assert matrix[0, 2] == pytest.approx(0.01)
        assert matrix[0, 1] == 0.0

    def test_too_strong_coupling_rejected(self):
        with pytest.raises(ValueError, match="too strong"):
            build_recirculation_matrix([8], intra_rack_coupling=0.6)

    def test_matrix_symmetry_of_uniform_layout(self):
        matrix = build_recirculation_matrix([3, 3])
        assert np.allclose(matrix, matrix.T)
