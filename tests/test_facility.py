"""Facility-layer tests: submodels, queue workload, composition.

Pins the three contracts the facility subsystem makes:

* **physics sanity** — the COP curve is monotone in the supply
  setpoint, the power chain never creates energy, carbon follows the
  intensity band;
* **queue conservation** — every generated job is exactly one of
  pending / running / completed, work in equals work drained;
* **facility-off bit-identity** — wrapping a :class:`FleetEngine` in
  a :class:`FacilityEngine` (and the dynamic-workload seam added for
  the queue) changes nothing about the IT-side traces on any backend.
"""

import numpy as np
import pytest

from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.pid import PIController
from repro.engine.checkpoint import CheckpointConfig
from repro.engine.sharded import ru_maxrss_kib
from repro.facility import (
    CarbonModel,
    CoolingPlant,
    EfficiencyCurve,
    FacilityEngine,
    PowerChain,
    WorkloadQueue,
    build_diurnal_carbon_model,
    build_job_queue,
    bursty_job_arrivals,
    diurnal_job_arrivals,
    poisson_job_arrivals,
)
from repro.facility.cooling import MAX_COP, MIN_COP
from repro.fleet.engine import FleetEngine
from repro.units import hours
from repro.workloads.profile import ConstantProfile, StaircaseProfile

# trace columns compared across backends / against the bare engine
TRACES = (
    "times_s",
    "total_power_w",
    "fan_power_w",
    "max_junction_c",
    "utilization_pct",
    "inlet_c",
    "mean_rpm",
    "unserved_pct",
    "pstate_index",
    "work_deficit_pct",
)


def assert_traces_equal(a, b) -> None:
    """Bit-for-bit equality over every fleet trace column."""
    for name in TRACES:
        np.testing.assert_array_equal(
            np.asarray(getattr(a, name)),
            np.asarray(getattr(b, name)),
            err_msg=f"trace column {name} differs",
        )


# ----------------------------------------------------------------------
# cooling plant
# ----------------------------------------------------------------------
class TestCoolingPlant:
    def test_cop_increases_with_supply_setpoint(self):
        plant = CoolingPlant()
        cops = [plant.cop(t) for t in np.arange(12.0, 30.0, 2.0)]
        assert all(b > a for a, b in zip(cops, cops[1:]))

    def test_cop_clamped_to_fit_range(self):
        plant = CoolingPlant()
        assert plant.cop(0.0) == MIN_COP
        assert plant.cop(60.0) == MAX_COP

    def test_hot_return_degrades_cop(self):
        plant = CoolingPlant(supply_c=22.0)
        base = plant.effective_cop(22.0, plant.return_ref_c)
        assert base == plant.cop(22.0)
        assert plant.effective_cop(22.0, plant.return_ref_c + 10.0) < base

    def test_cooling_power_scales_with_heat(self):
        plant = CoolingPlant(supply_c=22.0)
        p1 = plant.cooling_power_w(1000.0, 35.0)
        p2 = plant.cooling_power_w(2000.0, 35.0)
        assert 0.0 < p1 < p2
        # COP > 1 with overhead: cooling costs less than the heat moved
        assert p1 < 1000.0

    def test_cooling_power_increases_with_return_temperature(self):
        plant = CoolingPlant(supply_c=22.0)
        assert plant.cooling_power_w(1000.0, 50.0) > plant.cooling_power_w(
            1000.0, 35.0
        )

    def test_return_temperature_energy_balance(self):
        plant = CoolingPlant(supply_c=20.0)
        t1 = plant.return_temperature_c(1000.0, 340.0)
        t2 = plant.return_temperature_c(2000.0, 340.0)
        assert plant.supply_c < t1 < t2
        # doubling airflow halves the temperature rise
        t_half = plant.return_temperature_c(1000.0, 680.0)
        assert t_half - plant.supply_c == pytest.approx(
            (t1 - plant.supply_c) / 2.0
        )

    def test_rejects_unphysical_parameters(self):
        with pytest.raises(ValueError):
            CoolingPlant(supply_c=-300.0)
        with pytest.raises(ValueError):
            CoolingPlant(return_penalty_per_c=-0.1)
        with pytest.raises(ValueError):
            CoolingPlant(cop_coeffs=(1.0, 2.0))
        with pytest.raises(ValueError):
            CoolingPlant().cooling_power_w(-5.0, 35.0)


# ----------------------------------------------------------------------
# power chain
# ----------------------------------------------------------------------
class TestPowerChain:
    def test_efficiency_curve_interpolates_and_clamps(self):
        curve = EfficiencyCurve([(0.0, 0.5), (0.5, 0.9), (1.0, 0.8)])
        assert curve.efficiency(0.0) == 0.5
        assert curve.efficiency(0.25) == pytest.approx(0.7)
        assert curve.efficiency(2.0) == 0.8  # clamped above
        assert curve.points == ((0.0, 0.5), (0.5, 0.9), (1.0, 0.8))

    def test_efficiency_curve_rejects_bad_points(self):
        with pytest.raises(ValueError):
            EfficiencyCurve([(0.0, 0.9)])  # single point
        with pytest.raises(ValueError):
            EfficiencyCurve([(0.5, 0.9), (0.5, 0.8)])  # non-increasing
        with pytest.raises(ValueError):
            EfficiencyCurve([(0.0, 0.0), (1.0, 0.9)])  # zero efficiency
        with pytest.raises(ValueError):
            EfficiencyCurve([(0.0, 0.9), (1.5, 0.9)])  # load > 1

    def test_chain_never_creates_energy(self):
        chain = PowerChain(rated_power_w=10_000.0)
        for it_w in (0.0, 500.0, 2_000.0, 10_000.0):
            assert chain.conditioned_power_w(it_w) >= it_w
            assert chain.chain_loss_w(it_w) >= 0.0

    def test_low_load_efficiency_collapse(self):
        """Relative losses are worst near idle — the PUE-at-idle story."""
        chain = PowerChain(rated_power_w=10_000.0)
        low = chain.conditioned_power_w(200.0) / 200.0
        high = chain.conditioned_power_w(7_500.0) / 7_500.0
        assert low > high

    def test_cooling_bypasses_the_ups(self):
        chain = PowerChain(rated_power_w=10_000.0)
        base = chain.conditioned_power_w(4_000.0)
        assert chain.utility_power_w(4_000.0, 1_000.0) == pytest.approx(
            base + 1_000.0
        )

    def test_rejects_unphysical_parameters(self):
        with pytest.raises(ValueError):
            PowerChain(rated_power_w=0.0)
        with pytest.raises(ValueError):
            PowerChain(rated_power_w=1_000.0).conditioned_power_w(-1.0)


# ----------------------------------------------------------------------
# carbon model
# ----------------------------------------------------------------------
class TestCarbonModel:
    def test_intensity_spans_the_band(self):
        model = build_diurnal_carbon_model(
            duration_s=hours(24.0), base_g_per_kwh=100.0, peak_g_per_kwh=400.0
        )
        sampled = [
            model.intensity_g_per_kwh(t)
            for t in np.arange(0.0, hours(24.0), 600.0)
        ]
        assert min(sampled) >= 100.0
        assert max(sampled) <= 400.0
        # cleanest at 13:00, dirtiest twelve hours opposite
        assert model.intensity_g_per_kwh(hours(13.0)) == pytest.approx(
            100.0, abs=1.0
        )
        assert model.intensity_g_per_kwh(hours(1.0)) == pytest.approx(
            400.0, abs=1.0
        )

    def test_carbon_mass_follows_energy_and_intensity(self):
        model = CarbonModel(
            ConstantProfile(100.0, hours(1.0)),
            base_g_per_kwh=100.0,
            peak_g_per_kwh=300.0,
        )
        # shape pinned at 100 -> peak intensity; 2 kWh * 300 g = 0.6 kg
        assert model.carbon_kg(2.0, 0.0) == pytest.approx(0.6)

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            CarbonModel(
                ConstantProfile(0.0, 10.0),
                base_g_per_kwh=400.0,
                peak_g_per_kwh=100.0,
            )


# ----------------------------------------------------------------------
# queue workload
# ----------------------------------------------------------------------
class TestWorkloadQueue:
    def run_queue(self, small_fleet, queue, dt_s=30.0):
        engine = FleetEngine(
            small_fleet,
            queue,
            controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
        )
        return engine.run(dt_s=dt_s)

    def test_job_conservation(self, small_fleet):
        queue = build_job_queue(
            "poisson",
            small_fleet.server_count,
            duration_s=hours(2.0),
            seed=3,
            jobs_per_hour=20.0,
        )
        self.run_queue(small_fleet, queue)
        stats = queue.stats(hours(2.0))
        assert stats.arrived == (
            stats.completed + stats.running + stats.pending
        )
        assert queue.arrived_count <= queue.job_count
        # drained work never exceeds the work that arrived
        assert stats.executed_work_pct_s <= stats.total_work_pct_s + 1e-6

    def test_light_load_queue_drains(self, small_fleet):
        # well-spaced jobs with generous deadlines: everything finishes
        # in time, deterministically
        queue = WorkloadQueue(
            arrival_s=[0.0, 600.0, 1_200.0, 1_800.0],
            work_pct_s=[3_000.0, 3_000.0, 3_000.0, 3_000.0],
            server_count=small_fleet.server_count,
            duration_s=hours(1.0),
            deadline_s=np.array([0.0, 600.0, 1_200.0, 1_800.0]) + 300.0,
        )
        self.run_queue(small_fleet, queue)
        stats = queue.stats(hours(1.0))
        assert stats.arrived == 4
        assert stats.drained
        assert stats.sla_violations == 0
        assert stats.mean_wait_s >= 0.0
        assert stats.mean_turnaround_s >= stats.mean_wait_s

    def test_overload_grows_a_backlog(self, small_fleet):
        # 4 servers cannot serve 200 one-server-hour jobs in 2 hours
        queue = build_job_queue(
            "poisson",
            small_fleet.server_count,
            duration_s=hours(2.0),
            seed=1,
            jobs_per_hour=100.0,
            mean_work_pct_s=100.0 * 3600.0,
        )
        self.run_queue(small_fleet, queue)
        stats = queue.stats(hours(2.0))
        assert not stats.drained
        assert stats.pending + stats.running > 0
        assert stats.sla_violations > 0

    def test_reset_makes_runs_repeatable(self, small_fleet):
        queue = build_job_queue(
            "bursty",
            small_fleet.server_count,
            duration_s=hours(1.0),
            seed=9,
        )
        first = self.run_queue(small_fleet, queue)
        first_stats = queue.stats(hours(1.0))
        second = self.run_queue(small_fleet, queue)
        assert_traces_equal(first, second)
        assert queue.stats(hours(1.0)) == first_stats

    def test_deadline_accounting(self):
        # one job, one second of work, deadline already missed at end
        queue = WorkloadQueue(
            [0.0], [100.0], server_count=1, duration_s=10.0,
            deadline_s=np.array([0.5]),
        )
        assert queue.total_demand_pct(0.0) == 100.0
        queue.record_executed(0.0, 100.0, 1.0)
        assert queue.completed_count == 1
        stats = queue.stats(10.0)
        assert stats.sla_violations == 1  # finished at t=1 > deadline 0.5

    def test_fifo_drain_order(self):
        queue = WorkloadQueue(
            [0.0, 0.0], [100.0, 100.0], server_count=2, duration_s=10.0
        )
        assert queue.total_demand_pct(0.0) == 200.0
        # only one server's worth executed: the older job finishes first
        queue.record_executed(0.0, 100.0, 1.0)
        assert queue.completed_count == 1
        assert queue.pending_count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadQueue([2.0, 1.0], [10.0, 10.0], 1, 10.0)  # unsorted
        with pytest.raises(ValueError):
            WorkloadQueue([0.0], [0.0], 1, 10.0)  # zero work
        with pytest.raises(ValueError):
            WorkloadQueue([0.0], [10.0], 1, 10.0, deadline_s=np.array([-1.0]))
        with pytest.raises(ValueError):
            WorkloadQueue([0.0], [10.0], 1, 10.0, service_rate_pct=0.0)
        with pytest.raises(ValueError):
            build_job_queue("nope", 4)

    def test_generators_are_seeded_and_bounded(self):
        for gen, kwargs in (
            (poisson_job_arrivals, {"jobs_per_hour": 30.0}),
            (
                diurnal_job_arrivals,
                {"base_jobs_per_hour": 5.0, "peak_jobs_per_hour": 30.0},
            ),
            (bursty_job_arrivals, {}),
        ):
            a = gen(hours(2.0), seed=4, **kwargs)
            b = gen(hours(2.0), seed=4, **kwargs)
            np.testing.assert_array_equal(a, b)
            assert np.all(np.diff(a) >= 0.0)
            assert a.size == 0 or (a.min() >= 0.0 and a.max() < hours(2.0))


# ----------------------------------------------------------------------
# engine guards for dynamic workloads
# ----------------------------------------------------------------------
class TestDynamicWorkloadGuards:
    def make_queue(self, fleet):
        return build_job_queue(
            "poisson", fleet.server_count, duration_s=600.0, seed=0
        )

    def test_sharded_backend_rejected(self, small_fleet):
        with pytest.raises(ValueError, match="sharded"):
            FleetEngine(
                small_fleet,
                self.make_queue(small_fleet),
                controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
                backend="sharded",
                shards=2,
            )

    def test_checkpointing_rejected(self, small_fleet, tmp_path):
        with pytest.raises(ValueError, match="checkpoint"):
            FleetEngine(
                small_fleet,
                self.make_queue(small_fleet),
                controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
                checkpoint=CheckpointConfig(directory=tmp_path),
            )

    def test_reference_matches_vector_with_queue(self, small_fleet):
        """The per-tick demand seam drives both in-process backends
        alike: identical demand, placement and queue progress, physics
        within the backend tolerance contract."""
        results, queues = {}, {}
        for backend in ("vector", "reference"):
            queues[backend] = self.make_queue(small_fleet)
            results[backend] = FleetEngine(
                small_fleet,
                queues[backend],
                controller_factory=lambda i: PIController(),
                backend=backend,
            ).run(dt_s=5.0)
        vec, ref = results["vector"], results["reference"]
        for name in ("utilization_pct", "unserved_pct", "mean_rpm"):
            np.testing.assert_array_equal(
                getattr(vec, name), getattr(ref, name), err_msg=name
            )
        np.testing.assert_allclose(
            vec.max_junction_c, ref.max_junction_c, rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(
            vec.total_power_w, ref.total_power_w, rtol=0, atol=1e-6
        )
        assert vec.utilization_pct.sum() > 0.0
        end_s = float(vec.times_s[-1])
        assert queues["vector"].stats(end_s) == queues["reference"].stats(
            end_s
        )


# ----------------------------------------------------------------------
# facility composition
# ----------------------------------------------------------------------
class TestFacilityEngine:
    PROFILE = StaircaseProfile([30.0, 80.0, 55.0], 100.0)

    def engine(self, fleet, backend="vector", **kwargs):
        return FleetEngine(
            fleet,
            self.PROFILE,
            controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
            backend=backend,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "backend,kwargs",
        [
            ("vector", {}),
            ("vector", {"cold_start": True}),
            ("reference", {}),
            ("sharded", {"shards": 2, "shard_mode": "inline"}),
        ],
    )
    def test_facility_off_is_bit_identical(self, small_fleet, backend, kwargs):
        """With every submodel disabled the IT traces match exactly."""
        bare = self.engine(small_fleet, backend, **kwargs).run(dt_s=5.0)
        wrapped = FacilityEngine(self.engine(small_fleet, backend, **kwargs))
        composed = wrapped.run(dt_s=5.0)
        assert_traces_equal(composed.fleet, bare)
        m = composed.metrics
        assert m.pue == 1.0
        assert m.cooling_energy_kwh == 0.0
        assert m.chain_loss_kwh == 0.0
        assert m.carbon_kg == 0.0
        assert m.facility_energy_kwh == pytest.approx(m.it_energy_kwh)
        np.testing.assert_array_equal(composed.carbon_kg, 0.0)

    def test_full_composition_metrics(self, small_fleet):
        facility = FacilityEngine(
            self.engine(small_fleet),
            cooling=CoolingPlant(supply_c=22.0),
            power=PowerChain(
                rated_power_w=small_fleet.server_count * 600.0
            ),
            carbon=build_diurnal_carbon_model(duration_s=300.0),
        )
        result = facility.run(dt_s=5.0)
        m = result.metrics
        assert 1.0 < m.pue <= 2.5
        assert m.carbon_kg > 0.0
        assert m.cooling_energy_kwh > 0.0
        assert m.chain_loss_kwh > 0.0
        assert m.facility_energy_kwh == pytest.approx(
            m.it_energy_kwh + m.cooling_energy_kwh + m.chain_loss_kwh
        )
        assert m.peak_utility_power_w >= float(result.utility_power_w.max())
        assert (
            m.fleet.energy_kwh == m.it_energy_kwh
        )  # IT side untouched by composition
        assert np.all(result.return_c > 22.0)
        # energy-weighted mean intensity stays inside the band
        assert 120.0 <= m.mean_intensity_g_per_kwh <= 450.0

    def test_queue_stats_surface(self, small_fleet):
        queue = build_job_queue(
            "diurnal",
            small_fleet.server_count,
            duration_s=hours(1.0),
            seed=2,
            jobs_per_hour=10.0,
        )
        facility = FacilityEngine(
            FleetEngine(
                small_fleet,
                queue,
                controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
            ),
            cooling=CoolingPlant(),
        )
        m = facility.run(dt_s=30.0).metrics
        assert m.queue is not None
        assert m.queue.arrived == (
            m.queue.completed + m.queue.running + m.queue.pending
        )

    def test_profile_workload_has_no_queue_stats(self, small_fleet):
        facility = FacilityEngine(self.engine(small_fleet))
        assert facility.workload_queue is None
        assert facility.run(dt_s=5.0).metrics.queue is None

    def test_rejects_bad_arguments(self, small_fleet):
        with pytest.raises(TypeError):
            FacilityEngine("not an engine")
        with pytest.raises(ValueError):
            FacilityEngine(self.engine(small_fleet), crac_airflow_cfm=0.0)

    def test_capture_gains_facility_channels(self, small_fleet):
        from repro.obs.capture import FleetCapture

        capture = FleetCapture(signals=("power",))
        facility = FacilityEngine(
            self.engine(small_fleet, capture=capture),
            cooling=CoolingPlant(),
        )
        result = facility.run(dt_s=5.0)
        channel = capture.store.channel("facility.cooling_power_w")
        assert channel.unit == "W"
        _, values = channel.series()
        np.testing.assert_array_equal(values, result.cooling_power_w)
        assert "facility.return_c" in capture.store


# ----------------------------------------------------------------------
# satellite regression: ru_maxrss normalization
# ----------------------------------------------------------------------
class TestRuMaxrssKib:
    def test_linux_reports_kib_passthrough(self):
        assert ru_maxrss_kib(123_456, platform="linux") == 123_456

    def test_darwin_reports_bytes_normalized(self):
        assert ru_maxrss_kib(123_456 * 1024, platform="darwin") == 123_456

    def test_default_platform_is_current(self):
        import sys

        expected = ru_maxrss_kib(2_048_000, platform=sys.platform)
        assert ru_maxrss_kib(2_048_000) == expected
