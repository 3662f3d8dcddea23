"""Execution-kernel benchmarks: chunked stepping vs the reference loops.

Pins the kernelization perf contract:

* ``run_experiment`` (chunked :class:`SingleServerKernel`) must beat
  the preserved tick-by-tick reference loop by **>= 5x** at the
  default 10 s controller cadence, and still win clearly (>= 3x) in
  the worst case of a controller polling every tick;
* the 64-server ``FleetEngine`` ``vector`` backend must beat the
  ``reference`` backend (one ``ServerSimulator`` per server, same tick
  loop) by **>= 3x**.

Both claims ride on equivalent traces — bit-identical for the single
server, within the fleet tolerance contract for the fleet — pinned by
``tests/test_kernel_equivalence.py``; this module only times.  The
numbers are persisted to ``benchmarks/results/BENCH_kernel.json`` so
the perf trajectory is machine-readable across PRs.

The ``smoke`` test is the loose CI variant: a short horizon and a 2x
floor, so shared-runner noise cannot flake the job.
"""

from __future__ import annotations

import time

from bench_helpers import write_artifact, write_bench_json

from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.core.controllers.pid import PIController
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.fleet import (
    CoolestFirstPolicy,
    FleetEngine,
    FleetScheduler,
    build_uniform_fleet,
)
from repro.reporting import format_table
from repro.workloads.profile import ConstantProfile, StaircaseProfile

#: Simulated single-server horizon per timing run, seconds.
HORIZON_S = 3600.0

#: Simulated fleet horizon per timing run, seconds.
FLEET_HORIZON_S = 600.0
FLEET_SERVERS = 64

#: Perf floors (see module docstring).
SINGLE_SERVER_FLOOR = 5.0
SINGLE_SERVER_WORST_CASE_FLOOR = 3.0
FLEET_FLOOR = 3.0
SMOKE_FLOOR = 2.0


def _profile(horizon_s: float) -> StaircaseProfile:
    return StaircaseProfile([30.0, 90.0, 10.0], horizon_s / 3.0)


def _time_experiment(engine: str, controller_fn, horizon_s: float, runs=3):
    profile = _profile(horizon_s)
    config = ExperimentConfig(dt_s=1.0)
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        run_experiment(controller_fn(), profile, config=config, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best


def _time_fleet(backend: str, runs=3) -> float:
    fleet = build_uniform_fleet(
        rack_count=2, servers_per_rack=FLEET_SERVERS // 2
    )
    best = float("inf")
    for _ in range(runs):
        engine = FleetEngine(
            fleet,
            ConstantProfile(70.0, FLEET_HORIZON_S),
            scheduler=FleetScheduler(CoolestFirstPolicy()),
            controller_factory=lambda i: PIController(),
            backend=backend,
        )
        start = time.perf_counter()
        engine.run(dt_s=1.0)
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_speedups(results_dir, paper_lut):
    """Chunked kernels vs the reference paths, full horizons."""
    steps = HORIZON_S / 1.0
    cases = {
        # the base-class default cadence: one poll per 10 ticks
        "fixed_10s_poll": lambda: FixedSpeedController(rpm=3000.0),
        # worst case for chunking: the LUT polls every tick at dt=1
        "lut_1s_poll": lambda: LUTController(paper_lut),
    }
    _time_experiment("kernel", cases["fixed_10s_poll"], HORIZON_S, runs=1)

    payload = {"horizon_s": HORIZON_S, "dt_s": 1.0, "single_server": {}}
    rows = []
    speedups = {}
    for name, controller_fn in cases.items():
        t_kernel = _time_experiment("kernel", controller_fn, HORIZON_S)
        t_reference = _time_experiment("reference", controller_fn, HORIZON_S)
        speedup = t_reference / t_kernel
        speedups[name] = speedup
        payload["single_server"][name] = {
            "kernel_s": t_kernel,
            "reference_s": t_reference,
            "speedup": speedup,
            "kernel_steps_per_s": steps / t_kernel,
        }
        rows.append(
            [
                name,
                f"{t_kernel * 1e3:.1f}",
                f"{t_reference * 1e3:.1f}",
                f"{speedup:.1f}",
                f"{steps / t_kernel:.0f}",
            ]
        )

    _time_fleet("vector", runs=1)  # warm caches before timing
    t_vec = _time_fleet("vector")
    t_reference = _time_fleet("reference")
    fleet_speedup = t_reference / t_vec
    fleet_ticks = FLEET_HORIZON_S / 1.0 * FLEET_SERVERS
    payload["fleet"] = {
        "servers": FLEET_SERVERS,
        "horizon_s": FLEET_HORIZON_S,
        "kernel_s": t_vec,
        "reference_s": t_reference,
        "speedup": fleet_speedup,
        "kernel_server_ticks_per_s": fleet_ticks / t_vec,
    }
    rows.append(
        [
            f"fleet_{FLEET_SERVERS}",
            f"{t_vec * 1e3:.1f}",
            f"{t_reference * 1e3:.1f}",
            f"{fleet_speedup:.1f}",
            f"{fleet_ticks / t_vec:.0f}",
        ]
    )

    table = format_table(
        ["case", "kernel(ms)", "reference(ms)", "speedup", "steps/s"], rows
    )
    write_artifact(results_dir, "kernel_speedup.txt", table)
    write_bench_json(results_dir, "kernel", payload)

    assert speedups["fixed_10s_poll"] >= SINGLE_SERVER_FLOOR, (
        f"single-server kernel speedup {speedups['fixed_10s_poll']:.2f}x "
        f"below the {SINGLE_SERVER_FLOOR:.0f}x floor"
    )
    assert speedups["lut_1s_poll"] >= SINGLE_SERVER_WORST_CASE_FLOOR, (
        f"poll-every-tick kernel speedup {speedups['lut_1s_poll']:.2f}x "
        f"below the {SINGLE_SERVER_WORST_CASE_FLOOR:.0f}x floor"
    )
    assert fleet_speedup >= FLEET_FLOOR, (
        f"{FLEET_SERVERS}-server kernel speedup {fleet_speedup:.2f}x "
        f"below the {FLEET_FLOOR:.0f}x floor"
    )


def test_kernel_smoke_speedup(results_dir):
    """CI perf smoke: short horizon, loose 2x floor (runner noise)."""
    horizon = 900.0
    controller_fn = lambda: FixedSpeedController(rpm=3000.0)  # noqa: E731
    _time_experiment("kernel", controller_fn, horizon, runs=1)
    t_kernel = _time_experiment("kernel", controller_fn, horizon)
    t_reference = _time_experiment("reference", controller_fn, horizon)
    speedup = t_reference / t_kernel
    write_bench_json(
        results_dir,
        "kernel_smoke",
        {
            "horizon_s": horizon,
            "dt_s": 1.0,
            "kernel_s": t_kernel,
            "reference_s": t_reference,
            "speedup": speedup,
            "kernel_steps_per_s": horizon / t_kernel,
        },
    )
    assert speedup >= SMOKE_FLOOR, (
        f"kernel smoke speedup {speedup:.2f}x below the loose "
        f"{SMOKE_FLOOR:.0f}x CI floor"
    )
