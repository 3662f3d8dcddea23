"""Table I assembly and the data series behind every figure.

Each ``figN_series`` function returns plain arrays shaped like the
corresponding plot in the paper, so benchmarks and examples can print
or plot them without re-deriving the experiment wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.controllers.bangbang import BangBangController
from repro.core.controllers.base import FanController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.core.lut import LookupTable, build_lut_from_characterization
from repro.experiments.characterization import (
    PAPER_FAN_SPEEDS_RPM,
    run_characterization_steady,
    run_constant_load_experiment,
)
from repro.experiments.metrics import ExperimentMetrics, net_savings_pct
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.models.fitting import fit_models
from repro.models.steady_state import steady_state_map
from repro.server.specs import ServerSpec, default_server_spec
from repro.workloads.profile import UtilizationProfile
from repro.workloads.tests import paper_test_profiles


def build_paper_lut(
    spec: Optional[ServerSpec] = None,
    seed: int = 0,
    max_temperature_c: float = 75.0,
) -> LookupTable:
    """Run the paper's full offline pipeline and return the LUT.

    Characterize → fit the power model → fit the fan model → optimize
    per utilization level.
    """
    spec = spec if spec is not None else default_server_spec()
    samples = run_characterization_steady(spec=spec, seed=seed)
    fitted, fan_model = fit_models(samples)
    lut, _ = build_lut_from_characterization(
        samples,
        fitted_model=fitted,
        fan_power_model=fan_model,
        max_temperature_c=max_temperature_c,
    )
    return lut


def paper_controllers(
    lut: Optional[LookupTable] = None,
    spec: Optional[ServerSpec] = None,
    seed: int = 0,
) -> List[FanController]:
    """The three schemes of Table I, in paper order."""
    spec = spec if spec is not None else default_server_spec()
    if lut is None:
        lut = build_paper_lut(spec=spec, seed=seed)
    return [
        FixedSpeedController(rpm=spec.default_fan_rpm),
        BangBangController(),
        LUTController(lut),
    ]


@dataclass(frozen=True)
class Table1Cell:
    """One (test, scheme) entry of Table I."""

    test: str
    scheme: str
    metrics: ExperimentMetrics
    #: Net savings vs the Default scheme; None for the baseline itself.
    net_savings_pct: Optional[float]
    result: ExperimentResult


def build_table1(
    spec: Optional[ServerSpec] = None,
    tests: Optional[Dict[str, UtilizationProfile]] = None,
    controllers_factory: Optional[Callable[[], Sequence[FanController]]] = None,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, Table1Cell]]:
    """Run every (test, scheme) combination and compute Table I.

    Returns ``{test: {scheme: Table1Cell}}`` with net savings relative
    to the first controller in the sequence (Default).
    """
    spec = spec if spec is not None else default_server_spec()
    tests = tests if tests is not None else paper_test_profiles(seed=1234)
    config = config if config is not None else ExperimentConfig(seed=seed)
    if controllers_factory is None:
        lut = build_paper_lut(spec=spec, seed=seed)

        def controllers_factory() -> Sequence[FanController]:
            return paper_controllers(lut=lut, spec=spec, seed=seed)

    table: Dict[str, Dict[str, Table1Cell]] = {}
    for test_name, profile in tests.items():
        row: Dict[str, Table1Cell] = {}
        baseline: Optional[ExperimentMetrics] = None
        for controller in controllers_factory():
            result = run_experiment(controller, profile, spec=spec, config=config)
            savings: Optional[float] = None
            if baseline is None:
                baseline = result.metrics
            else:
                savings = net_savings_pct(baseline, result.metrics)
            row[controller.name] = Table1Cell(
                test=test_name,
                scheme=controller.name,
                metrics=result.metrics,
                net_savings_pct=savings,
                result=result,
            )
        table[test_name] = row
    return table


def render_table1(table: Dict[str, Dict[str, Table1Cell]]) -> str:
    """ASCII rendering with the paper's Table I columns."""
    header = (
        f"{'Test':<8}{'Scheme':<10}{'Energy(kWh)':>12}{'NetSave':>9}"
        f"{'Peak(W)':>9}{'MaxT(C)':>9}{'#fan':>6}{'AvgRPM':>8}"
    )
    lines = [header, "-" * len(header)]
    for test_name in sorted(table):
        for scheme, cell in table[test_name].items():
            m = cell.metrics
            savings = (
                "--"
                if cell.net_savings_pct is None
                else f"{cell.net_savings_pct:.1f}%"
            )
            lines.append(
                f"{test_name:<8}{scheme:<10}{m.energy_kwh:>12.4f}{savings:>9}"
                f"{m.peak_power_w:>9.0f}{m.max_temperature_c:>9.1f}"
                f"{m.fan_speed_changes:>6d}{m.avg_rpm:>8.0f}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# figure data series
# ----------------------------------------------------------------------
def fig1a_series(
    fan_rpms: Sequence[float] = PAPER_FAN_SPEEDS_RPM,
    spec: Optional[ServerSpec] = None,
    utilization_pct: float = 100.0,
    seed: int = 0,
) -> Dict[float, Dict[str, np.ndarray]]:
    """Fig. 1(a): CPU0 temperature vs time at 100% load per fan speed.

    Returns ``{rpm: {"time_min": ..., "cpu0_temp_c": ...}}``.
    """
    series: Dict[float, Dict[str, np.ndarray]] = {}
    for rpm in fan_rpms:
        result = run_constant_load_experiment(
            utilization_pct, rpm, spec=spec, seed=seed
        )
        series[float(rpm)] = {
            "time_min": result.column("time_s") / 60.0,
            "cpu0_temp_c": result.column("cpu0_junction_c"),
        }
    return series


def fig1b_series(
    utilizations_pct: Sequence[float] = (25.0, 50.0, 75.0, 100.0),
    fan_rpm: float = 1800.0,
    spec: Optional[ServerSpec] = None,
    seed: int = 0,
) -> Dict[float, Dict[str, np.ndarray]]:
    """Fig. 1(b): temperature vs time at 1800 RPM per utilization level.

    Returns ``{utilization: {"time_min": ..., "cpu0_temp_c": ...}}``.
    """
    series: Dict[float, Dict[str, np.ndarray]] = {}
    for u in utilizations_pct:
        result = run_constant_load_experiment(u, fan_rpm, spec=spec, seed=seed)
        series[float(u)] = {
            "time_min": result.column("time_s") / 60.0,
            "cpu0_temp_c": result.column("cpu0_junction_c"),
        }
    return series


def fig2a_series(
    spec: Optional[ServerSpec] = None,
    utilization_pct: float = 100.0,
    fan_rpms: Sequence[float] = tuple(np.arange(1800.0, 4200.0 + 1, 150.0)),
    ambient_c: float = 24.0,
) -> Dict[str, np.ndarray]:
    """Fig. 2(a): leakage, fan, and leak+fan power vs avg CPU temperature.

    The sweep walks fan speed at fixed utilization; each equilibrium
    point contributes one (temperature, powers) sample, tracing the
    convex tradeoff curve.
    """
    spec = spec if spec is not None else default_server_spec()
    grid = steady_state_map([utilization_pct], fan_rpms, spec=spec, ambient_c=ambient_c)
    points = sorted(grid.values(), key=lambda p: p.avg_junction_c)
    return {
        "temperature_c": np.array([p.avg_junction_c for p in points]),
        "fan_rpm": np.array([p.fan_rpm for p in points]),
        "leakage_w": np.array([p.cpu_leakage_w for p in points]),
        "fan_power_w": np.array([p.fan_power_w for p in points]),
        "leak_plus_fan_w": np.array([p.leak_plus_fan_w for p in points]),
    }


def fig2b_series(
    utilizations_pct: Sequence[float] = (25.0, 50.0, 60.0, 75.0, 90.0, 100.0),
    spec: Optional[ServerSpec] = None,
    fan_rpms: Sequence[float] = tuple(np.arange(1800.0, 4200.0 + 1, 150.0)),
    ambient_c: float = 24.0,
) -> Dict[float, Dict[str, np.ndarray]]:
    """Fig. 2(b): fan+leak vs temperature for several utilization levels."""
    series: Dict[float, Dict[str, np.ndarray]] = {}
    for u in utilizations_pct:
        data = fig2a_series(
            spec=spec, utilization_pct=u, fan_rpms=fan_rpms, ambient_c=ambient_c
        )
        series[float(u)] = data
    return series


def fig3_series(
    spec: Optional[ServerSpec] = None,
    profile: Optional[UtilizationProfile] = None,
    lut: Optional[LookupTable] = None,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Fig. 3: Test-3 runtime temperature/RPM traces per controller.

    Returns ``{scheme: {"time_min", "max_cpu_temp_c", "rpm", "util_pct"}}``.
    """
    spec = spec if spec is not None else default_server_spec()
    if profile is None:
        profile = paper_test_profiles(seed=1234)["test3"]
    config = config if config is not None else ExperimentConfig(seed=seed)
    series: Dict[str, Dict[str, np.ndarray]] = {}
    for controller in paper_controllers(lut=lut, spec=spec, seed=seed):
        result = run_experiment(controller, profile, spec=spec, config=config)
        series[controller.name] = {
            "time_min": result.column("time_s") / 60.0,
            "max_cpu_temp_c": result.column("max_junction_c"),
            "rpm": result.column("mean_rpm"),
            "util_pct": result.column("target_util_pct"),
        }
    return series
