"""Sensitivity studies around the paper's operating point.

The paper characterizes one machine in one 24 °C room and notes that
its lab is colder than a production aisle.  These sweeps quantify how
the headline result — the LUT controller's net savings and thermal
envelope — moves when the environment or the silicon changes:

* :func:`sweep_ambient` — deploy the 24 °C-characterized LUT into
  warmer rooms (the characterize-here / deploy-there gap),
* :func:`sweep_leakage_strength` — scale the exponential leakage
  coefficient, emulating leakier future process nodes (the paper's own
  motivation: "as technology nodes shrink, leakage becomes an
  important contributor"),
* :func:`sweep_sensor_noise` — degrade telemetry quality and watch the
  controllers' robustness.

All three ride :mod:`repro.sweep`: each sweep is a one-axis
:class:`~repro.sweep.spec.GridSpec` over the ``lut_vs_default``
scenario, so ``workers=N`` parallelizes the points and ``cache=<dir>``
makes warm re-runs free.  The returned shape is unchanged — a dict of
:class:`SensitivityPoint` keyed by the swept parameter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.experiments.metrics import ExperimentMetrics, net_savings_pct
from repro.server.specs import SensorNoiseSpec, ServerSpec
from repro.workloads.profile import UtilizationProfile


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep point: the LUT scheme against the default scheme."""

    parameter: float
    default_metrics: ExperimentMetrics
    lut_metrics: ExperimentMetrics

    @property
    def net_savings_pct(self) -> float:
        """LUT net savings over the default at this point, %."""
        return net_savings_pct(self.default_metrics, self.lut_metrics)

    @property
    def lut_max_temperature_c(self) -> float:
        """Thermal envelope of the LUT scheme at this point, °C."""
        return self.lut_metrics.max_temperature_c


def _run_pair_sweep(
    axis_name: str,
    axis_values: Sequence[float],
    base: Dict[str, Any],
    workers: int,
    cache,
) -> Dict[float, SensitivityPoint]:
    """One-axis ``lut_vs_default`` grid → {parameter: SensitivityPoint}."""
    from repro.sweep import (  # local: avoid cycle
        GridSpec,
        metrics_from_row,
        run_sweep,
    )

    grid = GridSpec(
        kind="lut_vs_default",
        base=base,
        axes={axis_name: [float(v) for v in axis_values]},
    )
    table = run_sweep(grid, workers=workers, cache=cache)
    points: Dict[float, SensitivityPoint] = {}
    for row in table.rows():
        parameter = float(row[axis_name])
        points[parameter] = SensitivityPoint(
            parameter=parameter,
            default_metrics=metrics_from_row(row, "default_"),
            lut_metrics=metrics_from_row(row, "lut_"),
        )
    return points


def sweep_ambient(
    lut,
    ambients_c: Sequence[float] = (18.0, 21.0, 24.0, 27.0, 30.0),
    spec: Optional[ServerSpec] = None,
    profile: Optional[UtilizationProfile] = None,
    seed: int = 0,
    workers: int = 1,
    cache=None,
) -> Dict[float, SensitivityPoint]:
    """Run the LUT (characterized at 24 °C) across room temperatures (°C)."""
    return _run_pair_sweep(
        "ambient_c",
        ambients_c,
        {"lut": lut, "spec": spec, "profile": profile, "seed": seed},
        workers,
        cache,
    )


def scale_leakage(spec: ServerSpec, factor: float) -> ServerSpec:
    """A spec whose exponential leakage prefactor (W) is scaled by *factor*."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    sockets = tuple(
        dataclasses.replace(socket, leak_k2_w=socket.leak_k2_w * factor)
        for socket in spec.sockets
    )
    return dataclasses.replace(spec, sockets=sockets)


def sweep_leakage_strength(
    factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    spec: Optional[ServerSpec] = None,
    profile: Optional[UtilizationProfile] = None,
    ambient_c: float = 24.0,
    seed: int = 0,
    workers: int = 1,
    cache=None,
) -> Dict[float, SensitivityPoint]:
    """Scale leakage (future nodes) and rebuild the LUT for each point.

    Unlike the ambient sweep, the LUT is *re-characterized per point* —
    leakier silicon shifts the optimum fan speeds, and the pipeline is
    expected to track that.  (No ``lut`` parameter in the grid means
    the runner rebuilds it from the scaled spec, memoized per worker.)
    """
    return _run_pair_sweep(
        "leakage_factor",
        factors,
        {
            "spec": spec,
            "profile": profile,
            "ambient_c": float(ambient_c),
            "seed": seed,
        },
        workers,
        cache,
    )


def scale_sensor_noise(spec: ServerSpec, factor: float) -> ServerSpec:
    """A spec whose sensor noise sigmas (°C, W) are scaled by *factor*."""
    if factor < 0:
        raise ValueError("factor must be non-negative")
    noise = spec.sensor_noise
    scaled = SensorNoiseSpec(
        temperature_sigma_c=noise.temperature_sigma_c * factor,
        temperature_quantum_c=noise.temperature_quantum_c,
        power_sigma_w=noise.power_sigma_w * factor,
        power_quantum_w=noise.power_quantum_w,
    )
    return dataclasses.replace(spec, sensor_noise=scaled)


def sweep_sensor_noise(
    lut,
    factors: Sequence[float] = (0.0, 1.0, 3.0, 10.0),
    spec: Optional[ServerSpec] = None,
    profile: Optional[UtilizationProfile] = None,
    ambient_c: float = 24.0,
    seed: int = 0,
    workers: int = 1,
    cache=None,
) -> Dict[float, SensitivityPoint]:
    """Degrade telemetry noise and re-run the controller comparison."""
    return _run_pair_sweep(
        "noise_factor",
        factors,
        {
            "lut": lut,
            "spec": spec,
            "profile": profile,
            "ambient_c": float(ambient_c),
            "seed": seed,
        },
        workers,
        cache,
    )
