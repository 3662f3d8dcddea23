"""Least-squares fitting of the empirical power decomposition.

The paper's methodology (§IV): the testbed separately measures fan
power (external supplies) and compute power (the server PSU), so the
measured compute power at utilization ``U`` and average CPU temperature
``T`` is modeled as

``P_compute(U, T) = C + k1 * U + k2 * exp(k3 * T)``

where ``C`` absorbs every constant contribution (board, PSU overhead,
idle floors, temperature-independent leakage).  Fitting over the whole
characterization grid — utilization in {10..100}% crossed with fan
speeds in {1800..4200} RPM — identifies ``k1, C, k2, k3``.  The paper
reports a 2.243 W RMS error and ~98% accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.models.leakage import ActivePowerModel, FanPowerModel, LeakageModel
from repro.units import validate_non_negative


@dataclass(frozen=True)
class CharacterizationSample:
    """One steady-state measurement from the characterization sweep."""

    utilization_pct: float
    fan_rpm: float
    avg_cpu_temperature_c: float
    #: Server PSU power (everything except externally powered fans), W.
    compute_power_w: float
    #: Fan bank power measured at the external supplies, W.
    fan_power_w: float


@dataclass(frozen=True)
class FitQuality:
    """Goodness-of-fit metrics for a model fit."""

    rmse_w: float
    max_abs_error_w: float
    r_squared: float

    @property
    def accuracy_pct(self) -> float:
        """``100 * R^2`` — the paper's "98% accuracy" convention."""
        return 100.0 * self.r_squared


@dataclass(frozen=True)
class FittedPowerModel:
    """The identified decomposition ``C + k1*U + k2*exp(k3*T)``."""

    c_w: float
    k1_w_per_pct: float
    k2_w: float
    k3_per_c: float
    quality: FitQuality

    @property
    def active(self) -> ActivePowerModel:
        """The active-power component."""
        return ActivePowerModel(k1_w_per_pct=self.k1_w_per_pct)

    @property
    def leakage(self) -> LeakageModel:
        """The leakage component (constant C attributed here)."""
        return LeakageModel(c_w=self.c_w, k2_w=self.k2_w, k3_per_c=self.k3_per_c)

    def predict_compute_power_w(self, utilization_pct, temperature_c):
        """Predicted PSU power at (U, T)."""
        u = np.asarray(utilization_pct, dtype=float)
        t = np.asarray(temperature_c, dtype=float)
        result = self.c_w + self.k1_w_per_pct * u + self.k2_w * np.exp(
            self.k3_per_c * t
        )
        if np.isscalar(utilization_pct) and np.isscalar(temperature_c):
            return float(result)
        return result

    def leakage_variable_w(self, temperature_c):
        """Temperature-dependent leakage term ``k2 * exp(k3*T)``."""
        return self.leakage.variable_power_w(temperature_c)


def _fit_quality(measured: np.ndarray, predicted: np.ndarray) -> FitQuality:
    residual = measured - predicted
    rmse = float(np.sqrt(np.mean(residual**2)))
    max_abs = float(np.max(np.abs(residual)))
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((measured - np.mean(measured)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitQuality(rmse_w=rmse, max_abs_error_w=max_abs, r_squared=r_squared)


def fit_power_model(
    samples: Sequence[CharacterizationSample],
    k3_bounds: Tuple[float, float] = (1e-4, 0.2),
) -> FittedPowerModel:
    """Identify ``C, k1, k2, k3`` from characterization samples.

    Strategy: for a trial ``k3``, the model is linear in
    ``(C, k1, k2)`` and solved exactly by least squares; a bounded
    scalar minimization over ``k3`` then finds the best exponent.  This
    is far more robust than a 4-parameter ``curve_fit`` because the
    exponential prefactor and exponent are strongly correlated.
    """
    if len(samples) < 4:
        raise ValueError("need at least 4 samples to identify 4 parameters")
    u = np.array([s.utilization_pct for s in samples])
    t = np.array([s.avg_cpu_temperature_c for s in samples])
    p = np.array([s.compute_power_w for s in samples])

    if np.ptp(u) == 0.0:
        raise ValueError("samples must span multiple utilization levels")
    if np.ptp(t) == 0.0:
        raise ValueError("samples must span multiple temperatures")

    def linear_solve(k3: float) -> Tuple[np.ndarray, float]:
        design = np.column_stack([np.ones_like(u), u, np.exp(k3 * t)])
        coeffs, _, _, _ = np.linalg.lstsq(design, p, rcond=None)
        residual = p - design @ coeffs
        return coeffs, float(np.sum(residual**2))

    result = optimize.minimize_scalar(
        lambda k3: linear_solve(k3)[1],
        bounds=k3_bounds,
        method="bounded",
        options={"xatol": 1e-7},
    )
    k3 = float(result.x)
    (c_w, k1, k2), _ = linear_solve(k3)

    if k2 < 0:
        # A negative prefactor means the data shows no positive
        # temperature dependence; refit without the exponential term.
        design = np.column_stack([np.ones_like(u), u])
        (c_w, k1), _, _, _ = np.linalg.lstsq(design, p, rcond=None)
        k2, k3 = 0.0, 0.0

    fitted = FittedPowerModel(
        c_w=float(c_w),
        k1_w_per_pct=float(max(k1, 0.0)),
        k2_w=float(max(k2, 0.0)),
        k3_per_c=float(k3),
        quality=_fit_quality(p, c_w + k1 * u + k2 * np.exp(k3 * t)),
    )
    return fitted


def fit_fan_power_model(
    rpms: Sequence[float],
    powers_w: Sequence[float],
    rpm_ref: float = 4200.0,
) -> FanPowerModel:
    """Fit the cubic-law fan model to measured (rpm, power) pairs.

    The exponent is fitted too, verifying the "fan power is a cubic
    function of fan speed" premise rather than assuming it.
    """
    rpms_arr = np.asarray(rpms, dtype=float)
    powers_arr = np.asarray(powers_w, dtype=float)
    if rpms_arr.shape != powers_arr.shape or rpms_arr.size < 2:
        raise ValueError("need at least two (rpm, power) pairs")
    validate_non_negative(float(np.min(powers_arr)), "fan power")
    if np.any(rpms_arr <= 0):
        raise ValueError("rpms must be positive")

    # log(P) = log(coeff) + n * log(rpm / rpm_ref): linear in logs.
    mask = powers_arr > 0
    if mask.sum() < 2:
        raise ValueError("need at least two positive power samples")
    x = np.log(rpms_arr[mask] / rpm_ref)
    y = np.log(powers_arr[mask])
    exponent, log_coeff = np.polyfit(x, y, 1)
    return FanPowerModel(
        coeff_w=float(np.exp(log_coeff)),
        exponent=float(exponent),
        rpm_ref=rpm_ref,
    )


def fit_models(
    samples: Sequence[CharacterizationSample],
) -> Tuple[FittedPowerModel, FanPowerModel]:
    """Both fits of *samples*: ``(fit_power_model, fit_fan_power_model)``."""
    fitted = fit_power_model(samples)
    fan = fit_fan_power_model(
        [s.fan_rpm for s in samples], [s.fan_power_w for s in samples]
    )
    return fitted, fan
