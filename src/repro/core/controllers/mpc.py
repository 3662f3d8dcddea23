"""Model-predictive fan controller (extension beyond the paper).

The LUT controller maps utilization straight to the steady-state
optimal fan speed.  That is optimal *if the workload stays put* — but
during transients the machine is still cold, and leakage (which is
what the fan speed trades against) depends on the temperature the
machine will actually traverse, not the equilibrium it would
eventually reach.

This controller rolls a first-order thermal prediction forward over a
finite horizon for every candidate fan speed and picks the speed with
the lowest predicted leak+fan *energy* subject to the temperature
ceiling.  All model pieces are deployable artifacts of the paper's own
pipeline: the interpolated steady-state map, the fitted exponential
leakage, the fitted cubic fan law, and a fan-speed-dependent time
constant matching the Fig. 1(a) observation
``tau(rpm) = tau_ref * (rpm_ref / rpm) ** 0.8``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.controllers.base import ControllerObservation, LockoutController
from repro.core.thermal_map import ThermalMap
from repro.models.leakage import FanPowerModel, LeakageModel


class ModelPredictiveController(LockoutController):
    """Horizon-based predictive fan speed selection."""

    def __init__(
        self,
        thermal_map: ThermalMap,
        leakage_model: LeakageModel,
        fan_power_model: FanPowerModel,
        candidates_rpm: Sequence[float] = (1800.0, 2400.0, 3000.0, 3600.0, 4200.0),
        horizon_s: float = 600.0,
        step_s: float = 30.0,
        tau_ref_s: float = 210.0,
        tau_rpm_ref: float = 1800.0,
        tau_exponent: float = 0.8,
        max_temperature_c: float = 75.0,
        poll_interval_s: float = 10.0,
        lockout_s: float = 60.0,
    ):
        if not candidates_rpm:
            raise ValueError("need at least one candidate fan speed")
        if horizon_s <= 0 or step_s <= 0 or step_s > horizon_s:
            raise ValueError("need 0 < step_s <= horizon_s")
        if tau_ref_s <= 0 or tau_rpm_ref <= 0:
            raise ValueError("tau parameters must be positive")
        LockoutController.__init__(self, poll_interval_s, lockout_s)
        self.thermal_map = thermal_map
        self.leakage_model = leakage_model
        self.fan_power_model = fan_power_model
        self.candidates_rpm = tuple(sorted(candidates_rpm))
        self.horizon_s = horizon_s
        self.step_s = step_s
        self.tau_ref_s = tau_ref_s
        self.tau_rpm_ref = tau_rpm_ref
        self.tau_exponent = tau_exponent
        self.max_temperature_c = max_temperature_c

    @property
    def name(self) -> str:
        return "MPC"

    def initial_rpm(self) -> Optional[float]:
        return self.candidates_rpm[0]

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def time_constant_s(self, rpm: float) -> float:
        """First-order thermal time constant at *rpm* (Fig. 1a scaling)."""
        if rpm <= 0:
            raise ValueError("rpm must be positive")
        return self.tau_ref_s * (self.tau_rpm_ref / rpm) ** self.tau_exponent

    def predict_horizon_energy_j(
        self, t0_c: float, utilization_pct: float, rpm: float
    ) -> tuple:
        """Predicted (leak+fan energy over the horizon, peak temperature).

        The temperature relaxes exponentially from *t0_c* toward the
        steady-state map value for (utilization, rpm).
        """
        t_ss = self.thermal_map.temperature_c(utilization_pct, rpm)
        tau = self.time_constant_s(rpm)
        fan_w = float(self.fan_power_model.power_w(rpm))
        energy = 0.0
        peak = t0_c
        steps = int(round(self.horizon_s / self.step_s))
        temp = t0_c
        for _ in range(steps):
            temp = t_ss + (temp - t_ss) * math.exp(-self.step_s / tau)
            peak = max(peak, temp)
            leak_w = float(self.leakage_model.variable_power_w(temp))
            energy += (leak_w + fan_w) * self.step_s
        return energy, peak

    # ------------------------------------------------------------------
    # policy
    # ------------------------------------------------------------------
    def decide(self, observation: ControllerObservation) -> Optional[float]:
        t0 = observation.avg_cpu_temperature_c
        util = observation.utilization_pct

        best_rpm: Optional[float] = None
        best_energy = math.inf
        fallback_rpm = self.candidates_rpm[-1]
        for rpm in self.candidates_rpm:
            energy, peak = self.predict_horizon_energy_j(t0, util, rpm)
            if peak > self.max_temperature_c:
                continue
            if energy < best_energy:
                best_energy = energy
                best_rpm = rpm
        target = best_rpm if best_rpm is not None else fallback_rpm
        return self._command(target, observation)


def build_mpc_from_characterization(
    samples,
    fitted_model,
    fan_power_model: FanPowerModel,
    **kwargs,
) -> ModelPredictiveController:
    """Assemble the MPC from the paper's offline pipeline artifacts."""
    thermal_map = ThermalMap.from_samples(samples)
    return ModelPredictiveController(
        thermal_map=thermal_map,
        leakage_model=fitted_model.leakage,
        fan_power_model=fan_power_model,
        **kwargs,
    )
