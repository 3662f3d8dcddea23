"""Empirical power models and the paper's fitting methodology.

* :mod:`repro.models.leakage` — the analytical forms of Eqn. (2):
  exponential leakage, linear active power, cubic fan power,
* :mod:`repro.models.fitting` — least-squares fitting of those forms to
  characterization measurements (paper §IV "Leakage Model Fitting"),
* :mod:`repro.models.steady_state` — steady-state power/temperature
  maps used to locate the optimum fan speed per utilization.
"""

from repro.models.fitting import (
    CharacterizationSample,
    FittedPowerModel,
    FitQuality,
    fit_fan_power_model,
    fit_models,
    fit_power_model,
)
from repro.models.leakage import ActivePowerModel, FanPowerModel, LeakageModel
from repro.models.reliability import (
    ReliabilityReport,
    arrhenius_acceleration,
    coffin_manson_damage,
    fan_bearing_wear,
    integrated_thermal_aging,
    reliability_report,
)
from repro.models.steady_state import (
    SteadyStatePoint,
    steady_state_map,
    steady_state_point,
)

__all__ = [
    "ActivePowerModel",
    "FanPowerModel",
    "LeakageModel",
    "ReliabilityReport",
    "arrhenius_acceleration",
    "coffin_manson_damage",
    "fan_bearing_wear",
    "integrated_thermal_aging",
    "reliability_report",
    "CharacterizationSample",
    "FittedPowerModel",
    "FitQuality",
    "fit_fan_power_model",
    "fit_models",
    "fit_power_model",
    "SteadyStatePoint",
    "steady_state_map",
    "steady_state_point",
]
