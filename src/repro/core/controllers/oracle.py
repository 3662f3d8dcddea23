"""Oracle controller with perfect model knowledge (extension).

Upper-bounds what any utilization-driven policy can achieve: it solves
the ground-truth steady-state optimization for the *observed*
utilization at every poll, with no lookup-table quantization.  The gap
between the LUT controller and this oracle measures how much the
paper's discrete characterization grid costs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.controllers.base import ControllerObservation, LockoutController
from repro.models.steady_state import steady_state_point
from repro.server.specs import ServerSpec, default_server_spec


class OracleController(LockoutController):
    """Per-poll ground-truth optimum fan speed for the observed load."""

    def __init__(
        self,
        spec: Optional[ServerSpec] = None,
        candidates_rpm: Sequence[float] = (
            1800.0,
            2100.0,
            2400.0,
            2700.0,
            3000.0,
            3300.0,
            3600.0,
            3900.0,
            4200.0,
        ),
        max_temperature_c: float = 75.0,
        ambient_c: float = 24.0,
        poll_interval_s: float = 1.0,
        lockout_s: float = 60.0,
        utilization_quantum_pct: float = 5.0,
    ):
        if not candidates_rpm:
            raise ValueError("need at least one candidate speed")
        LockoutController.__init__(self, poll_interval_s, lockout_s)
        if utilization_quantum_pct <= 0:
            raise ValueError("utilization_quantum_pct must be positive")
        self.spec = spec if spec is not None else default_server_spec()
        self.candidates_rpm = tuple(sorted(candidates_rpm))
        self.max_temperature_c = max_temperature_c
        self.ambient_c = ambient_c
        self.utilization_quantum_pct = utilization_quantum_pct
        self._cache: Dict[float, float] = {}

    @property
    def name(self) -> str:
        return "Oracle"

    def initial_rpm(self) -> Optional[float]:
        return self._optimal_rpm(0.0)

    def _optimal_rpm(self, utilization_pct: float) -> float:
        quantum = self.utilization_quantum_pct
        level = min(100.0, round(utilization_pct / quantum) * quantum)
        if level in self._cache:
            return self._cache[level]

        best_rpm: Optional[float] = None
        best_objective = float("inf")
        coolest_rpm = self.candidates_rpm[-1]
        for rpm in self.candidates_rpm:
            point = steady_state_point(
                level, rpm, spec=self.spec, ambient_c=self.ambient_c
            )
            if point.max_junction_c > self.max_temperature_c:
                continue
            if point.leak_plus_fan_w < best_objective:
                best_objective = point.leak_plus_fan_w
                best_rpm = rpm
        rpm = best_rpm if best_rpm is not None else coolest_rpm
        self._cache[level] = rpm
        return rpm

    def decide(self, observation: ControllerObservation) -> Optional[float]:
        return self._command(
            self._optimal_rpm(observation.utilization_pct), observation
        )
