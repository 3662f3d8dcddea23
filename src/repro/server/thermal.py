"""RC thermal network of the server with airflow-dependent resistances.

Topology (one branch per socket, plus the DIMM bank)::

    inlet air --preheat(DIMM power / airflow)--> CPU-local air
    CPU-local air --R_ha(rpm)--> heatsink node (C_h)
    heatsink --R_jh--> junction node (C_j) <-- socket heat input
    inlet air --R_ma(rpm)--> DIMM bank node (C_m) <-- DIMM power

Two properties of the paper's measurements drive this structure:

* Fig. 1(b) shows a *fast* 5–8 °C transient in under 30 s after a load
  step (the junction node, ``tau_j = R_jh * C_j ~ 15 s``) riding on a
  *slow* multi-minute trend (the heatsink node).
* Fig. 1(a) shows that the slow time constant itself depends on fan
  speed (~15 min to settle at 1800 RPM vs ~5 min at 4200 RPM), because
  the convective resistance ``R_ha`` scales as ``(1/rpm)**0.8``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.server.power import PowerModel
from repro.server.specs import CpuSocketSpec, ServerSpec
from repro.units import (
    airflow_heat_capacity_w_per_k,
    validate_non_negative,
    validate_temperature_c,
    validate_utilization_pct,
)

#: Largest explicit-Euler substep, seconds.  The stiffest node is the
#: junction (tau ~ 15 s); 0.5 s keeps integration error negligible.
MAX_SUBSTEP_S = 0.5

#: Convergence tolerance for the steady-state fixed point, °C.
_STEADY_TOL_C = 1e-9
_STEADY_MAX_ITERATIONS = 200


def substep_schedule(dt_s: float) -> Tuple[int, float]:
    """Explicit-Euler substep count and length for a ``dt_s`` tick.

    Returns ``(substeps, h_s)`` with ``h_s = dt_s / substeps`` and every
    substep at most :data:`MAX_SUBSTEP_S`.  Shared by
    :meth:`ThermalNetwork.step` and the execution kernels
    (:mod:`repro.engine.kernel`) so chunked and tick-by-tick integration
    use the *same* substep grid — a prerequisite for their bit-identical
    trace contract.
    """
    substeps = max(1, int(np.ceil(dt_s / MAX_SUBSTEP_S)))
    return substeps, dt_s / substeps


def convective_resistance_k_w(r_ref_k_w, rpm, rpm_ref, flow_exponent):
    """Heat-transfer resistance to a forced air stream at *rpm*.

    ``R(rpm) = R_ref * (rpm_ref / rpm) ** flow_exponent`` — the standard
    turbulent forced-convection scaling.  *rpm* (and the reference
    parameters) may be scalars or broadcastable ndarrays; the fleet
    engine evaluates whole racks of sockets in one call.
    """
    if isinstance(rpm, (int, float)):  # scalar fast path (hot loop)
        validate_non_negative(rpm, "rpm")
        if rpm == 0.0:
            raise ValueError("rpm must be positive for forced convection")
        return r_ref_k_w * (rpm_ref / rpm) ** flow_exponent
    rpm_arr = np.asarray(rpm, dtype=float)
    if not np.all(np.isfinite(rpm_arr)):
        raise ValueError(f"rpm must be finite, got {rpm!r}")
    if np.any(rpm_arr < 0.0):
        raise ValueError(f"rpm must be non-negative, got {rpm!r}")
    if np.any(rpm_arr == 0.0):
        raise ValueError("rpm must be positive for forced convection")
    return r_ref_k_w * (rpm_ref / rpm_arr) ** flow_exponent


@dataclass
class ThermalState:
    """Mutable node temperatures of the network, °C."""

    junction_c: List[float]
    heatsink_c: List[float]
    dimm_bank_c: float

    def copy(self) -> "ThermalState":
        """Return an independent copy of this state."""
        return ThermalState(
            junction_c=list(self.junction_c),
            heatsink_c=list(self.heatsink_c),
            dimm_bank_c=self.dimm_bank_c,
        )

    @property
    def max_junction_c(self) -> float:
        """Hottest junction across sockets."""
        return max(self.junction_c)

    @property
    def mean_junction_c(self) -> float:
        """Average junction temperature across sockets."""
        return sum(self.junction_c) / len(self.junction_c)


class ThermalNetwork:
    """Integrates the RC network and solves its steady state."""

    def __init__(self, spec: ServerSpec, initial_temperature_c: float = 24.0):
        validate_temperature_c(initial_temperature_c, "initial_temperature_c")
        self.spec = spec
        self.state = ThermalState(
            junction_c=[initial_temperature_c] * spec.socket_count,
            heatsink_c=[initial_temperature_c] * spec.socket_count,
            dimm_bank_c=initial_temperature_c,
        )

    # ------------------------------------------------------------------
    # resistances / preheat
    # ------------------------------------------------------------------
    def socket_air_resistance_k_w(self, socket: CpuSocketSpec, rpm: float) -> float:
        """Heatsink-to-air resistance of *socket* at fan speed *rpm*."""
        return convective_resistance_k_w(
            socket.r_heatsink_air_ref_k_w,
            rpm,
            socket.rpm_ref_thermal,
            socket.flow_exponent,
        )

    def dimm_air_resistance_k_w(self, rpm: float) -> float:
        """DIMM-bank-to-air resistance at fan speed *rpm*."""
        mem = self.spec.memory
        return convective_resistance_k_w(
            mem.r_bank_air_ref_k_w, rpm, mem.rpm_ref_thermal, mem.flow_exponent
        )

    def cpu_inlet_temperature_c(
        self, inlet_c: float, memory_power_w: float, airflow_cfm: float
    ) -> float:
        """Air temperature reaching the CPU heatsinks.

        Airflow crosses the DIMMs first (paper §III), so the DIMM power
        preheats the stream by ``f * P_mem / (m_dot * c_p)``.
        """
        validate_temperature_c(inlet_c, "inlet_c")
        validate_non_negative(memory_power_w, "memory_power_w")
        capacity = airflow_heat_capacity_w_per_k(airflow_cfm)
        if capacity <= 0.0:
            raise ValueError("airflow must be positive to cool the server")
        preheat = self.spec.memory.preheat_fraction * memory_power_w / capacity
        return inlet_c + preheat

    # ------------------------------------------------------------------
    # transient integration
    # ------------------------------------------------------------------
    def step(
        self,
        dt_s: float,
        utilization_pct: float,
        rpm: float,
        airflow_cfm: float,
        inlet_c: float,
        power_model: PowerModel,
    ) -> ThermalState:
        """Advance all node temperatures by ``dt_s`` seconds.

        Leakage is re-evaluated every substep from the instantaneous
        junction temperature, closing the leakage↔temperature feedback
        loop the paper studies.
        """
        validate_non_negative(dt_s, "dt_s")
        validate_utilization_pct(utilization_pct)
        if dt_s == 0.0:
            return self.state

        substeps, h = substep_schedule(dt_s)
        memory_power = power_model.memory_w(utilization_pct)
        cpu_inlet = self.cpu_inlet_temperature_c(inlet_c, memory_power, airflow_cfm)
        r_ma = self.dimm_air_resistance_k_w(rpm)
        r_ha = [
            self.socket_air_resistance_k_w(socket, rpm)
            for socket in self.spec.sockets
        ]

        state = self.state
        for _ in range(substeps):
            for i, socket in enumerate(self.spec.sockets):
                t_j = state.junction_c[i]
                t_h = state.heatsink_c[i]
                heat_in = power_model.socket_heat_w(socket, utilization_pct, t_j)
                q_jh = (t_j - t_h) / socket.r_junction_heatsink_k_w
                q_ha = (t_h - cpu_inlet) / r_ha[i]
                state.junction_c[i] = t_j + h * (heat_in - q_jh) / socket.c_junction_j_k
                state.heatsink_c[i] = t_h + h * (q_jh - q_ha) / socket.c_heatsink_j_k
            q_ma = (state.dimm_bank_c - inlet_c) / r_ma
            state.dimm_bank_c += (
                h * (memory_power - q_ma) / self.spec.memory.c_bank_j_k
            )
        return state

    # ------------------------------------------------------------------
    # steady state
    # ------------------------------------------------------------------
    def steady_state(
        self,
        utilization_pct: float,
        rpm: float,
        airflow_cfm: float,
        inlet_c: float,
        power_model: PowerModel,
    ) -> ThermalState:
        """Solve the equilibrium temperatures by fixed-point iteration.

        At equilibrium the heat into each junction flows through both
        resistors, so ``T_j = T_air + P(T_j) * (R_ha + R_jh)`` — a
        contraction because the leakage slope (<1 W/K per socket) times
        the total resistance is well below one.
        """
        validate_utilization_pct(utilization_pct)
        memory_power = power_model.memory_w(utilization_pct)
        cpu_inlet = self.cpu_inlet_temperature_c(inlet_c, memory_power, airflow_cfm)
        r_ma = self.dimm_air_resistance_k_w(rpm)

        junctions: List[float] = []
        heatsinks: List[float] = []
        for socket in self.spec.sockets:
            r_total = (
                self.socket_air_resistance_k_w(socket, rpm)
                + socket.r_junction_heatsink_k_w
            )
            t_j = cpu_inlet + 40.0  # any warm starting guess converges
            for _ in range(_STEADY_MAX_ITERATIONS):
                heat = power_model.socket_heat_w(socket, utilization_pct, t_j)
                t_next = cpu_inlet + heat * r_total
                if abs(t_next - t_j) < _STEADY_TOL_C:
                    t_j = t_next
                    break
                t_j = t_next
            heat = power_model.socket_heat_w(socket, utilization_pct, t_j)
            junctions.append(t_j)
            heatsinks.append(t_j - heat * socket.r_junction_heatsink_k_w)

        return ThermalState(
            junction_c=junctions,
            heatsink_c=heatsinks,
            dimm_bank_c=inlet_c + memory_power * r_ma,
        )

    def settle_to(self, state: ThermalState) -> None:
        """Overwrite the current state (e.g. jump to a steady state)."""
        if len(state.junction_c) != self.spec.socket_count:
            raise ValueError("state does not match the server socket count")
        self.state = state.copy()

    # ------------------------------------------------------------------
    # derived sensor values
    # ------------------------------------------------------------------
    def die_sensor_temperatures_c(self, sensors_per_die: int = 2) -> Tuple[float, ...]:
        """True (noise-free) per-die thermal sensor values.

        CSTH exposes two thermal sensors per die; the simulator models
        them as the junction temperature plus a small fixed spatial
        gradient.
        """
        if sensors_per_die <= 0:
            raise ValueError("sensors_per_die must be positive")
        readings: List[float] = []
        for t_j in self.state.junction_c:
            for k in range(sensors_per_die):
                offset = 1.0 * (k - (sensors_per_die - 1) / 2.0)
                readings.append(t_j + offset)
        return tuple(readings)

