"""The composed server simulator.

:class:`ServerSimulator` wires the fan bank, power model, thermal
network, ambient model and sensors together behind the same two
interfaces the physical testbed exposes:

* *actuation* — command fan speeds (the externally-powered fan pairs),
* *observation* — noisy sensor channels (CSTH die temperatures and
  whole-system power, and the fan supplies' power).

Ground truth is also accessible for analysis and tests, clearly
separated from measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.server.ambient import AmbientModel, ConstantAmbient
from repro.server.fan import FanBank
from repro.server.faults import FaultableSensor, SensorFault
from repro.server.power import PowerBreakdown, PowerModel
from repro.server.sensors import Sensor, SensorSpec
from repro.server.specs import ServerSpec, default_server_spec
from repro.server.thermal import ThermalNetwork, ThermalState
from repro.units import validate_non_negative, validate_utilization_pct


#: Cold-start fan settle horizon, seconds (the protocol's ">= 10 minutes
#: idle"; long enough that any rotor reaches the commanded speed exactly).
COLD_START_SETTLE_S = 600.0


class CriticalTemperatureError(RuntimeError):
    """Raised when a junction exceeds the hardware critical threshold."""


@dataclass(frozen=True)
class ServerState:
    """Ground-truth snapshot of the server after a simulation step."""

    time_s: float
    #: Executed (busy-fraction) utilization — equals the demanded
    #: utilization at the nominal p-state.
    utilization_pct: float
    fan_rpms: Tuple[float, ...]
    inlet_c: float
    power: PowerBreakdown
    thermal: ThermalState
    #: Active p-state (0 = nominal).
    pstate_index: int = 0
    #: Work demanded this step, in nominal-utilization percent.
    demand_pct: float = 0.0

    @property
    def mean_fan_rpm(self) -> float:
        """Average rotor speed across the bank."""
        return sum(self.fan_rpms) / len(self.fan_rpms)

    @property
    def max_junction_c(self) -> float:
        """Hottest CPU junction temperature."""
        return self.thermal.max_junction_c


class ServerSimulator:
    """Closed-loop simulation of the enterprise server testbed."""

    def __init__(
        self,
        spec: Optional[ServerSpec] = None,
        ambient: Optional[AmbientModel] = None,
        seed: int = 0,
        initial_fan_rpm: Optional[float] = None,
        trip_on_critical: bool = True,
    ):
        self.spec = spec if spec is not None else default_server_spec()
        self.ambient = ambient if ambient is not None else ConstantAmbient(24.0)
        self.power_model = PowerModel(self.spec)
        if initial_fan_rpm is None:
            initial_fan_rpm = self.spec.default_fan_rpm
        self.fans = FanBank(
            self.spec.fan,
            fan_count=self.spec.fan_count,
            initial_rpm=initial_fan_rpm,
        )
        self.thermal = ThermalNetwork(
            self.spec, initial_temperature_c=self.ambient.temperature_c(0.0)
        )
        self.trip_on_critical = trip_on_critical

        self._rng = np.random.default_rng(seed)
        noise = self.spec.sensor_noise
        self._temp_sensor = Sensor(
            SensorSpec(noise.temperature_sigma_c, noise.temperature_quantum_c),
            self._rng,
        )
        self._power_sensor = Sensor(
            SensorSpec(noise.power_sigma_w, noise.power_quantum_w), self._rng
        )

        cpu_sensor_count = 2 * self.spec.socket_count
        self._cpu_temp_faults = [FaultableSensor() for _ in range(cpu_sensor_count)]

        self._time_s = 0.0
        self._utilization_pct = 0.0
        self._demand_pct = 0.0
        self._inlet_c = self.ambient.temperature_c(0.0)
        self._energy_j = 0.0
        self._fan_energy_j = 0.0
        self._work_deficit_pct_s = 0.0
        self._last_state = self._snapshot()

    # ------------------------------------------------------------------
    # actuation
    # ------------------------------------------------------------------
    def set_fan_rpm(self, rpm: float) -> None:
        """Command every fan pair to *rpm* (the paper's configuration)."""
        self.fans.set_all_commands(rpm)

    def set_pstate(self, index: int) -> None:
        """Command a p-state (no-op ladder on the default spec)."""
        self.power_model.set_pstate(index)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def step(self, dt_s: float, utilization_pct: float) -> ServerState:
        """Advance the server by ``dt_s`` seconds.

        *utilization_pct* is the work **demanded** in nominal-frequency
        percent; at a reduced p-state the executed busy fraction is
        stretched by ``f_nom / f`` (saturating at 100%, with the excess
        accounted as a work deficit).
        """
        validate_non_negative(dt_s, "dt_s")
        validate_utilization_pct(utilization_pct)

        pstate = self.power_model.pstate_index
        executed = self.spec.dvfs.executed_utilization_pct(utilization_pct, pstate)
        self._work_deficit_pct_s += (
            self.spec.dvfs.work_deficit_pct(utilization_pct, pstate) * dt_s
        )

        self.fans.step(dt_s)
        # Sampled *before* the time advance: this is the inlet the
        # thermal step integrates against, and the one the snapshot
        # must report (a post-advance re-read disagrees with the
        # physics under any time-varying ambient).
        inlet_c = self.ambient.temperature_c(self._time_s)
        self.thermal.step(
            dt_s=dt_s,
            utilization_pct=executed,
            rpm=self.fans.mean_rpm,
            airflow_cfm=self.fans.total_airflow_cfm(),
            inlet_c=inlet_c,
            power_model=self.power_model,
        )
        self._time_s += dt_s
        self._utilization_pct = executed
        self._demand_pct = utilization_pct
        self._inlet_c = inlet_c

        state = self._snapshot()
        self._energy_j += state.power.total_w * dt_s
        self._fan_energy_j += state.power.fan_w * dt_s
        self._last_state = state

        if (
            self.trip_on_critical
            and state.max_junction_c > self.spec.critical_temperature_c
        ):
            raise CriticalTemperatureError(
                f"junction reached {state.max_junction_c:.1f} degC at "
                f"t={self._time_s:.0f}s (critical threshold "
                f"{self.spec.critical_temperature_c} degC)"
            )
        return state

    def _snapshot(self) -> ServerState:
        breakdown = self.power_model.breakdown(
            self._utilization_pct,
            self.thermal.state.junction_c,
            self.fans.total_power_w(),
        )
        return ServerState(
            time_s=self._time_s,
            utilization_pct=self._utilization_pct,
            fan_rpms=self.fans.rpms,
            inlet_c=self._inlet_c,
            power=breakdown,
            thermal=self.thermal.state.copy(),
            pstate_index=self.power_model.pstate_index,
            demand_pct=self._demand_pct,
        )

    def settle_to_steady_state(self, utilization_pct: float) -> ServerState:
        """Jump the thermal state to equilibrium at current fan speeds.

        Emulates the paper's stabilization phases without integrating
        minutes of transient (used for steady-state characterization).
        """
        demand_pct = utilization_pct
        utilization_pct = self.spec.dvfs.executed_utilization_pct(
            utilization_pct, self.power_model.pstate_index
        )
        inlet_c = self.ambient.temperature_c(self._time_s)
        steady = self.thermal.steady_state(
            utilization_pct=utilization_pct,
            rpm=self.fans.mean_rpm,
            airflow_cfm=self.fans.total_airflow_cfm(),
            inlet_c=inlet_c,
            power_model=self.power_model,
        )
        self.thermal.settle_to(steady)
        self._utilization_pct = utilization_pct
        self._demand_pct = demand_pct
        self._inlet_c = inlet_c
        self._last_state = self._snapshot()
        return self._last_state

    def force_cold_state(self, rpm: float) -> ServerState:
        """The paper's pre-``t = 0`` cold state: rotors brought to *rpm*,
        thermal network settled at the idle equilibrium for that speed."""
        self.set_fan_rpm(rpm)
        self.fans.step(dt_s=COLD_START_SETTLE_S)
        return self.settle_to_steady_state(utilization_pct=0.0)

    # ------------------------------------------------------------------
    # observation: ground truth
    # ------------------------------------------------------------------
    @property
    def time_s(self) -> float:
        """Current simulation time, seconds."""
        return self._time_s

    @property
    def state(self) -> ServerState:
        """Most recent ground-truth snapshot."""
        return self._last_state

    @property
    def temperature_sensor(self) -> Sensor:
        """The shared die/DIMM thermal sensor channel.

        Exposed so the execution kernel can take over the simulator's
        RNG stream (pre-drawing chunk noise) without reaching into
        private state.
        """
        return self._temp_sensor

    @property
    def cpu_temp_fault_sensors(self) -> Tuple[FaultableSensor, ...]:
        """The fault wrappers of the die thermal channels.

        One per sensor in :meth:`measured_cpu_temperatures_c` order;
        exposed so the execution kernel can replay injected faults on
        its chunked reads exactly as the scalar path applies them.
        """
        return tuple(self._cpu_temp_faults)

    @property
    def energy_joules(self) -> float:
        """Whole-server energy accumulated since construction."""
        return self._energy_j

    @property
    def fan_energy_joules(self) -> float:
        """Fan-bank energy accumulated since construction."""
        return self._fan_energy_j

    @property
    def work_deficit_pct_s(self) -> float:
        """Demanded-but-unexecuted work (DVFS saturation), in %·s.

        Zero unless a controller parked the sockets in a p-state too
        slow for the offered load — the performance cost a coordinated
        fan+DVFS policy must keep at zero.
        """
        return self._work_deficit_pct_s

    # ------------------------------------------------------------------
    # observation: CSTH-style noisy channels
    # ------------------------------------------------------------------
    def inject_cpu_temp_fault(self, sensor_index: int, fault: SensorFault) -> None:
        """Inject a fault into one of the die thermal sensors.

        Sensor indices follow :meth:`measured_cpu_temperatures_c`
        ordering (two sensors per socket, socket-major).
        """
        if not 0 <= sensor_index < len(self._cpu_temp_faults):
            raise IndexError(f"cpu temp sensor {sensor_index} out of range")
        self._cpu_temp_faults[sensor_index].inject(fault)

    def measured_cpu_temperatures_c(self) -> Tuple[float, ...]:
        """The four die thermal sensors (two per socket), with noise
        and any injected faults applied."""
        healthy = self._temp_sensor.read_many(
            self.thermal.die_sensor_temperatures_c(sensors_per_die=2)
        )
        return tuple(
            faultable.transform(self._time_s, reading)
            for faultable, reading in zip(self._cpu_temp_faults, healthy)
        )

    def measured_system_power_w(self) -> float:
        """Whole-system PSU power (excludes externally powered fans)."""
        return self._power_sensor.read(self._last_state.power.compute_w)

    def measured_fan_power_w(self) -> float:
        """Fan power measured at the external supplies."""
        return self._power_sensor.read(self._last_state.power.fan_w)

