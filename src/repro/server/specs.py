"""Hardware description of the simulated enterprise server.

The paper's testbed is a presently-shipping (2013) enterprise server
with two SPARC T3 CPUs (16 cores / 128 HW threads each), 32 DIMMs and
six fans arranged in three pairs that blow front-to-back, with the
airflow crossing the DIMM banks before it reaches the CPU heatsinks.

Every physical constant in :func:`default_server_spec` is *calibrated*
against the paper's published behaviour rather than copied from a
datasheet (none is public):

* steady-state CPU temperature at 100% utilization spans roughly
  55 °C (4200 RPM) to 85 °C (1800 RPM) — Fig. 1(a);
* thermal settle time is ~15 min at 1800 RPM and ~5 min at 4200 RPM —
  Fig. 1(a);
* a utilization step causes a fast 5–8 °C junction transient in under
  30 s — Fig. 1(b);
* `P_leak + P_fan` at 100% load is convex in temperature with its
  minimum near 70 °C / 2400 RPM, and fan-only savings can reach ~30 W —
  Fig. 2(a);
* whole-server power peaks at ~710–720 W and an 80-minute mixed test
  consumes ~0.62–0.69 kWh — Table I.

The exponential leakage coefficients ``k2 = 0.3231`` and
``k3 = 0.04749`` are the paper's fitted values, used per socket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.server.dvfs import DvfsSpec
from repro.units import (
    validate_fraction,
    validate_non_negative,
    validate_temperature_c,
)


@dataclass(frozen=True)
class FanSpec:
    """Electro-mechanical description of one cooling fan.

    Fan power follows the cubic affinity law
    ``P(rpm) = power_at_ref_w * (rpm / rpm_ref) ** power_exponent`` and
    airflow the linear law ``Q(rpm) = cfm_at_ref * rpm / rpm_ref``.
    """

    rpm_min: float = 1800.0
    rpm_max: float = 4200.0
    rpm_ref: float = 4200.0
    #: Electrical power of one fan at ``rpm_ref``, watts.
    power_at_ref_w: float = 9.17
    #: Cubic law exponent (paper §I: "fan power is a cubic function").
    power_exponent: float = 3.0
    #: Effective through-chassis airflow of one fan at ``rpm_ref``, CFM.
    cfm_at_ref: float = 25.0
    #: Maximum RPM change rate while the rotor spins up/down, RPM/s.
    slew_rpm_per_s: float = 600.0

    def __post_init__(self) -> None:
        validate_non_negative(self.rpm_min, "rpm_min")
        validate_non_negative(self.power_at_ref_w, "power_at_ref_w")
        validate_non_negative(self.cfm_at_ref, "cfm_at_ref")
        validate_non_negative(self.slew_rpm_per_s, "slew_rpm_per_s")
        if self.rpm_max <= self.rpm_min:
            raise ValueError(
                f"rpm_max ({self.rpm_max}) must exceed rpm_min ({self.rpm_min})"
            )
        if self.rpm_ref <= 0:
            raise ValueError("rpm_ref must be positive")
        if self.power_exponent < 1.0:
            raise ValueError("power_exponent must be >= 1")


@dataclass(frozen=True)
class CpuSocketSpec:
    """Power and thermal description of one CPU socket.

    Power model (per socket):

    * active: ``p_idle_w + k_active_w_per_pct * utilization_pct``
    * leakage: ``leak_const_w + leak_k2_w * exp(leak_k3_per_c * T_j)``

    Thermal model: a two-node RC ladder.  The *junction* node (die +
    integrated heat spreader, small capacitance) receives the socket
    power and conducts through ``r_junction_heatsink_k_w`` into the
    *heatsink* node (large capacitance), which convects to the local
    air stream through an airflow-dependent resistance

    ``R_ha(rpm) = r_heatsink_air_ref_k_w * (rpm_ref_thermal / rpm) ** flow_exponent``
    """

    name: str = "CPU0"
    core_count: int = 16
    threads_per_core: int = 8
    #: Socket power with zero utilization (clock trees, uncore), watts.
    p_idle_w: float = 60.0
    #: Dynamic power slope, watts per percent utilization.
    k_active_w_per_pct: float = 1.75
    #: Temperature-independent leakage floor, watts.
    leak_const_w: float = 10.0
    #: Exponential leakage prefactor, watts (paper's fitted k2).
    leak_k2_w: float = 0.3231
    #: Exponential leakage temperature coefficient, 1/°C (paper's k3).
    leak_k3_per_c: float = 0.04749
    #: Junction-to-heatsink conduction resistance, K/W.
    r_junction_heatsink_k_w: float = 0.04
    #: Junction (die + spreader) heat capacity, J/K.
    c_junction_j_k: float = 375.0
    #: Heatsink-to-air resistance at ``rpm_ref_thermal``, K/W.
    r_heatsink_air_ref_k_w: float = 0.184
    #: Heatsink heat capacity, J/K.
    c_heatsink_j_k: float = 814.0
    #: Reference fan speed for ``r_heatsink_air_ref_k_w``, RPM.
    rpm_ref_thermal: float = 1800.0
    #: Convective scaling exponent (turbulent forced convection ~0.8).
    flow_exponent: float = 0.8

    def __post_init__(self) -> None:
        if self.core_count <= 0 or self.threads_per_core <= 0:
            raise ValueError("core_count and threads_per_core must be positive")
        for attr in (
            "p_idle_w",
            "k_active_w_per_pct",
            "leak_const_w",
            "leak_k2_w",
            "leak_k3_per_c",
            "r_junction_heatsink_k_w",
            "c_junction_j_k",
            "r_heatsink_air_ref_k_w",
            "c_heatsink_j_k",
            "rpm_ref_thermal",
            "flow_exponent",
        ):
            validate_non_negative(getattr(self, attr), attr)
        if self.c_junction_j_k == 0 or self.c_heatsink_j_k == 0:
            raise ValueError("thermal capacitances must be positive")

    @property
    def hardware_threads(self) -> int:
        """Total hardware threads exposed by this socket."""
        return self.core_count * self.threads_per_core


@dataclass(frozen=True)
class MemorySpec:
    """Power and thermal description of the DIMM banks.

    The DIMMs sit upstream of the CPUs in the airflow path, so their
    dissipated power preheats the air that reaches the CPU heatsinks.
    """

    #: Total DIMM power at idle, watts.
    p_idle_w: float = 30.0
    #: Additional DIMM power per percent CPU utilization, watts/%.
    k_active_w_per_pct: float = 0.5
    #: DIMM-bank-to-air resistance at ``rpm_ref_thermal``, K/W.
    r_bank_air_ref_k_w: float = 0.49
    #: DIMM bank heat capacity, J/K.
    c_bank_j_k: float = 3000.0
    rpm_ref_thermal: float = 1800.0
    flow_exponent: float = 0.8
    #: Fraction of DIMM power carried downstream into the CPU inlet air.
    preheat_fraction: float = 0.85

    def __post_init__(self) -> None:
        for attr in (
            "p_idle_w",
            "k_active_w_per_pct",
            "r_bank_air_ref_k_w",
            "c_bank_j_k",
            "rpm_ref_thermal",
            "flow_exponent",
        ):
            validate_non_negative(getattr(self, attr), attr)
        validate_fraction(self.preheat_fraction, "preheat_fraction")


@dataclass(frozen=True)
class SensorNoiseSpec:
    """Gaussian noise / quantization applied to telemetry channels."""

    temperature_sigma_c: float = 0.4
    temperature_quantum_c: float = 0.25
    power_sigma_w: float = 2.0
    power_quantum_w: float = 0.5

    def __post_init__(self) -> None:
        for attr in (
            "temperature_sigma_c",
            "temperature_quantum_c",
            "power_sigma_w",
            "power_quantum_w",
        ):
            validate_non_negative(getattr(self, attr), attr)


@dataclass(frozen=True)
class ServerSpec:
    """Complete server description used by :class:`ServerSimulator`."""

    sockets: Tuple[CpuSocketSpec, ...] = field(
        default_factory=lambda: (
            CpuSocketSpec(name="CPU0"),
            CpuSocketSpec(name="CPU1"),
        )
    )
    memory: MemorySpec = field(default_factory=MemorySpec)
    fan: FanSpec = field(default_factory=FanSpec)
    #: Number of fans in the chassis (three rows of two).
    fan_count: int = 6
    #: Constant board / PSU-overhead / disk power, watts.
    board_power_w: float = 106.0
    sensor_noise: SensorNoiseSpec = field(default_factory=SensorNoiseSpec)
    #: Hardware critical threshold — exceeding it shuts the server down.
    critical_temperature_c: float = 90.0
    #: Reliability-motivated operational ceiling (paper §IV).
    target_max_temperature_c: float = 75.0
    #: Default firmware fan setting ("close to a fixed 3300 RPM").
    default_fan_rpm: float = 3300.0
    #: Voltage/frequency ladder.  The default is nominal-only, which
    #: reproduces the paper's fixed-frequency testbed; pass
    #: :func:`repro.server.dvfs.default_dvfs_ladder` to study the
    #: coordinated fan + DVFS extension.
    dvfs: DvfsSpec = field(default_factory=DvfsSpec)

    def __post_init__(self) -> None:
        if not self.sockets:
            raise ValueError("server needs at least one CPU socket")
        if self.fan_count <= 0:
            raise ValueError("fan_count must be positive")
        validate_non_negative(self.board_power_w, "board_power_w")
        validate_temperature_c(self.critical_temperature_c, "critical_temperature_c")
        validate_temperature_c(self.target_max_temperature_c, "target_max_temperature_c")
        if self.target_max_temperature_c >= self.critical_temperature_c:
            raise ValueError(
                "target_max_temperature_c must be below critical_temperature_c"
            )
        if not self.fan.rpm_min <= self.default_fan_rpm <= self.fan.rpm_max:
            raise ValueError(
                f"default_fan_rpm {self.default_fan_rpm} outside fan range "
                f"[{self.fan.rpm_min}, {self.fan.rpm_max}]"
            )

    @property
    def socket_count(self) -> int:
        """Number of CPU sockets."""
        return len(self.sockets)

    @property
    def hardware_threads(self) -> int:
        """Total hardware threads across all sockets (256 on the T3 box)."""
        return sum(socket.hardware_threads for socket in self.sockets)


def default_server_spec() -> ServerSpec:
    """Return the calibrated SPARC-T3-class server specification.

    This is the single source of ground truth for every experiment in
    the reproduction; see the module docstring for the calibration
    targets each constant satisfies.
    """
    return ServerSpec()
