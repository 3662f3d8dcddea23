"""Ground-truth power model of the simulated server.

The decomposition mirrors the paper's Eqn. (1):

``P_total = P_active(U) + P_leak(T) + P_fan(rpm)``

with the additional always-on terms (board/PSU overhead, DIMM power,
per-socket idle floors) that the paper's fitted constant ``C`` absorbs.
Leakage follows the paper's Eqn. (2) per socket:
``P_leak = C + k2 * exp(k3 * T_junction)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.server.specs import CpuSocketSpec, ServerSpec
from repro.units import validate_temperature_c, validate_utilization_pct

#: Leakage is evaluated at min(T, this) to keep the exponential finite
#: during thermal-runaway scenarios (exp leakage has positive feedback:
#: past the point where its slope exceeds 1/R_thermal the temperature
#: diverges; silicon would long have shut down, so the clamp only
#: affects simulations run with the critical trip disabled).
LEAKAGE_EVAL_MAX_C = 150.0


def scalar_leakage_w(
    leak_const_w: float,
    leak_k2_w: float,
    leak_k3_per_c: float,
    t_junction_c: float,
) -> float:
    """Eqn. (2) leakage for one socket at one temperature, via
    :func:`math.exp`.

    This is the scalar arithmetic path the single-server trace contract
    is pinned to: ``math.exp`` and ``np.exp`` are *not* bit-identical
    on all platforms, so the execution kernel's N=1 substep loop (which
    inlines this exact expression) and :class:`PowerModel` must share
    it rather than the vectorized form below.
    """
    t_eval = min(float(t_junction_c), LEAKAGE_EVAL_MAX_C)
    return leak_const_w + leak_k2_w * math.exp(leak_k3_per_c * t_eval)


def leakage_power_w(
    leak_const_w,
    leak_k2_w,
    leak_k3_per_c,
    t_junction_c,
):
    """Eqn. (2) leakage, array-friendly.

    Every argument may be a scalar or a broadcastable ndarray, so the
    fleet engine can evaluate whole racks of sockets in one call.  The
    scalar branch avoids numpy's per-call scalar overhead — this sits
    inside the thermal substep loop.
    """
    if all(
        isinstance(arg, (int, float))
        for arg in (leak_const_w, leak_k2_w, leak_k3_per_c, t_junction_c)
    ):
        return scalar_leakage_w(
            leak_const_w, leak_k2_w, leak_k3_per_c, t_junction_c
        )
    t_eval = np.minimum(t_junction_c, LEAKAGE_EVAL_MAX_C)
    return leak_const_w + leak_k2_w * np.exp(leak_k3_per_c * t_eval)


def leakage_slope_w_per_c(
    leak_k2_w,
    leak_k3_per_c,
    t_junction_c,
):
    """Marginal leakage cost ``dP_leak/dT_j`` of Eqn. (2), W/°C.

    Array-friendly like :func:`leakage_power_w`; evaluated at the
    clamped temperature so both stay consistent.  The fleet's
    leakage-aware placement ranks servers by this slope.
    """
    t_eval = np.minimum(t_junction_c, LEAKAGE_EVAL_MAX_C)
    return leak_k2_w * leak_k3_per_c * np.exp(leak_k3_per_c * t_eval)


def active_power_w(
    p_idle_w,
    k_active_w_per_pct,
    utilization_pct,
    static_scale=1.0,
    dynamic_scale=1.0,
):
    """Active (idle floor + dynamic) power, array-friendly.

    The scales are the p-state ``V^2`` / ``f·V^2`` factors; at the
    nominal state both are 1.
    """
    return (
        p_idle_w * static_scale
        + k_active_w_per_pct * utilization_pct * dynamic_scale
    )


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous power decomposition of the whole server, watts."""

    board_w: float
    memory_w: float
    cpu_active_w: float
    cpu_leakage_w: float
    fan_w: float

    @property
    def total_w(self) -> float:
        """Whole-server wall power."""
        return (
            self.board_w
            + self.memory_w
            + self.cpu_active_w
            + self.cpu_leakage_w
            + self.fan_w
        )

    @property
    def compute_w(self) -> float:
        """Power through the server PSU (everything except the fans,
        which the testbed powers externally)."""
        return self.total_w - self.fan_w


class PowerModel:
    """Evaluates the ground-truth power decomposition for a spec.

    The model carries one piece of mutable state: the current p-state
    index (always 0 — nominal — unless the spec defines a DVFS ladder
    and a controller commands a deeper state).  Utilization arguments
    are *executed* (busy-fraction) utilization; the simulator converts
    demanded work to executed utilization per the active p-state.
    """

    def __init__(self, spec: ServerSpec):
        self.spec = spec
        self._pstate_index = 0

    # ------------------------------------------------------------------
    # DVFS state
    # ------------------------------------------------------------------
    @property
    def pstate_index(self) -> int:
        """Currently active p-state (0 = nominal)."""
        return self._pstate_index

    def set_pstate(self, index: int) -> None:
        """Switch the sockets to p-state *index* (validated)."""
        self.spec.dvfs.state(index)  # raises IndexError if out of range
        self._pstate_index = index

    # ------------------------------------------------------------------
    # per-component terms
    # ------------------------------------------------------------------
    def socket_active_w(self, socket: CpuSocketSpec, utilization_pct: float) -> float:
        """Active (dynamic + idle-floor) power of one socket.

        At reduced p-states the idle floor scales with ``V^2`` and the
        per-percent dynamic slope with ``f * V^2``.
        """
        validate_utilization_pct(utilization_pct)
        dvfs = self.spec.dvfs
        return float(
            active_power_w(
                socket.p_idle_w,
                socket.k_active_w_per_pct,
                utilization_pct,
                static_scale=dvfs.static_power_scale(self._pstate_index),
                dynamic_scale=dvfs.dynamic_power_scale(self._pstate_index),
            )
        )

    def socket_leakage_w(self, socket: CpuSocketSpec, t_junction_c: float) -> float:
        """Leakage power of one socket at junction temperature ``T_j``."""
        validate_temperature_c(t_junction_c, "t_junction_c")
        return float(
            leakage_power_w(
                socket.leak_const_w,
                socket.leak_k2_w,
                socket.leak_k3_per_c,
                t_junction_c,
            )
        )

    def memory_w(self, utilization_pct: float) -> float:
        """DIMM-bank power as a function of CPU utilization."""
        validate_utilization_pct(utilization_pct)
        mem = self.spec.memory
        return mem.p_idle_w + mem.k_active_w_per_pct * utilization_pct

    def board_w(self) -> float:
        """Constant board / PSU-overhead / disk power."""
        return self.spec.board_power_w

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def breakdown(
        self,
        utilization_pct: float,
        junction_temps_c: Sequence[float],
        fan_power_w: float,
    ) -> PowerBreakdown:
        """Full-server power decomposition.

        Parameters
        ----------
        utilization_pct:
            Instantaneous CPU utilization, evenly spread across sockets
            (LoadGen guarantees even spreading).
        junction_temps_c:
            One junction temperature per socket, in spec order.
        fan_power_w:
            Aggregate fan-bank electrical power.
        """
        if len(junction_temps_c) != self.spec.socket_count:
            raise ValueError(
                f"expected {self.spec.socket_count} junction temperatures, "
                f"got {len(junction_temps_c)}"
            )
        active = sum(
            self.socket_active_w(socket, utilization_pct)
            for socket in self.spec.sockets
        )
        leakage = sum(
            self.socket_leakage_w(socket, t_j)
            for socket, t_j in zip(self.spec.sockets, junction_temps_c)
        )
        return PowerBreakdown(
            board_w=self.board_w(),
            memory_w=self.memory_w(utilization_pct),
            cpu_active_w=active,
            cpu_leakage_w=leakage,
            fan_w=fan_power_w,
        )

    def socket_heat_w(
        self, socket: CpuSocketSpec, utilization_pct: float, t_junction_c: float
    ) -> float:
        """Heat dissipated into one socket's junction node (active + leak)."""
        return self.socket_active_w(socket, utilization_pct) + self.socket_leakage_w(
            socket, t_junction_c
        )

    def static_idle_w(self) -> float:
        """Power that fan control cannot influence: board + idle DIMM +
        socket idle floors, *excluding* leakage and fan power.

        Table I's "net savings" subtract exactly this component (the
        paper: "we discard the idle server power as that part of the
        consumption is dependent on the server hardware configuration
        and cannot be influenced by the fan control").
        """
        return (
            self.spec.board_power_w
            + self.spec.memory.p_idle_w
            + sum(socket.p_idle_w for socket in self.spec.sockets)
        )
