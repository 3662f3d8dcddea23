"""The per-tick control plane shared by every fleet tick loop.

The in-process loop of :class:`~repro.fleet.engine.FleetEngine` (the
``vector`` and ``reference`` backends) and the sharded backend
(:mod:`repro.engine.sharded`) make the same per-tick decisions; each
decision has exactly one implementation here:

* :class:`TickInputs` — the tick prologue: aggregate demand, CRAC
  supply (series plus fault excursions) and the recirculated inlet;
* :class:`ControlSlice` — the controller poll over a contiguous slice
  of servers: their controllers, fan commands and poll clocks.

The in-process loop uses one slice over ``[0, N)``; each shard worker
uses one over its ``[lo, hi)``.  Placement with outage attribution is
:meth:`repro.fleet.scheduler.FleetScheduler.place`.
"""

from __future__ import annotations

from math import isnan
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.controllers.base import ControllerObservation
from repro.engine.kernel import POLL_EPS_S, plan_tick_times


class TickInputs:
    """Per-tick demand total, CRAC supply and inlet of one run.

    Profile-backed demand and CRAC supply series are evaluated once for
    the whole horizon (elementwise-stable, so identical to per-tick
    evaluation); dynamic workloads (queue-backed) are asked tick by
    tick, before the tick's physics step.  With no recirculation the
    coupling product is skipped: the offsets are an exact zero vector.
    """

    def __init__(
        self, fleet: Any, workload: Any, plan: Any, steps: int, dt_s: float
    ) -> None:
        n = fleet.server_count
        times_pre = plan_tick_times(steps, dt_s)[:steps]
        #: Start-of-tick simulation times, s.
        self.times_list: List[float] = times_pre.tolist()
        self.workload = workload
        self.totals_list: Optional[List[float]] = None
        if not workload.dynamic:
            self.totals_list = (
                workload.profile.utilization_chunk(times_pre)
                * workload.server_count
            ).tolist()
        self.plan = plan
        self.coupling = fleet.recirculation
        self.zero_offsets = np.zeros(n)
        self.supply_base = fleet.supply_temperatures_c(0.0)
        self.supply_matrix: Optional[np.ndarray] = None
        if any(rack.crac is not None for rack in fleet.racks):
            self.supply_matrix = np.empty((steps, n))
            for column, model in enumerate(fleet.supply_models()):
                self.supply_matrix[:, column] = model.temperature_chunk(
                    times_pre
                )

    def demand_total(self, tick: int) -> float:
        """Aggregate demand of ``tick``, single-server percent."""
        if self.totals_list is not None:
            return self.totals_list[tick]
        return self.workload.total_demand_pct(self.times_list[tick])

    def inlet(self, tick: int, exhaust_rise: np.ndarray) -> np.ndarray:
        """``(supply + excursion) + recirculation`` per server, °C."""
        if self.supply_matrix is not None:
            supply = self.supply_matrix[tick]
        else:
            supply = self.supply_base
        plan = self.plan
        if plan is not None and plan.has_excursions:
            supply = supply + plan.supply_delta[tick]
        if self.coupling is None:
            return supply + self.zero_offsets
        return supply + self.coupling @ exhaust_rise


class ControlSlice:
    """Controllers, fan commands and poll clocks of servers ``[lo, hi)``.

    Each controller is polled on its own cadence with its server's
    hottest and mean junction and previous-tick executed utilization;
    an injected sensor fault transforms the observation first, and a
    dropped-out (NaN) reading makes the BMC hold the last fan and
    p-state commands while the poll clock still advances.  Commands are
    validated against the server's spec and reported with the global
    server index.
    """

    def __init__(
        self,
        fleet: Any,
        controllers: Sequence[Any],
        lo: int = 0,
        plan: Any = None,
    ) -> None:
        self.fleet = fleet
        self.controllers = controllers
        self.lo = lo
        self.plan = plan
        self._decide_pstate = [
            getattr(controller, "decide_pstate", None)
            for controller in controllers
        ]
        width = len(controllers)
        #: Current fan command per server, RPM.
        self.rpm_command = np.empty(width)
        self.next_poll = np.zeros(width)
        self.next_poll_due = 0.0

    def reset(self, rpm: np.ndarray) -> None:
        """Reset every controller; command its initial (or current) rpm."""
        for li, controller in enumerate(self.controllers):
            controller.reset()
            initial = controller.initial_rpm()
            self.rpm_command[li] = self._validated_command(
                li, initial if initial is not None else float(rpm[li])
            )
        self.next_poll[:] = 0.0
        self.next_poll_due = 0.0

    def _validated_command(self, li: int, rpm: float) -> float:
        index = self.lo + int(li)
        fan = self.fleet.servers[index].fan
        if not fan.rpm_min <= rpm <= fan.rpm_max:
            raise ValueError(
                f"server {index}: rpm {rpm} outside supported range "
                f"[{fan.rpm_min}, {fan.rpm_max}]"
            )
        return float(rpm)

    def _validated_pstate(self, li: int, pstate: int) -> int:
        index = self.lo + int(li)
        ladder = self.fleet.servers[index].dvfs
        if not 0 <= pstate < len(ladder):
            raise ValueError(
                f"server {index}: p-state {pstate} outside the "
                f"{len(ladder)}-state ladder"
            )
        return int(pstate)

    def poll(
        self,
        time_s: float,
        physics: Any,
        max_junction_c: np.ndarray,
        executed: np.ndarray,
    ) -> None:
        """Poll the controllers due at ``time_s``.

        *physics* is the slice's kernel (local indices): it supplies the
        mean junction and receives p-state commands.  *max_junction_c*
        and *executed* are the slice's pre-step state.
        """
        if time_s < self.next_poll_due - POLL_EPS_S:
            return
        plan = self.plan
        transform = (
            plan.transform_observation
            if plan is not None and plan.has_sensor_faults
            else None
        )
        lo = self.lo
        controllers = self.controllers
        rpm_command = self.rpm_command
        next_poll = self.next_poll
        avg_junction_c = physics.mean_junction_c()
        for li in np.nonzero(time_s >= next_poll - POLL_EPS_S)[0]:
            controller = controllers[li]
            max_c = float(max_junction_c[li])
            avg_c = float(avg_junction_c[li])
            if transform is not None:
                max_c, avg_c = transform(lo + int(li), time_s, max_c, avg_c)
            if not (isnan(max_c) or isnan(avg_c)):
                observation = ControllerObservation(
                    time_s=time_s,
                    max_cpu_temperature_c=max_c,
                    avg_cpu_temperature_c=avg_c,
                    utilization_pct=float(executed[li]),
                    current_rpm_command=float(rpm_command[li]),
                )
                wanted = controller.decide(observation)
                if wanted is not None and wanted != rpm_command[li]:
                    rpm_command[li] = self._validated_command(li, wanted)
                # Coordinated controllers additionally command a
                # p-state, polled on the same cadence and in the same
                # order as the single-server runner.
                decide_pstate = self._decide_pstate[li]
                if decide_pstate is not None:
                    wanted_pstate = decide_pstate(observation)
                    if wanted_pstate is not None:
                        physics.set_pstate(
                            int(li),
                            self._validated_pstate(li, int(wanted_pstate)),
                        )
            # Advance past the current time: with dt_s larger than the
            # poll interval a single increment would let the poll clock
            # fall unboundedly behind the simulation.
            while time_s >= next_poll[li] - POLL_EPS_S:
                next_poll[li] += controller.poll_interval_s
        self.next_poll_due = next_poll.min()

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Fan commands and poll clocks, for a checkpoint."""
        return {
            "rpm_command": self.rpm_command.copy(),
            "next_poll": self.next_poll.copy(),
            "next_poll_due": np.float64(self.next_poll_due),
        }

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output."""
        self.rpm_command[:] = state["rpm_command"]
        self.next_poll[:] = state["next_poll"]
        self.next_poll_due = float(state["next_poll_due"])
