"""Coordinated fan + DVFS controller (extension beyond the paper).

The paper's related work (its ref. [5]) manages energy with DVFS and
fan control together; the paper itself controls only the fans.  This
extension closes that gap:

1. **P-state selection** — pick the deepest p-state that still executes
   the offered load below a busy-time headroom (no throughput loss),
   exploiting the ``f · V^2`` dynamic-power scaling.
2. **Fan selection** — look up the optimum fan speed for the *executed*
   utilization, exactly as the paper's LUT does.

The controller emits fan commands through the
:class:`~repro.core.controllers.lut.LUTController` policy it extends
and p-state commands through :meth:`decide_pstate`, which every closed
loop polls right after the fan decision (see
:mod:`repro.core.controllers.base`).

.. note::
   Evaluate this controller with ``ExperimentConfig(loadgen_mode=
   "direct")``.  The paper's PWM load synthesis alternates between
   idle and 100% instantaneous demand, and an instantaneous 100%
   saturates the sockets at *any* frequency — so the windowed busy
   average reads the duty level regardless of p-state and saturation
   becomes invisible to the governor.  Real workloads (and the direct
   mode) present fractional instantaneous demand, which stretches
   observably as frequency drops.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controllers.base import ControllerObservation
from repro.core.controllers.lut import LUTController
from repro.core.lut import LookupTable
from repro.server.dvfs import DvfsSpec


class CoordinatedController(LUTController):
    """Joint p-state + LUT fan policy driven by the load monitor.

    The LUT is characterized against executed utilization, which is
    exactly what the monitor reports.
    """

    def __init__(
        self,
        lut: LookupTable,
        dvfs: DvfsSpec,
        headroom_pct: float = 90.0,
        poll_interval_s: float = 1.0,
        lockout_s: float = 60.0,
    ):
        LUTController.__init__(self, lut, poll_interval_s, lockout_s)
        if not 0.0 < headroom_pct <= 100.0:
            raise ValueError("headroom_pct must be in (0, 100]")
        self.dvfs = dvfs
        self.headroom_pct = headroom_pct
        self._pstate = 0

    @property
    def name(self) -> str:
        return "Coordinated"

    def reset(self) -> None:
        LUTController.reset(self)
        self._pstate = 0

    # ------------------------------------------------------------------
    # p-state policy
    # ------------------------------------------------------------------
    def decide_pstate(self, observation: ControllerObservation) -> Optional[int]:
        """Deepest sustainable p-state for the observed demand.

        The observed utilization is the *executed* busy fraction; to
        recover demanded work in nominal percent it is multiplied by
        the current state's frequency ratio before re-selecting.  When
        the busy fraction has reached the headroom, the true demand is
        unobservable (work is queueing behind the saturated sockets),
        so the policy escalates straight to nominal and re-descends
        from an unsaturated measurement on a later poll.
        """
        if observation.utilization_pct >= self.headroom_pct:
            target = 0
        else:
            demand_pct = min(
                100.0,
                observation.utilization_pct
                * self.dvfs.frequency_ratio(self._pstate),
            )
            target = self.dvfs.slowest_state_sustaining(
                demand_pct, headroom_pct=self.headroom_pct
            )
        if target == self._pstate:
            return None
        self._pstate = target
        return target
