"""Streaming fleet-scale anomaly detection with ground-truth scoring.

This carries the seed's single-channel prognostics (the MSET-style
residuals and SPRT of :mod:`repro.telemetry.anomaly`) to all N servers
of a fleet and runs them *incrementally* — one tick at a time, no
full-trace lookback — so the same code serves batch replay and the
live ``repro serve`` loop.  Its :class:`VectorSprt` bank restarts
differently from the scalar ``SprtDetector`` (see its docstring).

Residual construction
---------------------
The hard part of fleet monitoring is a residual that is sensitive at
any operating point without a model of the whole operating envelope
(a warm-up window at 3 a.m. never covers the noon peak).  Three
channel monitors, each a different residual feeding a vectorized SPRT
bank:

* **junction** — per-tick *cross-sectional peer fit*: regress each
  server's EWMA-smoothed junction on its EWMA-smoothed power across
  the healthy servers at that instant (Theil–Sen median slope), and
  take the deviation from that line, minus a per-server offset learnt
  during warm-up.  The fit is refreshed every tick from the current
  peers, so there is no extrapolation: whatever the fleet's operating
  point, healthy servers define "normal" and a lying sensor sticks
  out.  Already-alarmed servers are excluded from the peer statistics
  so one fault does not poison the baseline for the rest.
* **inlet** — deviation from the per-server warm-up mean inlet; CRAC
  excursions move half a rack together, which the peer fit would
  absorb but an absolute baseline catches.
* **availability** — a zero-utilization streak longer than
  ``availability_hold_s`` while the rest of the fleet is serving
  demand.  An outage is *not* a sensor anomaly (the telemetry
  truthfully reports an idle machine), so it needs this capacity
  heuristic rather than a residual.

Scoring
-------
:func:`score_alerts` joins an alert list against a
:class:`~repro.fleet.faults.FaultSchedule` to produce a
:class:`DetectionReport`: per-event time-to-detect, per-class recall,
and the false-positive rate on healthy server-hours — the paper's
"detect degradation early" claim made measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.faults import (
    CracExcursionEvent,
    FanDegradationEvent,
    FaultSchedule,
    SensorFaultEvent,
    ServerOutageEvent,
)
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Alert",
    "DetectorConfig",
    "DetectionReport",
    "EventOutcome",
    "StreamingFleetDetector",
    "VectorSprt",
    "replay_channels",
    "score_alerts",
]


# ----------------------------------------------------------------------
# vectorized SPRT bank
# ----------------------------------------------------------------------
class VectorSprt:
    """N independent two-sided Wald SPRTs advanced in one array op.

    One test per server accumulates the log-likelihood ratio for a
    mean shift of ``±shift`` in N(0, sigma²) noise and alarms at the
    H1 boundary ``log((1 - β) / α)``.  Its restart rule differs from
    the scalar :class:`~repro.telemetry.anomaly.SprtDetector`:

    * here a statistic is floored at the H0 boundary
      ``log(β / (1 - α))`` (−13.8 at α = β = 1e-6) and restarts from
      zero only after an alarm, so a persisting fault re-alarms;
    * ``SprtDetector`` resets a statistic to zero when it reaches the
      H0 boundary (accepting H0), and its alarm stays on.

    A shift must first cancel the healthy evidence stored at the floor,
    so this bank alarms later: at a 2σ mean shift (σ = 1, shift = 4)
    it took a median 53 samples to ``SprtDetector``'s 27.5.
    """

    def __init__(
        self,
        count: int,
        sigma: np.ndarray,
        shift: np.ndarray,
        false_alarm: float = 1e-6,
        missed_alarm: float = 1e-6,
    ):
        if count < 1:
            raise ValueError("count must be >= 1")
        sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (count,))
        shift = np.broadcast_to(np.asarray(shift, dtype=float), (count,))
        if np.any(sigma <= 0) or np.any(shift <= 0):
            raise ValueError("sigma and shift must be positive")
        if not (0 < false_alarm < 1 and 0 < missed_alarm < 1):
            raise ValueError("alarm probabilities must be in (0, 1)")
        self.count = count
        self.sigma = sigma.copy()
        self.shift = shift.copy()
        self._upper = math.log((1.0 - missed_alarm) / false_alarm)
        self._lower = math.log(missed_alarm / (1.0 - false_alarm))
        self._llr_pos = np.zeros(count)
        self._llr_neg = np.zeros(count)

    @property
    def statistic(self) -> np.ndarray:
        """Max of the positive/negative-shift LLR statistics."""
        return np.maximum(self._llr_pos, self._llr_neg)

    def update(self, residuals: np.ndarray) -> np.ndarray:
        """Advance every test one step; returns the alarm mask.

        Non-finite residuals (a dropped-out sensor reads NaN) alarm
        immediately, mirroring the scalar detector.  Alarmed tests
        restart from zero, so a persisting fault re-alarms.
        """
        residuals = np.asarray(residuals, dtype=float)
        finite = np.isfinite(residuals)
        r = np.where(finite, residuals, 0.0)
        var = self.sigma**2
        inc_pos = self.shift * (r - self.shift / 2.0) / var
        inc_neg = -self.shift * (r + self.shift / 2.0) / var
        self._llr_pos = np.maximum(self._llr_pos + inc_pos, self._lower)
        self._llr_neg = np.maximum(self._llr_neg + inc_neg, self._lower)
        alarmed = (
            (self._llr_pos >= self._upper)
            | (self._llr_neg >= self._upper)
            | ~finite
        )
        self._llr_pos[alarmed] = 0.0
        self._llr_neg[alarmed] = 0.0
        return alarmed


# ----------------------------------------------------------------------
# alerts and configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Alert:
    """One detection: *channel* on *server* alarmed at *time_s*."""

    time_s: float
    server: int
    channel: str
    residual: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (served at ``/alerts``)."""
        return {
            "time_s": self.time_s,
            "server": self.server,
            "channel": self.channel,
            "residual": None if not math.isfinite(self.residual) else self.residual,
        }


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning for :class:`StreamingFleetDetector`.

    Defaults are calibrated on the fleet drill scenarios: tight enough
    to catch a stuck sensor within a few ticks, loose enough that the
    fault-free golden traces produce zero alerts.
    """

    #: Baseline-learning window (no alerts emitted inside it), seconds.
    warmup_s: float = 1800.0
    #: EWMA time constant for junction smoothing, seconds.
    tau_junction_s: float = 300.0
    #: EWMA time constant for power smoothing, seconds.
    tau_power_s: float = 600.0
    #: SPRT mean-shift to detect, in units of the residual sigma.
    shift_sigmas: float = 8.0
    #: SPRT error probabilities.
    false_alarm: float = 1e-6
    missed_alarm: float = 1e-6
    #: Lower bounds on the learnt residual sigmas.  Lockstep fleets
    #: otherwise learn a degenerate near-zero sigma in warm-up, and
    #: the floors also set the SPRT dead zone
    #: (``shift_sigmas * floor / 2``) above the brief peer-statistic
    #: transients seen while a fresh fault is being isolated.
    sigma_floor_junction_c: float = 1.25
    sigma_floor_inlet_c: float = 0.5
    #: Minimum cross-sectional EWMA-power spread (W) for a meaningful
    #: Theil–Sen slope; below it the peer fit falls back to the median.
    min_peer_spread_w: float = 20.0
    #: Zero-utilization streak that flags an outage, seconds.
    availability_hold_s: float = 900.0
    #: Fleet must be serving at least this much total load (percent of
    #: one server) for idle streaks to count toward an outage.
    min_fleet_util_pct: float = 5.0
    #: Consecutive in-band ticks before a latched alarm clears.
    recovery_ticks: int = 10

    def __post_init__(self) -> None:
        if self.warmup_s <= 0:
            raise ValueError("warmup_s must be positive")
        if self.tau_junction_s <= 0 or self.tau_power_s <= 0:
            raise ValueError("EWMA time constants must be positive")
        if self.shift_sigmas <= 0:
            raise ValueError("shift_sigmas must be positive")
        if self.availability_hold_s <= 0:
            raise ValueError("availability_hold_s must be positive")


# ----------------------------------------------------------------------
# streaming detector
# ----------------------------------------------------------------------
class StreamingFleetDetector:
    """Incremental fleet anomaly detector (one call per tick).

    Feed per-tick channel vectors via :meth:`observe_tick`; alerts
    accumulate on :attr:`alerts` and are also returned per call.  The
    detector keeps O(N) state (EWMAs, SPRT statistics, streak
    counters) — nothing grows with the horizon, so it can run forever
    under the live service.

    With fewer than three servers the cross-sectional junction monitor
    is inert (there is no peer population to define "normal"); the
    inlet and availability monitors still operate.
    """

    def __init__(
        self,
        server_count: int,
        dt_s: float,
        config: Optional[DetectorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if server_count < 1:
            raise ValueError("server_count must be >= 1")
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        self.server_count = server_count
        self.dt_s = dt_s
        self.config = config or DetectorConfig()
        n = server_count
        cfg = self.config

        self._alpha_j = 1.0 - math.exp(-dt_s / cfg.tau_junction_s)
        self._alpha_p = 1.0 - math.exp(-dt_s / cfg.tau_power_s)
        self._ewma_j = np.full(n, np.nan)
        self._ewma_p = np.full(n, np.nan)

        # Warm-up accumulators (peer residuals and inlet levels).
        self._warm_ticks = 0
        self._warm_j_sum = np.zeros(n)
        self._warm_j_sumsq = np.zeros(n)
        self._warm_i_sum = np.zeros(n)
        self._warm_i_sumsq = np.zeros(n)
        self._start_time: Optional[float] = None
        self._ready = False

        self._offset_j = np.zeros(n)
        self._offset_i = np.zeros(n)
        self._sprt_j: Optional[VectorSprt] = None
        self._sprt_i: Optional[VectorSprt] = None

        #: Latched alarm state per channel (used for peer exclusion
        #: and duplicate suppression); cleared after recovery.
        self._latched: Dict[str, np.ndarray] = {
            "junction": np.zeros(n, dtype=bool),
            "inlet": np.zeros(n, dtype=bool),
            "availability": np.zeros(n, dtype=bool),
        }
        self._recovery: Dict[str, np.ndarray] = {
            "junction": np.zeros(n, dtype=np.int64),
            "inlet": np.zeros(n, dtype=np.int64),
        }
        self._idle_streak_s = np.zeros(n)

        self.alerts: List[Alert] = []
        self._metrics = metrics
        self._alert_counter = (
            metrics.counter(
                "repro_detector_alerts_total", "Alerts raised by the detector"
            )
            if metrics is not None
            else None
        )
        self._tick_counter = (
            metrics.counter(
                "repro_detector_ticks_total", "Ticks consumed by the detector"
            )
            if metrics is not None
            else None
        )

    # -- peer statistics ------------------------------------------------
    def _peer_residual(self) -> Optional[np.ndarray]:
        """Deviation of each server from the healthy-peer junction/power fit."""
        healthy = (
            ~self._latched["junction"]
            & ~self._latched["inlet"]
            & ~self._latched["availability"]
            & np.isfinite(self._ewma_j)
            & np.isfinite(self._ewma_p)
        )
        if healthy.sum() < 2:
            return None
        ej = self._ewma_j
        ep = self._ewma_p
        med_j = float(np.median(ej[healthy]))
        med_p = float(np.median(ep[healthy]))
        beta = 0.0
        idx = np.flatnonzero(healthy)
        # Cap the pairwise Theil–Sen population; O(k^2) is fine for
        # rack-scale fleets, and 64 peers already give a stable median.
        if idx.shape[0] > 64:
            idx = idx[:: max(1, idx.shape[0] // 64)][:64]
        if idx.shape[0] >= 3:
            pj = ej[idx]
            pp = ep[idx]
            dp = pp[:, None] - pp[None, :]
            dj = pj[:, None] - pj[None, :]
            iu = np.triu_indices(idx.shape[0], 1)
            dp = dp[iu]
            dj = dj[iu]
            wide = np.abs(dp) > self.config.min_peer_spread_w
            if wide.sum() >= max(2, idx.shape[0] // 2 - 1):
                beta = float(np.median(dj[wide] / dp[wide]))
        return ej - (med_j + beta * (ep - med_p)) - self._offset_j

    def _finish_warmup(self) -> None:
        n = self.server_count
        cfg = self.config
        ticks = max(1, self._warm_ticks)
        mean_j = self._warm_j_sum / ticks
        var_j = np.maximum(0.0, self._warm_j_sumsq / ticks - mean_j**2)
        mean_i = self._warm_i_sum / ticks
        var_i = np.maximum(0.0, self._warm_i_sumsq / ticks - mean_i**2)
        self._offset_j = self._offset_j + mean_j
        self._offset_i = mean_i
        sigma_junction_c = max(cfg.sigma_floor_junction_c, float(np.sqrt(var_j.mean())))
        sigma_inlet_c = max(cfg.sigma_floor_inlet_c, float(np.sqrt(var_i.mean())))
        self._sprt_j = VectorSprt(
            n,
            np.full(n, sigma_junction_c),
            np.full(n, cfg.shift_sigmas * sigma_junction_c),
            cfg.false_alarm,
            cfg.missed_alarm,
        )
        self._sprt_i = VectorSprt(
            n,
            np.full(n, sigma_inlet_c),
            np.full(n, cfg.shift_sigmas * sigma_inlet_c),
            cfg.false_alarm,
            cfg.missed_alarm,
        )
        self._ready = True

    @property
    def ready(self) -> bool:
        """True once the warm-up baseline is frozen and SPRTs run."""
        return self._ready

    @property
    def sigma_junction_c(self) -> float:
        """Learnt junction-residual sigma (NaN during warm-up)."""
        return float(self._sprt_j.sigma[0]) if self._sprt_j else math.nan

    @property
    def sigma_inlet_c(self) -> float:
        """Learnt inlet-residual sigma (NaN during warm-up)."""
        return float(self._sprt_i.sigma[0]) if self._sprt_i else math.nan

    def active_alarms(self) -> Dict[str, List[int]]:
        """Currently latched alarms per channel (server indices)."""
        return {
            channel: [int(i) for i in np.flatnonzero(mask)]
            for channel, mask in self._latched.items()
            if mask.any()
        }

    # -- main entry point -----------------------------------------------
    def observe_tick(
        self,
        time_s: float,
        junction_c: np.ndarray,
        power_w: Optional[np.ndarray] = None,
        inlet_c: Optional[np.ndarray] = None,
        utilization_pct: Optional[np.ndarray] = None,
    ) -> List[Alert]:
        """Consume one tick of fleet telemetry; returns *new* alerts.

        *junction_c* is the observed (possibly lying) per-server
        junction reading; *power_w*, *inlet_c* and *utilization_pct*
        enable the peer fit, the inlet monitor and the availability
        monitor respectively when provided.
        """
        cfg = self.config
        n = self.server_count
        obs_j = np.asarray(junction_c, dtype=float)
        if obs_j.shape != (n,):
            raise ValueError(
                f"junction_c must have shape ({n},), got {obs_j.shape}"
            )
        if self._tick_counter is not None:
            self._tick_counter.inc()
        if self._start_time is None:
            self._start_time = time_s

        # EWMA updates (NaN observations hold the previous smooth value).
        fin = np.isfinite(obs_j)
        seed_j = np.isnan(self._ewma_j) & fin
        self._ewma_j[seed_j] = obs_j[seed_j]
        upd = fin & ~np.isnan(self._ewma_j)
        self._ewma_j[upd] += self._alpha_j * (obs_j[upd] - self._ewma_j[upd])
        if power_w is not None:
            p = np.asarray(power_w, dtype=float)
            pfin = np.isfinite(p)
            seed_p = np.isnan(self._ewma_p) & pfin
            self._ewma_p[seed_p] = p[seed_p]
            updp = pfin & ~np.isnan(self._ewma_p)
            self._ewma_p[updp] += self._alpha_p * (p[updp] - self._ewma_p[updp])

        new_alerts: List[Alert] = []
        in_warmup = (time_s - self._start_time) < cfg.warmup_s

        # Junction peer residual, on the EWMA-smoothed signals: the
        # smoothing suppresses placement-churn transients, and a step
        # fault still drags the EWMA several sigma within a couple of
        # ticks.  A dropped-out sensor (NaN) must alarm immediately.
        resid_j = self._peer_residual()
        if resid_j is not None:
            resid_j[~np.isfinite(obs_j)] = np.nan

        resid_i = None
        if inlet_c is not None:
            resid_i = np.asarray(inlet_c, dtype=float) - self._offset_i

        if not self._ready:
            if resid_j is not None:
                r = np.nan_to_num(resid_j, nan=0.0)
                self._warm_j_sum += r
                self._warm_j_sumsq += r**2
            if inlet_c is not None:
                iv = np.nan_to_num(np.asarray(inlet_c, dtype=float), nan=0.0)
                self._warm_i_sum += iv
                self._warm_i_sumsq += iv**2
            self._warm_ticks += 1
            if not in_warmup:
                self._finish_warmup()
            # No alerts during warm-up; availability streaks still count.
        else:
            if resid_j is not None and self._sprt_j is not None:
                alarmed = self._sprt_j.update(resid_j)
                new_alerts.extend(
                    self._latch("junction", alarmed, resid_j, time_s)
                )
                self._recover("junction", resid_j, self._sprt_j)
            if resid_i is not None and self._sprt_i is not None:
                alarmed = self._sprt_i.update(resid_i)
                new_alerts.extend(
                    self._latch("inlet", alarmed, resid_i, time_s)
                )
                self._recover("inlet", resid_i, self._sprt_i)

        # Availability monitor (runs through warm-up so an outage
        # starting early is still timed from its true onset).
        if utilization_pct is not None:
            util = np.asarray(utilization_pct, dtype=float)
            others = util.sum() - np.where(np.isfinite(util), util, 0.0)
            serving = others >= cfg.min_fleet_util_pct
            idle = (util <= 1e-9) & serving
            self._idle_streak_s = np.where(
                idle, self._idle_streak_s + self.dt_s, 0.0
            )
            over = self._idle_streak_s >= cfg.availability_hold_s
            mask = self._latched["availability"]
            fresh = over & ~mask
            for server in np.flatnonzero(fresh):
                new_alerts.append(
                    Alert(
                        time_s=time_s,
                        server=int(server),
                        channel="availability",
                        residual=float(self._idle_streak_s[server]),
                    )
                )
            mask |= fresh
            # Recovery: any executed work clears the outage latch.
            mask &= ~(util > 1e-9)

        if new_alerts:
            self.alerts.extend(new_alerts)
            if self._alert_counter is not None:
                self._alert_counter.inc(len(new_alerts))
        return new_alerts

    def _latch(
        self,
        channel: str,
        alarmed: np.ndarray,
        residuals: np.ndarray,
        time_s: float,
    ) -> List[Alert]:
        mask = self._latched[channel]
        fresh = alarmed & ~mask
        out = [
            Alert(
                time_s=time_s,
                server=int(server),
                channel=channel,
                residual=float(residuals[server]),
            )
            for server in np.flatnonzero(fresh)
        ]
        mask |= fresh
        return out

    def _recover(
        self, channel: str, residuals: np.ndarray, sprt: VectorSprt
    ) -> None:
        """Clear a latched alarm after sustained in-band residuals."""
        mask = self._latched[channel]
        if not mask.any():
            return
        in_band = np.isfinite(residuals) & (
            np.abs(residuals) <= sprt.shift / 2.0
        )
        counter = self._recovery[channel]
        counter[:] = np.where(in_band, counter + 1, 0)
        recovered = mask & (counter >= self.config.recovery_ticks)
        mask &= ~recovered


# ----------------------------------------------------------------------
# ground-truth scoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EventOutcome:
    """Detection outcome for one scheduled fault event."""

    kind: str
    servers: Tuple[int, ...]
    start_s: float
    end_s: float
    detected: bool
    time_to_detect_s: float = math.nan
    alert_channel: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {
            "kind": self.kind,
            "servers": list(self.servers),
            "start_s": self.start_s,
            "end_s": None if math.isinf(self.end_s) else self.end_s,
            "detected": self.detected,
            "time_to_detect_s": (
                self.time_to_detect_s
                if math.isfinite(self.time_to_detect_s)
                else None
            ),
            "alert_channel": self.alert_channel,
        }


@dataclass(frozen=True)
class DetectionReport:
    """Scored detection run: outcomes, recall, false-positive rate."""

    outcomes: Tuple[EventOutcome, ...]
    false_positives: Tuple[Alert, ...]
    alert_count: int
    horizon_s: float
    server_count: int
    recall_by_kind: Dict[str, float] = field(default_factory=dict)

    @property
    def detected_count(self) -> int:
        """Number of scheduled events that produced an alert in window."""
        return sum(1 for o in self.outcomes if o.detected)

    @property
    def false_positive_rate_per_server_hour(self) -> float:
        """Unattributable alerts per healthy server-hour."""
        server_hours = self.server_count * self.horizon_s / 3600.0
        if server_hours <= 0:
            return 0.0
        return len(self.false_positives) / server_hours

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (for artifacts and ``/alerts``)."""
        return {
            "outcomes": [o.to_dict() for o in self.outcomes],
            "false_positives": [a.to_dict() for a in self.false_positives],
            "alert_count": self.alert_count,
            "detected_count": self.detected_count,
            "event_count": len(self.outcomes),
            "recall_by_kind": dict(self.recall_by_kind),
            "false_positive_rate_per_server_hour": (
                self.false_positive_rate_per_server_hour
            ),
            "horizon_s": self.horizon_s,
            "server_count": self.server_count,
        }


_EVENT_KIND_NAMES = {
    SensorFaultEvent: "sensor",
    FanDegradationEvent: "fan",
    ServerOutageEvent: "outage",
    CracExcursionEvent: "crac",
}


def _affected_servers(
    event: object, server_count: int, rack_of: Sequence[int]
) -> Tuple[int, ...]:
    if isinstance(event, CracExcursionEvent):
        if event.rack is None:
            return tuple(range(server_count))
        return tuple(
            i for i in range(server_count) if rack_of[i] == event.rack
        )
    return (int(event.server),)


def score_alerts(
    alerts: Sequence[Alert],
    schedule: Optional[FaultSchedule],
    server_count: int,
    horizon_s: float,
    rack_of: Optional[Sequence[int]] = None,
    grace_s: float = 600.0,
) -> DetectionReport:
    """Join an alert stream against the fault schedule ground truth.

    An alert is credited to an event when its server is in the
    event's affected set and its time falls inside
    ``[start_s, min(end_s, horizon) + grace_s]``; time-to-detect is
    measured from the event onset.  Alerts crediting no event are
    false positives.  *rack_of* maps server → rack index (required to
    expand rack-level CRAC events; defaults to a single rack).
    """
    if rack_of is None:
        rack_of = [0] * server_count
    events = list(schedule.events) if schedule is not None else []
    windows = []
    for event in events:
        servers = _affected_servers(event, server_count, rack_of)
        end = min(float(event.end_s), horizon_s)
        windows.append((event, servers, float(event.start_s), end))

    outcomes: List[EventOutcome] = []
    credited = [False] * len(alerts)
    for event, servers, start, end in windows:
        first: Optional[Alert] = None
        for k, alert in enumerate(alerts):
            if alert.server not in servers:
                continue
            if start <= alert.time_s <= end + grace_s:
                credited[k] = True
                if first is None or alert.time_s < first.time_s:
                    first = alert
        kind = _EVENT_KIND_NAMES.get(type(event), type(event).__name__)
        outcomes.append(
            EventOutcome(
                kind=kind,
                servers=servers,
                start_s=start,
                end_s=float(event.end_s),
                detected=first is not None,
                time_to_detect_s=(
                    first.time_s - start if first is not None else math.nan
                ),
                alert_channel=first.channel if first is not None else "",
            )
        )

    recall: Dict[str, float] = {}
    for kind in sorted({o.kind for o in outcomes}):
        of_kind = [o for o in outcomes if o.kind == kind]
        recall[kind] = sum(o.detected for o in of_kind) / len(of_kind)

    false_positives = tuple(
        alert for k, alert in enumerate(alerts) if not credited[k]
    )
    return DetectionReport(
        outcomes=tuple(outcomes),
        false_positives=false_positives,
        alert_count=len(alerts),
        horizon_s=horizon_s,
        server_count=server_count,
        recall_by_kind=recall,
    )


# ----------------------------------------------------------------------
# batch replay
# ----------------------------------------------------------------------
def replay_channels(
    times_s: np.ndarray,
    junction_c: np.ndarray,
    power_w: Optional[np.ndarray] = None,
    inlet_c: Optional[np.ndarray] = None,
    utilization_pct: Optional[np.ndarray] = None,
    config: Optional[DetectorConfig] = None,
    detector: Optional[StreamingFleetDetector] = None,
) -> StreamingFleetDetector:
    """Stream recorded (steps, N) channel arrays through a detector.

    This is strictly the incremental path — each row is fed through
    :meth:`StreamingFleetDetector.observe_tick` in order — so batch
    replay and live operation exercise identical code.  Returns the
    detector (inspect ``.alerts`` or hand it to :func:`score_alerts`).
    """
    times = np.asarray(times_s, dtype=float)
    junction = np.atleast_2d(np.asarray(junction_c, dtype=float))
    if junction.shape[0] != times.shape[0]:
        junction = junction.T
    steps, n = junction.shape
    if times.shape[0] != steps:
        raise ValueError("times and junction rows disagree")
    if steps < 2:
        raise ValueError("need at least two ticks to infer dt")
    if detector is None:
        detector = StreamingFleetDetector(
            n, float(times[1] - times[0]), config=config
        )

    def row(arr: Optional[np.ndarray], k: int) -> Optional[np.ndarray]:
        """Tick *k* of an optional (steps, N) array, transposing if needed."""
        if arr is None:
            return None
        a = np.atleast_2d(np.asarray(arr, dtype=float))
        if a.shape[0] != steps:
            a = a.T
        return a[k]

    for k in range(steps):
        detector.observe_tick(
            float(times[k]),
            junction[k],
            power_w=row(power_w, k),
            inlet_c=row(inlet_c, k),
            utilization_pct=row(utilization_pct, k),
        )
    return detector
