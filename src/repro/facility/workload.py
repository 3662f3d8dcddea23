"""Job-queue workload: arrival processes with deadline SLAs.

Replaces the aggregate demand *scalar* with a queue of discrete jobs.
Each job carries an amount of work (single-server percent-seconds), a
maximum service rate (how much of one server it can use at once), and
a deadline.  Demand offered to the :class:`FleetScheduler` at a tick
is the summed service rate of every admitted, unfinished job; what the
fleet actually executed flows back through
:meth:`WorkloadQueue.record_executed` and drains the queue FIFO — so
saturated or thermally-throttled fleets grow a backlog instead of
silently dropping load, and SLA misses become measurable.

Arrival generators cover the three canonical processes: homogeneous
Poisson, a diurnally-modulated Poisson (thinning), and bursty
(baseline plus tight arrival clusters).
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.facility.metrics import QueueStats
from repro.fleet.scheduler import SERVER_CAP_PCT, FleetWorkload
from repro.units import hours
from repro.workloads.profile import ConstantProfile

#: Residual work below this (percent-seconds) counts as completed —
#: float crumbs from FIFO draining, not real work.
_WORK_EPS_PCT_S = 1e-9


class WorkloadQueue(FleetWorkload):
    """A FIFO job queue driving fleet demand tick by tick.

    Parameters
    ----------
    arrival_s:
        Sorted job arrival times, seconds.
    work_pct_s:
        Per-job work, single-server percent-seconds (e.g. 100 %·s is
        one server flat out for one second).
    server_count:
        Fleet size the demand is offered to.
    duration_s:
        Run horizon; also the default engine duration.
    deadline_s:
        Absolute per-job deadlines (>= arrival).  Omitted means no
        deadline (never violates).
    service_rate_pct:
        Maximum instantaneous rate one job can consume, in
        single-server percent (default: one full server).
    """

    dynamic = True

    def __init__(
        self,
        arrival_s: Union[np.ndarray, "list[float]"],
        work_pct_s: Union[np.ndarray, "list[float]"],
        server_count: int,
        duration_s: float,
        deadline_s: Optional[np.ndarray] = None,
        service_rate_pct: float = SERVER_CAP_PCT,
    ):
        arrivals = np.asarray(arrival_s, dtype=float)
        work = np.asarray(work_pct_s, dtype=float)
        if arrivals.ndim != 1:
            raise ValueError("arrival_s must be one-dimensional")
        if work.shape != arrivals.shape:
            raise ValueError("work_pct_s must match arrival_s in shape")
        if arrivals.size and (
            not np.all(np.isfinite(arrivals)) or np.any(arrivals < 0.0)
        ):
            raise ValueError("arrival times must be finite and >= 0")
        if np.any(np.diff(arrivals) < 0.0):
            raise ValueError("arrival_s must be sorted ascending")
        if work.size and (
            not np.all(np.isfinite(work)) or np.any(work <= 0.0)
        ):
            raise ValueError("work_pct_s must be positive and finite")
        if not duration_s > 0.0:
            raise ValueError("duration_s must be positive")
        if not 0.0 < service_rate_pct <= SERVER_CAP_PCT:
            raise ValueError(
                f"service_rate_pct must be in (0, {SERVER_CAP_PCT}], "
                f"got {service_rate_pct}"
            )
        super().__init__(
            ConstantProfile(0.0, float(duration_s)), server_count
        )
        if deadline_s is None:
            deadlines = np.full(arrivals.shape, np.inf)
        else:
            deadlines = np.asarray(deadline_s, dtype=float)
            if deadlines.shape != arrivals.shape:
                raise ValueError("deadline_s must match arrival_s in shape")
            if np.any(deadlines < arrivals):
                raise ValueError("deadlines must be >= arrival times")
        self._arrival_s = arrivals
        self._work_pct_s = work
        self._deadline_s = deadlines
        self._service_rate_pct = float(service_rate_pct)
        self._job_count = int(arrivals.size)
        self.reset()

    # -- run-state lifecycle -------------------------------------------
    def reset(self) -> None:
        """Rewind the queue to its pre-run state (engine calls this)."""
        self._remaining_pct_s = self._work_pct_s.copy()
        self._started_s = np.full(self._job_count, np.nan)
        self._completed_s = np.full(self._job_count, np.nan)
        self._admit_count = 0
        self._head = 0
        self._completed_count = 0
        self._executed_work_pct_s = 0.0

    # -- engine-facing hot path ----------------------------------------
    def total_demand_pct(self, time_s: float) -> float:
        """Offered demand at *time_s*: admit arrivals, sum active rates.

        Mutates queue state (admission), so the engine's tick loop
        calls it exactly once per tick, before the tick's physics
        step, on every in-process backend.
        """
        arrivals = self._arrival_s
        count = self._job_count
        admit = self._admit_count
        while admit < count and arrivals[admit] <= time_s:
            admit += 1
        self._admit_count = admit
        remaining = self._remaining_pct_s
        rate_pct = self._service_rate_pct
        demand_pct = 0.0
        for j in range(self._head, admit):
            if remaining[j] > 0.0:
                demand_pct += rate_pct
        return demand_pct

    def record_executed(
        self, time_s: float, executed_total_pct: float, dt_s: float
    ) -> None:
        """Drain executed work FIFO through the admitted jobs.

        ``executed_total_pct`` is the fleet's summed executed
        utilization for the tick; each active job absorbs up to its
        service rate times ``dt_s``, oldest first.
        """
        budget_pct_s = executed_total_pct * dt_s
        if budget_pct_s <= 0.0:
            return
        remaining = self._remaining_pct_s
        started = self._started_s
        completed = self._completed_s
        cap_pct_s = self._service_rate_pct * dt_s
        end_s = time_s + dt_s
        admit = self._admit_count
        head = self._head
        for j in range(head, admit):
            if budget_pct_s <= 0.0:
                break
            rem_pct_s = remaining[j]
            if rem_pct_s <= 0.0:
                continue
            drain_pct_s = rem_pct_s
            if cap_pct_s < drain_pct_s:
                drain_pct_s = cap_pct_s
            if budget_pct_s < drain_pct_s:
                drain_pct_s = budget_pct_s
            if math.isnan(started[j]):
                started[j] = time_s
            rem_pct_s -= drain_pct_s
            budget_pct_s -= drain_pct_s
            self._executed_work_pct_s += drain_pct_s
            if rem_pct_s <= _WORK_EPS_PCT_S:
                rem_pct_s = 0.0
                completed[j] = end_s
                self._completed_count += 1
            remaining[j] = rem_pct_s
        while head < admit and remaining[head] <= 0.0:
            head += 1
        self._head = head

    # -- accounting ----------------------------------------------------
    @property
    def job_count(self) -> int:
        """Total jobs generated (arrived or not)."""
        return self._job_count

    @property
    def arrived_count(self) -> int:
        """Jobs admitted so far."""
        return self._admit_count

    @property
    def completed_count(self) -> int:
        """Admitted jobs fully drained."""
        return self._completed_count

    @property
    def running_count(self) -> int:
        """Admitted jobs partially served (started, not finished)."""
        window = slice(0, self._admit_count)
        active = self._remaining_pct_s[window] > 0.0
        begun = ~np.isnan(self._started_s[window])
        return int(np.count_nonzero(active & begun))

    @property
    def pending_count(self) -> int:
        """Admitted jobs not yet served at all."""
        return self._admit_count - self._completed_count - self.running_count

    @property
    def executed_work_pct_s(self) -> float:
        """Work drained from the queue so far, percent-seconds."""
        return self._executed_work_pct_s

    def stats(self, now_s: float) -> QueueStats:
        """Queue/SLA accounting as of *now_s* (typically run end)."""
        window = slice(0, self._admit_count)
        finished = ~np.isnan(self._completed_s[window])
        late_done = finished & (
            self._completed_s[window] > self._deadline_s[window]
        )
        late_open = (~finished) & (self._deadline_s[window] < now_s)
        begun = ~np.isnan(self._started_s)
        waits = self._started_s[begun] - self._arrival_s[begun]
        done_all = ~np.isnan(self._completed_s)
        turnarounds = self._completed_s[done_all] - self._arrival_s[done_all]
        return QueueStats(
            arrived=self._admit_count,
            completed=self._completed_count,
            pending=self.pending_count,
            running=self.running_count,
            sla_violations=int(
                np.count_nonzero(late_done) + np.count_nonzero(late_open)
            ),
            mean_wait_s=float(waits.mean()) if waits.size else 0.0,
            mean_turnaround_s=(
                float(turnarounds.mean()) if turnarounds.size else 0.0
            ),
            drained=self._completed_count == self._job_count,
            total_work_pct_s=float(self._work_pct_s.sum()),
            executed_work_pct_s=float(self._executed_work_pct_s),
        )


# ----------------------------------------------------------------------
# arrival-process generators
# ----------------------------------------------------------------------
def poisson_job_arrivals(
    duration_s: float, jobs_per_hour: float, seed: int = 0
) -> np.ndarray:
    """Homogeneous Poisson arrivals over ``[0, duration_s)``.

    Uses the order-statistics construction (Poisson count, uniform
    positions, sorted) — one draw sequence, trivially reproducible.
    """
    if duration_s <= 0.0:
        raise ValueError("duration_s must be positive")
    if jobs_per_hour < 0.0:
        raise ValueError("jobs_per_hour must be non-negative")
    rng = np.random.default_rng(seed)
    expected = duration_s / hours(1.0) * jobs_per_hour
    count = int(rng.poisson(expected))
    return np.sort(rng.uniform(0.0, duration_s, size=count))


def diurnal_job_arrivals(
    duration_s: float,
    base_jobs_per_hour: float,
    peak_jobs_per_hour: float,
    peak_hour: float = 15.0,
    seed: int = 0,
) -> np.ndarray:
    """Diurnally-modulated Poisson arrivals (non-homogeneous, thinned).

    Candidate arrivals are generated at the peak rate and kept with
    probability ``rate(t) / peak`` where the rate follows the same
    cosine day/night envelope as
    :func:`repro.workloads.datacenter.build_diurnal_profile`.
    """
    if peak_jobs_per_hour < base_jobs_per_hour:
        raise ValueError("peak_jobs_per_hour must be >= base_jobs_per_hour")
    if base_jobs_per_hour < 0.0:
        raise ValueError("base_jobs_per_hour must be non-negative")
    if not 0.0 <= peak_hour < 24.0:
        raise ValueError("peak_hour must be in [0, 24)")
    if peak_jobs_per_hour == 0.0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    candidates = poisson_job_arrivals(
        duration_s, peak_jobs_per_hour, seed=seed + 1
    )
    hour_of_day = (candidates / 3600.0) % 24.0
    phase = 2.0 * math.pi * (hour_of_day - peak_hour) / 24.0
    envelope = base_jobs_per_hour + (
        peak_jobs_per_hour - base_jobs_per_hour
    ) * (1.0 + np.cos(phase)) / 2.0
    keep = rng.uniform(0.0, 1.0, size=candidates.size) * peak_jobs_per_hour
    return candidates[keep <= envelope]


def bursty_job_arrivals(
    duration_s: float,
    base_jobs_per_hour: float = 2.0,
    burst_count: int = 3,
    jobs_per_burst: int = 10,
    burst_spread_s: float = 120.0,
    seed: int = 0,
) -> np.ndarray:
    """A quiet Poisson baseline plus tight arrival clusters.

    Each burst drops *jobs_per_burst* arrivals uniformly inside a
    ``burst_spread_s`` window at a random offset — the request-storm
    shape flash-crowd studies use.
    """
    if burst_count < 0 or jobs_per_burst < 0:
        raise ValueError("burst_count/jobs_per_burst must be non-negative")
    if burst_spread_s <= 0.0:
        raise ValueError("burst_spread_s must be positive")
    if burst_spread_s > duration_s:
        raise ValueError("burst_spread_s must fit in the duration")
    rng = np.random.default_rng(seed)
    baseline = poisson_job_arrivals(
        duration_s, base_jobs_per_hour, seed=seed + 1
    )
    clusters = [baseline]
    for _ in range(burst_count):
        start = float(rng.uniform(0.0, duration_s - burst_spread_s))
        clusters.append(
            start + rng.uniform(0.0, burst_spread_s, size=jobs_per_burst)
        )
    return np.sort(np.concatenate(clusters))


#: Builder kinds accepted by :func:`build_job_queue`.
QUEUE_KINDS = ("poisson", "diurnal", "bursty")


def build_job_queue(
    kind: str,
    server_count: int,
    duration_s: float = hours(24.0),
    seed: int = 0,
    jobs_per_hour: float = 12.0,
    mean_work_pct_s: float = 30000.0,
    deadline_slack: float = 4.0,
    service_rate_pct: float = SERVER_CAP_PCT,
) -> WorkloadQueue:
    """Assemble a :class:`WorkloadQueue` from a named arrival process.

    *kind* selects the generator (``poisson`` / ``diurnal`` /
    ``bursty``); job sizes are exponential with mean
    ``mean_work_pct_s`` and each deadline allows ``deadline_slack``
    times the job's minimum service time after arrival.
    """
    if kind == "poisson":
        arrival_s = poisson_job_arrivals(duration_s, jobs_per_hour, seed=seed)
    elif kind == "diurnal":
        arrival_s = diurnal_job_arrivals(
            duration_s,
            base_jobs_per_hour=jobs_per_hour / 4.0,
            peak_jobs_per_hour=jobs_per_hour,
            seed=seed,
        )
    elif kind == "bursty":
        arrival_s = bursty_job_arrivals(
            duration_s, base_jobs_per_hour=jobs_per_hour / 4.0, seed=seed
        )
    else:
        raise ValueError(
            f"unknown queue kind {kind!r}, expected one of {QUEUE_KINDS}"
        )
    if deadline_slack < 1.0:
        raise ValueError("deadline_slack must be >= 1")
    rng = np.random.default_rng(seed + 2)
    work_pct_s = rng.exponential(mean_work_pct_s, size=arrival_s.size)
    work_pct_s = np.maximum(work_pct_s, service_rate_pct)  # >= 1 s of service
    service_s = work_pct_s / service_rate_pct
    deadline_s = arrival_s + deadline_slack * service_s
    return WorkloadQueue(
        arrival_s,
        work_pct_s,
        server_count=server_count,
        duration_s=duration_s,
        deadline_s=deadline_s,
        service_rate_pct=service_rate_pct,
    )
