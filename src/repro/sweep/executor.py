"""Parallel sweep executor: cache-aware fan-out over worker processes.

:func:`run_sweep` takes a :class:`~repro.sweep.spec.GridSpec` (or an
explicit sequence of :class:`~repro.sweep.spec.ScenarioSpec` points),
resolves cache hits first, fans the remaining points out over a
``multiprocessing`` pool, and assembles every row — hit or miss — into
one :class:`~repro.sweep.result.SweepResult` in the grid's own
deterministic order.  The table is *bit-identical* whatever the worker
count or cache state: the physics is seeded and rows are placed by
grid index, never by completion order, and cached floats round-trip
JSON exactly.

Worker processes keep their scenario memo (LUT characterizations,
model fits) alive across the points of a chunk, so grids that share
expensive artifacts amortize them per process instead of per point.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from time import perf_counter, sleep
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.sweep.cache import ResultCache
from repro.sweep.result import SweepResult
from repro.sweep.scenarios import run_scenario
from repro.sweep.spec import GridSpec, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

#: A sweep input: a grid, or explicit points.
Sweepable = Union[GridSpec, Sequence[ScenarioSpec]]

_LOG = logging.getLogger(__name__)


def default_worker_count() -> int:
    """Workers used when ``workers`` is ``None``: one per available core."""
    return max(1, os.cpu_count() or 1)


def _execute_point_safe(
    task: Tuple[ScenarioSpec, int, float],
) -> Tuple[bool, Dict[str, Any]]:
    """Isolated worker target: ``(ok, row)`` instead of a raised error.

    A raising scenario is retried ``retries`` times with exponential
    backoff; when the budget is exhausted the failure is folded into an
    ``{"error": ...}`` row so one bad point cannot kill the pool (an
    exception raised inside ``imap`` aborts the whole sweep and
    discards every in-flight sibling).
    """
    spec, retries, backoff_s = task
    attempt = 0
    while True:
        try:
            return True, run_scenario(spec)
        except Exception as exc:
            if attempt >= retries:
                return False, {
                    "error": f"{type(exc).__name__}: {exc}",
                }
            if backoff_s > 0:
                sleep(backoff_s * 2**attempt)
            attempt += 1


def _resolve_points(sweep: Sweepable) -> Tuple[ScenarioSpec, ...]:
    if isinstance(sweep, GridSpec):
        return sweep.points()
    points = tuple(sweep)
    if not points:
        raise ValueError("sweep has no points")
    for point in points:
        if not isinstance(point, ScenarioSpec):
            raise TypeError(
                f"expected ScenarioSpec points, got {type(point).__name__}"
            )
    return points


def run_sweep(
    sweep: Sweepable,
    workers: Optional[int] = 1,
    cache: Union[ResultCache, str, os.PathLike, None] = None,
    progress: Optional[Callable[[str], None]] = None,
    metrics: Optional["MetricsRegistry"] = None,
    retries: int = 0,
    backoff_s: float = 0.1,
) -> SweepResult:
    """Run every point of *sweep* and return the tidy result table.

    ``workers=1`` runs in-process (serial); ``workers=N`` fans the
    uncached points over ``N`` worker processes; ``workers=None`` uses
    one worker per core.  ``cache`` (a directory path or
    :class:`ResultCache`) short-circuits previously-computed points by
    content hash and persists fresh rows.  ``progress`` receives one
    human-readable line per completed point; when omitted, the lines
    go to this module's logger at INFO instead.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives point /
    cache-hit counters and the per-point wall timer.

    Points are isolated: a raising scenario is retried ``retries``
    times with exponential backoff starting at ``backoff_s``, and a
    point that still fails lands in the table as an ``error`` row
    while every other point completes.  Failed rows are *not* cached,
    so re-running the sweep (with the same cache) retries exactly the
    failures — the partial ``SweepResult`` is resumable for free.  Row
    order stays bit-identical for succeeding points whatever the
    worker count, cache state or failure pattern.
    """
    points = _resolve_points(sweep)
    if progress is None:
        progress = _LOG.info
    if workers is None:
        workers = default_worker_count()
    if workers < 1:
        raise ValueError("workers must be >= 1 (or None for one per core)")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if backoff_s < 0:
        raise ValueError("backoff_s must be >= 0")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)

    total = len(points)
    rows: List[Optional[Dict[str, Any]]] = [None] * total
    misses: List[int] = []
    for i, spec in enumerate(points):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            rows[i] = hit
        else:
            misses.append(i)
    cache_hits = total - len(misses)
    if cache_hits:
        progress(f"cache: {cache_hits}/{total} points already computed")

    point_timer = None
    if metrics is not None:
        metrics.counter(
            "repro_sweep_points_total", "Sweep points resolved"
        ).inc(total)
        metrics.counter(
            "repro_sweep_cache_hits_total", "Sweep points served from cache"
        ).inc(cache_hits)
        metrics.counter(
            "repro_sweep_executed_total", "Sweep points actually simulated"
        ).inc(len(misses))
        point_timer = metrics.timer(
            "repro_sweep_point", "Wall time per executed sweep point"
        )

    failures = 0

    # Rows are cached as they complete (not after the whole sweep), so
    # an interrupted or failing run keeps its partial progress durable.
    # Failed rows are recorded in the table but never cached: the next
    # run with the same cache re-executes exactly the failed points.
    def finish(i: int, ok: bool, row: Dict[str, Any], done: int) -> None:
        """Record one completed point: table row, cache entry, progress."""
        nonlocal failures
        rows[i] = row
        if ok:
            if cache is not None:
                cache.put(points[i], row)
            progress(f"[{done}/{total}] {points[i].describe()}")
        else:
            failures += 1
            progress(
                f"[{done}/{total}] {points[i].describe()} "
                f"FAILED: {row['error']}"
            )

    tasks = [(points[i], int(retries), float(backoff_s)) for i in misses]
    done = cache_hits
    if len(misses) <= 1 or workers == 1:
        for i, task in zip(misses, tasks):
            done += 1
            _t0 = perf_counter()
            ok, row = _execute_point_safe(task)
            if point_timer is not None:
                point_timer.add(perf_counter() - _t0)
            finish(i, ok, row, done)
    else:
        pool_size = min(workers, len(misses))
        # Chunks keep each worker's per-process memo (LUTs, fits) warm
        # across several points; results still land by grid index.
        chunksize = max(1, len(misses) // (pool_size * 2))
        with multiprocessing.Pool(processes=pool_size) as pool:
            ordered = pool.imap(
                _execute_point_safe,
                tasks,
                chunksize=chunksize,
            )
            _t0 = perf_counter()
            for i, (ok, row) in zip(misses, ordered):
                done += 1
                # Pool wall time is attributed as it drains; with N
                # workers the per-point figure is an upper bound on
                # fleet-average latency, not a per-process CPU time.
                if point_timer is not None:
                    _t1 = perf_counter()
                    point_timer.add(_t1 - _t0)
                    _t0 = _t1
                finish(i, ok, row, done)

    if failures and metrics is not None:
        metrics.counter(
            "repro_sweep_point_failures_total",
            "Sweep points that exhausted their retry budget",
        ).inc(failures)

    return SweepResult.from_points(
        points,
        rows,
        executed_count=len(misses),
        cache_hit_count=cache_hits,
    )
