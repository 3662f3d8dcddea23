"""In-memory timeseries store: ring buffers with downsampled tiers.

The live telemetry service needs bounded memory over unbounded runs.
Each :class:`StoreChannel` exposes

* a **raw ring** — the most recent ``capacity`` samples, stored in
  preallocated numpy arrays with vectorized wrap-around writes; and
* optional **downsampled tiers** — every ``factor``-th-sample
  aggregate (mean/min/max over fixed-size buckets) retained far longer
  than the raw ring, mirroring the retention ladder of production
  timeseries databases (raw → 1-min → 15-min rollups).

Channels that always ingest together (the fleet capture's hundreds of
per-server streams share one time grid) are backed by a single
matrix-shaped :class:`_Group`: one shared ring and one set of tier
reductions, so a bulk :meth:`TimeseriesStore.append_chunk` costs a
handful of vectorized operations for the *whole fleet* — not a python
loop over channels.  Standalone channels are simply groups of width
one, so both paths run identical code.

Group storage is **time-major** (``(capacity, channels)``): that is
the layout of the engines' trace blocks, so the write path is pure
contiguous block copies — no transposes, and each flush touches a
compact run of pages instead of one page per channel.  Reads (the
HTTP per-channel queries) pay the strided access instead, which is
the right trade: the hot path is ingest, queries are occasional.

Ingestion is fed from the fleet engine's trace rows (see
:class:`FleetCapture`): the engine already writes one row per tick
into preallocated trace arrays, and capture flushes *slices* of those
rows every few ticks — a read-only tap that leaves the recorded
traces bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ChannelStats",
    "StoreChannel",
    "TimeseriesStore",
    "TierSpec",
]


@dataclass(frozen=True)
class TierSpec:
    """One downsampling tier: aggregate *factor* raw samples per bucket."""

    factor: int
    capacity: int

    def __post_init__(self) -> None:
        if self.factor < 2:
            raise ValueError("tier factor must be >= 2")
        if self.capacity < 1:
            raise ValueError("tier capacity must be >= 1")


#: Default retention ladder: raw ring plus 10x and 100x rollups.
DEFAULT_TIERS: Tuple[TierSpec, ...] = (
    TierSpec(factor=10, capacity=4096),
    TierSpec(factor=100, capacity=4096),
)


@dataclass(frozen=True)
class ChannelStats:
    """Ingestion accounting for one channel."""

    appended: int
    dropped: int

    @property
    def retained_fraction(self) -> float:
        """Fraction of appended samples still in the raw ring."""
        if self.appended == 0:
            return 1.0
        return 1.0 - self.dropped / self.appended


class _Tier:
    """One rollup tier over a channel group: bucketed mean/min/max.

    Bucketing is by sample *count* (``factor`` raw samples per
    bucket), which on the engines' fixed-dt grids is equivalent to
    fixed-duration buckets without any clock bookkeeping.  All group
    rows share bucket boundaries, so each ingest is three reductions
    over a ``(buckets, factor, channels)`` view — never a per-channel
    loop.
    """

    def __init__(self, spec: TierSpec, width: int) -> None:
        self.spec = spec
        capacity = spec.capacity
        self._times = np.empty(capacity, dtype=np.float64)
        self._mean = np.empty((capacity, width), dtype=np.float64)
        self._min = np.empty((capacity, width), dtype=np.float64)
        self._max = np.empty((capacity, width), dtype=np.float64)
        self._head = 0
        self._count = 0
        # Pending partial bucket, one accumulator per channel.
        self._pend_n = 0
        self._pend_sum = np.zeros(width, dtype=np.float64)
        self._pend_min = np.full(width, np.inf)
        self._pend_max = np.full(width, -np.inf)

    def __len__(self) -> int:
        return self._count

    def ingest(self, times: np.ndarray, values: np.ndarray) -> None:
        """Fold a time-major ``(m, width)`` block into the rollup."""
        factor = self.spec.factor
        i = 0
        m = times.shape[0]
        # Finish the pending bucket first.
        if self._pend_n:
            take = min(factor - self._pend_n, m)
            self._accumulate(values[:take])
            self._pend_n += take
            i = take
            if self._pend_n == factor:
                self._emit(
                    times[take - 1 : take],
                    (self._pend_sum / factor)[None, :],
                    self._pend_min[None, :],
                    self._pend_max[None, :],
                )
                self._pend_n = 0
                self._pend_sum[:] = 0.0
                self._pend_min[:] = np.inf
                self._pend_max[:] = -np.inf
        # Whole buckets, vectorized across buckets and channels at once.
        whole = (m - i) // factor
        if whole:
            block = values[i : i + whole * factor].reshape(
                whole, factor, values.shape[1]
            )
            self._emit(
                np.ascontiguousarray(
                    times[i + factor - 1 : i + whole * factor : factor]
                ),
                block.mean(axis=1),
                block.min(axis=1),
                block.max(axis=1),
            )
            i += whole * factor
        # Stash the remainder.
        if i < m:
            self._accumulate(values[i:])
            self._pend_n += m - i

    def _accumulate(self, chunk: np.ndarray) -> None:
        self._pend_sum += chunk.sum(axis=0)
        np.minimum(self._pend_min, chunk.min(axis=0), out=self._pend_min)
        np.maximum(self._pend_max, chunk.max(axis=0), out=self._pend_max)

    def _emit(
        self,
        t: np.ndarray,
        mean: np.ndarray,
        vmin: np.ndarray,
        vmax: np.ndarray,
    ) -> None:
        capacity = self._times.shape[0]
        k = t.shape[0]
        if k >= capacity:
            sl = slice(k - capacity, None)
            self._times[:] = t[sl]
            self._mean[:] = mean[sl]
            self._min[:] = vmin[sl]
            self._max[:] = vmax[sl]
            self._head = 0
            self._count = capacity
            return
        end = self._head + k
        if end <= capacity:
            sl = slice(self._head, end)
            self._times[sl] = t
            self._mean[sl] = mean
            self._min[sl] = vmin
            self._max[sl] = vmax
        else:
            first = capacity - self._head
            for dst, src in (
                (self._times, t),
                (self._mean, mean),
                (self._min, vmin),
                (self._max, vmax),
            ):
                dst[self._head :] = src[:first]
                dst[: end - capacity] = src[first:]
        self._head = end % capacity
        self._count = min(capacity, self._count + k)

    def _order(self) -> np.ndarray:
        capacity = self._times.shape[0]
        if self._count < capacity:
            return np.arange(self._count)
        return np.concatenate(
            [np.arange(self._head, capacity), np.arange(self._head)]
        )

    def view_row(self, row: int) -> Dict[str, np.ndarray]:
        """Chronological ``times / mean / min / max`` for one channel."""
        order = self._order()
        return {
            "times": self._times[order],
            "mean": self._mean[order, row],
            "min": self._min[order, row],
            "max": self._max[order, row],
        }


class _Group:
    """Time-major matrix storage for channels sharing one time grid.

    Holds a ``(capacity, width)`` value ring behind a single shared
    time ring; every append is one contiguous block copy, every tier
    update a whole-matrix reduction.  A standalone channel is a group
    of width one.
    """

    def __init__(
        self, width: int, capacity: int, tiers: Sequence[TierSpec]
    ) -> None:
        self.width = width
        self.capacity = capacity
        self._times = np.empty(capacity, dtype=np.float64)
        self._values = np.empty((capacity, width), dtype=np.float64)
        self._head = 0
        self._count = 0
        self._tiers = [_Tier(spec, width) for spec in tiers]
        self._appended = 0
        self._last_time = -np.inf

    def __len__(self) -> int:
        return self._count

    def append_matrix(
        self, times: np.ndarray, values: np.ndarray, label: str = ""
    ) -> None:
        """Ingest a chronological time-major ``(m, width)`` block."""
        times = np.ascontiguousarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.ndim != 1 or values.shape != (times.shape[0], self.width):
            raise ValueError("times/values must be (m,) and (m, width) arrays")
        m = times.shape[0]
        if m == 0:
            return
        if times[0] < self._last_time or (
            m > 1 and np.any(times[1:] < times[:-1])
        ):
            raise ValueError(f"non-monotonic ingest on channel {label!r}")
        self._last_time = float(times[-1])
        self._write_ring(times, values)
        for tier in self._tiers:
            tier.ingest(times, values)
        self._appended += m

    def _write_ring(self, times: np.ndarray, values: np.ndarray) -> None:
        m = times.shape[0]
        capacity = self.capacity
        if m >= capacity:
            # Only the tail survives; reset to a contiguous layout.
            self._times[:] = times[m - capacity :]
            self._values[:] = values[m - capacity :]
            self._head = 0
            self._count = capacity
            return
        end = self._head + m
        if end <= capacity:
            self._times[self._head : end] = times
            self._values[self._head : end] = values
        else:
            first = capacity - self._head
            self._times[self._head :] = times[:first]
            self._values[self._head :] = values[:first]
            self._times[: end - capacity] = times[first:]
            self._values[: end - capacity] = values[first:]
        self._head = end % capacity
        self._count = min(capacity, self._count + m)

    def _order(self) -> np.ndarray:
        if self._count < self.capacity:
            return np.arange(self._count)
        return np.concatenate(
            [np.arange(self._head, self.capacity), np.arange(self._head)]
        )

    def row_series(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """One channel's retained raw samples in time order."""
        order = self._order()
        return self._times[order], self._values[order, row]

    def row_latest(self, row: int) -> Optional[Tuple[float, float]]:
        """The newest ``(time, value)`` on one channel, if any."""
        if not self._count:
            return None
        last = (self._head - 1) % self.capacity
        return float(self._times[last]), float(self._values[last, row])


class StoreChannel:
    """One named telemetry stream with raw ring + rollup tiers.

    Either standalone (its own width-one :class:`_Group`) or one
    column of a shared group created by
    :meth:`TimeseriesStore.register_group`.
    """

    def __init__(
        self,
        name: str,
        unit: str,
        capacity: int = 100_000,
        tiers: Sequence[TierSpec] = DEFAULT_TIERS,
        group: Optional[_Group] = None,
        row: int = 0,
    ) -> None:
        if not name:
            raise ValueError("channel name must be non-empty")
        if group is None:
            if capacity < 1:
                raise ValueError("channel capacity must be >= 1")
            group = _Group(1, capacity, tiers)
        self.name = name
        self.unit = unit
        self._group = group
        self._row = row

    def __len__(self) -> int:
        return len(self._group)

    @property
    def grouped(self) -> bool:
        """Whether this channel shares a matrix group with others."""
        return self._group.width > 1

    @property
    def tier_count(self) -> int:
        """Number of rollup tiers behind the raw ring."""
        return len(self._group._tiers)

    def append_block(self, times: np.ndarray, values: np.ndarray) -> None:
        """Ingest a chronological block of samples."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times/values must be equal-length 1-D arrays")
        if self.grouped:
            raise ValueError(
                f"channel {self.name!r} belongs to a group; ingest the "
                "whole group via TimeseriesStore.append_chunk"
            )
        self._group.append_matrix(times, values[:, None], label=self.name)

    def append(self, time_s: float, value: float) -> None:
        """Ingest a single sample."""
        self.append_block(np.asarray([time_s]), np.asarray([value]))

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """Chronological raw ``(times, values)`` currently retained."""
        return self._group.row_series(self._row)

    def since(self, since_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Raw samples with ``time > since_s`` (vectorized tail query)."""
        times, values = self.series()
        start = int(np.searchsorted(times, since_s, side="right"))
        return times[start:], values[start:]

    def tier(self, index: int) -> Dict[str, np.ndarray]:
        """Rollup tier *index* as ``times / mean / min / max`` arrays."""
        return self._group._tiers[index].view_row(self._row)

    @property
    def latest(self) -> Optional[Tuple[float, float]]:
        """Most recent ``(time, value)`` or ``None`` when empty."""
        return self._group.row_latest(self._row)

    @property
    def stats(self) -> ChannelStats:
        """Ingestion accounting (total appended, dropped from ring)."""
        appended = self._group._appended
        return ChannelStats(
            appended=appended,
            dropped=max(0, appended - len(self._group)),
        )


class TimeseriesStore:
    """Named collection of :class:`StoreChannel` with bulk ingestion.

    The store is the hub between producers (fleet engine capture) and
    consumers (HTTP endpoints, detectors).  An
    optional :class:`~repro.obs.metrics.MetricsRegistry` receives
    ingest accounting (``repro_store_samples_total``).
    """

    def __init__(
        self,
        capacity: int = 100_000,
        tiers: Sequence[TierSpec] = DEFAULT_TIERS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._capacity = capacity
        self._tiers = tuple(tiers)
        self._channels: Dict[str, StoreChannel] = {}
        self._rows: Dict[str, Tuple[_Group, int]] = {}
        self._metrics = metrics
        self._ingest_counter = (
            metrics.counter(
                "repro_store_samples_total",
                "Samples ingested into the timeseries store",
            )
            if metrics is not None
            else None
        )

    def register(
        self,
        name: str,
        unit: str = "",
        capacity: Optional[int] = None,
        tiers: Optional[Sequence[TierSpec]] = None,
    ) -> StoreChannel:
        """Create a standalone channel; rejects duplicate names."""
        if name in self._channels:
            raise ValueError(f"duplicate channel {name!r}")
        channel = StoreChannel(
            name,
            unit,
            capacity=self._capacity if capacity is None else capacity,
            tiers=self._tiers if tiers is None else tiers,
        )
        self._channels[name] = channel
        self._rows[name] = (channel._group, 0)
        return channel

    def register_group(
        self,
        names: Sequence[str],
        units: Optional[Mapping[str, str]] = None,
        capacity: Optional[int] = None,
        tiers: Optional[Sequence[TierSpec]] = None,
    ) -> None:
        """Create channels sharing one matrix-backed group.

        Grouped channels must always ingest together (one
        :meth:`append_chunk` covering every member) — that is what
        buys the vectorized bulk path the live capture relies on.
        """
        if not names:
            raise ValueError("a channel group needs at least one name")
        if len(set(names)) != len(names):
            raise ValueError("duplicate names within the group")
        for name in names:
            if name in self._channels:
                raise ValueError(f"duplicate channel {name!r}")
        units = units or {}
        group = _Group(
            len(names),
            self._capacity if capacity is None else capacity,
            self._tiers if tiers is None else tiers,
        )
        for row, name in enumerate(names):
            channel = StoreChannel(
                name, units.get(name, ""), group=group, row=row
            )
            self._channels[name] = channel
            self._rows[name] = (group, row)

    def channel(self, name: str) -> StoreChannel:
        """Look up a channel by name (KeyError when missing)."""
        return self._channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def channel_names(self) -> List[str]:
        """Registered channel names, sorted."""
        return sorted(self._channels)

    def append_chunk(
        self, times: np.ndarray, chunk: Mapping[str, np.ndarray]
    ) -> None:
        """Bulk-ingest one block of samples for several channels.

        *times* is shared by every channel in *chunk* (the engines
        produce aligned per-tick rows).  Unknown channel names are
        auto-registered — as one shared group when the whole chunk is
        new (the capture fast path), standalone otherwise — so
        producers do not need a registration handshake.  A chunk that
        covers exactly one group lands as a single matrix append.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        names = list(chunk)
        if not names:
            return
        unknown = [n for n in names if n not in self._channels]
        if len(unknown) == len(names):
            self.register_group(names)
        else:
            for name in unknown:
                self.register(name)

        first_group, _ = self._rows[names[0]]
        m = times.shape[0]
        if first_group.width == len(names) and all(
            self._rows[n][0] is first_group for n in names
        ):
            matrix = np.empty((m, first_group.width), dtype=np.float64)
            for name, values in chunk.items():
                matrix[:, self._rows[name][1]] = values
            first_group.append_matrix(times, matrix, label=names[0])
        else:
            for name, values in chunk.items():
                channel = self._channels[name]
                if channel.grouped:
                    raise ValueError(
                        f"channel {name!r} belongs to a group; a chunk "
                        "must cover its whole group"
                    )
                channel.append_block(times, values)
        if self._ingest_counter is not None:
            self._ingest_counter.inc(m * len(names))

    def group_writer(
        self, names: Sequence[str]
    ) -> Callable[[np.ndarray, np.ndarray], None]:
        """Return a bulk writer ``write(times, matrix)`` for one group.

        *matrix* is time-major ``(m, len(names))`` with columns in
        *names* order.  This is the zero-copy-ish producer path:
        callers that already hold their samples as one block (the
        fleet capture assembles one per flush) skip the per-channel
        dict of :meth:`append_chunk` entirely.  Raises ``ValueError``
        unless *names* covers exactly one registered group.
        """
        rows = [self._rows[name] for name in names]
        group = rows[0][0]
        if any(g is not group for g, _ in rows) or group.width != len(names):
            raise ValueError("names must cover exactly one channel group")
        perm = np.asarray([row for _, row in rows])
        inverse: Optional[np.ndarray] = (
            None
            if np.array_equal(perm, np.arange(len(names)))
            else np.argsort(perm)
        )
        counter = self._ingest_counter
        label = names[0]

        def write(times: np.ndarray, matrix: np.ndarray) -> None:
            """Append a time-major ``(m, len(names))`` block to the group."""
            matrix = np.asarray(matrix, dtype=np.float64)
            if inverse is not None:
                matrix = matrix[:, inverse]
            group.append_matrix(times, matrix, label=label)
            if counter is not None:
                counter.inc(matrix.shape[0] * matrix.shape[1])

        return write

    def append(self, name: str, time_s: float, value: float) -> None:
        """Ingest one sample on one channel (auto-registering)."""
        self.append_chunk(
            np.asarray([time_s]), {name: np.asarray([value])}
        )

    def latest(self) -> Dict[str, Tuple[float, float]]:
        """Most recent ``(time, value)`` per non-empty channel."""
        out: Dict[str, Tuple[float, float]] = {}
        for name in self.channel_names():
            last = self._channels[name].latest
            if last is not None:
                out[name] = last
        return out

    def total_samples(self) -> int:
        """Total samples ever appended across all channels."""
        return sum(
            group._appended * group.width
            for group in {
                id(g): g for g, _ in self._rows.values()
            }.values()
        )
