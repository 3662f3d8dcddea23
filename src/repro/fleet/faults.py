"""Fleet-scale fault injection and degraded-operation scenarios.

The paper's control loop exists to keep servers safe and efficient
precisely when conditions degrade, and its prognostics reference
(Gross et al., MFPT 2006 — the paper's ref. [3]) is about detecting
failing sensors and components from telemetry.  This module brings
those failure modes to fleet scale as *declarative, time-windowed
events* that the :class:`~repro.fleet.engine.FleetEngine` injects into
every backend — the batched ``vector`` kernel, the per-simulator
``reference`` oracle (both through the one in-process tick loop), and
the ``sharded`` workers — without breaking the bit-identical
vector/sharded trace contract:

* :class:`SensorFaultEvent` — one server's CSTH thermal channel lies
  to its controller, reusing the five single-server
  :class:`~repro.server.faults.SensorFault` modes (stuck, drift,
  offset, spike, dropout).  A dropout (NaN reading) makes the BMC
  hold the last fan command until the channel returns.
* :class:`FanDegradationEvent` — a fan bank derates: the achievable
  rotor speed is capped at ``rpm_factor``  of the bank's maximum
  (clamped to stay above the bank minimum), whatever the controller
  commands.
* :class:`ServerOutageEvent` — the server's compute capacity drops to
  zero; the placement policy respills its share of the aggregate
  demand across the surviving servers, and whatever does not fit
  anywhere is counted as fault-attributable SLA loss.
* :class:`CracExcursionEvent` — a CRAC/ambient disturbance transient:
  the supply temperature of one rack (or the whole room) is offset by
  ``delta_c`` for the window, below the recirculation coupling
  (inlet = ``(supply + excursion) + recirculation``).

A :class:`FaultSchedule` is the declarative container (a frozen
dataclass tree of primitives, so scenario sweeps content-hash it
exactly like any other parameter); :meth:`FaultSchedule.compile`
lowers it to a :class:`FleetFaultPlan` of whole-horizon per-tick mask
arrays — outage masks, fan rpm caps, supply deltas — evaluated on the
engine's exact accumulated tick-time grid
(:func:`~repro.engine.kernel.plan_tick_times`), so a window starting
mid-chunk takes effect at the correct tick on every backend.  Live
:class:`~repro.server.faults.SensorFault` instances are materialized
fresh per compile, so a stateful :class:`SpikeFault` RNG never leaks
draws between runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.kernel import plan_tick_times
from repro.server.faults import (
    DriftFault,
    DropoutFault,
    FaultableSensor,
    OffsetFault,
    SensorFault,
    SpikeFault,
    StuckFault,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.topology import Fleet

#: The supported sensor-fault modes (the five single-server classes).
SENSOR_FAULT_MODES = ("stuck", "drift", "offset", "spike", "dropout")


def _validate_window(start_s: float, end_s: float) -> None:
    if not math.isfinite(start_s) or start_s < 0.0:
        raise ValueError(f"start_s must be finite and >= 0, got {start_s!r}")
    if math.isnan(end_s) or end_s <= start_s:
        raise ValueError(
            f"end_s must be after start_s ({start_s}), got {end_s!r}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One time-windowed disturbance (active on ``start_s <= t < end_s``)."""

    #: Onset time, seconds (simulation clock).
    start_s: float = 0.0
    #: Repair / end time, seconds (``inf`` = never repaired).
    end_s: float = math.inf

    def __post_init__(self) -> None:
        _validate_window(self.start_s, self.end_s)

    def active_mask(self, times_s: np.ndarray) -> np.ndarray:
        """Boolean activity over the engine's tick-time grid."""
        return (times_s >= self.start_s) & (times_s < self.end_s)


@dataclass(frozen=True)
class SensorFaultEvent(FaultEvent):
    """One server's thermal telemetry channel misbehaves.

    ``mode`` selects the single-server fault class; ``value`` carries
    its magnitude — the stuck reading in °C, the drift rate in °C/s,
    the calibration offset in °C, or the spike magnitude in °C
    (ignored for ``dropout``).  ``probability``/``seed`` apply to
    ``spike`` only.
    """

    #: Flat (rack-major) index of the affected server.
    server: int = 0
    #: One of :data:`SENSOR_FAULT_MODES`.
    mode: str = "stuck"
    #: Mode magnitude: stuck °C, drift °C/s, offset °C, spike °C.
    value: float = 0.0
    #: Per-poll spike probability (``spike`` mode only).
    probability: float = 0.05
    #: Spike RNG seed (``spike`` mode only).
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.server < 0:
            raise ValueError("server index must be >= 0")
        if self.mode not in SENSOR_FAULT_MODES:
            raise ValueError(
                f"unknown sensor-fault mode {self.mode!r} "
                f"(have {SENSOR_FAULT_MODES})"
            )
        # validate up front, not at compile time: a bad schedule must
        # fail while it is being loaded (the CLI's error path), never
        # mid-run
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability!r}"
            )

    def make_fault(self) -> SensorFault:
        """A fresh live :class:`SensorFault` for one run.

        New instance per compile: :class:`SpikeFault` keeps RNG state,
        and sharing it across runs would break seeded reproducibility.
        """
        if self.mode == "stuck":
            return StuckFault(self.value, self.start_s, self.end_s)
        if self.mode == "drift":
            return DriftFault(self.value, self.start_s, self.end_s)
        if self.mode == "offset":
            return OffsetFault(self.value, self.start_s, self.end_s)
        if self.mode == "spike":
            return SpikeFault(
                self.value,
                probability=self.probability,
                seed=self.seed,
                start_s=self.start_s,
                end_s=self.end_s,
            )
        return DropoutFault(self.start_s, self.end_s)


@dataclass(frozen=True)
class FanDegradationEvent(FaultEvent):
    """A fan bank derates: achievable speed capped at a max fraction.

    While active the physical rotor command is
    ``min(command, rpm_factor * rpm_max)`` — clamped to stay at or
    above the bank's minimum speed (a degraded bank still spins).  The
    controller keeps commanding (and observing) its own value; only
    the actuation is derated.
    """

    server: int = 0
    #: Fraction of the bank's ``rpm_max`` still achievable, in (0, 1].
    rpm_factor: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.server < 0:
            raise ValueError("server index must be >= 0")
        if not 0.0 < self.rpm_factor <= 1.0:
            raise ValueError(
                f"rpm_factor must be in (0, 1], got {self.rpm_factor!r}"
            )


@dataclass(frozen=True)
class ServerOutageEvent(FaultEvent):
    """A server goes down: capacity zero, load respills elsewhere."""

    server: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.server < 0:
            raise ValueError("server index must be >= 0")


@dataclass(frozen=True)
class CracExcursionEvent(FaultEvent):
    """A CRAC supply setpoint excursion (°C) over one rack or the room.

    ``rack=None`` disturbs every rack (room-level ambient transient);
    ``delta_c`` may be negative (overcooling) or positive (a failing
    or setback CRAC unit).
    """

    #: Supply temperature offset while active, °C.
    delta_c: float = 2.0
    #: Affected rack index, or ``None`` for the whole room.
    rack: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.delta_c):
            raise ValueError("delta_c must be finite")
        if self.rack is not None and self.rack < 0:
            raise ValueError("rack index must be >= 0")


#: Any concrete fault event.
AnyFaultEvent = Union[
    SensorFaultEvent,
    FanDegradationEvent,
    ServerOutageEvent,
    CracExcursionEvent,
]

#: JSON ``kind`` tag → event class, for the CLI / sweep spec format.
_EVENT_KINDS = {
    "sensor": SensorFaultEvent,
    "fan": FanDegradationEvent,
    "outage": ServerOutageEvent,
    "crac": CracExcursionEvent,
}
_KIND_OF_CLASS = {cls: kind for kind, cls in _EVENT_KINDS.items()}


@dataclass(frozen=True)
class FaultSchedule:
    """A declarative, content-hashable set of fleet fault events.

    The schedule is pure data (frozen dataclasses of primitives): it
    can be embedded in a :class:`~repro.sweep.spec.ScenarioSpec`
    parameter mapping and content-hashes deterministically, so sweeps
    over failure scenarios are cache-correct.  Compile it per run with
    :meth:`compile`; an empty schedule compiles to ``None`` and the
    engine takes exactly its fault-free path.
    """

    events: Tuple[AnyFaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"expected FaultEvent instances, got {type(event).__name__}"
                )
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def empty(self) -> bool:
        """Whether the schedule holds no events at all."""
        return not self.events

    # ------------------------------------------------------------------
    # JSON round-trip (the CLI's --faults file format)
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        """The events as plain ``{"kind": ..., ...}`` mappings."""
        out = []
        for event in self.events:
            entry: dict = {"kind": _KIND_OF_CLASS[type(event)]}
            for name, value in vars(event).items():
                if isinstance(value, float) and math.isinf(value):
                    continue  # "no end" is the JSON default
                entry[name] = value
            out.append(entry)
        return out

    @classmethod
    def from_dicts(cls, entries: Sequence[Mapping[str, Any]]) -> "FaultSchedule":
        """Build a schedule from ``{"kind": ..., ...}`` mappings."""
        events = []
        for entry in entries:
            if not isinstance(entry, Mapping):
                raise ValueError(
                    "fault events must be JSON objects, got "
                    f"{type(entry).__name__}: {entry!r}"
                )
            entry = dict(entry)
            kind = entry.pop("kind", None)
            if kind not in _EVENT_KINDS:
                raise ValueError(
                    f"unknown fault event kind {kind!r} "
                    f"(have {sorted(_EVENT_KINDS)})"
                )
            try:
                events.append(_EVENT_KINDS[kind](**entry))
            except TypeError as exc:
                raise ValueError(f"bad {kind!r} fault event: {exc}") from None
        return cls(events=tuple(events))

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the schedule as a JSON list of event objects."""
        path = Path(path)
        with path.open("w") as handle:
            json.dump(self.to_dicts(), handle, indent=1)
        return path

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "FaultSchedule":
        """Load a schedule written by :meth:`to_json` (or by hand)."""
        with Path(path).open("r") as handle:
            entries = json.load(handle)
        if not isinstance(entries, list):
            raise ValueError("fault spec must be a JSON list of events")
        return cls.from_dicts(entries)

    @classmethod
    def resolve(cls, value: object) -> Optional["FaultSchedule"]:
        """Coerce a sweep/CLI parameter into a schedule.

        Accepts ``None`` (no faults), a :class:`FaultSchedule`, or a
        sequence of event mappings (the JSON form).  Empty schedules
        resolve to ``None``.
        """
        if value is None:
            return None
        if isinstance(value, FaultSchedule):
            return None if value.empty else value
        if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
            if all(isinstance(item, FaultEvent) for item in value):
                schedule = cls(events=tuple(value))
            else:
                schedule = cls.from_dicts(value)
            return None if schedule.empty else schedule
        raise TypeError(
            "faults must be a FaultSchedule or a list of event mappings, "
            f"got {type(value).__name__}"
        )

    # ------------------------------------------------------------------
    # validation and compilation
    # ------------------------------------------------------------------
    def validate_for(self, fleet: "Fleet") -> None:
        """Reject events targeting servers/racks the fleet lacks."""
        n = fleet.server_count
        racks = fleet.rack_count
        for event in self.events:
            server = getattr(event, "server", None)
            if server is not None and server >= n:
                raise ValueError(
                    f"fault event targets server {server}, "
                    f"fleet has {n} servers"
                )
            rack = getattr(event, "rack", None)
            if rack is not None and rack >= racks:
                raise ValueError(
                    f"fault event targets rack {rack}, fleet has {racks} racks"
                )

    def compile(
        self, fleet: "Fleet", steps: int, dt_s: float
    ) -> Optional["FleetFaultPlan"]:
        """Lower the schedule to per-tick mask arrays for one run.

        Activity is evaluated on the engine's accumulated tick-time
        grid (the time at which each tick's scheduling and polling
        happen), so both fleet loops see identical masks and onsets
        land on the exact tick, never the next poll boundary.  Returns
        ``None`` for an empty schedule.
        """
        if self.empty:
            return None
        self.validate_for(fleet)
        n = fleet.server_count
        times = plan_tick_times(steps, dt_s)[:steps]
        rack_of = np.asarray(fleet.rack_index_of_server)

        outage = np.zeros((steps, n), dtype=bool)
        rpm_cap = np.full((steps, n), np.inf)
        supply_delta = np.zeros((steps, n))
        fault_active = np.zeros((steps, n), dtype=bool)
        sensor_channels = [FaultableSensor() for _ in range(n)]
        has_fan = False
        has_excursions = False

        rpm_min = np.array([spec.fan.rpm_min for spec in fleet.servers])
        rpm_max = np.array([spec.fan.rpm_max for spec in fleet.servers])

        for event in self.events:
            mask = event.active_mask(times)
            if isinstance(event, ServerOutageEvent):
                outage[mask, event.server] = True
                fault_active[mask, event.server] = True
            elif isinstance(event, FanDegradationEvent):
                has_fan = True
                cap = min(
                    rpm_max[event.server],
                    max(
                        rpm_min[event.server],
                        event.rpm_factor * rpm_max[event.server],
                    ),
                )
                rpm_cap[mask, event.server] = np.minimum(
                    rpm_cap[mask, event.server], cap
                )
                fault_active[mask, event.server] = True
            elif isinstance(event, CracExcursionEvent):
                has_excursions = True
                if event.rack is None:
                    affected = np.ones(n, dtype=bool)
                else:
                    affected = rack_of == event.rack
                supply_delta[np.ix_(mask, affected)] += event.delta_c
                fault_active[np.ix_(mask, affected)] = True
            else:  # SensorFaultEvent
                sensor_channels[event.server].inject(event.make_fault())
                fault_active[mask, event.server] = True

        return FleetFaultPlan(
            outage=outage,
            outage_any=outage.any(axis=1),
            rpm_cap=rpm_cap,
            has_fan_faults=has_fan,
            supply_delta=supply_delta,
            has_excursions=has_excursions,
            fault_active=fault_active,
            sensor_channels=sensor_channels,
        )


class FleetFaultPlan:
    """A compiled fault schedule: whole-horizon per-tick mask arrays.

    Produced by :meth:`FaultSchedule.compile` for one run; consumed by
    the fleet tick loop and the sharded workers (the masks are shared,
    so the backends cannot disagree about when an event is active).
    All arrays are
    ``(steps, n)`` in the fleet's flat server order.
    """

    __slots__ = (
        "outage",
        "outage_any",
        "rpm_cap",
        "has_fan_faults",
        "supply_delta",
        "has_excursions",
        "fault_active",
        "sensor_channels",
        "_has_sensor",
    )

    def __init__(
        self,
        outage: np.ndarray,
        outage_any: np.ndarray,
        rpm_cap: np.ndarray,
        has_fan_faults: bool,
        supply_delta: np.ndarray,
        has_excursions: bool,
        fault_active: np.ndarray,
        sensor_channels: Sequence[FaultableSensor],
    ) -> None:
        #: Per-tick per-server outage mask (True = zero capacity).
        self.outage = outage
        #: Per-tick "any server out" flags (skips the respill math).
        self.outage_any = outage_any
        #: Per-tick per-server achievable-rpm cap (inf = healthy).
        self.rpm_cap = rpm_cap
        self.has_fan_faults = has_fan_faults
        #: Per-tick per-server CRAC supply offset, °C.
        self.supply_delta = supply_delta
        self.has_excursions = has_excursions
        #: Per-tick per-server "any fault touches this server" mask.
        self.fault_active = fault_active
        #: One faultable thermal channel per server, polled by the
        #: engine's controller loop.
        self.sensor_channels = list(sensor_channels)
        self._has_sensor = any(
            channel.fault_count for channel in self.sensor_channels
        )

    @property
    def has_sensor_faults(self) -> bool:
        """Whether any server has a telemetry fault registered."""
        return self._has_sensor

    def transform_observation(
        self, server: int, time_s: float, max_c: float, avg_c: float
    ) -> Tuple[float, float]:
        """Apply *server*'s active sensor faults to one controller poll.

        The fleet engine exposes one thermal channel per server (the
        max and mean junction readings); composition is the
        single-server :meth:`FaultableSensor.transform` — the max
        reading goes through the whole fault chain first, then the
        mean, a fixed order every backend shares so stateful faults
        (spikes) consume their RNG identically.  A dropout yields NaN,
        which the engine treats as "hold the last command".
        """
        channel = self.sensor_channels[server]
        if not channel.fault_count:
            return max_c, avg_c
        return (
            channel.transform(time_s, max_c),
            channel.transform(time_s, avg_c),
        )
