"""Spans for the traced benchmark run.

The traced run wraps public functions and methods of each simulator
layer with span recorders, from this file only: nothing in ``src/`` is
edited.  A span is (name, start, end, parent, run id); spans stay in
compact in-memory arrays and are written out once, when the benchmark
ends.  A layer's self time is its span's duration minus the durations
of its direct child spans (the program is single-threaded in the
traced run, so children never overlap).

The untraced run uses :data:`NO_SPANS`, whose ``span`` is a shared
no-op context, so the workload code is identical in both runs.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np


class NoSpans:
    """Stand-in for :class:`Spans` in the untraced run."""

    def span(self, name: str):
        return nullcontext()


NO_SPANS = NoSpans()


class Spans:
    """In-memory span recorder with a parent stack and named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Identifier shared by the spans of one benchmark operation.
        self.run_id = 0
        self.counters: Dict[str, float] = {}

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span (``.npz``) plus names and counters (``.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), **self.arrays())
        path.with_suffix(".json").write_text(
            json.dumps({"names": self.names, "counters": self.counters})
        )


def self_times(
    parent: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the summed duration of its children."""
    duration = end - start
    children = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    return duration - children


def totals(spans: Spans) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, self time in s)}`` over every recorded span."""
    data = spans.arrays()
    own = self_times(data["parent"], data["start"], data["end"])
    n = len(spans.names)
    calls = np.bincount(data["name_id"], minlength=n)
    time_s = np.bincount(data["name_id"], weights=own, minlength=n)
    return {
        name: (int(calls[i]), float(time_s[i]))
        for i, name in enumerate(spans.names)
    }


# ----------------------------------------------------------------------
# wrappers around the program's public functions and methods
# ----------------------------------------------------------------------
After = Optional[Callable[[Spans, tuple, dict, object], None]]


def _wrap(spans: Spans, fn: Callable, name: str, after: After) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = spans.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.finish(index)
        if after is not None:
            after(spans, args, kwargs, result)
        return result

    return traced


def _count_changed(spans: Spans, args: tuple, kwargs: dict, wanted) -> None:
    observation = args[1] if len(args) > 1 else kwargs["observation"]
    spans.count("core.controllers.decisions")
    if wanted is not None and wanted != observation.current_rpm_command:
        spans.count("core.controllers.changed")


def _count_chunk_bytes(spans: Spans, args: tuple, kwargs: dict, _) -> None:
    chunk = args[2] if len(args) > 2 else kwargs["chunk"]
    spans.count(
        "telemetry.segments.record_chunk.bytes",
        float(sum(np.asarray(block).nbytes for block in chunk.values())),
    )


class Installed:
    """Wrappers in place on the program; :meth:`remove` restores it."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _method(installed, spans, cls, attr, name, after: After = None) -> None:
    original = cls.__dict__[attr]
    if isinstance(original, property):
        wrapped = property(_wrap(spans, original.fget, name, after))
    else:
        wrapped = _wrap(spans, original, name, after)
    installed.set(cls, attr, wrapped)


def _function(installed, spans, module, attr, name) -> None:
    """Wrap a module-level function everywhere it was imported by name."""
    original = getattr(module, attr)
    wrapped = _wrap(spans, original, name, None)
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if namespace is None or namespace.get(attr) is not original:
            continue
        if mod.__name__.split(".")[0] in ("repro", "workloads"):
            installed.set(mod, attr, wrapped)


def install(spans: Spans) -> Installed:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.engine.sharded as sharded
    import repro.experiments.characterization as characterization
    import repro.experiments.runner as runner
    import repro.fleet.metrics as fleet_metrics
    import repro.models.fitting as fitting
    from repro.core import lut as core_lut
    from repro.core.controllers.bangbang import BangBangController
    from repro.core.controllers.default import FixedSpeedController
    from repro.core.controllers.lut import LUTController
    from repro.engine.kernel import FleetVectorKernel, SingleServerKernel
    from repro.facility.carbon import CarbonModel
    from repro.facility.cooling import CoolingPlant
    from repro.facility.engine import FacilityEngine
    from repro.facility.power import PowerChain
    from repro.facility.workload import WorkloadQueue
    from repro.fleet.engine import FleetEngine
    from repro.fleet.faults import FaultSchedule
    from repro.fleet.scheduler import FleetScheduler, PlacementPolicy
    from repro.fleet.topology import Fleet
    from repro.obs.capture import FleetCapture
    from repro.telemetry.segments import FleetTraceReader, ShardTraceWriter

    installed = Installed()
    functions = [
        (runner, "run_experiment", "experiments.run_experiment"),
        (
            characterization,
            "run_characterization_steady",
            "experiments.characterization",
        ),
        (fitting, "fit_power_model", "models.fitting"),
        (fitting, "fit_fan_power_model", "models.fitting"),
        (core_lut, "build_lut_from_characterization", "core.lut.build"),
        (sharded, "run_sharded", "engine.sharded.run"),
        (fleet_metrics, "compute_fleet_metrics", "fleet.metrics.compute"),
    ]
    for module, attr, name in functions:
        _function(installed, spans, module, attr, name)

    methods = [
        (SingleServerKernel, "integrate", "engine.kernel.integrate"),
        (FleetVectorKernel, "__init__", "engine.kernel.fleet_build"),
        (FleetVectorKernel, "step_into", "engine.kernel.step_into"),
        (Fleet, "servers", "fleet.topology.servers"),
        (FleetScheduler, "assign_indexed", "fleet.scheduler.assign"),
        (FleetEngine, "run", "fleet.engine"),
        (FaultSchedule, "compile", "fleet.faults.compile"),
        (FleetTraceReader, "to_result", "telemetry.segments.read"),
        (FleetTraceReader, "column", "telemetry.segments.read"),
        (WorkloadQueue, "total_demand_pct", "facility.workload.demand"),
        (WorkloadQueue, "record_executed", "facility.workload.record"),
        (FacilityEngine, "run", "facility.compose"),
        (CoolingPlant, "return_temperature_c", "facility.cooling"),
        (CoolingPlant, "cooling_power_w", "facility.cooling"),
        (PowerChain, "utility_power_w", "facility.power"),
        (PowerChain, "chain_loss_w", "facility.power"),
        (CarbonModel, "carbon_kg", "facility.carbon"),
        (CarbonModel, "intensity_g_per_kwh", "facility.carbon"),
        (FleetCapture, "flush", "obs.capture.flush"),
    ]
    for cls, attr, name in methods:
        _method(installed, spans, cls, attr, name)
    for cls in (FixedSpeedController, BangBangController, LUTController):
        _method(
            installed, spans, cls, "decide", "core.controllers.decide",
            _count_changed,
        )
    for cls in PlacementPolicy.__subclasses__():
        if "order_indices" in cls.__dict__:
            _method(
                installed, spans, cls, "order_indices", "fleet.scheduler.order"
            )
    _method(
        installed, spans, ShardTraceWriter, "record_chunk",
        "telemetry.segments.record_chunk", _count_chunk_bytes,
    )
    return installed
