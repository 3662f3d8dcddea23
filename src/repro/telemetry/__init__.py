"""Continuous System Telemetry Harness (CSTH) substrate.

The paper collects runtime dynamics through Oracle's CSTH running on
the service processor: four CPU die temperatures, 32 DIMM temperatures,
per-core voltage/current and whole-system power, polled every 10 s.
The closed loops read the die channels at their poll instants
(:func:`repro.experiments.runner.run_experiment` and the fleet
slices); this package keeps what they record and what is learned from
it:

* :mod:`repro.telemetry.recorder` — tabular trace capture / CSV export,
* :mod:`repro.telemetry.segments` — streamed fleet traces spilled to
  memory-mapped ``.npy`` columns,
* :mod:`repro.telemetry.analysis` — trace statistics used in the
  evaluation (settle time, overshoot, thermal cycles, rolling means),
* :mod:`repro.telemetry.anomaly` — the MSET + SPRT prognostics
  watchdog.
"""

from repro.telemetry.analysis import (
    count_threshold_crossings,
    count_thermal_cycles,
    max_overshoot,
    rolling_mean,
    settle_time_s,
    summarize,
    TraceSummary,
)
from repro.telemetry.anomaly import (
    SimilarityModel,
    SprtDetector,
    TelemetryWatchdog,
)
from repro.telemetry.recorder import TraceRecorder

__all__ = [
    "SimilarityModel",
    "SprtDetector",
    "TelemetryWatchdog",
    "TraceRecorder",
    "TraceSummary",
    "count_threshold_crossings",
    "count_thermal_cycles",
    "max_overshoot",
    "rolling_mean",
    "settle_time_s",
    "summarize",
]
