"""Experiment methodology, closed-loop runner, metrics, and reporting.

* :mod:`repro.experiments.protocol` — the paper's §IV experimental
  conditions (isolated 24 °C room, forced cold start, idle
  stabilization head, idle cool-down tail),
* :mod:`repro.experiments.runner` — drives LoadGen, the utilization
  monitor, a controller and the server simulator in closed loop,
* :mod:`repro.experiments.metrics` — Table I's columns (energy, net
  savings, peak power, max temperature, fan changes, average RPM),
* :mod:`repro.experiments.characterization` — the utilization ×
  fan-speed sweeps behind Figs. 1–2 and the model fit,
* :mod:`repro.experiments.report` — Table I assembly and the figure
  data series.
"""

from repro.experiments.characterization import (
    run_characterization_steady,
    run_characterization_transient,
    run_constant_load_experiment,
)
from repro.experiments.metrics import (
    ExperimentMetrics,
    compute_metrics,
    energy_kwh,
    net_savings_pct,
)
from repro.experiments.protocol import ExperimentProtocol
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.experiments.report import (
    Table1Cell,
    build_table1,
    fig1a_series,
    fig1b_series,
    fig2a_series,
    fig2b_series,
    fig3_series,
    render_table1,
)

__all__ = [
    "run_characterization_steady",
    "run_characterization_transient",
    "run_constant_load_experiment",
    "ExperimentMetrics",
    "compute_metrics",
    "energy_kwh",
    "net_savings_pct",
    "ExperimentProtocol",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "Table1Cell",
    "build_table1",
    "fig1a_series",
    "fig1b_series",
    "fig2a_series",
    "fig2b_series",
    "fig3_series",
    "render_table1",
]
