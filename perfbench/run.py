"""The simulator's benchmark: one workload, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_control --seed 1 \\
        --seconds 15 --trace 0

It runs operations of the named workload (see ``workloads.py``) until
``--seconds`` have passed, on seeded input variants taken in turn from
the one ``--seed`` selects, each twice.  It checks every simulated
output against ``expected.json`` (recorded by ``record_expected.py``)
and against the variant's first operation, prints a table, and prints
as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count operations (Table I cells or fleet and
facility runs); a failure is an exception, a critical trip, a shard
restart or a verification mismatch, so ``failed / attempted`` is the
failed-operation fraction.

With ``--trace 0`` the metrics are the end-to-end ones, all in host
(simulator) time: set-up and whole-operation time, server-ticks per
host second after set-up, the per-tick host time p50/p95, peak RSS of
the process and its shard workers, and trace bytes (see
``end_to_end`` for how repeats are combined).  With
``--trace 1`` it alternates untraced and traced operations (the traced
ones with span wrappers from ``tracing.py`` installed) and reports the
per-layer metrics per traced operation, plus the tracing overhead.
Spans are written to ``.perfbench/`` when the run ends.

The program under test is imported from ``src/`` next to this
directory, never from an installed copy; without it the run fails.
"""

from __future__ import annotations

import os

# pinned before numpy is imported: one BLAS thread per process
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

from tracing import NO_SPANS, Spans, install, totals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Streamed traces, written spans and temporary files; inside the
#: checkout and ignored by git.
WORKDIR = ROOT / ".perfbench"

#: Relative tolerance of the recorded-output comparison.
REL_TOL = 1e-9


def _import_program():
    """Import ``repro`` from the checkout's ``src/``; exit if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _mismatches(
    outputs: Dict[str, Dict[str, float]],
    expected: Optional[Dict[str, Dict[str, float]]],
) -> List[str]:
    """Units whose outputs differ from *expected* (None: nothing to check)."""
    if expected is None:
        return []
    bad = []
    for unit in set(outputs) | set(expected):
        got, want = outputs.get(unit), expected.get(unit)
        if got is None or want is None or set(got) != set(want):
            bad.append(unit)
            continue
        for key, value in want.items():
            if abs(got[key] - value) > REL_TOL * max(abs(value), 1e-12):
                bad.append(unit)
                break
    return bad


def _load_expected(workload: str, size) -> Optional[dict]:
    """Recorded outputs per variant; only full-size runs are recorded."""
    from workloads import WORKLOADS

    if size != WORKLOADS[workload].size:
        return None
    recorded = json.loads((HERE / "expected.json").read_text())
    return recorded[workload]


class Run:
    """Operations of one workload, their verification and their metrics.

    The seed picks where the run starts in the rotation of input
    variants; each variant is run ``REPEATS`` times in a row, so the
    same seed always gives the same sequence of inputs.
    """

    REPEATS = 2

    def __init__(self, workload: str, seed: int, size=None):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.size = size if size is not None else self.workload.size
        self.expected = _load_expected(workload, self.size)
        self.workdir = WORKDIR
        self.workdir.mkdir(exist_ok=True)
        #: ``(variant, OpResult)`` of every completed operation.
        self.ops: List = []
        self.attempted = 0
        self.failed = 0
        self._calls = 0
        self._first_outputs: Dict[int, dict] = {}

    def next_variant(self) -> int:
        from workloads import VARIANTS

        variant = (self.seed + self._calls // self.REPEATS) % VARIANTS
        self._calls += 1
        return variant

    def op(self, spans, variant: int, size=None):
        """Run, verify and record one operation; None if it raised."""
        gc.collect()
        try:
            result = self.workload.op(
                variant, size or self.size, spans, self.workdir
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.workload.units
            self.failed += self.workload.units
            return None
        bad = set(result.failed)
        if self.expected is not None:
            bad.update(
                _mismatches(result.outputs, self.expected[str(variant)])
            )
        first = self._first_outputs.setdefault(variant, result.outputs)
        bad.update(_mismatches(result.outputs, first))
        for unit in sorted(bad):
            print(f"perfbench: variant {variant} {unit} failed verification",
                  file=sys.stderr)
        self.attempted += len(result.outputs)
        self.failed += len(bad)
        self.ops.append((variant, result))
        return result


def end_to_end(ops) -> Dict[str, tuple]:
    """The end-to-end metrics over a run's ``(variant, OpResult)`` pairs."""

    # Repeats of one variant do the same deterministic work, so their
    # spread is interference from other load on the machine, which
    # comes in bursts of seconds: each variant contributes its fastest
    # repeat (per tick for the tick percentiles), as timeit does.  The
    # variants are then pooled, so a run's figures do not hinge on one
    # input.  Set-up time is the median over every operation.
    by_variant: Dict[int, list] = {}
    for variant, op in ops:
        by_variant.setdefault(variant, []).append(op)
    groups = list(by_variant.values())
    ticks_ms = np.concatenate(
        [np.min([op.tick_ms for op in group], axis=0) for group in groups]
    )
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (float(np.median([op.setup_s for _, op in ops])), "s"),
        "wall_s": (
            float(np.median([min(op.wall_s for op in g) for g in groups])),
            "s",
        ),
        "server_ticks_per_s": (
            float(np.median([
                max(op.server_ticks / (op.wall_s - op.setup_s) for op in g)
                for g in groups
            ])),
            "1/s",
        ),
        "tick_ms_p50": (float(np.percentile(ticks_ms, 50)), "ms"),
        "tick_ms_p95": (float(np.percentile(ticks_ms, 95)), "ms"),
        "peak_rss_mb": (max(own, children) / 1024.0, "MB"),
        "trace_bytes": (
            float(np.median([op.trace_bytes for _, op in ops])), "B"
        ),
    }


#: Spans reported as ``<name>.calls`` and ``<name>.time_s`` (self time).
CALL_SPANS = (
    "experiments.run_experiment",
    "engine.kernel.integrate",
    "core.controllers.decide",
    "fleet.topology.servers",
    "fleet.scheduler.order",
    "fleet.scheduler.assign",
    "engine.kernel.step_into",
    "telemetry.segments.record_chunk",
    "facility.workload.demand",
    "facility.workload.record",
    "obs.capture.flush",
)
#: Spans reported as ``<name>.time_s`` only.
TIME_SPANS = (
    "experiments.characterization",
    "models.fitting",
    "core.lut.build",
    "fleet.topology.build",
    "engine.kernel.fleet_build",
    "telemetry.segments.read",
    "engine.sharded.run",
    "fleet.faults.compile",
    "fleet.metrics.compute",
    "facility.compose",
    "facility.cooling",
    "facility.power",
    "facility.carbon",
)


def per_layer(spans, traced, untraced) -> Dict[str, tuple]:
    """Per-layer metrics per traced operation, from the recorded spans."""

    per_op = 1.0 / len(traced)
    spent = totals(spans)
    counters = spans.counters

    def calls(name):
        return spent.get(name, (0, 0.0))[0]

    def time_s(name):
        return spent.get(name, (0, 0.0))[1]

    metrics: Dict[str, tuple] = {}
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = (calls(name) * per_op, "count")
        metrics[f"{name}.time_s"] = (time_s(name) * per_op, "s")
    for name in TIME_SPANS:
        metrics[f"{name}.time_s"] = (time_s(name) * per_op, "s")
    decisions = counters.get("core.controllers.decisions", 0.0)
    metrics["core.controllers.changed_frac"] = (
        counters.get("core.controllers.changed", 0.0) / decisions
        if decisions else 0.0,
        "ratio",
    )
    metrics["fleet.topology.servers.per_server_tick"] = (
        calls("fleet.topology.servers")
        / sum(op.server_ticks for op in traced),
        "ratio",
    )
    metrics["fleet.engine.self_s"] = (time_s("fleet.engine") * per_op, "s")
    metrics["telemetry.segments.record_chunk.bytes"] = (
        counters.get("telemetry.segments.record_chunk.bytes", 0.0) * per_op,
        "B",
    )
    metrics["engine.sharded.restarts"] = (
        sum(op.restarts for op in traced) * per_op,
        "count",
    )
    metrics["trace.overhead_s"] = (
        float(np.median([op.wall_s for op in traced]))
        - float(np.median([op.wall_s for op in untraced])),
        "s",
    )
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size=None) -> dict:
    """Run the workload for *seconds* and return the result object."""

    run = Run(workload, seed, size)
    deadline = perf_counter() + seconds
    if not trace:
        while not run.ops or perf_counter() < deadline:
            if run.op(NO_SPANS, run.next_variant()) is None and not run.ops:
                break
        metrics = end_to_end(run.ops) if run.ops else None
    else:
        # the untraced reference operations run in the same shard mode
        # as the traced ones, so the difference is the tracing alone
        size = run.size
        if hasattr(size, "shard_mode"):
            size = replace(size, shard_mode="inline")
        spans = Spans()
        traced, untraced = [], []
        while not traced or perf_counter() < deadline:
            variant = run.next_variant()
            plain = run.op(NO_SPANS, variant, size)
            spans.run_id += 1
            installed = install(spans)
            try:
                done = run.op(spans, variant, size)
            finally:
                installed.remove()
            if plain is None or done is None:
                break
            untraced.append(plain)
            traced.append(done)
        spans.write(run.workdir / f"spans-{workload}-seed{seed}")
        metrics = per_layer(spans, traced, untraced) if traced else None
    if metrics is None:
        sys.exit("perfbench: no operation completed")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    WORKDIR.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORKDIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have {', '.join(WORKLOADS)})")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'ops_failed_frac':<48} "
          f"{result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
