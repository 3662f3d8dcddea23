"""Checkpoint/restore: atomic on-disk format + bit-identical resume.

Unit tests pin the checkpoint container itself (atomic commit,
checksummed manifest, pruning, fingerprint refusal), then differential
suites prove the headline contract for every engine path: a run
interrupted at a checkpoint and resumed produces *every* trace column,
metric and capture row bit-for-bit equal to an uninterrupted run.  A
Hypothesis property drives the checkpoint cadence itself, so the cut
may land on any reachable tick boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controllers.pid import PIController
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointWriter,
    RunInterrupted,
    latest_checkpoint,
    list_checkpoints,
    prune_checkpoints,
    read_manifest,
    require_fingerprint,
    resolve_checkpoint,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.fleet import (
    PLACEMENT_POLICIES,
    FaultSchedule,
    FleetEngine,
    FleetScheduler,
    FleetWorkload,
    build_uniform_fleet,
)
from repro.obs.capture import FleetCapture
from repro.obs.store import TimeseriesStore
from repro.server.faults import DropoutFault, StuckFault
from repro.workloads.profile import StaircaseProfile

DT_S = 2.0
DURATION_S = 240.0
STEPS = int(DURATION_S / DT_S)
PROFILE = StaircaseProfile([25.0, 85.0, 55.0, 95.0], 60.0)

TRACES = (
    "times_s",
    "total_power_w",
    "fan_power_w",
    "max_junction_c",
    "utilization_pct",
    "inlet_c",
    "mean_rpm",
    "unserved_pct",
    "pstate_index",
    "work_deficit_pct",
)

FAULTS_JSON = [
    {"kind": "sensor", "server": 1, "mode": "stuck", "value": 45.0,
     "start_s": 60.0, "end_s": 150.0},
    {"kind": "outage", "server": 3, "start_s": 100.0, "end_s": 180.0},
]


def make_engine(backend="vector", faults=None, **kw):
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=3)
    return FleetEngine(
        fleet,
        FleetWorkload(PROFILE, fleet.server_count),
        scheduler=FleetScheduler(PLACEMENT_POLICIES["coolest-first"]()),
        controller_factory=lambda spec: PIController(),
        backend=backend,
        faults=faults,
        **kw,
    )


def make_faults():
    return FaultSchedule.from_dicts(FAULTS_JSON)


def assert_identical(golden, other):
    for name in TRACES:
        a = np.asarray(getattr(golden, name))
        b = np.asarray(getattr(other, name))
        assert np.array_equal(a, b), f"trace column {name} differs"
    assert golden.metrics.energy_kwh == other.metrics.energy_kwh
    assert golden.metrics.sla_total_pct_s == other.metrics.sla_total_pct_s


# ----------------------------------------------------------------------
# container format
# ----------------------------------------------------------------------
class TestCheckpointContainer:
    def test_commit_is_atomic(self, tmp_path):
        writer = CheckpointWriter(tmp_path, 7)
        writer.arrays("state", {"x": np.arange(4.0)})
        writer.pickle("control", {"k": 1})
        assert not list_checkpoints(tmp_path)  # staging is invisible
        path = writer.commit("unit-test", {"kind": "unit-test"})
        assert list_checkpoints(tmp_path) == [path]
        assert not any(p.name.startswith("tmp-") for p in tmp_path.iterdir())

    def test_abort_leaves_nothing(self, tmp_path):
        writer = CheckpointWriter(tmp_path, 3)
        writer.arrays("state", {"x": np.zeros(2)})
        writer.abort()
        assert not list_checkpoints(tmp_path)
        assert not any(tmp_path.iterdir())

    def test_corruption_detected(self, tmp_path):
        writer = CheckpointWriter(tmp_path, 5)
        writer.arrays("state", {"x": np.arange(8.0)})
        path = writer.commit("unit-test", {"kind": "unit-test"})
        payload = bytearray((path / "state.npz").read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        (path / "state.npz").write_bytes(bytes(payload))
        with pytest.raises(CheckpointError, match="corrupt"):
            read_manifest(path, verify=True)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        writer = CheckpointWriter(tmp_path, 5)
        writer.arrays("state", {"x": np.zeros(2)})
        path = writer.commit("unit-test", {"kind": "unit-test", "seed": 0})
        manifest = read_manifest(path, verify=False)
        with pytest.raises(CheckpointError, match="seed"):
            require_fingerprint(manifest, {"kind": "unit-test", "seed": 1})

    def test_prune_keeps_newest(self, tmp_path):
        for tick in (10, 20, 30, 40):
            writer = CheckpointWriter(tmp_path, tick)
            writer.arrays("state", {"x": np.zeros(1)})
            writer.commit("unit-test", {"kind": "unit-test"})
        prune_checkpoints(tmp_path, keep=2)
        kept = [p.name for p in list_checkpoints(tmp_path)]
        assert kept == ["ckpt-000000000030", "ckpt-000000000040"]
        assert latest_checkpoint(tmp_path).name == "ckpt-000000000040"

    def test_resolve_accepts_dir_or_root(self, tmp_path):
        writer = CheckpointWriter(tmp_path, 9)
        writer.arrays("state", {"x": np.zeros(1)})
        path = writer.commit("unit-test", {"kind": "unit-test"})
        assert resolve_checkpoint(path) == path
        assert resolve_checkpoint(tmp_path) == path
        with pytest.raises(CheckpointError):
            resolve_checkpoint(tmp_path / "missing")

    def test_run_interrupted_carries_path(self):
        exc = RunInterrupted("stopped", "/some/ckpt")
        assert exc.checkpoint_path == "/some/ckpt"


# ----------------------------------------------------------------------
# differential resume, per backend
# ----------------------------------------------------------------------
class TestFleetResume:
    @pytest.mark.parametrize("backend", ["vector", "reference"])
    @pytest.mark.parametrize("with_faults", [False, True])
    def test_resume_bit_identical(self, tmp_path, backend, with_faults):
        faults = make_faults() if with_faults else None
        golden = make_engine(backend, faults).run(
            dt_s=DT_S, duration_s=DURATION_S
        )
        cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=80.0,
                               keep=10)
        checkpointed = make_engine(backend, faults, checkpoint=cfg).run(
            dt_s=DT_S, duration_s=DURATION_S
        )
        assert_identical(golden, checkpointed)
        cuts = list_checkpoints(cfg.root)
        assert cuts, "no checkpoints were written"
        for cut in cuts:
            resumed_engine = make_engine(backend, make_faults()
                                         if with_faults else None)
            resumed = resumed_engine.run(
                dt_s=DT_S, duration_s=DURATION_S, resume_from=cut
            )
            assert_identical(golden, resumed)
            assert resumed_engine.last_resume_tick > 0

    def test_capture_rows_survive_resume(self, tmp_path):
        def captured(resume_from=None, checkpoint=None):
            store = TimeseriesStore()
            engine = make_engine(
                "vector",
                capture=FleetCapture(store=store, chunk_ticks=4),
                checkpoint=checkpoint,
            )
            engine.run(dt_s=DT_S, duration_s=DURATION_S,
                       resume_from=resume_from)
            name = store.channel_names()[0]
            return {n: store.channel(n).series() for n in
                    store.channel_names()}, name

        golden, name = captured()
        cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=80.0,
                               keep=10)
        captured(checkpoint=cfg)
        cut = latest_checkpoint(cfg.root)
        resumed, _ = captured(resume_from=cut)
        assert golden.keys() == resumed.keys()
        for channel, (times, values) in golden.items():
            rt, rv = resumed[channel]
            assert np.array_equal(times, rt), f"{channel} capture times"
            assert np.array_equal(values, rv), f"{channel} capture values"

    def test_stop_writes_resumable_checkpoint(self, tmp_path):
        golden = make_engine().run(dt_s=DT_S, duration_s=DURATION_S)
        cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=1e9)
        engine = make_engine(checkpoint=cfg)
        stream = engine.run_stream(dt_s=DT_S)
        with pytest.raises(RunInterrupted) as err:
            for view in stream:
                if view.tick == 40:
                    engine.request_stop()
        assert err.value.checkpoint_path is not None
        resumed = make_engine().run(
            dt_s=DT_S, duration_s=DURATION_S,
            resume_from=err.value.checkpoint_path,
        )
        assert_identical(golden, resumed)

    def test_wrong_fingerprint_refused(self, tmp_path):
        cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=80.0)
        make_engine(checkpoint=cfg).run(dt_s=DT_S, duration_s=DURATION_S)
        other = make_engine("vector", seed=99)
        with pytest.raises(CheckpointError, match="does not match"):
            other.run(dt_s=DT_S, duration_s=DURATION_S,
                      resume_from=latest_checkpoint(cfg.root))


class TestShardedResume:
    def test_inline_resume_bit_identical(self, tmp_path):
        golden = make_engine().run(dt_s=DT_S, duration_s=DURATION_S)
        cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=80.0,
                               keep=10)
        eng = make_engine(
            "sharded", shards=3, shard_mode="inline",
            trace_dir=str(tmp_path / "trace"), checkpoint=cfg,
        )
        assert_identical(golden, eng.run(dt_s=DT_S, duration_s=DURATION_S))
        cuts = list_checkpoints(cfg.root)
        assert cuts
        for cut in cuts:
            resumed = make_engine(
                "sharded", shards=3, shard_mode="inline",
                trace_dir=str(tmp_path / "trace"),
            ).run(dt_s=DT_S, duration_s=DURATION_S, resume_from=cut)
            assert_identical(golden, resumed)

    def test_checkpoint_needs_persistent_trace_dir(self, tmp_path):
        cfg = CheckpointConfig(directory=tmp_path / "ckpt")
        eng = make_engine("sharded", shards=2, shard_mode="inline",
                          checkpoint=cfg)
        with pytest.raises(ValueError, match="persistent trace_dir"):
            eng.run(dt_s=DT_S, duration_s=DURATION_S)


# ----------------------------------------------------------------------
# experiment runner
# ----------------------------------------------------------------------
class TestExperimentResume:
    PROFILE = StaircaseProfile([20.0, 80.0, 50.0, 95.0], 120.0)
    CONFIG = ExperimentConfig(dt_s=1.0, seed=7)

    def run(self, **kw):
        return run_experiment(
            PIController(),
            self.PROFILE,
            config=self.CONFIG,
            faults=[
                (0, StuckFault(45.0, start_s=100.0, end_s=250.0)),
                (2, DropoutFault(start_s=150.0, end_s=200.0)),
            ],
            **kw,
        )

    def test_resume_bit_identical(self, tmp_path):
        golden = self.run()
        cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=120.0,
                               keep=10)
        checkpointed = self.run(checkpoint=cfg)
        for name, col in golden.as_arrays().items():
            assert np.array_equal(col, checkpointed.column(name)), name
        cuts = list_checkpoints(cfg.root)
        assert cuts, "no experiment checkpoints written"
        for cut in cuts:
            resumed = self.run(resume_from=cut)
            for name, col in golden.as_arrays().items():
                assert np.array_equal(col, resumed.column(name)), (
                    f"resume@{cut.name}: {name}"
                )
            assert resumed.metrics == golden.metrics

    def test_reference_engine_refuses_checkpoint(self, tmp_path):
        cfg = CheckpointConfig(directory=tmp_path / "ckpt")
        with pytest.raises(ValueError, match="engine='kernel'"):
            self.run(engine="reference", checkpoint=cfg)


# ----------------------------------------------------------------------
# property: any reachable cut tick preserves every column
# ----------------------------------------------------------------------
_GOLDEN_CACHE = {}


def _golden():
    if "result" not in _GOLDEN_CACHE:
        _GOLDEN_CACHE["result"] = make_engine(
            faults=make_faults()
        ).run(dt_s=DT_S, duration_s=DURATION_S)
    return _GOLDEN_CACHE["result"]


@settings(max_examples=8, deadline=None)
@given(every_ticks=st.integers(min_value=1, max_value=STEPS - 1))
def test_any_cut_cadence_resumes_bit_identical(tmp_path_factory, every_ticks):
    """Checkpoint cadence is a free knob: no cut tick changes a bit."""
    tmp_path = tmp_path_factory.mktemp("ckpt-prop")
    golden = _golden()
    cfg = CheckpointConfig(
        directory=tmp_path / "ckpt", every_s=every_ticks * DT_S, keep=1
    )
    engine = make_engine(faults=make_faults(), checkpoint=cfg)
    assert_identical(golden, engine.run(dt_s=DT_S, duration_s=DURATION_S))
    cut = latest_checkpoint(cfg.root)
    assert cut is not None
    resumed = make_engine(faults=make_faults()).run(
        dt_s=DT_S, duration_s=DURATION_S, resume_from=cut
    )
    assert_identical(golden, resumed)
