"""Checkpoint/restore: atomic on-disk format + bit-identical resume.

Unit tests pin the checkpoint container itself (atomic commit,
checksummed manifest, pruning, fingerprint refusal), then differential
suites prove the headline contract for every fleet backend: a run
interrupted at a checkpoint and resumed produces *every* trace column,
metric and capture row bit-for-bit equal to an uninterrupted run.  A
Hypothesis property drives the checkpoint cadence itself, so the cut
may land on any reachable tick boundary.  A cut resumes only under the
code that wrote it, and only checkpointing runs digest that code.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.checkpoint as checkpoint_module
import repro.fleet.engine as fleet_engine_module
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

    def test_resumed_cadence_rounds_onto_the_adopted_spill_grid(
        self, tmp_path
    ):
        """A resumed run keeps the checkpointed spill grid (40 ticks
        here) and rounds its own cadence (15 ticks) up onto it, so its
        cuts land where every trace row below them is on disk."""
        golden = make_engine().run(dt_s=DT_S, duration_s=DURATION_S)
        trace = str(tmp_path / "trace")

        def sharded(**kw):
            return make_engine("sharded", shards=3, shard_mode="inline",
                               trace_dir=trace, **kw)

        first = CheckpointConfig(directory=tmp_path / "a", every_s=80.0,
                                 keep=10)
        sharded(checkpoint=first).run(dt_s=DT_S, duration_s=DURATION_S)
        second = CheckpointConfig(directory=tmp_path / "b", every_s=30.0,
                                  keep=10)
        sharded(checkpoint=second).run(
            dt_s=DT_S, duration_s=DURATION_S,
            resume_from=list_checkpoints(first.root)[0],
        )
        cuts = list_checkpoints(second.root)
        assert [c.name for c in cuts] == ["ckpt-000000000080"]
        resumed = sharded().run(
            dt_s=DT_S, duration_s=DURATION_S, resume_from=cuts[0]
        )
        assert_identical(golden, resumed)

    def test_checkpoint_needs_persistent_trace_dir(self, tmp_path):
        cfg = CheckpointConfig(directory=tmp_path / "ckpt")
        eng = make_engine("sharded", shards=2, shard_mode="inline",
                          checkpoint=cfg)
        with pytest.raises(ValueError, match="persistent trace_dir"):
            eng.run(dt_s=DT_S, duration_s=DURATION_S)


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


def _check_cut_cadence(tmp_path, every_ticks, backend="vector", **kw):
    golden = _golden()
    cfg = CheckpointConfig(
        directory=tmp_path / "ckpt", every_s=every_ticks * DT_S, keep=1
    )
    engine = make_engine(backend, make_faults(), checkpoint=cfg, **kw)
    assert_identical(golden, engine.run(dt_s=DT_S, duration_s=DURATION_S))
    cut = latest_checkpoint(cfg.root)
    assert cut is not None
    resumed = make_engine(backend, make_faults(), **kw).run(
        dt_s=DT_S, duration_s=DURATION_S, resume_from=cut
    )
    assert_identical(golden, resumed)


@settings(max_examples=8, deadline=None)
@given(every_ticks=st.integers(min_value=1, max_value=STEPS - 1))
def test_any_cut_cadence_resumes_bit_identical(tmp_path_factory, every_ticks):
    """Checkpoint cadence is a free knob: no cut tick changes a bit."""
    _check_cut_cadence(tmp_path_factory.mktemp("ckpt-prop"), every_ticks)


@settings(max_examples=8, deadline=None)
@given(every_ticks=st.integers(min_value=1, max_value=STEPS - 1))
@example(every_ticks=1)
@example(every_ticks=5)
@example(every_ticks=13)
@example(every_ticks=50)
@example(every_ticks=119)
def test_any_cut_cadence_resumes_bit_identical_sharded(
    tmp_path_factory, every_ticks
):
    """The same on the segment sink, whose spill chunk (7 ticks) does
    not divide most cadences: cuts are rounded onto the spill grid."""
    tmp_path = tmp_path_factory.mktemp("ckpt-prop-sharded")
    _check_cut_cadence(
        tmp_path,
        every_ticks,
        "sharded",
        shards=3,
        shard_mode="inline",
        trace_dir=str(tmp_path / "trace"),
        stream_chunk_ticks=7,
    )


# ----------------------------------------------------------------------
# one checkpoint kind: the fingerprint tells runs apart
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "written, resumed",
    [
        ({"backend": "vector"}, {"backend": "reference"}),
        ({"backend": "vector"}, {"backend": "sharded", "shards": 3}),
        ({"backend": "sharded", "shards": 3}, {"backend": "vector"}),
        (
            {"backend": "sharded", "shards": 3},
            {"backend": "sharded", "shards": 2},
        ),
    ],
    ids=["vector-to-reference", "vector-to-sharded", "sharded-to-vector",
         "3-to-2-shards"],
)
def test_other_backend_or_layout_refused(tmp_path, written, resumed):
    def build(spec, **kw):
        spec = dict(spec)
        backend = spec.pop("backend")
        if backend == "sharded":
            spec.update(shard_mode="inline", trace_dir=str(tmp_path / "trace"))
        return make_engine(backend, **spec, **kw)

    cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=80.0)
    build(written, checkpoint=cfg).run(dt_s=DT_S, duration_s=DURATION_S)
    with pytest.raises(CheckpointError, match="does not match"):
        build(resumed).run(
            dt_s=DT_S, duration_s=DURATION_S,
            resume_from=latest_checkpoint(cfg.root),
        )


def test_other_checkpoint_kind_refused(tmp_path):
    """Checkpoints of another kind (e.g. the former per-backend
    ``fleet-vector`` layout) are refused before any state loads."""
    writer = CheckpointWriter(tmp_path / "ckpt", 40)
    writer.arrays("state", {"executed": np.zeros(6)})
    path = writer.commit("fleet-vector", {"kind": "fleet-vector"})
    with pytest.raises(CheckpointError, match="'fleet-vector'"):
        make_engine().run(dt_s=DT_S, duration_s=DURATION_S, resume_from=path)


# ----------------------------------------------------------------------
# the code that wrote a cut
# ----------------------------------------------------------------------
def test_cut_from_other_code_refused(tmp_path, monkeypatch):
    """A cut carries trace rows and pickles made by the code that wrote
    it; resumed under other code it is refused, naming only ``code``."""
    cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=80.0)
    make_engine(checkpoint=cfg).run(dt_s=DT_S, duration_s=DURATION_S)
    monkeypatch.setattr(fleet_engine_module, "code_digest", lambda: "0" * 64)
    with pytest.raises(
        CheckpointError,
        match=r"\(code: checkpoint='[0-9a-f]{64}' run='0{64}'\)$",
    ):
        make_engine().run(dt_s=DT_S, duration_s=DURATION_S,
                          resume_from=latest_checkpoint(cfg.root))


@pytest.mark.parametrize(
    "backend, kw",
    [
        ("vector", {}),
        ("reference", {}),
        ("sharded", {"shards": 2, "shard_mode": "inline"}),
    ],
    ids=["vector", "reference", "sharded"],
)
def test_run_without_checkpointing_never_digests_the_code(
    monkeypatch, backend, kw
):
    def refuse():
        raise AssertionError("code digest computed by a run without cuts")

    monkeypatch.setattr(checkpoint_module, "code_digest", refuse)
    monkeypatch.setattr(fleet_engine_module, "code_digest", refuse)
    result = make_engine(backend, make_faults(), **kw).run(
        dt_s=DT_S, duration_s=DURATION_S
    )
    assert result.times_s.shape == (STEPS,)
