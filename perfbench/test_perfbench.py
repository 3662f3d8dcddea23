"""Tests of the benchmark itself: span arithmetic and tiny workload runs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import run

run._import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "paper_table1": workloads.Table1Size(tests=("test1",)),
    "fleet_control": workloads.FleetControlSize(
        racks=2, per_rack=4, hours=0.05
    ),
    "scale_stream": workloads.ScaleSize(racks=2, per_rack=8, hours=0.1),
    "facility_day": workloads.FacilitySize(
        racks=1, per_rack=4, hours=0.5, jobs_per_hour=20.0
    ),
}


def _declared(kind: str):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _synthetic(spans: tracing.Spans, rows) -> None:
    """Fill *spans* with (name, parent, start, end) rows."""
    for name, parent, start, end in rows:
        index = spans.begin(name)
        spans.finish(index)
        spans.parent[index] = parent
        spans.start[index] = start
        spans.end[index] = end


def test_self_time_subtracts_direct_children_only():
    parent = np.array([-1, 0, 0, 1, -1])
    start = np.array([0.0, 1.0, 5.0, 2.0, 20.0])
    end = np.array([10.0, 4.0, 6.0, 3.0, 21.0])
    np.testing.assert_allclose(
        tracing.self_times(parent, start, end), [6.0, 2.0, 1.0, 1.0, 1.0]
    )


def test_totals_sum_self_time_per_name_including_nested_same_name():
    spans = tracing.Spans()
    _synthetic(
        spans,
        [
            ("engine", -1, 0.0, 10.0),
            ("read", 0, 1.0, 5.0),
            ("read", 1, 2.0, 3.0),  # nested call of the same layer
            ("decide", 0, 6.0, 7.0),
            ("decide", 0, 8.0, 8.5),
        ],
    )
    got = tracing.totals(spans)
    assert got["engine"] == (1, pytest.approx(4.5))
    assert got["read"] == (2, pytest.approx(4.0))
    assert got["decide"] == (2, pytest.approx(1.5))
    # the layers' self times add up to the root span's duration
    assert sum(t for _, t in got.values()) == pytest.approx(10.0)


def test_spans_nest_through_the_stack_and_write(tmp_path):
    spans = tracing.Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    data = spans.arrays()
    assert list(data["parent"]) == [-1, 0]
    assert data["end"][0] >= data["end"][1] >= data["start"][1]
    spans.write(tmp_path / "spans")
    saved = np.load(tmp_path / "spans.npz")
    assert list(saved["name_id"]) == [0, 1]
    assert json.loads((tmp_path / "spans.json").read_text())["names"] == [
        "outer", "inner",
    ]


def test_wrappers_are_removed_after_a_traced_operation():
    from repro.fleet.topology import Fleet

    original = Fleet.__dict__["servers"]
    installed = tracing.install(tracing.Spans())
    assert Fleet.__dict__["servers"] is not original
    installed.remove()
    assert Fleet.__dict__["servers"] is original


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name):
    result = run.measure(name, seed=3, seconds=0.0, trace=False,
                         size=TINY[name])
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    result = run.measure(name, seed=3, seconds=0.0, trace=True,
                         size=TINY[name])
    assert result["correct"], result
    declared = _declared("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_recorded_outputs_cover_every_workload_and_variant():
    recorded = json.loads((run.HERE / "expected.json").read_text())
    assert set(recorded) == set(workloads.WORKLOADS)
    for variants in recorded.values():
        assert set(variants) == {str(v) for v in range(workloads.VARIANTS)}


def test_a_changed_output_is_a_failed_unit():
    expected = {"run": {"energy_kwh": 1.0, "hot_spot_c": 60.0}}
    same = {"run": {"energy_kwh": 1.0, "hot_spot_c": 60.0}}
    drifted = {"run": {"energy_kwh": 1.0 + 1e-6, "hot_spot_c": 60.0}}
    assert run._mismatches(same, expected) == []
    assert run._mismatches(drifted, expected) == ["run"]
    assert run._mismatches({}, expected) == ["run"]
    assert run._mismatches(drifted, None) == []
