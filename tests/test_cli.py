"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCharacterize:
    def test_prints_table_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        assert main(["characterize", "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "P_compute(W)" in captured
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("utilization_pct,fan_rpm")

    def test_raw_mode_multiplies_rows(self, tmp_path):
        agg = tmp_path / "agg.csv"
        raw = tmp_path / "raw.csv"
        main(["characterize", "--output", str(agg)])
        main(["characterize", "--output", str(raw), "--raw"])
        assert len(raw.read_text().splitlines()) > len(
            agg.read_text().splitlines()
        )


class TestFitAndLut:
    @pytest.fixture(scope="class")
    def samples_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "samples.csv"
        main(["characterize", "--output", str(path)])
        return path

    def test_fit_from_csv(self, samples_csv, capsys):
        assert main(["fit", "--samples", str(samples_csv)]) == 0
        out = capsys.readouterr().out
        assert "k3 =" in out
        assert "RMSE" in out

    def test_lut_build_and_save(self, samples_csv, tmp_path, capsys):
        lut_path = tmp_path / "lut.json"
        assert (
            main(
                [
                    "lut",
                    "--samples",
                    str(samples_csv),
                    "--output",
                    str(lut_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "leak+fan(W)" in out
        assert lut_path.exists()

    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(SystemExit):
            main(["fit", "--samples", str(bad)])


class TestRun:
    def test_run_lut_controller(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        lut = tmp_path / "lut.json"
        main(["characterize", "--output", str(samples)])
        main(["lut", "--samples", str(samples), "--output", str(lut)])
        trace = tmp_path / "trace.csv"
        assert (
            main(
                [
                    "run",
                    "--controller",
                    "lut",
                    "--test",
                    "test3",
                    "--lut",
                    str(lut),
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "energy" in out
        assert trace.exists()
        assert len(trace.read_text().splitlines()) > 4000

    def test_run_default_controller(self, capsys):
        assert main(["run", "--controller", "default", "--test", "test1"]) == 0
        out = capsys.readouterr().out
        assert "fan changes: 0" in out

    def test_unknown_test_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--test", "nope"])


class TestFig:
    @pytest.mark.parametrize("figure", ["1a", "1b", "2a", "2b"])
    def test_figure_charts(self, figure, capsys):
        assert main(["fig", "--figure", figure]) == 0
        out = capsys.readouterr().out
        assert "degC" in out or "temp" in out
        assert "|" in out  # chart frame

    def test_fig2a_reports_minimum(self, capsys):
        main(["fig", "--figure", "2a"])
        out = capsys.readouterr().out
        assert "minimum" in out
        assert "RPM" in out


class TestFleet:
    def test_coordinated_controller_reports_deficit_and_sla(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--controller",
                    "coordinated",
                    "--policy",
                    "dvfs-aware",
                    "--racks",
                    "1",
                    "--servers-per-rack",
                    "2",
                    "--hours",
                    "0.5",
                    "--dt",
                    "60",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "controller Coordinated" in out
        assert "deficit(%s)" in out
        assert "DVFS deficit" in out
        assert "lost work" in out

    def test_fan_only_fleet_still_runs(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--controller",
                    "default",
                    "--racks",
                    "1",
                    "--servers-per-rack",
                    "2",
                    "--hours",
                    "0.5",
                    "--dt",
                    "60",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SLA" in out
        assert "0.0 pct*s DVFS deficit" in out

    def test_fault_spec_reports_degraded_operation(self, tmp_path, capsys):
        import json

        spec = tmp_path / "faults.json"
        spec.write_text(
            json.dumps(
                [
                    {
                        "kind": "sensor",
                        "server": 0,
                        "mode": "stuck",
                        "value": 30.0,
                        "start_s": 120.0,
                        "end_s": 900.0,
                    },
                    {
                        "kind": "outage",
                        "server": 1,
                        "start_s": 300.0,
                        "end_s": 1500.0,
                    },
                ]
            )
        )
        assert (
            main(
                [
                    "fleet",
                    "--controller",
                    "pi",
                    "--racks",
                    "1",
                    "--servers-per-rack",
                    "2",
                    "--hours",
                    "0.5",
                    "--dt",
                    "60",
                    "--faults",
                    str(spec),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "faults     : 2 events" in out
        assert "degraded operation" in out
        assert "respilled" in out

    def test_empty_fault_spec_reports_zero_events(self, tmp_path, capsys):
        spec = tmp_path / "faults.json"
        spec.write_text("[]")
        argv = ["fleet", "--racks", "1", "--servers-per-rack", "1"]
        argv += ["--hours", "0.25", "--controller", "pi", "--faults", str(spec)]
        assert main(argv) == 0
        assert "faults     : 0 events" in capsys.readouterr().out

    def test_bad_fault_spec_rejected(self, tmp_path):
        spec = tmp_path / "faults.json"
        spec.write_text('[{"kind": "meteor"}]')
        with pytest.raises(SystemExit, match="fault spec"):
            main(["fleet", "--faults", str(spec)])
        with pytest.raises(SystemExit, match="fault spec"):
            main(["fleet", "--faults", str(tmp_path / "missing.json")])


class TestSweep:
    _ARGS = [
        "sweep",
        "--racks", "1",
        "--servers-per-rack", "1,2",
        "--policy", "round-robin",
        "--controller", "default",
        "--crac", "24",
        "--workload", "batch",
        "--hours", "0.25",
        "--dt", "60",
        "--workers", "2",
        "--quiet",
    ]

    def test_cross_product_table_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        args = self._ARGS + [
            "--cache-dir", str(tmp_path / "cache"), "--csv", str(csv_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "E(kWh)" in out and "hotspot(C)" in out
        assert "2 total, 2 executed, 0 cached" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("racks,")
        assert "energy_kwh" in header

    def test_second_invocation_served_from_cache(self, tmp_path, capsys):
        args = self._ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 total, 0 executed, 2 cached" in out

    def test_no_cache_always_executes(self, capsys):
        args = self._ARGS + ["--no-cache"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out
        assert "cache      :" not in out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--policy", "warp-drive", "--no-cache"])

    #: Case id → bad sweep flags and a piece of the message they exit with.
    _REFUSED = {
        "controller-mpc": (["--controller", "mpc"], "unknown controller 'mpc'"),
        "policy-nope": (["--policy", "nope"], "unknown policy 'nope'"),
        "racks-0": (["--racks", "0"], "racks must be positive"),
        "servers-per-rack-0": (
            ["--servers-per-rack", "0"],
            "servers_per_rack must be positive",
        ),
        "shards-without-sharded": (
            ["--shards", "2"],
            "shards requires backend='sharded'",
        ),
    }

    @pytest.mark.parametrize("case", sorted(_REFUSED))
    def test_bad_point_refused_before_any_point_runs(self, case, monkeypatch):
        import repro.cli as cli

        def run_sweep(*args, **kwargs):
            pytest.fail("a sweep point ran")

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        flags, message = self._REFUSED[case]
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--no-cache", "--quiet", *flags])
        code = excinfo.value.code
        # a str code: Python prints it to stderr and exits 1
        assert isinstance(code, str) and "\n" not in code
        assert message in code


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["fig", "--figure", "9z"])


class TestFleetCheckpoint:
    """Exit-code hygiene: 0 clean, 75 resumable interruption, 1 failure."""

    ARGS = [
        "fleet",
        "--racks", "1",
        "--servers-per-rack", "2",
        "--controller", "pi",
        "--hours", "1",
        "--dt", "60",
    ]

    def test_interrupt_resume_roundtrip(self, tmp_path, capsys, monkeypatch):
        import repro.sweep.scenarios as scenarios
        from repro.engine.checkpoint import EX_TEMPFAIL
        from repro.fleet.engine import FleetEngine

        golden = ["--seed", "3"] + self.ARGS
        assert main(golden) == 0
        golden_out = capsys.readouterr().out

        class StoppingEngine(FleetEngine):
            def _tick_stream(self, *args, **kwargs):
                stream = super()._tick_stream(*args, **kwargs)
                for i, item in enumerate(stream):
                    if i == 20:
                        self.request_stop()
                    yield item

        ckpt = tmp_path / "ckpt"
        flags = ["--checkpoint-dir", str(ckpt), "--checkpoint-every", "300"]
        # build_run is the one place a run's FleetEngine is constructed
        monkeypatch.setattr(scenarios, "FleetEngine", StoppingEngine)
        assert main(golden + flags) == EX_TEMPFAIL
        captured = capsys.readouterr()
        assert "--resume" in captured.err
        monkeypatch.setattr(scenarios, "FleetEngine", FleetEngine)

        assert main(golden + flags + ["--resume", str(ckpt)]) == 0
        resumed_out = capsys.readouterr().out
        # The CLI report (energies, hotspot, SLA, power sparkline) of
        # the resumed run matches the uninterrupted one exactly.
        assert resumed_out == golden_out

    def test_mismatched_resume_exits_1(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        flags = ["--checkpoint-dir", str(ckpt), "--checkpoint-every", "900"]
        assert main(self.ARGS + flags) == 0
        capsys.readouterr()
        # Same checkpoint, different grid: refused, unrecoverable.
        other = [a if a != "60" else "30" for a in self.ARGS]
        assert main(other + ["--resume", str(ckpt)]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_missing_resume_dir_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nothing"
        assert main(self.ARGS + ["--resume", str(missing)]) == 1
        assert "checkpoint" in capsys.readouterr().err


class TestServeCheckpointArgs:
    def test_serve_namespace_builds_engine_with_checkpoint(self, tmp_path):
        # serve defines --checkpoint-dir but not --max-restarts; the
        # service installs the engine's checkpointing from its config.
        import repro.cli as cli

        args = cli.build_parser().parse_args(
            [
                "serve",
                "--racks", "1",
                "--servers-per-rack", "2",
                "--hours", "1",
                "--dt", "60",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--checkpoint-every", "120",
            ]
        )
        engine = cli._build_service(args).engine
        assert engine.checkpoint is not None
        assert engine.checkpoint.directory == str(tmp_path / "ckpt")
        assert engine.checkpoint.every_s == 120.0
        assert engine.checkpoint.max_restarts == 2


class TestSweepIsolation:
    def test_failed_point_reported_and_exit_1(self, capsys, monkeypatch):
        import repro.sweep.scenarios as scenarios

        real = scenarios.SCENARIO_KINDS["fleet"]

        def flaky(params):
            if params["policy"] == "coolest-first":
                raise RuntimeError("rigged failure")
            return real(params)

        monkeypatch.setitem(scenarios.SCENARIO_KINDS, "fleet", flaky)
        code = main(
            [
                "sweep",
                "--racks", "1",
                "--servers-per-rack", "2",
                "--policy", "round-robin,coolest-first",
                "--controller", "pi",
                "--hours", "0.5",
                "--dt", "60",
                "--no-cache",
                "--quiet",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED: RuntimeError: rigged failure" in out
        assert "failures   : 1 point(s)" in out
        # the healthy point still produced real numbers
        assert "round-robin" in out
