"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.ids == []
        assert not args.full

    def test_run_requires_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_choices(self):
        args = build_parser().parse_args(["run", "sacga", "--partitions", "12"])
        assert args.algorithm == "sacga"
        assert args.partitions == 12

    def test_run_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["run", "tpg", "--checkpoint", "run.ckpt",
             "--checkpoint-every", "5", "--ledger", "trace.jsonl"]
        )
        assert args.checkpoint == "run.ckpt"
        assert args.checkpoint_every == 5
        assert args.ledger == "trace.jsonl"

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume"])
        args = build_parser().parse_args(["resume", "run.ckpt"])
        assert args.checkpoint == "run.ckpt"

    def test_trace_flags(self):
        args = build_parser().parse_args(["trace", "t.jsonl", "--tail", "7"])
        assert args.ledger == "t.jsonl"
        assert args.tail == 7
        assert not args.profile

    def test_run_metrics_flags(self):
        args = build_parser().parse_args(
            ["run", "sacga", "--metrics", "--metrics-out", "obs/run"]
        )
        assert args.metrics is True
        assert args.metrics_out == "obs/run"

    def test_stats_requires_run(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats"])
        args = build_parser().parse_args(["stats", "run1", "--metric", "gate"])
        assert args.run == "run1"
        assert args.metric == "gate"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    @pytest.mark.parametrize(
        "command", [["run", "tpg"], ["submit", "tpg"], ["campaign", "run", "s"]]
    )
    def test_no_backend_or_kernel_flags(self, command, capsys):
        """Evaluation is serial and the kernels are fixed: the commands
        that used to select them offer no such flags."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--help"])
        usage = capsys.readouterr().out
        for flag in ("--backend", "--workers", "--cache-size", "--kernel"):
            assert flag not in usage
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + [flag, "2"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.workers == 2
        assert args.queue_size == 16
        assert args.data_dir == "serve-data"
        assert args.port_file is None
        assert not args.no_drain

    def test_submit_flags(self):
        args = build_parser().parse_args(
            ["submit", "sacga", "--generations", "40", "--population", "24",
             "--surface", "amp", "--wait", "--timeout", "60"]
        )
        assert args.algorithm == "sacga"
        assert args.generations == 40
        assert args.population == 24
        assert args.surface == "amp"
        assert args.wait and args.timeout == 60.0

    def test_query_flags(self):
        args = build_parser().parse_args(
            ["query", "amp", "2.5", "--design", "--version", "3"]
        )
        assert args.name == "amp"
        assert args.c_load_pf == 2.5
        assert args.design
        assert args.version == 3

    def test_run_mc_flags(self):
        args = build_parser().parse_args(
            ["run", "sacga", "--n-mc", "4", "--mc-seed", "7", "--no-corners"]
        )
        assert args.n_mc == 4
        assert args.mc_seed == 7
        assert args.no_corners is True
        defaults = build_parser().parse_args(["run", "sacga"])
        assert defaults.mc_seed == 2005
        assert defaults.no_corners is False

    def test_submit_mc_flags(self):
        args = build_parser().parse_args(
            ["submit", "tpg", "--n-mc", "4", "--mc-seed", "9", "--no-corners"]
        )
        assert args.n_mc == 4
        assert args.mc_seed == 9
        assert args.no_corners is True
        # Default mc_seed is None on submit: absent from job params so
        # the server-side default applies.
        assert build_parser().parse_args(["submit", "tpg"]).mc_seed is None

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run"])  # needs surface

    def test_campaign_run_flags(self):
        args = build_parser().parse_args(
            ["campaign", "run", "amp", "--corners", "TT,FF", "--n-mc", "4",
             "--mc-seed", "11", "--yield-target", "0.8",
             "--shard-scenarios", "1", "--condition", "hot,0.95,358",
             "--durable", "--wait", "--timeout", "30"]
        )
        assert args.campaign_command == "run"
        assert args.surface == "amp"
        assert args.corners == "TT,FF"
        assert args.n_mc == 4
        assert args.mc_seed == 11
        assert args.yield_target == 0.8
        assert args.shard_scenarios == 1
        assert args.condition == ["hot,0.95,358"]
        assert args.durable and args.wait and args.timeout == 30.0

    def test_campaign_status_and_report_flags(self):
        args = build_parser().parse_args(["campaign", "status"])
        assert args.campaign_id is None
        args = build_parser().parse_args(
            ["campaign", "report", "camp-1", "--max-rows", "5"]
        )
        assert args.campaign_id == "camp-1"
        assert args.max_rows == 5


class TestCommands:
    def test_spec_ladder(self, capsys):
        assert main(["spec-ladder", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "DR_dB" in out
        assert out.count("spec-") == 5

    def test_figures_fig4(self, capsys):
        assert main(["figures", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig4" in out and "i=5" in out

    def test_figures_unknown_id(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figure ids" in capsys.readouterr().out

    def test_run_tpg_tiny(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        out_file = tmp_path / "front.json"
        code = main(
            ["run", "tpg", "--generations", "3", "--json", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NSGA-II" in out
        payload = json.loads(out_file.read_text())
        assert payload["algorithm"] == "NSGA-II"
        assert "front" in payload


class TestCampaignCommands:
    def _register_front(self, data_dir):
        import numpy as np

        from repro.experiments.tradeoff import DesignSurface
        from repro.serve.surfaces import SurfaceStore

        from tests.campaign.conftest import design_batch

        store = SurfaceStore(data_dir / "surfaces")
        store.register(
            "front",
            DesignSurface(
                design_batch(),
                np.array([1e-12, 2e-12, 3e-12]),
                np.array([1e-4, 1.1e-4, 1.2e-4]),
            ),
        )

    def test_campaign_run_status_report_round_trip(self, capsys, tmp_path):
        self._register_front(tmp_path)
        code = main(
            ["campaign", "run", "front", "--data-dir", str(tmp_path),
             "--campaign-id", "cli-camp", "--corners", "TT", "--n-mc", "2",
             "--json", str(tmp_path / "report.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-camp" in out
        assert "yield" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["campaign"] == "cli-camp"
        assert payload["n_scenarios"] == 1

        assert main(["campaign", "status", "cli-camp",
                     "--data-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

        assert main(["campaign", "report", "cli-camp",
                     "--data-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-camp" in out

    def test_campaign_unknown_surface_exit_2(self, capsys, tmp_path):
        code = main(
            ["campaign", "run", "ghost", "--data-dir", str(tmp_path)]
        )
        assert code == 2
        assert "cannot start campaign" in capsys.readouterr().err

    def test_campaign_status_unknown_id_exit_2(self, capsys, tmp_path):
        code = main(
            ["campaign", "status", "nope", "--data-dir", str(tmp_path)]
        )
        assert code == 2

    def test_campaign_report_incomplete_exit_1(self, capsys, tmp_path):
        self._register_front(tmp_path)
        # Create durably (no execution) so shards stay pending.
        code = main(
            ["campaign", "run", "front", "--data-dir", str(tmp_path),
             "--campaign-id", "pending-camp", "--corners", "TT,SS",
             "--n-mc", "2", "--durable"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["campaign", "report", "pending-camp", "--data-dir", str(tmp_path)]
        )
        assert code == 1
        assert "incomplete" in capsys.readouterr().err


class TestCheckpointResumeTrace:
    def test_run_crash_resume_trace_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        ckpt = tmp_path / "run.ckpt"
        trace = tmp_path / "trace.jsonl"

        # Crash-free checkpointed run first: checkpoint file appears.
        code = main(
            ["run", "tpg", "--generations", "6",
             "--checkpoint", str(ckpt), "--checkpoint-every", "2",
             "--ledger", str(trace)]
        )
        assert code == 0
        assert ckpt.exists()
        out = capsys.readouterr().out
        assert "NSGA-II" in out

        # Resume from the final checkpoint: re-runs the tail generations
        # and prints the same kind of summary.
        code = main(["resume", str(ckpt), "--ledger", str(trace)])
        assert code == 0
        assert "NSGA-II" in capsys.readouterr().out

        # The trace summarizes both runs...
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "run_started" in out
        assert "run_finished" in out
        assert "finished=" in out

        # ...and --tail prints individual events.
        assert main(["trace", str(trace), "--tail", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3
        assert "run_finished" in out


class TestMetricsCommands:
    def test_run_metrics_out_stats_and_profile_round_trip(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        prefix = tmp_path / "obsrun"

        code = main(
            ["run", "sacga", "--generations", "5", "--partitions", "4",
             "--metrics-out", str(prefix)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {prefix}.prom" in out
        assert "run" in out and "generation" in out  # span tree printed

        # `repro stats` accepts both the prefix and the .prom path.
        assert main(["stats", str(prefix)]) == 0
        by_prefix = capsys.readouterr().out
        assert "repro_generations_total" in by_prefix
        assert main(["stats", f"{prefix}.prom", "--metric", "gate"]) == 0
        filtered = capsys.readouterr().out
        assert "repro_gate_considered_total" in filtered
        assert "repro_generations_total" not in filtered

        # `repro trace --profile` renders the saved span tree.
        assert main(["trace", f"{prefix}.profile.json", "--profile"]) == 0
        tree = capsys.readouterr().out
        assert "generation" in tree and "x " in tree

    def test_stats_missing_file(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope")]) == 2
        assert "no metrics snapshot" in capsys.readouterr().out

    def test_stats_rejects_invalid_snapshot(self, capsys, tmp_path):
        bad = tmp_path / "bad.prom"
        bad.write_text("orphan_metric 1\n", encoding="utf-8")
        assert main(["stats", str(bad)]) == 2
        assert "invalid Prometheus snapshot" in capsys.readouterr().out

    def test_run_metrics_without_out_prints_tree_only(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert main(["run", "tpg", "--generations", "3", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "wrote" not in out
        assert "evaluate" in out  # span tree includes the evaluate phase


class TestFileErrorExitCodes:
    """Missing/unreadable inputs exit 2 with a message, never a traceback."""

    def test_resume_missing_checkpoint(self, capsys, tmp_path):
        assert main(["resume", str(tmp_path / "nope.ckpt")]) == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and "Traceback" not in err

    def test_resume_corrupt_checkpoint(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"this is not a pickle")
        assert main(["resume", str(bad)]) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_trace_missing_ledger(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err

    def test_trace_corrupt_ledger(self, capsys, tmp_path):
        # A torn *final* line is tolerated (crash mid-write), so the
        # corruption must sit mid-file to count as a broken ledger.
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"event": "run_started"}\nnot json\n{"event": "run_finished"}\n',
            encoding="utf-8",
        )
        assert main(["trace", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_profile_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.json"), "--profile"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_profile_corrupt_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.profile.json"
        bad.write_text("{broken", encoding="utf-8")
        assert main(["trace", str(bad), "--profile"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_stats_unreadable_file(self, capsys, tmp_path):
        locked = tmp_path / "locked.prom"
        locked.write_text("# nothing\n", encoding="utf-8")
        locked.chmod(0o000)
        try:
            code = main(["stats", str(locked)])
        finally:
            locked.chmod(0o644)
        if code != 0:  # running as root makes chmod 000 readable
            assert code == 2
            assert "cannot read" in capsys.readouterr().err


class TestServeCommandsOffline:
    """submit/query against a dead URL fail fast with exit code 2."""

    DEAD_URL = "http://127.0.0.1:9"  # discard port: nothing listens

    def test_submit_connection_refused(self, capsys):
        code = main(["submit", "sacga", "--url", self.DEAD_URL])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_query_connection_refused(self, capsys):
        code = main(["query", "amp", "2.5", "--url", self.DEAD_URL])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestServeCommandsInProcess:
    def test_submit_wait_and_query_against_live_server(self, capsys, tmp_path):
        import numpy as np

        from repro.core.results import OptimizationResult
        from repro.experiments.runner import RunSummary
        from repro.obs.registry import MetricsRegistry
        from repro.serve import JobManager, ReproServer, ServeApp, SurfaceStore

        def fast_runner(algorithm, experiment_id, **kwargs):
            c = np.asarray([1.0, 2.0, 3.0]) * 1e-12
            p = np.asarray([1.0, 2.0, 3.0]) * 1e-3
            result = OptimizationResult(
                algorithm=algorithm.upper(),
                problem_name="stub",
                population=None,  # type: ignore[arg-type]
                front_x=np.arange(3, dtype=float).reshape(-1, 1),
                front_objectives=np.column_stack([p, 5e-12 - c]),
                n_generations=1,
                n_evaluations=3,
                wall_time=0.0,
            )
            return RunSummary(
                algorithm=algorithm.upper(), seed=0, hv_paper=1.0,
                coverage=1.0, cluster_4_5pF=0.0, front_size=3,
                wall_time=0.01, n_evaluations=3, result=result,
            )

        registry = MetricsRegistry()
        store = SurfaceStore(tmp_path / "surfaces")
        manager = JobManager(
            store=store, data_dir=tmp_path, workers=1,
            runner=fast_runner, metrics=registry,
        )
        with ReproServer(ServeApp(manager, store, registry)) as server:
            code = main(
                ["submit", "sacga", "--url", server.url,
                 "--surface", "amp", "--wait"]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "done" in out and "surface amp v1" in out

            assert main(["query", "amp", "2.0", "--url", server.url]) == 0
            out = capsys.readouterr().out
            assert "amp v1: power" in out

            # Above the stored range: informative message, exit 1.
            assert main(["query", "amp", "9.0", "--url", server.url]) == 1
            assert "no design reaches" in capsys.readouterr().out

            # Unknown surface: exit 2 via the 404 path.
            assert main(["query", "ghost", "2.0", "--url", server.url]) == 2
            assert "query failed" in capsys.readouterr().err


class TestFiguresStubbed:
    def test_figures_renders_selected(self, capsys, monkeypatch):
        from repro.experiments.figures import FigureData
        import repro.cli as cli

        calls = []

        def fake_figure(scale=None):
            calls.append(scale.label)
            return FigureData(figure_id="FigX", title="stub", headers=["a"], rows=[[1]])

        monkeypatch.setitem(cli.ALL_FIGURES, "figx", fake_figure)
        assert cli.main(["figures", "figx"]) == 0
        out = capsys.readouterr().out
        assert "FigX" in out
        assert calls == ["reduced"]

    def test_figures_full_flag(self, capsys, monkeypatch):
        from repro.experiments.figures import FigureData
        import repro.cli as cli

        seen = {}

        def fake_figure(scale=None):
            seen["label"] = scale.label
            return FigureData(figure_id="FigY", title="stub")

        monkeypatch.setitem(cli.ALL_FIGURES, "figy", fake_figure)
        assert cli.main(["figures", "figy", "--full"]) == 0
        assert seen["label"] == "full"


class TestRunSacgaInProcess:
    def test_run_sacga_prints_surface(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        code = main(["run", "sacga", "--generations", "4", "--partitions", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SACGA" in out
        assert "c_load_pF" in out

    def test_run_mesacga(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        code = main(["run", "mesacga", "--generations", "4"])
        assert code == 0
        assert "MESACGA" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_serve_observability_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.snapshot_ttl is None
        assert not args.no_tracing
        assert args.log_file is None and args.log_level is None

    def test_workers_observability_flags(self):
        args = build_parser().parse_args(
            ["workers", "-n", "3", "--no-tracing",
             "--log-file", "w.log", "--log-level", "debug"]
        )
        assert args.n == 3
        assert args.no_tracing
        assert args.log_file == "w.log" and args.log_level == "debug"

    def test_submit_trace_id_flag(self):
        args = build_parser().parse_args(
            ["submit", "sacga", "--trace-id", "req-1234"]
        )
        assert args.trace_id == "req-1234"
        assert build_parser().parse_args(["submit", "sacga"]).trace_id is None

    def test_trace_view_defaults(self):
        args = build_parser().parse_args(["trace-view", "t1"])
        assert args.trace_id == "t1"
        assert args.data_dir == "serve-data"
        assert args.traces is None


class TestTraceViewCommand:
    def _record(self, root, process, name, trace_id):
        from repro.obs.tracing import TraceRecorder

        recorder = TraceRecorder.for_process(root, process)
        with recorder.span(name, trace_id=trace_id):
            pass

    def test_renders_cross_process_tree(self, capsys, tmp_path):
        self._record(tmp_path / "traces", "server", "server:submit", "t-cli")
        self._record(tmp_path / "traces", "worker-1", "worker:run", "t-cli")
        assert main(["trace-view", "t-cli", "--data-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace t-cli" in out
        assert "server:submit" in out and "worker:run" in out
        assert "server" in out and "worker-1" in out

    def test_traces_override_beats_data_dir(self, capsys, tmp_path):
        self._record(tmp_path / "elsewhere", "w", "worker:run", "t-ovr")
        code = main(
            ["trace-view", "t-ovr", "--traces", str(tmp_path / "elsewhere")]
        )
        assert code == 0
        assert "worker:run" in capsys.readouterr().out

    def test_missing_traces_dir_exits_2(self, capsys, tmp_path):
        code = main(
            ["trace-view", "t1", "--data-dir", str(tmp_path / "ghost")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no trace files" in err and "Traceback" not in err

    def test_unknown_trace_id_exits_1(self, capsys, tmp_path):
        self._record(tmp_path / "traces", "server", "server:submit", "here")
        assert main(["trace-view", "absent", "--data-dir", str(tmp_path)]) == 1
        assert "not found" in capsys.readouterr().err


class TestStatsDirectoryMerge:
    def _write_prom(self, path, jobs):
        from repro.obs.exporters import save_prometheus
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "Jobs executed").inc(jobs)
        save_prometheus(reg, path)

    def test_directory_merges_with_worker_labels(self, capsys, tmp_path):
        self._write_prom(tmp_path / "worker-1.prom", 3)
        self._write_prom(tmp_path / "worker-2.prom", 5)
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro_jobs_total" in out
        assert "worker=worker-1" in out and "worker=worker-2" in out
        assert " 3" in out and " 5" in out

    def test_glob_merges_matching_files(self, capsys, tmp_path):
        self._write_prom(tmp_path / "worker-1.prom", 1)
        self._write_prom(tmp_path / "ignored.txt.prom", 9)
        assert main(["stats", str(tmp_path / "worker-*.prom")]) == 0
        out = capsys.readouterr().out
        assert "worker=worker-1" in out
        assert "ignored" not in out

    def test_empty_directory_exits_2(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path)]) == 2
        assert "no .prom files" in capsys.readouterr().out

    def test_invalid_snapshot_in_directory_exits_2(self, capsys, tmp_path):
        (tmp_path / "bad.prom").write_text("orphan 1\n", encoding="utf-8")
        assert main(["stats", str(tmp_path)]) == 2
        assert "invalid Prometheus snapshot" in capsys.readouterr().out
