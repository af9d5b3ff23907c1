"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig1", "fig4", "fig8", "mem"):
            assert fig in out

    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "vmplayer" in out and "tick catch-up" in out
        assert "cyc/pkt" in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestSweepCommand:
    def test_unknown_sweep_errors(self, capsys):
        assert main(["sweep", "nonsense"]) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_l2_sweep_runs(self, capsys):
        assert main(["sweep", "l2"]) == 0
        out = capsys.readouterr().out
        assert "l2_contention_coeff" in out and "mips" in out


class TestFigureCommand:
    def test_generates_memory_figure(self, capsys):
        # 'mem' needs no repetitions, so it is CLI-test sized
        assert main(["figure", "mem"]) == 0
        out = capsys.readouterr().out
        assert "MEM —" in out and "300" in out

    def test_fast_fig2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "1")
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "FIG2" in out and "qemu" in out

    def test_figures_alias_accepts_ids(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["figures", "mem"]) == 0
        assert "MEM —" in capsys.readouterr().out

    def test_bad_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        with pytest.raises(SystemExit):
            main(["figure", "mem", "--jobs", "0"])


class TestMetricsFlag:
    def test_figure_metrics_writes_manifest(self, capsys, monkeypatch,
                                            tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["figure", "mem", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics manifest:" in out
        manifests = list((tmp_path / "runs").glob("*.json"))
        assert len(manifests) == 1
        import json

        from repro.obs.manifest import validate_manifest

        manifest = json.loads(manifests[0].read_text())
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "figure:mem"

    def test_metrics_subcommand_renders_last(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["figure", "mem", "--metrics"]) == 0
        capsys.readouterr()
        assert main(["metrics", "last",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "figure:mem" in out and "counters:" in out

    def test_metrics_subcommand_uses_env_runs_dir(self, capsys, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["figure", "mem", "--metrics"]) == 0
        capsys.readouterr()
        assert main(["metrics"]) == 0
        assert "figure:mem" in capsys.readouterr().out

    def test_sweep_metrics_writes_manifest(self, capsys, monkeypatch,
                                           tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["sweep", "l2", "--metrics"]) == 0
        assert "metrics manifest:" in capsys.readouterr().out
        assert list((tmp_path / "runs").glob("*.json"))


class TestResilienceFlags:
    def test_flags_accepted_on_figure(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["figure", "mem", "--retries", "2",
                     "--task-timeout", "60", "--min-reps", "1"]) == 0
        assert "MEM —" in capsys.readouterr().out

    def test_bad_retries_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        with pytest.raises(SystemExit):
            main(["figure", "mem", "--retries", "-1"])

    def test_bad_task_timeout_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        with pytest.raises(SystemExit):
            main(["figure", "mem", "--task-timeout", "0"])

    def test_bad_fault_spec_is_a_clean_usage_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        with pytest.raises(SystemExit, match="--faults: unknown fault spec"):
            main(["figure", "mem", "--faults", "worker.sulk=0.5"])
        with pytest.raises(SystemExit, match="--faults: bad value"):
            main(["chaos", "fig2", "--faults", "seed=banana"])

    def test_faulty_run_manifest_records_injections(self, capsys,
                                                    monkeypatch, tmp_path):
        import json

        from repro.obs.manifest import validate_manifest

        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_REPS", "2")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["figure", "fig2", "--metrics", "--retries", "1",
                     "--faults", "seed=1,measure.transient=1.0"]) == 0
        manifests = list((tmp_path / "runs").glob("*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert validate_manifest(manifest) == []
        faults = manifest["faults"]
        assert faults["spec"] == "seed=1,measure.transient=1"
        assert faults["injected"]["measure.transient"] > 0
        assert faults["retries"] > 0
        assert faults["dropped"] == []


class TestResume:
    def test_figure_resume_skips_completed_points(self, capsys, monkeypatch,
                                                  tmp_path):
        from repro.core import figures as figures_module
        from repro.core.figures import FIGURES, FigureData, MeasuredPoint
        from repro.errors import ExperimentError

        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        mem_calls = []
        original_mem = FIGURES["mem"]

        def counting_mem(**kwargs):
            mem_calls.append(1)
            return original_mem(**kwargs)

        def broken_fig2(**kwargs):
            raise ExperimentError("injected-for-test")

        monkeypatch.setitem(FIGURES, "mem", counting_mem)
        monkeypatch.setitem(figures_module.FIGURES, "fig2", broken_fig2)
        assert main(["figure", "mem", "fig2"]) == 1
        first = capsys.readouterr()
        assert "rerun with --resume" in first.err
        assert mem_calls == [1]
        assert list((tmp_path / "runs").glob("progress-*.json"))

        def healthy_fig2(**kwargs):
            fig = FigureData(fig_id="fig2", title="t", unit="u", notes="",
                             paper={"native": 1.0})
            fig.series["native"] = MeasuredPoint(1.0, 0.0)
            return fig

        monkeypatch.setitem(figures_module.FIGURES, "fig2", healthy_fig2)
        assert main(["figure", "mem", "fig2", "--resume"]) == 0
        second = capsys.readouterr()
        assert mem_calls == [1]  # mem came from the checkpoint, not a rerun
        assert "(resumed from checkpoint)" in second.out
        assert "already complete" in second.err
        # success removes the progress checkpoint
        assert not list((tmp_path / "runs").glob("progress-*.json"))

    def test_sweep_resume_recomputes_only_unfinished_points(
            self, capsys, monkeypatch, tmp_path):
        import repro.analysis as analysis
        from repro.analysis.sensitivity import SweepResult
        from repro.errors import ExperimentError

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        calls = []
        healthy = [False]

        def fake_l2(values=(1.0, 2.0, 3.0)):
            sweep = SweepResult("fake_param")
            for value in values:
                calls.append(value)
                if value == 3.0 and not healthy[0]:
                    raise ExperimentError("point 3 died")
                sweep.add(value, y=value * 2)
            return sweep

        monkeypatch.setattr(analysis, "sweep_l2_coefficient", fake_l2)
        assert main(["sweep", "l2"]) == 1
        first = capsys.readouterr()
        assert "rerun with --resume" in first.err
        assert calls == [1.0, 2.0, 3.0]

        healthy[0] = True
        calls.clear()
        assert main(["sweep", "l2", "--resume"]) == 0
        second = capsys.readouterr()
        assert calls == [3.0]  # only the unfinished point recomputed
        assert "fake_param" in second.out
        assert not list((tmp_path / "runs").glob("progress-*.json"))

    def test_resume_without_checkpoint_computes_everything(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["figure", "mem", "--resume"]) == 0
        captured = capsys.readouterr()
        assert "no matching progress checkpoint" in captured.err
        assert "MEM —" in captured.out


class TestChaosCommand:
    def test_unknown_figure_errors(self, capsys):
        assert main(["chaos", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_storm_recovers_byte_identically(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_FAST", "1")
        monkeypatch.setenv("REPRO_REPS", "2")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["chaos", "fig2", "--retries", "3"]) == 0
        captured = capsys.readouterr()
        assert "chaos report: fig2" in captured.out
        assert "recovered: yes" in captured.out
        assert "injected" in captured.out


class TestCacheCommand:
    def test_stats_on_empty_cache(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    0" in out

    def test_unknown_action_errors(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "nonsense"]) == 2
        assert "unknown cache action" in capsys.readouterr().err

    def test_figure_populates_then_hits_cache(self, capsys, monkeypatch,
                                              tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["figure", "mem"]) == 0
        cold = capsys.readouterr()
        assert main(["figure", "mem"]) == 0
        warm = capsys.readouterr()
        # identical chart, and the hit is logged on stderr
        assert warm.out.splitlines()[0] == cold.out.splitlines()[0]
        assert "cache hit" in warm.err
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_sweep_action_removes_orphaned_temps(self, capsys, monkeypatch,
                                                 tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "deadbeef.tmp.999999999").write_text("{partial")
        assert main(["cache", "sweep"]) == 0
        assert "removed 1 orphaned temp file(s)" in capsys.readouterr().out
        assert not list((tmp_path / "cache").iterdir())

    def test_stats_report_quarantined_files(self, capsys, monkeypatch,
                                            tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "deadbeef.corrupt").write_text("{evidence")
        assert main(["cache", "stats"]) == 0
        assert "1 corrupt file(s)" in capsys.readouterr().out
