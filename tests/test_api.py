"""repro.api: RunConfig, activation and run()."""

import pathlib

import pytest

from repro import api
from repro.api import RunConfig, RunRequest, RunResult, run
from repro.errors import ExperimentError
from repro.obs.manifest import validate_manifest
from repro.obs.metrics import METRICS


def _figure(fig_id, config=None, **kwargs):
    """Run one figure through the unified dispatcher."""
    return run(RunRequest(kind="figure", target=fig_id, config=config,
                          options=kwargs))


@pytest.fixture(autouse=True)
def _clean_metrics():
    METRICS.disable()
    METRICS.reset()
    yield
    METRICS.disable()
    METRICS.reset()


class TestFromEnv:
    def test_empty_env_is_all_defaults(self):
        config = RunConfig.from_env({})
        assert config == RunConfig()
        assert config.env_sources == ()

    def test_parses_every_variable(self):
        config = RunConfig.from_env({
            "REPRO_REPS": "7", "REPRO_FULL": "1", "REPRO_FAST": "1",
            "REPRO_JOBS": "3", "REPRO_CACHE": "0", "REPRO_METRICS": "1",
            "REPRO_RUNS_DIR": "/tmp/r", "REPRO_CACHE_DIR": "/tmp/c",
        })
        assert config.reps == 7 and config.full and config.fast
        assert config.jobs == 3
        assert config.cache is False
        assert config.metrics is True
        assert config.runs_dir == "/tmp/r"
        assert config.cache_dir == "/tmp/c"
        assert set(config.env_sources) == {
            "REPRO_REPS", "REPRO_FULL", "REPRO_FAST", "REPRO_JOBS",
            "REPRO_CACHE", "REPRO_METRICS"}

    def test_cache_falsey_spellings(self):
        for raw in ("0", "false", "no", "off", ""):
            assert RunConfig.from_env({"REPRO_CACHE": raw}).cache is False
        assert RunConfig.from_env({"REPRO_CACHE": "1"}).cache is True

    def test_bad_reps_is_clean_experiment_error(self):
        # regression: this used to escape as a raw ValueError
        with pytest.raises(ExperimentError, match="REPRO_REPS.*'abc'"):
            RunConfig.from_env({"REPRO_REPS": "abc"})

    def test_bad_jobs_is_clean_experiment_error(self):
        with pytest.raises(ExperimentError, match="REPRO_JOBS"):
            RunConfig.from_env({"REPRO_JOBS": "many"})


class TestPolicy:
    def test_resolve_reps_precedence(self):
        from repro.core.experiment import FAST_REPS, PAPER_REPS

        assert RunConfig().resolve_reps(12) == 12
        assert RunConfig(reps=5, full=True, fast=True).resolve_reps(12) == 5
        assert RunConfig(full=True).resolve_reps(12) == PAPER_REPS
        assert RunConfig(fast=True).resolve_reps(12) == min(FAST_REPS, 12)
        assert RunConfig(fast=True).resolve_reps(1) == 1

    def test_resolve_reps_rejects_nonpositive(self):
        with pytest.raises(ExperimentError, match=">= 1"):
            RunConfig(reps=0).resolve_reps(5)

    def test_resolve_jobs(self):
        import os

        assert RunConfig(jobs=3).resolve_jobs() == 3
        assert RunConfig(jobs=3).resolve_jobs(2) == 2  # argument wins
        assert RunConfig().resolve_jobs() == (os.cpu_count() or 1)
        with pytest.raises(ExperimentError, match=">= 1"):
            RunConfig(jobs=0).resolve_jobs()

    def test_use_cache(self):
        assert RunConfig().use_cache(default=True) is True
        assert RunConfig().use_cache() is False
        assert RunConfig(cache=False).use_cache(default=True) is False

    def test_reps_policy_dict(self):
        assert RunConfig(reps=2).reps_policy() == \
            {"reps": 2, "full": False, "fast": False}

    def test_matches_legacy_resolve_reps(self):
        # parity with the library entry point under the activated config
        from repro.core.experiment import resolve_reps

        for env in ({}, {"REPRO_REPS": "9"}, {"REPRO_FULL": "1"},
                    {"REPRO_FAST": "1"}):
            config = RunConfig.from_env(env)
            with api.activated(config):
                assert resolve_reps(12) == config.resolve_reps(12)


class TestSerialisation:
    def test_round_trip(self):
        config = RunConfig(reps=4, jobs=2, cache=True, base_seed=99,
                           metrics=True, runs_dir="/tmp/r")
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_with_overrides(self):
        config = RunConfig(fast=True)
        changed = config.with_overrides(jobs=2, metrics=True)
        assert changed.fast and changed.jobs == 2 and changed.metrics
        assert config.jobs is None  # frozen original untouched


class TestActivation:
    def test_activated_scopes_the_config(self):
        assert api.active_config() is None
        config = RunConfig(reps=3)
        with api.activated(config):
            assert api.active_config() is config
            inner = RunConfig(reps=4)
            with api.activated(inner):
                assert api.active_config() is inner
            assert api.active_config() is config
        assert api.active_config() is None

    def test_library_ignores_repro_environment(self, monkeypatch, tmp_path):
        # Only the CLI interprets REPRO_*; with no active config the
        # library resolvers fall to RunConfig() defaults.
        from repro import grid
        from repro.core.cache import cache_enabled, default_cache_dir
        from repro.core.experiment import resolve_reps
        from repro.core.parallel import resolve_jobs

        monkeypatch.setenv("REPRO_REPS", "2")
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert api.active_config() is None
        assert resolve_reps(10) == 10
        assert resolve_jobs() == RunConfig().resolve_jobs()
        assert cache_enabled() is False
        assert default_cache_dir() == \
            pathlib.Path.home() / ".cache" / "repro-ipps09"
        for name in ("run_figure", "run_fleet", "fallback_config"):
            assert not hasattr(api, name)
        assert not hasattr(grid, "estimated_grid_efficiency")


class TestRunFigure:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ExperimentError, match="unknown figure"):
            _figure("fig99")

    def test_plain_run_returns_figure(self):
        result = _figure("mem")
        assert result.fig_id == "mem"
        assert result.figure.fig_id == "mem"
        assert result.cache_outcome == "disabled"
        assert result.run_id is None and result.manifest_path is None
        assert result.metrics is None

    def test_metrics_run_writes_valid_manifest(self, tmp_path):
        import json

        config = RunConfig(metrics=True, fast=True,
                           runs_dir=str(tmp_path / "runs"))
        result = _figure("fig2", config, size=64)
        assert result.run_id and result.manifest_path
        manifest = json.loads(open(result.manifest_path).read())
        assert validate_manifest(manifest) == []
        counters = manifest["metrics"]["counters"]
        assert counters.get("engine.events_dispatched", 0) > 0
        assert any(name == "generate"
                   for name in (p["name"] for p in manifest["phases"]))
        assert manifest["config"]["fast"] is True
        assert manifest["cache"]["outcome"] == "disabled"
        assert not METRICS.enabled  # switched back off afterwards

    def test_cache_outcome_miss_then_hit(self, tmp_path):
        config = RunConfig(metrics=True, cache=True,
                           cache_dir=str(tmp_path / "cache"),
                           runs_dir=str(tmp_path / "runs"))
        cold = _figure("mem", config)
        warm = _figure("mem", config)
        assert cold.cache_outcome == "miss"
        assert warm.cache_outcome == "hit"
        assert warm.figure.to_dict() == cold.figure.to_dict()

    def test_run_result_round_trip(self, tmp_path):
        config = RunConfig(metrics=True, fast=True,
                           runs_dir=str(tmp_path / "runs"))
        result = _figure("mem", config)
        back = RunResult.from_dict(result.to_dict())
        assert back.fig_id == result.fig_id
        assert back.figure.to_dict() == result.figure.to_dict()
        assert back.metrics == result.metrics
        assert back.cache_outcome == result.cache_outcome


class TestMetricsDoNotPerturb:
    """Figure numbers must be bit-identical with metrics on or off."""

    def _data(self, metrics, jobs):
        config = RunConfig(metrics=metrics, reps=2, jobs=jobs, cache=False)
        return _figure("fig2", config, size=64).figure.to_dict()

    def test_serial_bit_identical(self):
        assert self._data(metrics=False, jobs=1) == \
            self._data(metrics=True, jobs=1)

    def test_parallel_bit_identical(self):
        baseline = self._data(metrics=False, jobs=1)
        assert self._data(metrics=True, jobs=2) == baseline
        assert self._data(metrics=False, jobs=2) == baseline

    def test_parallel_run_merges_worker_counters(self):
        # reps=3: two repetitions would take the adaptive serial fallback.
        config = RunConfig(metrics=True, reps=3, jobs=2, cache=False)
        result = _figure("fig2", config, size=64)
        counters = result.metrics["counters"]
        assert counters.get("engine.events_dispatched", 0) > 0
        assert counters.get("parallel.repetitions", 0) >= 3
        assert result.metrics["timers"].get("parallel.worker_wall_s")

    def test_tiny_runs_fall_back_to_serial(self):
        config = RunConfig(metrics=True, reps=2, jobs=2, cache=False)
        result = _figure("fig2", config, size=64)
        counters = result.metrics["counters"]
        runs = counters.get("parallel.fallback_serial", 0)
        assert runs >= 1
        # each run's two repetitions ran in-process and are counted
        assert counters.get("parallel.repetitions", 0) == 2 * runs
        assert "parallel.workers" not in result.metrics["gauges"]


class TestRunDispatcher:
    """The unified run(RunRequest) front door."""

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ExperimentError, match="unknown run kind"):
            RunRequest(kind="banana", target="mem")

    def test_kinds_registry(self):
        assert api.RUN_KINDS == ("figure", "fleet", "campaign-point")

    def test_figure_request_runs(self):
        result = _figure("mem")
        assert result.fig_id == "mem"
        assert result.figure.fig_id == "mem"

    def test_campaign_point_request_round_trips(self):
        from repro.campaign import CampaignSpec, Scenario, plan_campaign

        spec = CampaignSpec(
            name="one",
            scenarios=(Scenario(kind="figure", figures=("mem",)),))
        [point] = plan_campaign(spec)
        item = run(RunRequest(kind="campaign-point", target=point))
        assert item.status == "computed"
        assert item.payload == _figure("mem").figure.to_dict()
