"""repro.campaign: specs, the planner, the scheduler and the CLI."""

import json

import pytest

from repro.api import RunConfig
from repro.campaign import (
    CAMPAIGN_SCHEMA,
    CampaignPointError,
    CampaignSpec,
    Scenario,
    load_spec,
    plan_campaign,
    point_cache_key,
    run_campaign,
)
from repro.errors import ExperimentError
from repro.obs.metrics import METRICS


@pytest.fixture(autouse=True)
def _clean_metrics():
    METRICS.disable()
    METRICS.reset()
    yield
    METRICS.disable()
    METRICS.reset()


GRID_JSON = {
    "name": "hypervisor-grid",
    "scenarios": [
        {"kind": "fleet",
         "grid": {"hypervisor": ["vmplayer", "qemu"], "hosts": [12, 24]},
         "params": {"duration_s": 3600, "seed": 3}},
    ],
}

GRID_TOML = """\
name = "hypervisor-grid"

[[scenarios]]
kind = "fleet"

[scenarios.grid]
hypervisor = ["vmplayer", "qemu"]
hosts = [12, 24]

[scenarios.params]
duration_s = 3600
seed = 3
"""


class TestSpec:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(GRID_JSON))
        spec = load_spec(path)
        assert spec.name == "hypervisor-grid"
        [scenario] = spec.scenarios
        assert scenario.kind == "fleet"
        assert scenario.grid_dict["hosts"] == (12, 24)
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == \
            spec.to_dict()

    def test_toml_parses_to_same_spec_as_json(self, tmp_path):
        json_path = tmp_path / "grid.json"
        json_path.write_text(json.dumps(GRID_JSON))
        toml_path = tmp_path / "grid.toml"
        toml_path.write_text(GRID_TOML)
        assert load_spec(toml_path).to_dict() == \
            load_spec(json_path).to_dict()

    def test_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read"):
            load_spec(tmp_path / "nope.json")

    def test_bad_json_is_clean_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError, match="not valid JSON"):
            load_spec(path)

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ExperimentError, match="unknown scenario field"):
            CampaignSpec.from_dict({
                "name": "x",
                "scenarios": [{"kind": "figure", "figures": ["mem"],
                               "bogus": 1}],
            })

    def test_name_required(self, tmp_path):
        path = tmp_path / "anon.json"
        path.write_text(json.dumps({"scenarios": GRID_JSON["scenarios"]}))
        with pytest.raises(ExperimentError, match="non-empty string"):
            load_spec(path)

    def test_sweep_scenario_rejects_grid(self):
        with pytest.raises(ExperimentError, match="'values', not 'grid'"):
            Scenario(kind="sweep", sweep="l2", grid=(("x", (1,)),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown scenario kind"):
            Scenario(kind="banana")

    def test_memory_axes_round_trip(self):
        spec = CampaignSpec.from_dict({
            "name": "mem",
            "scenarios": [{"kind": "fleet",
                           "memory": {"vms_per_host": [1, 2],
                                      "overcommit_ratio": [1.0, 1.5]},
                           "params": {"hosts": 12}}],
        })
        [scenario] = spec.scenarios
        assert scenario.memory_dict["vms_per_host"] == (1, 2)
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == \
            spec.to_dict()

    def test_unknown_memory_axis_rejected(self):
        with pytest.raises(ExperimentError, match="unknown memory axis"):
            Scenario(kind="fleet", memory=(("swapiness", (1,)),))

    def test_memory_axis_clash_with_grid_rejected(self):
        with pytest.raises(ExperimentError, match="exactly one place"):
            Scenario(kind="fleet",
                     grid=(("vms_per_host", (1, 2)),),
                     memory=(("vms_per_host", (4,)),))

    def test_sweep_scenario_rejects_memory(self):
        with pytest.raises(ExperimentError, match="no 'memory' axes"):
            Scenario(kind="sweep", sweep="l2",
                     memory=(("vms_per_host", (2,)),))

    def test_faults_axis_round_trips(self):
        spec = CampaignSpec.from_dict({
            "name": "chaos",
            "scenarios": [{"kind": "fleet",
                           "faults": ["", "seed=9,server.outage=0.25"],
                           "params": {"hosts": 12}}],
        })
        [scenario] = spec.scenarios
        assert scenario.faults == ("", "seed=9,server.outage=0.25")
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == \
            spec.to_dict()

    def test_sweep_scenario_rejects_faults(self):
        with pytest.raises(ExperimentError, match="no 'faults' axis"):
            Scenario(kind="sweep", sweep="l2", faults=("seed=1",))

    def test_faults_entries_must_be_strings(self):
        with pytest.raises(ExperimentError, match="fault-spec strings"):
            Scenario(kind="fleet", faults=(7,))


class TestPlanner:
    def _spec(self, **scenario_kwargs):
        return CampaignSpec(name="t",
                            scenarios=(Scenario(**scenario_kwargs),))

    def test_grid_cross_product_order_and_keys_are_stable(self):
        spec = CampaignSpec.from_dict(GRID_JSON)
        points = plan_campaign(spec)
        assert len(points) == 4
        # sorted axis names: hosts varies slowest, values in spec order
        assert [(p.params_dict["hosts"], p.params_dict["hypervisor"])
                for p in points] == \
            [(12, "vmplayer"), (12, "qemu"), (24, "vmplayer"), (24, "qemu")]
        assert [p.key for p in plan_campaign(spec)] == \
            [p.key for p in points]
        assert len({p.key for p in points}) == 4

    def test_equivalent_fleet_spellings_share_a_key(self):
        # "vmware" is an alias of "vmplayer": the planner canonicalises
        # through FleetConfig so both spell the same point.
        a = plan_campaign(self._spec(
            kind="fleet", params=(("hypervisor", "vmware"), ("hosts", 12))))
        b = plan_campaign(self._spec(
            kind="fleet", params=(("hypervisor", "vmplayer"), ("hosts", 12))))
        assert a[0].key == b[0].key

    def test_unknown_figure_fails_at_plan_time(self):
        with pytest.raises(CampaignPointError, match="unknown figure"):
            plan_campaign(self._spec(kind="figure", figures=("fig99",)))

    def test_figure_axis_cannot_be_repeated_in_params(self):
        with pytest.raises(CampaignPointError, match="'figure' is set"):
            plan_campaign(self._spec(kind="figure", figures=("mem",),
                                     params=(("figure", "fig1"),)))

    def test_bad_fleet_field_fails_at_plan_time(self):
        with pytest.raises(CampaignPointError, match="bad fleet field"):
            plan_campaign(self._spec(kind="fleet",
                                     params=(("warp_factor", 9),)))

    def test_unknown_sweep_fails_at_plan_time(self):
        with pytest.raises(CampaignPointError, match="unknown sweep"):
            plan_campaign(self._spec(kind="sweep", sweep="nonsense"))

    def test_sweep_expands_default_values(self):
        points = plan_campaign(self._spec(kind="sweep", sweep="l2"))
        assert len(points) > 1
        assert all(p.params_dict["sweep"] == "l2" for p in points)
        assert all(p.params_dict["value"] is not None for p in points)

    def test_sweep_values_can_be_pinned(self):
        points = plan_campaign(self._spec(kind="sweep", sweep="l2",
                                          values=(0.5,)))
        assert [p.params_dict["value"] for p in points] == [0.5]

    def test_memory_axes_cross_like_grid_axes(self):
        points = plan_campaign(self._spec(
            kind="fleet",
            grid=(("hosts", (12, 24)),),
            memory=(("vms_per_host", (1, 2)),
                    ("overcommit_ratio", (1.0, 1.5))),
            params=(("seed", 3),)))
        assert len(points) == 8
        assert len({p.key for p in points}) == 8
        combos = {(p.params_dict["hosts"], p.params_dict["vms_per_host"],
                   p.params_dict["overcommit_ratio"]) for p in points}
        assert (24, 2, 1.5) in combos

    def test_memory_axes_reach_figure_kwargs(self):
        points = plan_campaign(self._spec(
            kind="figure", figures=("balloon_storm",),
            memory=(("vms_per_host", (2, 4)),)))
        assert [p.params_dict["vms_per_host"] for p in points] == [2, 4]

    def test_bad_memory_value_fails_at_plan_time(self):
        with pytest.raises(CampaignPointError, match="invalid fleet point"):
            plan_campaign(self._spec(
                kind="fleet", memory=(("overcommit_ratio", (9.0,)),)))

    def test_faults_axis_crosses_slowest_with_distinct_keys(self):
        points = plan_campaign(self._spec(
            kind="fleet",
            faults=("", "seed=9,server.outage=0.25"),
            grid=(("hosts", (12, 24)),),
            params=(("seed", 3),)))
        assert len(points) == 4
        assert len({p.key for p in points}) == 4
        baseline, storm = points[:2], points[2:]
        assert all("faults" not in p.params_dict for p in baseline)
        assert all(p.params_dict["faults"] == "seed=9,server.outage=0.25"
                   for p in storm)
        assert all("faults=" in p.label for p in storm)
        # the empty-string baseline is byte-for-byte the no-axis plan
        plain = plan_campaign(self._spec(
            kind="fleet", grid=(("hosts", (12, 24)),),
            params=(("seed", 3),)))
        assert [p.key for p in baseline] == [p.key for p in plain]

    def test_faults_spellings_canonicalise_to_one_key(self):
        def keys(token):
            return [p.key for p in plan_campaign(self._spec(
                kind="fleet", faults=(token,), params=(("hosts", 12),)))]

        assert keys("seed=9,vm.crash=0.3,server.outage=0.25") == \
            keys("server.outage=0.25,vm.crash=0.3,seed=9")

    def test_bad_faults_entry_fails_at_plan_time(self):
        with pytest.raises(CampaignPointError, match="bad 'faults' entry"):
            plan_campaign(self._spec(kind="fleet",
                                     faults=("seed=9,warp.core=0.5",)))

    def test_faults_cannot_repeat_in_params(self):
        with pytest.raises(CampaignPointError, match="its own axis"):
            plan_campaign(self._spec(
                kind="fleet", faults=("seed=9,vm.crash=0.1",),
                params=(("faults", "seed=1"),)))


def _payload_bytes(result):
    return json.dumps(result.payload(), sort_keys=True)


class TestScheduler:
    SPEC = CampaignSpec(
        name="two-figs",
        scenarios=(Scenario(kind="figure", figures=("mem",)),
                   Scenario(kind="figure", figures=("fig2",),
                            params=(("size", 64),))))

    def _config(self, tmp_path, **overrides):
        base = RunConfig(reps=2, cache=False,
                         runs_dir=str(tmp_path / "runs"))
        return base.with_overrides(**overrides)

    def test_duplicate_points_dedup(self, tmp_path):
        spec = CampaignSpec(
            name="dup",
            scenarios=(Scenario(kind="figure", figures=("mem", "mem")),))
        result = run_campaign(spec, self._config(tmp_path))
        assert [p.status for p in result.points] == ["computed", "deduped"]
        assert result.points[0].payload == result.points[1].payload
        assert result.campaign["totals"] == \
            {"points": 2, "computed": 1, "resumed": 0, "deduped": 1}

    def test_serial_vs_jobs_byte_identical(self, tmp_path):
        serial = run_campaign(self.SPEC, self._config(tmp_path, jobs=1))
        parallel = run_campaign(self.SPEC, self._config(tmp_path, jobs=2))
        assert _payload_bytes(serial) == _payload_bytes(parallel)

    def test_fleet_only_campaign_forks_no_pool(self, tmp_path):
        # fleets run serially, so warming a pool for them is pure cost
        from repro.core.workerpool import pool_generations

        spec = CampaignSpec(
            name="fleets",
            scenarios=(Scenario(kind="fleet", params=(
                ("hosts", 12), ("duration_s", 1800.0))),))
        before = pool_generations()
        result = run_campaign(spec, self._config(tmp_path, jobs=3))
        assert [p.status for p in result.points] == ["computed"]
        assert pool_generations() == before

    def test_interrupted_run_resumes_byte_identically(self, tmp_path,
                                                      monkeypatch):
        from repro.core import figures as figures_module

        config = self._config(tmp_path)
        clean = run_campaign(self.SPEC, config)

        def broken_fig2(**kwargs):
            raise ExperimentError("injected-for-test")

        monkeypatch.setitem(figures_module.FIGURES, "fig2", broken_fig2)
        with pytest.raises(ExperimentError, match="injected-for-test"):
            run_campaign(self.SPEC, config)
        # mem completed before the crash and is checkpointed on disk
        assert list((tmp_path / "runs").glob("progress-*.json"))

        monkeypatch.undo()
        started = []
        resumed = run_campaign(self.SPEC, config, resume=True,
                               on_start=lambda p: started.append(
                                   p.params_dict["figure"]))
        assert started == ["fig2"]  # only the unfinished point recomputed
        assert [p.status for p in resumed.points] == ["resumed", "computed"]
        assert _payload_bytes(resumed) == _payload_bytes(clean)
        assert not list((tmp_path / "runs").glob("progress-*.json"))

    def test_campaign_section_reports_cache_and_latency(self, tmp_path):
        config = self._config(tmp_path, cache=True, metrics=True,
                              cache_dir=str(tmp_path / "cache"))
        cold = run_campaign(self.SPEC, config)
        section = cold.campaign
        assert section["schema"] == CAMPAIGN_SCHEMA
        assert section["cache"] == {"hits": 0, "misses": 2, "hit_rate": 0.0}
        assert section["queue_latency_s"]["max"] >= \
            section["queue_latency_s"]["mean"] >= 0.0
        assert all(p["queue_latency_s"] >= 0.0 for p in section["points"])

        warm = run_campaign(self.SPEC, config)
        assert warm.campaign["cache"] == \
            {"hits": 2, "misses": 0, "hit_rate": 1.0}
        assert _payload_bytes(warm) == _payload_bytes(cold)

    def test_manifest_carries_campaign_section(self, tmp_path):
        from repro.obs.manifest import load_manifest, validate_manifest

        config = self._config(tmp_path, metrics=True)
        result = run_campaign(self.SPEC, config)
        assert result.manifest_path
        manifest = load_manifest("last", runs_dir=config.runs_dir)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "campaign:two-figs"
        campaign = manifest["campaign"]
        assert campaign["totals"]["points"] == 2
        assert "hit_rate" in campaign["cache"]
        assert {"mean", "max"} <= set(campaign["queue_latency_s"])
        counters = manifest["metrics"]["counters"]
        assert counters["campaign.points"] == 2
        assert counters["campaign.computed"] == 2

    def test_sweep_points_bypass_the_result_cache(self):
        [point] = plan_campaign(CampaignSpec(
            name="s", scenarios=(Scenario(kind="sweep", sweep="l2",
                                          values=(0.5,)),)))
        assert point_cache_key(point, RunConfig()) is None

    def test_faults_axis_runs_and_manifest_sums_recovery(self, tmp_path):
        from repro.obs.manifest import load_manifest, validate_manifest

        spec = CampaignSpec(
            name="chaos",
            scenarios=(Scenario(
                kind="fleet",
                faults=("", "seed=11,net.partition=0.5,vm.crash=0.3"),
                params=(("hosts", 12), ("duration_s", 3600.0),
                        ("seed", 3), ("upload_backoff_s", 120.0))),))
        config = self._config(tmp_path, metrics=True)
        result = run_campaign(spec, config)
        baseline, storm = result.points
        # the storm point really injected: its report diverges and the
        # recovery tallies are live
        assert baseline.payload != storm.payload
        assert storm.payload["recovery"]["uploads_retried"] > 0
        assert not any(baseline.payload["recovery"].values())
        manifest = load_manifest("last", runs_dir=config.runs_dir)
        assert validate_manifest(manifest) == []
        assert manifest["recovery"]["uploads_retried"] == \
            storm.payload["recovery"]["uploads_retried"]

    def test_faults_token_folds_into_point_cache_key(self, tmp_path):
        spec = CampaignSpec(
            name="chaos",
            scenarios=(Scenario(
                kind="fleet",
                faults=("", "seed=11,vm.crash=0.3"),
                params=(("hosts", 12), ("duration_s", 3600.0))),))
        baseline, storm = plan_campaign(spec)
        config = self._config(tmp_path, cache=True,
                              cache_dir=str(tmp_path / "cache"))
        key_base = point_cache_key(baseline, config)
        key_storm = point_cache_key(storm, config)
        assert key_base and key_storm and key_base != key_storm

    def test_figure_point_key_matches_generate_figure(self, tmp_path):
        # A point computed once must be predicted as a cache hit by
        # `campaign plan`'s key derivation.
        from repro.core.cache import ResultCache

        config = self._config(tmp_path, cache=True,
                              cache_dir=str(tmp_path / "cache"))
        spec = CampaignSpec(
            name="one", scenarios=(Scenario(kind="figure",
                                            figures=("mem",)),))
        [point] = plan_campaign(spec)
        run_campaign(spec, config)
        from repro import api

        with api.activated(config):  # ResultCache root follows the config
            assert ResultCache().has(point_cache_key(point, config))


class TestCli:
    def _write_spec(self, tmp_path, payload=None):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload or {
            "name": "cli-grid",
            "scenarios": [
                {"kind": "fleet",
                 "grid": {"hypervisor": ["vmplayer", "qemu"]},
                 "params": {"hosts": 12, "duration_s": 3600, "seed": 3}},
            ],
        }))
        return str(path)

    @pytest.fixture(autouse=True)
    def _isolated_dirs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CACHE", "0")

    def test_plan_lists_points(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["campaign", "plan",
                     self._write_spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign cli-grid: 2 point(s)" in out
        assert "compute" in out and "hypervisor='qemu'" in out
        assert "2 to compute" in out

    def test_plan_predicts_cache_hits(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", "1")
        spec = self._write_spec(tmp_path)
        assert main(["campaign", "run", spec, "--no-metrics"]) == 0
        capsys.readouterr()
        assert main(["campaign", "plan", spec]) == 0
        out = capsys.readouterr().out
        assert "2 expected cache hit(s)" in out
        assert "0 to compute" in out

    def test_bad_spec_is_exit_2(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["campaign", "run", str(path)]) == 2
        assert "campaign:" in capsys.readouterr().err

    def test_json_run_is_machine_readable_and_chatter_free(self, capsys,
                                                           tmp_path):
        from repro.cli import main

        assert main(["campaign", "run", self._write_spec(tmp_path),
                     "--json", "--no-metrics"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is pure JSON
        assert payload["schema"] == CAMPAIGN_SCHEMA
        assert payload["name"] == "cli-grid"
        assert len(payload["points"]) == 2
        assert "wall" in captured.err

    def test_serial_vs_jobs_2_byte_identical(self, capsys, tmp_path):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        argv = ["campaign", "run", spec, "--json", "--no-metrics"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_manifest_records_hit_rate_and_latency(self, capsys,
                                                   monkeypatch, tmp_path):
        from repro.cli import main
        from repro.obs.manifest import load_manifest, validate_manifest

        monkeypatch.setenv("REPRO_CACHE", "1")
        spec = self._write_spec(tmp_path)
        assert main(["campaign", "run", spec]) == 0
        cold = load_manifest("last", runs_dir=str(tmp_path / "runs"))
        assert validate_manifest(cold) == []
        assert cold["campaign"]["cache"]["hit_rate"] == 0.0

        assert main(["campaign", "run", spec]) == 0
        warm = load_manifest("last", runs_dir=str(tmp_path / "runs"))
        assert warm["campaign"]["cache"]["hit_rate"] == 1.0
        assert warm["campaign"]["queue_latency_s"]["max"] >= 0.0
        summary = capsys.readouterr().out
        assert "cache hit-rate: 100%" in summary

    def test_interrupted_cli_run_resumes(self, capsys, monkeypatch,
                                         tmp_path):
        from repro.cli import main
        from repro.core import figures as figures_module
        from repro.errors import ExperimentError as Err

        spec_path = self._write_spec(tmp_path, {
            "name": "resume-me",
            "scenarios": [
                {"kind": "figure", "figures": ["mem"]},
                {"kind": "figure", "figures": ["fig2"],
                 "params": {"size": 64}},
            ],
        })
        monkeypatch.setenv("REPRO_REPS", "2")
        argv = ["campaign", "run", spec_path, "--json", "--no-metrics"]
        assert main(argv) == 0
        clean = capsys.readouterr().out

        def broken_fig2(**kwargs):
            raise Err("injected-for-test")

        monkeypatch.setitem(figures_module.FIGURES, "fig2", broken_fig2)
        assert main(argv) == 1
        first = capsys.readouterr()
        assert "rerun with --resume" in first.err
        assert list((tmp_path / "runs").glob("progress-*.json"))

        monkeypatch.undo()
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_REPS", "2")
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr()
        assert "1 of 2 point(s) already complete" in second.err
        assert "running figure fig2" in second.err
        assert "running figure mem" not in second.err
        assert second.out == clean  # merged result byte-identical
        assert not list((tmp_path / "runs").glob("progress-*.json"))
