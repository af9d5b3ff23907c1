"""Fleet subsystem: determinism, calibration, validation, CLI, figures."""

import json

import pytest

from repro import api
from repro.errors import ExperimentError
from repro.fleet import (
    FleetConfig,
    QuorumValidator,
    estimated_grid_efficiency,
    fleet_slowdown,
    fleet_slowdowns,
    resolve_hypervisor,
    sample_host,
    simulate_fleet,
)
from repro.fleet.churn import (
    ChurnModel,
    active_seconds,
    availability_trace,
    finish_time,
)
from repro.simcore.rng import RngStreams

SMALL = FleetConfig(hosts=150, hypervisor="mixed", seed=7,
                    duration_s=14400.0)


def canonical(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestCalibration:
    def test_aliases_resolve(self):
        assert resolve_hypervisor("vmware") == "vmplayer"
        assert resolve_hypervisor("vbox") == "virtualbox"
        assert resolve_hypervisor("vpc") == "virtualpc"
        assert resolve_hypervisor("QEMU") == "qemu"
        assert resolve_hypervisor("mixed") == "mixed"

    def test_unknown_hypervisor_lists_choices(self):
        with pytest.raises(ExperimentError, match="xen"):
            resolve_hypervisor("xen")

    def test_slowdowns_reflect_figure_ordering(self):
        # Figures 1-2: VMware closest to native, QEMU slowest
        slow = fleet_slowdowns()
        assert slow["vmplayer"] < slow["virtualbox"]
        assert slow["qemu"] == max(slow.values())
        assert all(s > 1.0 for s in slow.values())

    def test_slowdown_exceeds_pure_guest_multiplier(self):
        # the host-intrusiveness share (Figures 7-8) adds on top of the
        # guest slowdown (Figures 1-2)
        from repro.hardware.cpu import MIX_EINSTEIN
        from repro.virt.profiles import get_profile
        from repro.virt.vcpu import user_multiplier

        for name in ("vmplayer", "qemu"):
            guest = user_multiplier(get_profile(name), MIX_EINSTEIN)
            assert fleet_slowdown(name) > guest

    def test_efficiency_in_unit_interval(self):
        for name in ("vmplayer", "qemu", "vmware"):
            assert 0.0 < estimated_grid_efficiency(name) < 1.0


class TestFleetConfig:
    def test_alias_canonicalised_at_boundary(self):
        assert FleetConfig(hypervisor="vmware").hypervisor == "vmplayer"

    @pytest.mark.parametrize("field,value", [
        ("hosts", 0),
        ("duration_s", -1.0),
        ("quorum", 0),
        ("workunits", -5),
        ("availability_mean", 1.5),
        ("error_rate", -0.1),
        ("wu_flops", 0.0),
        ("backoff_factor", 0.5),
        ("session_mean_s", 0.0),
        ("departure_mean_s", -1.0),
    ])
    def test_bad_values_rejected_with_offender(self, field, value):
        with pytest.raises(ExperimentError, match=str(value)):
            FleetConfig(**{field: value})

    def test_quorum_cannot_exceed_fleet(self):
        with pytest.raises(ExperimentError, match="quorum"):
            FleetConfig(hosts=2, quorum=3)

    def test_max_replicas_at_least_quorum(self):
        with pytest.raises(ExperimentError, match="max_replicas"):
            FleetConfig(quorum=3, max_replicas=2)

    def test_round_trip(self):
        config = FleetConfig(hosts=10, hypervisor="vbox", seed=3)
        assert FleetConfig.from_dict(config.to_dict()) == config

    def test_auto_batch_scales_with_fleet(self):
        small = FleetConfig(hosts=50).resolved_workunits()
        large = FleetConfig(hosts=500).resolved_workunits()
        assert large > small >= 50


class TestMemoryAxes:
    """vms_per_host / overcommit_ratio: the repro.virt.memory reduction."""

    def test_defaults_change_nothing(self):
        from repro.fleet import memory_slowdown_factor

        assert memory_slowdown_factor() == 1.0
        assert FleetConfig().memory_factor() == 1.0
        assert FleetConfig().mean_slowdown() == \
            FleetConfig(vms_per_host=1, overcommit_ratio=1.0).mean_slowdown()

    def test_factor_monotone_in_both_axes(self):
        from repro.fleet import memory_slowdown_factor

        assert memory_slowdown_factor(1) <= memory_slowdown_factor(2) \
            < memory_slowdown_factor(4) < memory_slowdown_factor(8)
        assert memory_slowdown_factor(2, 1.0) < \
            memory_slowdown_factor(2, 1.5) < memory_slowdown_factor(2, 2.0)

    def test_factor_validates_inputs(self):
        from repro.fleet import memory_slowdown_factor

        with pytest.raises(ExperimentError):
            memory_slowdown_factor(0)
        with pytest.raises(ExperimentError):
            memory_slowdown_factor(2, 0.0)

    def test_config_validates_memory_fields(self):
        with pytest.raises(ExperimentError, match="vms_per_host"):
            FleetConfig(vms_per_host=0)
        with pytest.raises(ExperimentError, match="overcommit_ratio"):
            FleetConfig(overcommit_ratio=3.5)

    def test_memory_fields_slow_sampled_hosts(self):
        base = sample_host(FleetConfig(seed=3), 0)
        loaded = sample_host(
            FleetConfig(seed=3, vms_per_host=4, overcommit_ratio=1.5), 0)
        assert loaded.slowdown > base.slowdown
        assert loaded.gflops == base.gflops  # only the slowdown moves

    def test_memory_fields_are_cache_identity(self):
        a = FleetConfig().to_dict()
        b = FleetConfig(vms_per_host=2).to_dict()
        assert a != b
        assert a["vms_per_host"] == 1
        assert b["vms_per_host"] == 2


class TestChurn:
    def test_availability_fraction_validated(self):
        for bad in (-0.1, 0.0, 1.2):
            with pytest.raises(ExperimentError, match=repr(bad)):
                ChurnModel(availability=bad, session_mean_s=100.0,
                           departure_mean_s=1000.0)

    def test_trace_sessions_ordered_and_bounded(self):
        model = ChurnModel(availability=0.6, session_mean_s=500.0,
                           departure_mean_s=5000.0)
        sessions, departure = availability_trace(
            model, RngStreams(11).fork("t"), horizon_s=10000.0)
        assert departure > 0
        end_of_world = min(10000.0, departure)
        last_end = 0.0
        for start, end in sessions:
            assert start >= last_end
            assert end > start
            assert end <= end_of_world + 1e-9
            last_end = end

    def test_finish_time_pauses_across_gaps(self):
        sessions = [(0.0, 100.0), (200.0, 400.0)]
        # 150 active seconds from t=0: 100 in session one, 50 in two
        assert finish_time(sessions, 0.0, 150.0) == pytest.approx(250.0)
        assert finish_time(sessions, 0.0, 1000.0) is None
        assert active_seconds(sessions, 50.0, 250.0) == pytest.approx(100.0)


class TestDeterminism:
    def test_serial_and_parallel_reports_bit_identical(self):
        with api.activated(api.RunConfig(jobs=1)):
            serial = simulate_fleet(SMALL)
        with api.activated(api.RunConfig(jobs=4)):
            parallel = simulate_fleet(SMALL)
        assert canonical(serial) == canonical(parallel)

    def test_fleet_never_touches_the_worker_pool(self, tmp_path):
        # 9,000 hosts is more than one 8,192-host column range: the
        # size at which the build used to fan out over the pool.
        from repro.core.workerpool import pool_generations

        config = FleetConfig(hosts=9000, hypervisor="vmplayer", seed=5,
                             duration_s=3600.0)

        def run(jobs):
            return api.run(api.RunRequest(
                kind="fleet", target=config,
                config=api.RunConfig(jobs=jobs, metrics=True, cache=False,
                                     runs_dir=str(tmp_path / str(jobs)))))

        before = pool_generations()
        parallel = run(4)
        assert pool_generations() == before
        touched = [name for section in parallel.metrics.values()
                   for name in section if name.startswith("parallel.")]
        assert touched == []
        assert canonical(parallel.report) == canonical(run(1).report)

    def test_different_seeds_differ(self):
        other = SMALL.with_overrides(seed=8)
        assert canonical(simulate_fleet(SMALL)) != \
            canonical(simulate_fleet(other))

    def test_cache_hit_is_bit_identical_to_miss(self, tmp_path):
        config = api.RunConfig(cache=True, jobs=2,
                               cache_dir=str(tmp_path / "cache"))
        first = api.run(api.RunRequest(kind="fleet", target=SMALL,
                                       config=config))
        second = api.run(api.RunRequest(kind="fleet", target=SMALL,
                                        config=config))
        assert first.cache_outcome == "miss"
        assert second.cache_outcome == "hit"
        assert canonical(first.report) == canonical(second.report)


class TestServerBehaviour:
    def test_mixed_fleet_breaks_down_per_hypervisor(self):
        report = simulate_fleet(SMALL)
        assert set(report.per_hypervisor) == {
            "vmplayer", "qemu", "virtualbox", "virtualpc"}
        hosts = sum(s["hosts"] for s in report.per_hypervisor.values())
        assert hosts == SMALL.hosts

    def test_conservation_of_work_units(self):
        report = simulate_fleet(SMALL)
        assert (report.valid + report.failed + report.in_progress
                + report.unsent == report.workunits)
        assert report.valid > 0
        assert report.throughput_per_hour == pytest.approx(
            report.valid / (report.duration_s / 3600.0))

    def test_quorum_needs_at_least_quorum_results(self):
        report = simulate_fleet(SMALL)
        assert report.results_ok >= report.valid * SMALL.quorum

    def test_error_injection_wastes_cpu(self):
        noisy = SMALL.with_overrides(error_rate=0.3)
        clean = SMALL.with_overrides(error_rate=0.0)
        assert simulate_fleet(noisy).results_erroneous > 0
        assert simulate_fleet(clean).results_erroneous == 0

    def test_report_round_trips_through_json(self):
        from repro.fleet import FleetReport

        report = simulate_fleet(SMALL)
        clone = FleetReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert canonical(clone) == canonical(report)

    def test_faster_hypervisor_outproduces_slower(self):
        base = dict(hosts=100, seed=5, duration_s=14400.0)
        fast = simulate_fleet(FleetConfig(hypervisor="vmplayer", **base))
        slow = simulate_fleet(FleetConfig(hypervisor="qemu", **base))
        assert fast.valid > slow.valid


class TestQuorumValidator:
    def test_bad_result_never_validates_alone(self):
        validator = QuorumValidator(2)
        assert not validator.record(1, 0, "bad:1:0:0")
        assert not validator.record(1, 1, "bad:1:1:1")
        assert not validator.is_valid(1)

    def test_same_host_cannot_self_validate(self):
        validator = QuorumValidator(2)
        assert not validator.record(1, 0, "ok")
        assert not validator.record(1, 0, "ok")
        assert not validator.is_valid(1)

    def test_two_distinct_hosts_validate(self):
        validator = QuorumValidator(2)
        assert not validator.record(1, 0, "ok")
        assert validator.record(1, 1, "ok")
        assert validator.is_valid(1)
        assert validator.quorum_hosts(1) == (0, 1)
        # a third, redundant result flips nothing
        assert not validator.record(1, 2, "ok")


class TestFigures:
    def test_fleet_figures_registered(self):
        from repro.core.figures import FIGURES

        for fig_id in ("fleet", "fleet_makespan", "fleet_waste"):
            assert fig_id in FIGURES

    def test_scale_figure_throughput_grows(self):
        from repro.fleet import fleet_scale_figure

        fig = fleet_scale_figure(sizes=(40, 160), duration_s=7200.0)
        assert fig.fig_id == "fleet"
        values = fig.measured_values()
        assert values["160 hosts"] > values["40 hosts"]

    def test_waste_figure_covers_all_profiles(self):
        from repro.fleet import fleet_waste_figure

        fig = fleet_waste_figure(hosts=60, duration_s=7200.0)
        for profile in ("vmplayer", "qemu", "virtualbox", "virtualpc"):
            assert profile in fig.series

    def test_report_figure_carries_headline_numbers(self):
        from repro.fleet import report_figure

        report = simulate_fleet(SMALL)
        fig = report_figure(report)
        assert fig.measured_values()["validated WUs"] == report.valid


class TestCli:
    def test_fleet_json_run_writes_valid_manifest(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.cli import main
        from repro.obs.manifest import load_manifest, validate_manifest

        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        status = main(["fleet", "--hosts", "40", "--hours", "2",
                       "--hypervisor", "vmware", "--seed", "3", "--json",
                       "--jobs", "2"])
        assert status == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["schema"] == "repro-fleet-report/2"
        assert report["hosts"] == 40
        manifest = load_manifest("last", runs_dir=tmp_path / "runs")
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "fleet:vmplayer"
        assert manifest["fleet"]["hosts"] == 40

    def test_fleet_cli_serial_parallel_identical(self, tmp_path,
                                                 monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        argv = ["fleet", "--hosts", "40", "--hours", "2", "--seed", "3",
                "--json"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_fleet_no_metrics_skips_manifest(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        assert main(["fleet", "--hosts", "20", "--hours", "1",
                     "--no-metrics"]) == 0
        assert not (tmp_path / "runs").exists()
        assert "validated" in capsys.readouterr().out
