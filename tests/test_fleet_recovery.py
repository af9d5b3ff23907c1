"""Fleet failure & recovery: outages, upload retry, rollback, degraded mode.

The headline contracts under test: every recovery decision rides the
dedicated fault stream (so storm runs stay byte-identical serial vs
``--jobs N`` and round-trip through JSON), the waste accounting stays an
exact partition under any storm, and degraded-mode validations are
always visible in the report's risk counters.
"""

import json

import pytest

from repro import api
from repro.errors import ExperimentError
from repro.faults import FAULTS, RUNLOG, injected, parse_fault_spec
from repro.fleet import (
    FleetConfig,
    FleetServer,
    RecoveryPolicy,
    build_fleet_columns,
    checkpoint_cost_s,
    outage_windows,
    rollback_seconds,
    simulate_fleet,
)
from repro.fleet.server import FleetReport

CONFIG = FleetConfig(hosts=40, hypervisor="mixed", seed=7,
                     duration_s=14400.0)
STORM = "seed=11,server.outage=0.5,net.partition=0.4,vm.crash=0.4"


@pytest.fixture(autouse=True)
def _clean_runlog():
    assert not FAULTS.enabled
    RUNLOG.clear()
    yield
    assert not FAULTS.enabled
    RUNLOG.clear()


def storm_run(jobs=1, **overrides):
    config = FleetConfig(**{**CONFIG.to_dict(), **overrides})
    with api.activated(api.RunConfig(jobs=jobs)), \
            injected(parse_fault_spec(STORM)):
        return simulate_fleet(config)


class TestRecoveryPolicy:
    @pytest.mark.parametrize("field,value", [
        ("checkpoint_interval_s", -1.0),
        ("upload_retries", -1),
        ("upload_backoff_s", 0.0),
        ("degraded_threshold", -2),
        ("outage_scale_s", 0.0),
    ])
    def test_bad_values_rejected_with_offender(self, field, value):
        with pytest.raises(ExperimentError, match=str(value)):
            RecoveryPolicy(**{field: value})

    def test_retry_delay_doubles_per_attempt(self):
        policy = RecoveryPolicy(upload_backoff_s=100.0)
        assert [policy.retry_delay_s(a) for a in range(3)] \
            == [100.0, 200.0, 400.0]

    def test_config_carries_policy_fields(self):
        config = FleetConfig(checkpoint_interval_s=600.0, upload_retries=5,
                             upload_backoff_s=120.0, degraded_threshold=4,
                             outage_scale_s=1800.0)
        policy = config.recovery_policy()
        assert policy == RecoveryPolicy(
            checkpoint_interval_s=600.0, upload_retries=5,
            upload_backoff_s=120.0, degraded_threshold=4,
            outage_scale_s=1800.0)
        assert FleetConfig.from_dict(config.to_dict()) == config

    def test_config_rejects_bad_recovery_values(self):
        with pytest.raises(ExperimentError, match="-3"):
            FleetConfig(upload_retries=-3)


class TestOutageWindows:
    def test_deterministic_sorted_disjoint(self):
        with injected(parse_fault_spec("seed=9,server.outage=0.6")):
            first = outage_windows(43200.0, 3600.0)
        with injected(parse_fault_spec("seed=9,server.outage=0.6")):
            second = outage_windows(43200.0, 3600.0)
        assert first == second
        assert first  # p=0.6 over 12 slots: some must fire
        for start, end in first:
            assert 0.0 <= start < end <= 43200.0
        for (_, end), (start, _) in zip(first, first[1:]):
            assert end < start  # merged: strictly disjoint, sorted

    def test_unarmed_site_means_no_outages(self):
        with injected(parse_fault_spec("seed=9,vm.crash=0.5")):
            assert outage_windows(43200.0, 3600.0) == []

    def test_longer_scale_means_more_downtime(self):
        def downtime(scale_s):
            with injected(parse_fault_spec("seed=9,server.outage=0.6")):
                return sum(end - start
                           for start, end in outage_windows(43200.0,
                                                            scale_s))

        assert downtime(7200.0) > downtime(1800.0)


class TestRollbackMath:
    def test_no_progress_no_rollback(self):
        assert rollback_seconds(0.0, 900.0) == 0.0
        assert rollback_seconds(-1.0, 0.0) == 0.0

    def test_no_checkpoints_lose_everything(self):
        assert rollback_seconds(1234.5, 0.0) == 1234.5

    def test_rollback_is_progress_past_last_checkpoint(self):
        assert rollback_seconds(2100.0, 900.0) == pytest.approx(300.0)
        assert rollback_seconds(900.0, 900.0) == pytest.approx(0.0)
        assert 0.0 <= rollback_seconds(12345.6, 900.0) < 900.0

    def test_checkpoint_cost_reflects_disk_calibration(self):
        # QEMU's emulated virtual disk (Figure 3) makes its checkpoint
        # writes far slower than VMware's on the same host.
        vmware = checkpoint_cost_s("vmplayer", 1.5)
        qemu = checkpoint_cost_s("qemu", 1.5)
        assert 0.0 < vmware < qemu
        # cost scales inversely with host speed
        assert checkpoint_cost_s("qemu", 3.0) == pytest.approx(qemu / 2.0)


class TestStormBehaviour:
    def test_outages_halt_dispatch_and_tally(self):
        report = storm_run()
        recovery = report.recovery
        assert recovery["outages"] > 0
        assert recovery["outage_s"] > 0.0
        baseline = simulate_fleet(CONFIG)
        assert baseline.recovery["outages"] == 0
        assert report.to_dict() != baseline.to_dict()  # the storm bites

    def test_partition_exhausts_retries_and_loses_uploads(self):
        report = storm_run(upload_retries=0)
        assert report.recovery["uploads_lost"] > 0
        assert report.cpu_s["lost"] > 0.0

    def test_retries_recover_most_uploads(self):
        # With a generous retry budget the same storm loses (almost)
        # nothing: blocked uploads drain once the backoff expires.
        patient = storm_run(upload_retries=8, upload_backoff_s=60.0)
        impatient = storm_run(upload_retries=0)
        assert patient.recovery["uploads_retried"] > 0
        assert patient.recovery["uploads_lost"] \
            < impatient.recovery["uploads_lost"]

    def test_checkpoints_shrink_rollback_loss(self):
        none = storm_run(checkpoint_interval_s=0.0)
        fine = storm_run(checkpoint_interval_s=900.0)
        assert none.recovery["vm_crashes"] > 0
        assert fine.recovery["vm_crashes"] > 0
        assert 0.0 < fine.recovery["rolled_back_s"] \
            < none.recovery["rolled_back_s"]
        assert fine.cpu_s["rolled_back"] \
            == pytest.approx(fine.recovery["rolled_back_s"])

    def test_degraded_mode_counts_quorum_of_one(self):
        report = storm_run(degraded_threshold=1, upload_retries=6,
                           upload_backoff_s=3600.0)
        recovery = report.recovery
        assert recovery["degraded_windows"] >= 1
        assert recovery["degraded_s"] > 0.0
        assert recovery["degraded_validated"] > 0
        assert recovery["degraded_validated"] <= report.valid

    def test_plan_armed_after_construction_still_applies(self):
        # Regression: the outage schedule used to be drawn at
        # construction, so a plan armed before run() ran with faults on
        # but no outages.  Every fault decision now happens in run().
        server = FleetServer(CONFIG, build_fleet_columns(CONFIG))
        with injected(parse_fault_spec(STORM)):
            late = server.run()
        assert late.recovery["outages"] > 0
        assert late.to_dict() == storm_run().to_dict()

    def test_degraded_off_by_default(self):
        assert storm_run().recovery["degraded_validated"] == 0

    def test_waste_partition_exact_under_storm(self):
        report = storm_run(checkpoint_interval_s=900.0,
                           degraded_threshold=2)
        cpu = report.cpu_s
        assert cpu["wasted"] == pytest.approx(
            cpu["erroneous"] + cpu["stale"] + cpu["redundant"]
            + cpu["lost"] + cpu["rolled_back"], abs=1e-6)
        assert cpu["total"] == pytest.approx(
            cpu["quorum"] + cpu["wasted"] + cpu["pending"]
            + cpu["in_flight"], abs=1e-6)

    def test_summary_surfaces_recovery_line(self):
        assert "recovery" in storm_run().summary()
        assert "recovery" not in simulate_fleet(CONFIG).summary()


class TestDeterminism:
    def test_storm_byte_identical_serial_vs_parallel(self):
        serial = storm_run(jobs=1, checkpoint_interval_s=900.0,
                           degraded_threshold=2)
        parallel = storm_run(jobs=2, checkpoint_interval_s=900.0,
                             degraded_threshold=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) \
            == json.dumps(parallel.to_dict(), sort_keys=True)

    def test_storm_report_round_trips(self):
        report = storm_run(checkpoint_interval_s=900.0,
                           degraded_threshold=2)
        clone = FleetReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.recovery == report.recovery
        assert clone.dropouts == report.dropouts

    def test_fault_free_recovery_tallies_are_zero(self):
        report = simulate_fleet(CONFIG)
        assert not any(report.recovery.values())
        assert report.cpu_s["rolled_back"] == 0.0
