"""Resilient execution: retry, timeouts, degradation, fault recovery.

The headline contract under test: a fault-injected run that recovers via
retry is **byte-identical** to a fault-free run, because retried
repetitions re-derive the same seeds and fault draws never touch the
experiment RNG streams.
"""

import os
import time

import pytest

from repro import api
from repro.core.experiment import Repeater, repeat
from repro.errors import CheckpointError, ExperimentError
from repro.faults import FAULTS, RUNLOG, FaultPlan, injected
from repro.fleet import FleetConfig, build_fleet_columns, simulate_fleet
from repro.simcore.rng import derive_rep_seed
from tests._reference_fleet import host_from_columns
from tests._reference_repeat import reference_repeat


@pytest.fixture(autouse=True)
def _clean_runlog():
    assert not FAULTS.enabled
    RUNLOG.clear()
    yield
    assert not FAULTS.enabled
    RUNLOG.clear()


def picklable_measure(seed):
    return {"x": float(seed % 1000), "y": float(seed % 7)}


def slow_measure(seed):
    time.sleep(0.05)  # still running when another worker crashes
    return picklable_measure(seed)


def failing_even_measure(seed):
    if seed % 2 == 0:
        raise ValueError(f"boom for seed {seed}")
    return {"x": 1.0}


def exiting_even_measure(seed):
    if seed % 2 == 0:
        os._exit(3)  # hard crash: breaks the worker pool
    return {"x": 1.0}


STORM = "seed=7,worker.crash=0.2,measure.transient=0.35"


class TestByteIdenticalRecovery:
    def test_crash_and_transient_storm_recovers_identically(self):
        plan = FaultPlan(seed=7).arm("worker.crash", 0.2) \
                                .arm("measure.transient", 0.35)
        # precondition: this fault seed really does crash a worker
        assert any(plan.would_fire("worker.crash", key=r, attempt=0)
                   for r in range(6))
        baseline = reference_repeat(picklable_measure, 42, 6)
        with injected(plan):
            stormy = Repeater(base_seed=42, reps=6, jobs=2,
                              retries=3).run(picklable_measure)
        assert stormy.raw == baseline.raw
        assert stormy.metrics == baseline.metrics
        assert stormy.dropped == []
        assert RUNLOG.retries > 0

    def test_collateral_crash_spends_no_attempt(self):
        # Repetition 0 crashes its worker at attempt 0 only; every other
        # repetition would crash at attempt 1.  The broken pool fails the
        # repetitions still in flight: they must run again at attempt 0,
        # not spend their single retry on someone else's crash.
        plan = FaultPlan(seed=3379).arm("worker.crash", 0.5)
        assert plan.would_fire("worker.crash", key=0, attempt=0)
        assert not plan.would_fire("worker.crash", key=0, attempt=1)
        for rep in range(1, 6):
            assert not plan.would_fire("worker.crash", key=rep, attempt=0)
            assert plan.would_fire("worker.crash", key=rep, attempt=1)
        serial = Repeater(base_seed=42, reps=6, jobs=1,
                          retries=1).run(slow_measure)
        with injected(plan):
            stormy = Repeater(base_seed=42, reps=6, jobs=2,
                              retries=1).run(slow_measure)
        assert stormy.raw == serial.raw
        assert stormy.metrics == serial.metrics
        assert stormy.dropped == []
        assert RUNLOG.retries == 1
        assert plan.injected["worker.crash"] == 1

    def test_transient_storm_recovers_serially(self):
        baseline = reference_repeat(picklable_measure, 11, 4)
        plan = FaultPlan(seed=1).arm("measure.transient", 1.0)
        with injected(plan):
            recovered = Repeater(base_seed=11, reps=4, jobs=1,
                                 retries=1).run(picklable_measure)
        assert recovered.raw == baseline.raw
        # every repetition failed once (transient, p=1) and was retried
        assert RUNLOG.retries == 4
        assert plan.injected["measure.transient"] == 4

    def test_hang_trips_timeout_then_recovers(self):
        baseline = reference_repeat(picklable_measure, 13, 2)
        plan = FaultPlan(seed=1, hang_s=30.0).arm("worker.hang", 1.0)
        with injected(plan):
            recovered = Repeater(
                base_seed=13, reps=2, jobs=2, retries=2,
                task_timeout_s=0.25).run(picklable_measure)
        assert recovered.raw == baseline.raw
        assert RUNLOG.timeouts >= 1

    def test_fault_free_resilient_path_matches_legacy(self):
        legacy = Repeater(base_seed=21, reps=4,
                          jobs=2).run(picklable_measure)
        resilient = Repeater(base_seed=21, reps=4, jobs=2,
                             retries=2,
                             task_timeout_s=60.0
                             ).run(picklable_measure)
        assert resilient.raw == legacy.raw
        assert resilient.metrics == legacy.metrics
        assert RUNLOG.retries == 0 and RUNLOG.timeouts == 0


class TestGracefulDegradation:
    def test_min_reps_records_exact_dropped_seeds(self):
        reps = 8
        seeds = [derive_rep_seed(5, r) for r in range(reps)]
        doomed = [r for r in range(reps) if seeds[r] % 2 == 0]
        assert doomed  # the scenario must actually drop something
        result = Repeater(
            base_seed=5, reps=reps, jobs=2, retries=1,
            min_reps=reps - len(doomed)).run(failing_even_measure)
        assert [d["repetition"] for d in result.dropped] == doomed
        assert [d["seed"] for d in result.dropped] == \
            [seeds[r] for r in doomed]
        assert all("boom" in d["traceback"] for d in result.dropped)
        assert result["x"].n == reps - len(doomed)
        assert RUNLOG.dropped == result.dropped

    def test_below_min_reps_fails_fast_with_attempts(self):
        with pytest.raises(ExperimentError) as excinfo:
            Repeater(base_seed=5, reps=4, jobs=2, retries=1,
                     min_reps=4).run(failing_even_measure)
        message = str(excinfo.value)
        assert "failed after 2 attempt(s)" in message
        assert "repetitions completed" in message
        assert "reproduce with measure(" in message

    def test_min_reps_cannot_exceed_reps(self):
        with pytest.raises(ExperimentError, match="min_reps"):
            Repeater(base_seed=1, reps=3, jobs=2, min_reps=4)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ExperimentError, match="retries"):
            Repeater(base_seed=1, reps=2, jobs=2, retries=-1)
        with pytest.raises(ExperimentError, match="task_timeout_s"):
            Repeater(base_seed=1, reps=2, jobs=2, task_timeout_s=0)
        with pytest.raises(ExperimentError, match="min_reps"):
            Repeater(base_seed=1, reps=2, jobs=2, min_reps=0)


class TestLegacyPoolBreak:
    def test_salvage_reports_completed_count(self):
        with pytest.raises(ExperimentError) as excinfo:
            Repeater(base_seed=5, reps=4,
                     jobs=2).run(exiting_even_measure)
        message = str(excinfo.value)
        assert "broke the worker pool after" in message
        assert "of 4 repetitions had completed" in message


class TestConfigDefaults:
    def test_resilience_knobs_flow_from_run_config(self):
        config = api.RunConfig(retries=2, task_timeout_s=90.0, min_reps=2)
        with api.activated(config):
            repeater = Repeater(base_seed=1, reps=3, jobs=2)
        assert repeater.retries == 2
        assert repeater.task_timeout_s == 90.0
        assert repeater.min_reps == 2

    def test_explicit_knobs_beat_config(self):
        with api.activated(api.RunConfig(retries=5)):
            repeater = Repeater(base_seed=1, reps=3, jobs=2,
                                retries=0)
        assert repeater.retries == 0

    def test_repeat_routes_through_resilient_path_at_one_job(self):
        baseline = reference_repeat(picklable_measure, 17, 3)
        with injected(FaultPlan(seed=2).arm("measure.transient", 1.0)):
            recovered = repeat(picklable_measure, base_seed=17, reps=3,
                               jobs=1, retries=1)
        assert recovered.raw == baseline.raw


class TestCheckpointLostSite:
    def test_restore_fails_once_then_succeeds(self, run, host_kernel):
        from repro.hardware.cpu import MIX_EINSTEIN
        from repro.osmodel.threads import PRIORITY_NORMAL
        from repro.virt.checkpoint import restore_checkpoint, save_checkpoint
        from repro.virt.profiles import get_profile
        from repro.virt.vm import VirtualMachine, VmConfig

        vm = VirtualMachine(host_kernel, get_profile("vmplayer"),
                            VmConfig(priority=PRIORITY_NORMAL))

        def setup():
            yield from vm.boot()
            yield from vm.guest_context().compute(1e7, MIX_EINSTEIN)
            image = yield from save_checkpoint(vm)
            vm.shutdown()
            return image

        image = run(setup())

        def restore():
            new_vm = yield from restore_checkpoint(host_kernel, image)
            return new_vm

        with injected(FaultPlan(seed=1).arm("checkpoint.lost", 1.0)) as plan:
            with pytest.raises(CheckpointError, match="injected fault"):
                run(restore())
            new_vm = run(restore())  # transient: the retry restores fine
        assert new_vm.vcpu.guest_instructions == pytest.approx(1e7)
        assert plan.injected["checkpoint.lost"] == 1
        new_vm.shutdown()


class TestHostDropoutSite:
    CONFIG = FleetConfig(hosts=40, hypervisor="mixed", seed=7,
                         duration_s=14400.0)

    def test_dropout_is_deterministic_across_runs(self):
        with injected(FaultPlan(seed=3).arm("host.dropout", 0.4)):
            first = simulate_fleet(self.CONFIG)
        with injected(FaultPlan(seed=3).arm("host.dropout", 0.4)):
            second = simulate_fleet(self.CONFIG)
        assert first.to_dict() == second.to_dict()
        baseline = simulate_fleet(self.CONFIG)
        assert first.to_dict() != baseline.to_dict()  # dropouts bite

    def test_dropout_truncates_departures_and_sessions(self):
        import tests._reference_fleet as ref
        from repro.fleet.server import _apply_host_dropout

        baseline = build_fleet_columns(self.CONFIG)
        columns = build_fleet_columns(self.CONFIG)
        with injected(FaultPlan(seed=3).arm("host.dropout", 0.4)):
            _apply_host_dropout(columns, self.CONFIG.duration_s)
        hosts = [host_from_columns(columns, i) for i in range(len(columns))]
        dropped = [h for h in hosts
                   if h.departure_s < baseline.departure_s[h.index]]
        assert dropped  # p=0.4 over 40 hosts: some must drop out
        for host in dropped:
            assert all(end <= host.departure_s + 1e-9
                       for _start, end in host.sessions)
        # the columns pass clips exactly as the object pass did
        objects = ref.build_fleet_hosts(self.CONFIG)
        with injected(FaultPlan(seed=3).arm("host.dropout", 0.4)):
            ref._apply_host_dropout(objects, self.CONFIG.duration_s)
        assert [h.to_dict() for h in hosts] == \
            [h.to_dict() for h in objects]

    def test_no_plan_means_no_dropout(self):
        baseline = simulate_fleet(self.CONFIG)
        with injected(FaultPlan(seed=3)):  # armless plan: injector stays off
            same = simulate_fleet(self.CONFIG)
        assert baseline.to_dict() == same.to_dict()

    def test_dropout_after_natural_departure_is_noop(self):
        # Regression: a dropout drawn after the host already departed
        # permanently must not move the departure, must not count as an
        # injection, and must not show up in the effective tally — the
        # host departed exactly once, on its own schedule.
        import numpy as np

        from repro.fleet import FleetColumns
        from repro.fleet.server import _apply_host_dropout

        horizon = 10000.0
        plan = FaultPlan(seed=3).arm("host.dropout", 1.0)
        draw = [plan.uniform("host.dropout", key=i) * horizon
                for i in (0, 1)]

        # Host 0 departs naturally before its drawn dropout (no-op);
        # host 1 departs after it (the dropout bites).  Each host has
        # one session lasting until its own departure.
        departures = np.array([draw[0] / 2.0, draw[1] * 2.0 + 1.0])
        columns = FleetColumns(
            config=FleetConfig(hosts=2, error_rate=0.0),
            hv_names=("vmplayer",), hv_code=np.zeros(2, dtype=np.uint16),
            gflops=np.ones(2), availability=np.full(2, 0.8),
            slowdown=np.full(2, 1.1), departure_s=departures.copy(),
            checkpoint_cost_s=np.zeros(2),
            serve_seed=np.zeros(2, dtype=np.uint64),
            s_starts=np.zeros(2), s_ends=departures.copy(),
            s_off=np.array([0, 1, 2], dtype=np.int64))
        with injected(plan):
            effective = _apply_host_dropout(columns, horizon)
        hosts = [host_from_columns(columns, i) for i in (0, 1)]
        assert effective == 1
        assert plan.injected["host.dropout"] == 1  # no-op not tallied
        assert hosts[0].departure_s == draw[0] / 2.0
        assert hosts[0].sessions == [(0.0, draw[0] / 2.0)]
        assert hosts[1].departure_s == draw[1]
        assert hosts[1].sessions == [(0.0, draw[1])]

    def test_report_counts_effective_dropouts_once(self):
        with injected(FaultPlan(seed=3).arm("host.dropout", 0.4)) as plan:
            report = simulate_fleet(self.CONFIG)
        assert report.dropouts == plan.injected.get("host.dropout", 0)
        # Every injected dropout is one departed host, counted once.
        assert report.dropouts <= report.departures
