"""Parallel repetition harness: equivalence, fallbacks, failure reporting."""

import os

import pytest

from repro.api import RunConfig, activated
from repro.core.experiment import Repeater, repeat
from repro.core.parallel import available_cpus, resolve_jobs
from repro.errors import ExperimentError
from repro.simcore.rng import derive_rep_seed
from tests._reference_repeat import reference_repeat


def picklable_measure(seed):
    return {"x": float(seed % 1000), "y": float(seed % 7)}


def pid_measure(seed):
    """Reports the worker pid, so tests can assert pool reuse."""
    return {"pid": float(os.getpid()), "x": float(seed % 5)}




def failing_measure(seed):
    if seed % 2 == 0:
        raise ValueError(f"boom for seed {seed}")
    return {"x": 1.0}


def empty_measure(seed):
    return {}


class TestResolveJobs:
    def test_explicit_wins(self):
        with activated(RunConfig(jobs=8)):
            assert resolve_jobs(3) == 3

    def test_env_fallback(self):
        with activated(RunConfig.from_env({"REPRO_JOBS": "6"})):
            assert resolve_jobs() == 6

    def test_schedulable_cpu_default(self):
        # Affinity-aware: the default must match what this process can
        # actually run on, not the machine-wide core count.
        assert resolve_jobs() == available_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))

    def test_bad_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(0)

    def test_non_integer_env_rejected_cleanly(self):
        with pytest.raises(ExperimentError, match="REPRO_JOBS"):
            RunConfig.from_env({"REPRO_JOBS": "banana"})


class TestPicklability:
    """Whether ``measure`` pickles decides pool vs in-process."""

    def test_module_level_function(self):
        result = Repeater(base_seed=1, reps=3, jobs=2).run(pid_measure)
        assert float(os.getpid()) not in set(result.raw["pid"])

    def test_local_closure_is_not(self):
        parent = float(os.getpid())

        def measure(seed):
            return {"pid": float(os.getpid())}

        for fn in (measure, lambda seed: {"pid": float(os.getpid())}):
            result = Repeater(base_seed=1, reps=3, jobs=2).run(fn)
            assert set(result.raw["pid"]) == {parent}


class TestEquivalence:
    def test_bit_identical_to_serial(self):
        serial = reference_repeat(picklable_measure, 9, 6)
        parallel = Repeater(base_seed=9, reps=6,
                            jobs=4).run(picklable_measure)
        assert parallel.raw == serial.raw
        assert parallel.metrics == serial.metrics

    def test_repetition_order_preserved(self):
        result = Repeater(base_seed=3, reps=5,
                          jobs=3).run(picklable_measure)
        expected = [float(derive_rep_seed(3, rep) % 1000) for rep in range(5)]
        assert result.raw["x"] == expected

    def test_key_order_matches_serial(self):
        serial = reference_repeat(picklable_measure, 1, 2)
        parallel = Repeater(base_seed=1, reps=2,
                            jobs=2).run(picklable_measure)
        assert list(parallel.raw) == list(serial.raw)


class TestFallbacks:
    def test_jobs_one_runs_serially(self):
        result = Repeater(base_seed=1, reps=3,
                          jobs=1).run(picklable_measure)
        assert result["x"].n == 3

    def test_unpicklable_measure_falls_back(self):
        seen = []

        def measure(seed):
            seen.append(seed)
            return {"x": float(len(seen))}

        result = Repeater(base_seed=2, reps=4, jobs=4).run(measure)
        # the closure ran in-process: side effects are visible here
        assert len(seen) == 4
        assert result["x"].n == 4

    def test_single_rep_runs_serially(self):
        result = Repeater(base_seed=2, reps=1,
                          jobs=8).run(picklable_measure)
        assert result["x"].n == 1

    def test_bad_reps_rejected(self):
        with pytest.raises(ExperimentError):
            Repeater(reps=0, jobs=2)


class TestFailureReporting:
    def test_worker_failure_names_repetition_and_seed(self):
        failing_rep = next(
            rep for rep in range(8)
            if derive_rep_seed(5, rep) % 2 == 0
        )
        seed = derive_rep_seed(5, failing_rep)
        with pytest.raises(ExperimentError) as excinfo:
            Repeater(base_seed=5, reps=8, jobs=4).run(failing_measure)
        message = str(excinfo.value)
        assert f"repetition {failing_rep}" in message
        assert f"seed {seed}" in message
        assert "boom" in message  # the remote traceback is carried along

    def test_empty_metrics_rejected_with_seed(self):
        with pytest.raises(ExperimentError, match=r"seed \d+"):
            Repeater(base_seed=0, reps=2, jobs=2).run(empty_measure)


class TestPersistentPool:
    """The pool persists: same workers across runs, rounds and callers."""

    def test_worker_pids_reused_across_runs(self):
        from repro.core.workerpool import pool_generations

        first = Repeater(base_seed=1, reps=6,
                         jobs=2).run(pid_measure)
        generation = pool_generations()[2]
        second = Repeater(base_seed=2, reps=6,
                          jobs=2).run(pid_measure)
        # real fan-out: work ran in child processes, not the parent
        parent = float(os.getpid())
        assert parent not in set(first.raw["pid"])
        assert parent not in set(second.raw["pid"])
        # persistence: the second run dispatched to the same executor
        # (pids need not overlap: one worker may drain a whole run)
        assert pool_generations()[2] == generation

    def test_pool_survives_retry_rounds(self):
        from repro.core.workerpool import pool_generations
        from repro.faults import RUNLOG, FaultPlan, injected

        Repeater(base_seed=3, reps=6, jobs=2).run(pid_measure)
        generation_before = pool_generations()[2]
        RUNLOG.clear()
        plan = FaultPlan(seed=3).arm("measure.transient", 0.9)
        with injected(plan):
            result = Repeater(base_seed=3, reps=6, jobs=2,
                              retries=4).run(pid_measure)
        assert result["pid"].n == 6
        assert RUNLOG.retries > 0          # the storm really retried
        assert RUNLOG.injected.get("measure.transient", 0) > 0
        # retry rounds dispatched to the SAME pool: no rebuild happened
        assert pool_generations()[2] == generation_before
        assert float(os.getpid()) not in set(result.raw["pid"])
        RUNLOG.clear()

    def test_pool_rebuilt_after_worker_crash(self):
        from repro.core.workerpool import pool_generations

        Repeater(base_seed=4, reps=6, jobs=2).run(pid_measure)
        generation_before = pool_generations()[2]
        with pytest.raises(ExperimentError, match="broke the worker pool"):
            Repeater(base_seed=5, reps=6,
                     jobs=2).run(exiting_measure)
        result = Repeater(base_seed=6, reps=6,
                          jobs=2).run(pid_measure)
        assert result["pid"].n == 6
        assert pool_generations()[2] > generation_before


def exiting_measure(seed):
    os._exit(3)  # hard crash: breaks the worker pool


class TestSerialFallback:
    def test_two_reps_run_in_parent(self):
        result = Repeater(base_seed=7, reps=2,
                          jobs=4).run(pid_measure)
        assert set(result.raw["pid"]) == {float(os.getpid())}

    def test_two_reps_record_fallback_metric(self):
        from repro.obs.metrics import METRICS

        METRICS.enable(reset=True)
        try:
            Repeater(base_seed=7, reps=2,
                     jobs=4).run(picklable_measure)
            assert METRICS.counter("parallel.fallback_serial") == 1
        finally:
            METRICS.disable()
            METRICS.reset()


class TestRepeatDispatch:
    def test_repeat_honours_jobs_argument(self):
        with activated(RunConfig(reps=4)):
            result = repeat(picklable_measure, base_seed=4,
                            default_reps=4, jobs=2)
        serial = reference_repeat(picklable_measure, 4, 4)
        assert result.raw == serial.raw

    def test_repeat_honours_jobs_env(self):
        env = {"REPRO_JOBS": "2", "REPRO_REPS": "3"}
        with activated(RunConfig.from_env(env)):
            result = repeat(picklable_measure, base_seed=4)
        assert result["x"].n == 3
