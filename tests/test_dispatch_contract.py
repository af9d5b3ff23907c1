"""The dispatch contract at ``jobs=2`` (and, where it must read the
same, at ``jobs=1``).

Repetitions (:class:`Repeater`) run through one round engine, pooled or
in-process.  These pins fix what a caller observes from it: the folded
results, the ``parallel.*`` METRICS, the wording of every failure kind,
and what a broken pool costs.
"""

import os
import time

import pytest

from repro.core.experiment import Repeater
from repro.core.workerpool import get_pool, pool_generations
from repro.errors import ExperimentError
from repro.faults import RUNLOG
from repro.obs.metrics import METRICS
from repro.simcore.rng import derive_rep_seed
from tests._reference_repeat import reference_repeat

REPS = 6


def measure_ok(seed):
    return {"x": float(seed % 1000), "y": float(seed % 7)}


def measure_raises_on_even(seed):
    if seed % 2 == 0:
        raise ValueError(f"remote failure for seed {seed}")
    return {"x": 1.0}


def measure_counts_then_raises_on_even(seed):
    METRICS.inc("measure.calls")
    return measure_raises_on_even(seed)


def measure_exits(seed):
    os._exit(3)  # hard crash: breaks the worker pool


def measure_empty(seed):
    return {}


@pytest.fixture
def metrics():
    METRICS.enable(reset=True)
    try:
        yield METRICS
    finally:
        METRICS.disable()
        METRICS.reset()


class TestRepetitions:
    def test_success_matches_serial_and_records_dispatch(self, metrics):
        result = Repeater(base_seed=9, reps=REPS,
                          jobs=2).run(measure_ok)
        serial = reference_repeat(measure_ok, 9, REPS)
        assert result.raw == serial.raw
        assert result.metrics == serial.metrics
        assert metrics.counter("parallel.repetitions") == REPS
        assert metrics.gauge("parallel.workers") == 2

    def test_worker_exception_names_lowest_index_and_seed(self):
        seeds = [derive_rep_seed(5, rep) for rep in range(REPS)]
        lowest = next(rep for rep in range(REPS) if seeds[rep] % 2 == 0)
        with pytest.raises(ExperimentError) as excinfo:
            Repeater(base_seed=5, reps=REPS,
                     jobs=2).run(measure_raises_on_even)
        message = str(excinfo.value)
        assert message.startswith(f"repetition {lowest} ")
        assert f"seed {seeds[lowest]}" in message
        assert f"remote failure for seed {seeds[lowest]}" in message

    def test_hard_exit_breaks_and_rebuilds_the_pool(self):
        Repeater(base_seed=1, reps=REPS, jobs=2).run(measure_ok)
        generation = pool_generations()[2]
        with pytest.raises(ExperimentError) as excinfo:
            Repeater(base_seed=2, reps=REPS,
                     jobs=2).run(measure_exits)
        message = str(excinfo.value)
        assert "broke the worker pool after" in message
        assert "had completed" in message
        Repeater(base_seed=3, reps=REPS, jobs=2).run(measure_ok)
        assert pool_generations()[2] > generation

    def test_empty_metrics_name_the_seed(self):
        seed = derive_rep_seed(0, 0)
        with pytest.raises(ExperimentError, match=f"seed {seed}"):
            Repeater(base_seed=0, reps=REPS,
                     jobs=2).run(measure_empty)

    def test_failed_run_keeps_every_returned_attempts_metrics(
            self, metrics):
        # Every repetition returns (half of them with an error), so the
        # parent folds all eight snapshots before it raises.
        with pytest.raises(ExperimentError):
            Repeater(base_seed=5, reps=8, jobs=2, retries=0
                     ).run(measure_counts_then_raises_on_even)
        assert metrics.counter("measure.calls") == 8

    def test_worker_dead_idle_costs_no_attempt(self):
        # A worker that dies between dispatches breaks the next submit;
        # the engine rebuilds the pool and resubmits without a retry.
        Repeater(base_seed=1, reps=REPS, jobs=2).run(measure_ok)
        executor = get_pool(2).executor()
        victim = next(iter(executor._processes.values()))
        victim.kill()
        victim.join()
        deadline = time.monotonic() + 10.0
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor._broken
        RUNLOG.clear()
        result = Repeater(base_seed=9, reps=REPS, jobs=2,
                          retries=1).run(measure_ok)
        assert result.raw == reference_repeat(measure_ok, 9, REPS).raw
        assert RUNLOG.retries == 0



class TestSameContractAtEveryJobCount:
    """``--jobs 1`` runs the same engine in-process: same error, same
    ``parallel.*`` counters."""

    @pytest.mark.parametrize("retries", [0, 1])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_reads_the_same(self, jobs, retries):
        seeds = [derive_rep_seed(5, rep) for rep in range(REPS)]
        failing = [rep for rep in range(REPS) if seeds[rep] % 2 == 0]
        lowest = failing[0]
        with pytest.raises(ExperimentError) as excinfo:
            Repeater(base_seed=5, reps=REPS, jobs=jobs,
                     retries=retries).run(measure_raises_on_even)
        first_line = str(excinfo.value).splitlines()[0]
        assert first_line == (
            f"repetition {lowest} (seed {seeds[lowest]}) failed after "
            f"{retries + 1} attempt(s) ({REPS - len(failing)} of {REPS} "
            f"repetitions completed); reproduce with "
            f"measure({seeds[lowest]}).")
        assert f"remote failure for seed {seeds[lowest]}" in str(
            excinfo.value)

    def test_serial_run_records_the_dispatch_counters(self, metrics):
        Repeater(base_seed=9, reps=REPS, jobs=1).run(measure_ok)
        assert metrics.counter("parallel.repetitions") == REPS
        assert metrics.timer("parallel.worker_wall_s")["count"] == REPS
