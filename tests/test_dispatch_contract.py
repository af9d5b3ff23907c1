"""The dispatch contract at ``jobs=2``, for repetitions and shards alike.

Repetitions (:class:`ParallelRepeater`) and shards (:func:`map_shards`)
share one round engine.  These pins fix what a caller observes from it:
the folded results, the ``parallel.*`` METRICS, the wording of every
failure kind, and what a broken pool costs.
"""

import os
import time

import pytest

from repro.core.experiment import Repeater
from repro.core.parallel import ParallelRepeater, map_shards
from repro.core.workerpool import get_pool, pool_generations
from repro.errors import ExperimentError
from repro.faults import RUNLOG
from repro.obs.metrics import METRICS
from repro.simcore.rng import derive_rep_seed

REPS = 6
TASKS = [3, 1, 4, 1, 5, 9]


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


def shard_square(task):
    return task * task


def shard_raises_on_four(task):
    if task == 4:
        raise ValueError("remote failure for task 4")
    return task


def shard_exits(task):
    os._exit(3)


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
        result = ParallelRepeater(base_seed=9, reps=REPS,
                                  jobs=2).run(measure_ok)
        serial = Repeater(base_seed=9, reps=REPS).run(measure_ok)
        assert result.raw == serial.raw
        assert result.metrics == serial.metrics
        assert metrics.counter("parallel.repetitions") == REPS
        assert metrics.gauge("parallel.workers") == 2

    def test_worker_exception_names_lowest_index_and_seed(self):
        seeds = [derive_rep_seed(5, rep) for rep in range(REPS)]
        lowest = next(rep for rep in range(REPS) if seeds[rep] % 2 == 0)
        with pytest.raises(ExperimentError) as excinfo:
            ParallelRepeater(base_seed=5, reps=REPS,
                             jobs=2).run(measure_raises_on_even)
        message = str(excinfo.value)
        assert message.startswith(f"repetition {lowest} ")
        assert f"seed {seeds[lowest]}" in message
        assert f"remote failure for seed {seeds[lowest]}" in message

    def test_hard_exit_breaks_and_rebuilds_the_pool(self):
        ParallelRepeater(base_seed=1, reps=REPS, jobs=2).run(measure_ok)
        generation = pool_generations()[2]
        with pytest.raises(ExperimentError) as excinfo:
            ParallelRepeater(base_seed=2, reps=REPS,
                             jobs=2).run(measure_exits)
        message = str(excinfo.value)
        assert "broke the worker pool after" in message
        assert "had completed" in message
        ParallelRepeater(base_seed=3, reps=REPS, jobs=2).run(measure_ok)
        assert pool_generations()[2] > generation

    def test_empty_metrics_name_the_seed(self):
        seed = derive_rep_seed(0, 0)
        with pytest.raises(ExperimentError, match=f"seed {seed}"):
            ParallelRepeater(base_seed=0, reps=REPS,
                             jobs=2).run(measure_empty)

    def test_failed_run_keeps_every_returned_attempts_metrics(
            self, metrics):
        # Every repetition returns (half of them with an error), so the
        # parent folds all eight snapshots before it raises.
        with pytest.raises(ExperimentError):
            ParallelRepeater(base_seed=5, reps=8, jobs=2, retries=0
                             ).run(measure_counts_then_raises_on_even)
        assert metrics.counter("measure.calls") == 8

    def test_worker_dead_idle_costs_no_attempt(self):
        # A worker that dies between dispatches breaks the next submit;
        # the engine rebuilds the pool and resubmits without a retry.
        ParallelRepeater(base_seed=1, reps=REPS, jobs=2).run(measure_ok)
        executor = get_pool(2).executor()
        victim = next(iter(executor._processes.values()))
        victim.kill()
        victim.join()
        deadline = time.monotonic() + 10.0
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor._broken
        RUNLOG.clear()
        result = ParallelRepeater(base_seed=9, reps=REPS, jobs=2,
                                  retries=1).run(measure_ok)
        assert result.raw == Repeater(base_seed=9, reps=REPS).run(
            measure_ok).raw
        assert RUNLOG.retries == 0


class TestShards:
    def test_success_matches_serial_and_records_dispatch(self, metrics):
        assert map_shards(shard_square, TASKS, jobs=2) == \
            [shard_square(task) for task in TASKS]
        assert metrics.counter("parallel.shards") == len(TASKS)
        assert metrics.gauge("parallel.workers") == 2

    def test_worker_exception_names_lowest_index(self):
        with pytest.raises(ExperimentError) as excinfo:
            map_shards(shard_raises_on_four, TASKS, jobs=2)
        message = str(excinfo.value)
        assert message.startswith("shard 2 ")
        assert "remote failure for task 4" in message

    def test_hard_exit_breaks_and_rebuilds_the_pool(self):
        map_shards(shard_square, TASKS, jobs=2)
        generation = pool_generations()[2]
        with pytest.raises(ExperimentError) as excinfo:
            map_shards(shard_exits, TASKS, jobs=2)
        message = str(excinfo.value)
        assert "broke the worker pool after" in message
        assert "had completed" in message
        map_shards(shard_square, TASKS, jobs=2)
        assert pool_generations()[2] > generation
