"""WorkerResult: the pickled result pipe, quarantine, merge semantics."""

import os
import pickle

from repro.audit.tracehash import TraceHashRecorder
from repro.core.experiment import Repeater
from repro.core.parallel import (WorkerResult, _Finished, _rep_spec,
                                 _run_rounds)
from repro.core.workerpool import (WorkerPool, _execute_task,
                                   build_task_context, next_run_token)
from repro.faults import RUNLOG
from repro.obs.metrics import METRICS, MetricsRegistry
from tests._reference_repeat import reference_repeat

#: Keys in :func:`bulk_measure`'s values dict: enough that one result
#: pickles to well over the 64 KiB the pool once shipped inline.
BULK_KEYS = 16_000


def bulk_measure(seed):
    """A repetition whose values dict pickles to >= 256 KiB."""
    if METRICS.enabled:
        METRICS.inc("test.bulk_values", BULK_KEYS)
    return {f"m{i:05d}": float((seed + i) % 9973) / 7.0
            for i in range(BULK_KEYS)}


def small_measure(seed):
    """A one-metric repetition that bumps one worker-side counter."""
    if METRICS.enabled:
        METRICS.inc("test.small_runs")
    return {"x": float(seed % 97)}


def _sample_result():
    return WorkerResult(
        index=3, seed=414243, error=None,
        queue_wait_s=0.25, wall_s=1.5, pid=os.getpid(),
        values={"throughput": 12.5, "wall_s": 1.5},
        metrics={"counters": {"engine.runs": 2.0}, "gauges": {},
                 "timers": {}, "hists": {}},
        trace_hash={"streams": {"g0/rep3/engine0": [[0, 1.0, "ab" * 32]]},
                    "captured": {}},
        runlog={"retries": 1, "timeouts": 0, "dropped": [],
                "injected": {"measure.transient": 1}},
    )


class TestRoundTrip:
    def test_inline(self):
        # every result rides inline: the executor pickles it across its
        # own result pipe
        original = _sample_result()
        back = pickle.loads(pickle.dumps(original))
        for field in WorkerResult.__slots__:
            assert getattr(back, field) == getattr(original, field)

    def test_large_values_through_real_pool_match_serial(self):
        assert len(pickle.dumps(bulk_measure(0))) >= 256 * 1024
        METRICS.enable(reset=True)
        try:
            serial = reference_repeat(bulk_measure, 11, 4)
            serial_counters = METRICS.snapshot()["counters"]
            METRICS.enable(reset=True)
            pooled = Repeater(base_seed=11, reps=4,
                              jobs=2).run(bulk_measure)
            pooled_counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.disable()
        # the repetitions really went through the pool
        assert pooled_counters["parallel.repetitions"] == 4
        assert {"parallel.pool_created", "parallel.pool_reused"} & set(
            pooled_counters)
        assert pooled.raw == serial.raw
        assert list(pooled.raw) == list(serial.raw)
        assert pooled.metrics == serial.metrics
        worker_side = {name: value
                       for name, value in pooled_counters.items()
                       if not name.startswith("parallel.")}
        assert worker_side == serial_counters
        assert serial_counters["test.bulk_values"] == 4 * BULK_KEYS


def _drive(outcomes):
    """Run ``_run_rounds`` (one retry) over scripted per-attempt
    outcomes; returns ``(done, failures, quarantined)``."""
    def submit(index, attempt):
        return _Finished(outcomes[index][attempt])

    METRICS.enable(reset=True)
    try:
        done, failures = _run_rounds(len(outcomes), submit, WorkerPool(2),
                                     retries=1, timeout=None)
        quarantined = METRICS.counter("parallel.payload_quarantined")
    finally:
        METRICS.disable()
        RUNLOG.clear()
    return done, failures, quarantined


class TestRejection:
    def test_non_mapping_wire(self):
        # a repetition that never returns a WorkerResult stays a
        # failure, is counted on every attempt and is never folded in
        done, failures, quarantined = _drive({0: [[1, 2, 3], [1, 2, 3]]})
        assert done == {}
        assert list(failures) == [0]
        broke_pool, text = failures[0]
        assert not broke_pool
        assert text.startswith("untrusted worker result")
        assert "list" in text
        assert quarantined == 2

    def test_non_mapping_payload_quarantined(self):
        # neither a bare positional tuple nor a mapping of the record's
        # fields is trusted; the retry that returns a WorkerResult
        # recovers
        recovered = {0: WorkerResult(0, 7, values={"x": 1.0}),
                     1: WorkerResult(1, 8, values={"x": 2.0})}
        done, failures, quarantined = _drive({
            0: [(0, 7, {"x": 1.0}, None), recovered[0]],
            1: [{"index": 1, "values": {"x": 2.0}}, recovered[1]],
        })
        assert done == recovered
        assert failures == {}
        assert quarantined == 2


class TestMergeAfterRetry:
    """A retried repetition's snapshots replace its earlier partial ones
    per key — exactly the contract the old positional 8-tuple had."""

    def test_trace_hash_overwrites_per_key(self):
        recorder = TraceHashRecorder(enabled=True)
        partial = {"streams": {"g0/rep1/engine0": [[0, 1.0, "aa" * 32]]},
                   "captured": {}}
        retried = {"streams": {"g0/rep1/engine0": [[0, 1.0, "bb" * 32],
                                                   [1, 2.0, "cc" * 32]]},
                   "captured": {}}
        recorder.merge(partial)
        recorder.merge(retried)
        streams = recorder.snapshot()["streams"]
        assert streams["g0/rep1/engine0"] == retried[
            "streams"]["g0/rep1/engine0"]

    def test_metrics_counters_accumulate(self):
        registry = MetricsRegistry(enabled=True)
        snap = {"counters": {"engine.runs": 2.0}, "gauges": {},
                "timers": {}, "hists": {}}
        registry.merge(snap)
        registry.merge(snap)
        assert registry.snapshot()["counters"]["engine.runs"] == 4.0


class TestWireStability:
    def test_wire_record_is_picklable(self):
        # the record a worker really builds, snapshots included, crosses
        # the executor's result pipe via pickle
        METRICS.enable(reset=True)
        try:
            spec = _rep_spec(pickle.dumps(small_measure), 2, 99, 0, 0,
                             build_task_context(), next_run_token())
            record = _execute_task(spec)
        finally:
            METRICS.disable()
            RUNLOG.clear()
        assert record.error is None
        assert record.values == small_measure(99)
        assert record.metrics["counters"]["test.small_runs"] == 1.0
        back = pickle.loads(pickle.dumps(record))
        assert isinstance(back, WorkerResult)
        for field in WorkerResult.__slots__:
            assert getattr(back, field) == getattr(record, field)
