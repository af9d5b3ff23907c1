"""Trace-hash streams, the divergence bisector, and the audit drill."""

import pytest

from repro.api import RunConfig, RunRequest, run
from repro.audit import (
    TRACE_HASH,
    TRACE_HASH_SCHEMA,
    StreamHash,
    TraceHashRecorder,
    audit_figure,
    compare_snapshots,
    first_divergence,
    format_event_diff,
)
from repro.audit.tracehash import _event_name
from repro.simcore.engine import Engine


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    """Every test starts and ends with the global recorder disabled."""
    TRACE_HASH.disable()
    TRACE_HASH.reset()
    TRACE_HASH.capture = None
    yield
    TRACE_HASH.disable()
    TRACE_HASH.reset()
    TRACE_HASH.capture = None


def fill(stream, events):
    for when, seq in events:
        stream.update(when, seq, fill)
    return stream.snapshot_checkpoints()


class TestStreamHash:
    EVENTS = [(0.1, 0), (0.2, 1), (1.5, 2), (3.25, 3), (3.5, 4)]

    def test_checkpoints_per_nonempty_window(self):
        cps = fill(StreamHash("s", 1.0), self.EVENTS)
        assert [(window, count) for window, _, count in cps] == \
            [(0, 2), (1, 1), (3, 2)]

    def test_deterministic_across_instances(self):
        a = fill(StreamHash("s", 1.0), self.EVENTS)
        b = fill(StreamHash("s", 1.0), self.EVENTS)
        assert a == b

    def test_digests_chain_so_prefix_mismatch_propagates(self):
        # Perturbing an early event changes every later checkpoint,
        # which is what makes the FIRST differing window the true
        # divergence point.
        altered = [(0.1, 9)] + self.EVENTS[1:]
        a = fill(StreamHash("s", 1.0), self.EVENTS)
        b = fill(StreamHash("s", 1.0), altered)
        assert all(dig_a != dig_b
                   for (_, dig_a, _), (_, dig_b, _) in zip(a, b))

    def test_snapshot_includes_open_window_nondestructively(self):
        stream = StreamHash("s", 1.0)
        stream.update(0.5, 0, fill)
        first = stream.snapshot_checkpoints()
        assert first == [[0, first[0][1], 1]]
        stream.update(0.6, 1, fill)
        assert stream.snapshot_checkpoints()[0][2] == 2

    def test_capture_retains_raw_events_of_one_window(self):
        stream = StreamHash("s", 1.0, capture_window=1)
        fill(stream, self.EVENTS)
        assert stream.captured == [(1.5, 2, "fill")]


class TestRecorder:
    def test_disabled_recorder_opens_no_stream(self):
        recorder = TraceHashRecorder()
        assert recorder.open_stream() is None

    def test_stream_keys_context_and_ordinal(self):
        recorder = TraceHashRecorder(enabled=True)
        assert recorder.open_stream().key == "main/engine0"
        recorder.set_context("g0/rep1")
        assert recorder.open_stream().key == "g0/rep1/engine0"
        assert recorder.open_stream().key == "g0/rep1/engine1"
        recorder.clear_context()
        assert recorder.open_stream().key == "main/engine1"

    def test_begin_group_is_monotone_and_reset_by_reset(self):
        recorder = TraceHashRecorder(enabled=True)
        assert [recorder.begin_group() for _ in range(3)] == [0, 1, 2]
        recorder.reset()
        assert recorder.begin_group() == 0

    def test_snapshot_schema_and_merge_union(self):
        recorder = TraceHashRecorder(enabled=True)
        stream = recorder.open_stream()
        stream.update(0.0, 0, fill)
        snap = recorder.snapshot()
        assert snap["schema"] == TRACE_HASH_SCHEMA
        assert list(snap["streams"]) == ["main/engine0"]

        other = TraceHashRecorder(enabled=True)
        other.set_context("g0/rep1")
        worker = other.open_stream()
        worker.update(1.0, 0, fill)
        recorder.merge(other.snapshot())
        merged = recorder.snapshot()
        assert sorted(merged["streams"]) == \
            ["g0/rep1/engine0", "main/engine0"]

    def test_merge_overwrites_retried_stream(self):
        recorder = TraceHashRecorder(enabled=True)
        partial = {"streams": {"g0/rep0/engine0": [[0, "dead", 1]]}}
        complete = {"streams": {"g0/rep0/engine0": [[0, "beef", 2]]}}
        recorder.merge(partial)
        recorder.merge(complete)
        assert recorder.snapshot()["streams"]["g0/rep0/engine0"] == \
            [[0, "beef", 2]]


class TestEngineIntegration:
    def _burn(self, engine, n):
        for index in range(n):
            engine.schedule(index * 0.25, lambda: None)
        engine.run()

    def test_disabled_engine_has_no_stream(self):
        assert Engine()._thash is None

    def test_enabled_engine_hashes_every_dispatch(self):
        TRACE_HASH.enable()
        engine = Engine()
        self._burn(engine, 8)
        snap = TRACE_HASH.snapshot()
        checkpoints = snap["streams"]["main/engine0"]
        assert sum(count for _, _, count in checkpoints) == \
            engine.events_processed == 8
        # 8 events at 0.25s spacing span simulated windows 0 and 1.
        assert [window for window, _, _ in checkpoints] == [0, 1]

    def test_two_identical_engines_hash_identically(self):
        TRACE_HASH.enable()
        first = Engine()
        self._burn(first, 8)
        second = Engine()
        self._burn(second, 8)
        snap = TRACE_HASH.snapshot()
        assert snap["streams"]["main/engine0"] == \
            snap["streams"]["main/engine1"]

    def test_run_until_event_path_hashes_too(self):
        TRACE_HASH.enable()
        engine = Engine()
        done = engine.timeout(0.5, "ok")
        for index in range(5):
            engine.schedule(index * 0.01, lambda: None, daemon=True)
        assert engine.run_until_event(done) == "ok"
        snap = TRACE_HASH.snapshot()
        checkpoints = snap["streams"]["main/engine0"]
        assert sum(count for _, _, count in checkpoints) == \
            engine.events_processed


class TestEventName:
    """Dispatched callbacks are named as the Python event core names
    them, whichever core runs: the pins hash these names."""

    def test_timeout_succeed_is_the_simevent_method(self):
        engine = Engine()
        timeout = engine.timeout(1.0)
        (_, _, handle), = engine._heap
        assert handle.fn == timeout.succeed
        assert _event_name(handle.fn) == "SimEvent.succeed"

    def test_plain_event_succeed(self):
        assert _event_name(Engine().event().succeed) == "SimEvent.succeed"

    def test_process_first_resume(self):
        engine = Engine()

        def body():
            yield engine.timeout(1.0)

        process = engine.process(body())
        (_, _, handle), = engine._heap
        assert handle.fn == process._first_resume
        assert _event_name(handle.fn) == "SimProcess._first_resume"

    def test_other_callables_keep_their_qualname(self):
        assert _event_name(TestEventName.test_plain_event_succeed) == \
            "TestEventName.test_plain_event_succeed"
        assert _event_name([].append) == "list.append"


class TestCompare:
    SNAP_A = {"streams": {"s": [[0, "aa", 2], [1, "bb", 3], [2, "cc", 1]]}}

    def test_identical_snapshots_clean(self):
        assert compare_snapshots(self.SNAP_A, self.SNAP_A) == []

    def test_only_first_differing_window_reported(self):
        b = {"streams": {"s": [[0, "aa", 2], [1, "xx", 3], [2, "yy", 1]]}}
        found = compare_snapshots(self.SNAP_A, b)
        assert len(found) == 1
        assert (found[0].stream, found[0].window, found[0].kind) == \
            ("s", 1, "digest")

    def test_count_mismatch_labelled(self):
        b = {"streams": {"s": [[0, "aa", 2], [1, "bb", 9], [2, "cc", 1]]}}
        found = compare_snapshots(self.SNAP_A, b)
        assert found[0].kind == "count"

    def test_missing_and_extra_streams(self):
        b = {"streams": {"t": [[0, "aa", 1]]}}
        kinds = {d.stream: d.kind for d in compare_snapshots(self.SNAP_A, b)}
        assert kinds == {"s": "missing", "t": "extra"}

    def test_truncated_stream_reported_at_first_absent_window(self):
        b = {"streams": {"s": [[0, "aa", 2]]}}
        found = compare_snapshots(self.SNAP_A, b)
        assert found[0].window == 1

    def test_first_divergence_prefers_earliest_window(self):
        b = {"streams": {
            "s": [[0, "aa", 2], [1, "xx", 3], [2, "cc", 1]],
            "t": [[0, "zz", 1]],
        }}
        a = {"streams": {
            "s": self.SNAP_A["streams"]["s"],
            "t": [[0, "qq", 1]],
        }}
        first = first_divergence(compare_snapshots(a, b))
        assert (first.stream, first.window) == ("t", 0)

    def test_event_diff_localises_first_mismatch(self):
        events_a = [[0.1, 0, "tick"], [0.2, 1, "tick"], [0.3, 2, "disk"]]
        events_b = [[0.1, 0, "tick"], [0.2, 1, "tick"], [0.3, 2, "nic"]]
        text = format_event_diff(events_a, events_b, "serial", "jobs2")
        assert "index 2" in text
        assert "disk" in text and "nic" in text

    def test_event_diff_identical(self):
        events = [[0.1, 0, "tick"]]
        assert "identical" in format_event_diff(events, list(events),
                                                "a", "b")


class TestRunFigure:
    CONFIG = RunConfig(trace_hash=True, reps=2, base_seed=7)

    @staticmethod
    def _figure(fig_id, config, **kwargs):
        return run(RunRequest(kind="figure", target=fig_id, config=config,
                              options=kwargs))

    def test_serial_vs_parallel_snapshots_identical(self):
        serial = self._figure("fig2", self.CONFIG.with_overrides(jobs=1),
                              size=64)
        parallel = self._figure("fig2", self.CONFIG.with_overrides(jobs=2),
                                size=64)
        assert serial.trace_hash["streams"]
        assert compare_snapshots(serial.trace_hash,
                                 parallel.trace_hash) == []
        assert serial.trace_hash == parallel.trace_hash

    def test_recorder_disabled_again_after_run(self):
        self._figure("mem", self.CONFIG)
        assert not TRACE_HASH.enabled

    def test_no_trace_hash_by_default(self):
        result = self._figure("mem", RunConfig(reps=1))
        assert result.trace_hash is None

    def test_manifest_gains_audit_section(self, tmp_path):
        from repro.obs.manifest import load_manifest, validate_manifest

        config = self.CONFIG.with_overrides(
            metrics=True, runs_dir=str(tmp_path))
        result = self._figure("mem", config)
        manifest = load_manifest("last", runs_dir=str(tmp_path))
        assert validate_manifest(manifest) == []
        audit = manifest["audit"]["trace_hash"]
        assert audit["schema"] == TRACE_HASH_SCHEMA
        assert audit["streams"]
        for stats in audit["streams"].values():
            assert set(stats) == {"windows", "events", "digest"}
        assert result.manifest_path


class TestAuditFigure:
    def test_clean_drill_on_small_figure(self):
        report = audit_figure(
            "fig2", jobs=2, config=RunConfig(reps=2, base_seed=7),
            size=64)
        assert report.clean
        assert report.exit_code() == 0
        assert report.streams > 0
        assert report.events > 0
        assert len(report.comparisons) == 2
        text = report.render()
        assert "audit PASSED" in text
        assert "serial vs jobs2" in text

    def test_cli_rejects_unknown_figure(self, capsys):
        from repro.cli import main

        assert main(["audit", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err
