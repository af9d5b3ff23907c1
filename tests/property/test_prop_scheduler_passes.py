"""Differential test: the compiled decision pass against the Python pass.

The scheduler carries two encodings of one decision pass over the same
C records: the compiled one in the kernel library (``osmodel/_sched.c``)
and the Python one that runs without it.  Each example draws a random
world (the strategy of :mod:`tests.property.test_prop_scheduler_equiv`:
mixed priority classes and affinity groups, boosts, sleeps, mid-run
``cpu_time()`` reads, ``exit_thread`` calls, re-entrant submits and
paging) on one, two or four cores, and runs it on both passes.  Every
accounting float, every core's busy time, the shared-L2 statistics, the
tracer records, the scheduler metrics and the trace-hash snapshot must
be identical (``==``).  The fig1 and fig5 trace-hash pins must hold on
the Python pass too.
"""

import ctypes
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.osmodel.scheduler as scheduler_module
from repro.audit import TRACE_HASH, compare_snapshots
from repro.errors import SchedulerError
from repro.hardware.cache import CacheStats
from repro.hardware.cpu import MIX_SEVENZIP
from repro.hardware.machine import Machine
from repro.hardware.specs import core2duo_e6600
from repro.osmodel.scheduler import BoostPolicy, CoreState, Scheduler
from repro.osmodel.threads import SimThread, ThreadState
from repro.simcore.engine import Engine
from repro.simcore.rng import RngStreams
from tests.property.test_prop_scheduler_equiv import (
    _live_drain,
    _run_world,
    _thread,
    _world,
    worlds,
)
from tests.test_trace_hash_pins import DATA, _pin

pytestmark = pytest.mark.skipif(
    scheduler_module._compiled_pass() is None,
    reason="no C compiler / kernel library unavailable")


def _compiled(*args, **kwargs):
    scheduler = Scheduler(*args, **kwargs)
    assert scheduler._lib is not None
    return scheduler


def _python(*args, **kwargs):
    with mock.patch.object(scheduler_module, "_compiled_pass",
                           lambda: None):
        scheduler = Scheduler(*args, **kwargs)
    assert scheduler._lib is None
    return scheduler


def _both(world):
    expected = _run_world(world, _python, _live_drain)
    actual = _run_world(world, _compiled, _live_drain)
    return expected, actual


@pytest.fixture(autouse=True)
def _quiet_global_state():
    from repro.obs.metrics import METRICS

    for recorder in (TRACE_HASH, METRICS):
        recorder.disable()
        recorder.reset()
    yield
    for recorder in (TRACE_HASH, METRICS):
        recorder.disable()
        recorder.reset()


@pytest.mark.parametrize("export, struct", [
    ("sched_ctx_layout", scheduler_module._SchedCtx),
    ("sched_thread_layout", SimThread),
    ("sched_core_layout", CoreState),
    ("sched_l2_layout", CacheStats),
    ("sched_log_layout", scheduler_module._SchedLog),
])
def test_c_layout_matches_ctypes_structure(export, struct):
    # sizeof, then every offsetof in declaration order: a field added,
    # dropped or reordered on one side only fails here
    out = (ctypes.c_int64 * 64)()
    count = getattr(scheduler_module._compiled_pass(), export)(out)
    expected = [ctypes.sizeof(struct)] + [
        getattr(struct, name).offset for name, _ in struct._fields_]
    assert list(out[:count]) == expected


@settings(max_examples=120, deadline=None)
@given(worlds, st.sampled_from([1, 2, 2, 4]))
def test_compiled_pass_matches_python_pass(world, cores):
    expected, actual = _both(dict(world, cores=cores))
    assert expected["trace_hash"]["streams"]
    assert actual == expected


def test_four_cores_contend_and_preempt():
    """Six threads over four cores: the L2 factor sums three siblings'
    pressure, and the pass preempts, boosts and prefers groups."""
    plan = [_thread(p, g, 3e7, mix=m, count=4)
            for p, g, m in [(8, "vm-a", 0), (8, None, 1), (13, "vm-a", 5),
                            (8, "vm-b", 2), (8, None, 3), (4, None, 4)]]
    world = _world(plan, cores=4, quantum=0.003, boost=True,
                   scan_interval=0.005, starvation_threshold=0.005,
                   boost_cpu=0.001, horizon=0.2,
                   overcommit=(0.02, 512, 0.05))
    expected, actual = _both(world)
    counters = actual["metrics"]["counters"]
    assert counters["sched.preemptions"] > 0
    assert counters["sched.starvation_boosts"] > 0
    assert {fields["core"] for _, category, fields in actual["records"]
            if category == "sched.place"} == {0, 1, 2, 3}
    assert actual["l2"][0] > 0.0
    assert actual == expected


def test_exits_and_resubmits_inside_the_pass():
    """Back-to-back segments re-enter submit from inside the pass while
    the controller exits a running thread."""
    world = _world([_thread(8, None, 1e6, count=6),
                    _thread(8, "vm-a", 2e6, mix=3, count=4),
                    _thread(13, "vm-a", 5e5, mix=5, count=5, sleep=1e-4)],
                   exits=[(0.002, 1)], reads=[(0.001, 0), (0.003, 2)])
    expected, actual = _both(world)
    assert actual["threads"][1][4].value == "done"
    assert actual == expected


@pytest.mark.parametrize("factory", [_compiled, _python])
def test_a_thread_of_another_scheduler_is_refused(factory):
    """The compiled pass indexes C memory with a thread's slot, so both
    passes refuse a thread they did not spawn (before touching state)."""
    engine = Engine()
    machine = Machine(engine, core2duo_e6600("slots"), RngStreams(0))
    mine = factory(engine, machine, boost=BoostPolicy(enabled=False))
    other = factory(engine, machine, boost=BoostPolicy(enabled=False))
    mine.spawn("a", 8)
    foreign = other.spawn("b", 8)
    for call in (lambda: mine.submit(foreign, 1e6, MIX_SEVENZIP),
                 lambda: mine.exit_thread(foreign)):
        with pytest.raises(SchedulerError, match="another scheduler"):
            call()
    assert foreign.state is ThreadState.BLOCKED


@pytest.mark.parametrize("fig_id", ["fig1", "fig5"])
def test_fast_pins_hold_on_the_python_pass(fig_id, monkeypatch):
    pinned = json.loads((DATA / f"trace_hash_{fig_id}_fast.json").read_text())
    schedulers = []
    monkeypatch.setattr(scheduler_module, "_compiled_pass",
                        lambda: schedulers.append(None))
    current = _pin(fig_id, "fast")
    assert schedulers  # every one of them took the Python pass
    assert compare_snapshots(pinned["trace_hash"],
                             current["trace_hash"]) == []
    assert current == pinned
