"""Differential test: the compiled crossings and pass against their
Python oracle.

The scheduler's hot path, the crossings and decision pass of the event
core extension (``osmodel/_sched.c``), has a Python oracle
(``tests/_oracle_pass.py``, with stand-ins of the compiled thread, core
and L2 record types), which runs in a worker interpreter on the oracle
core
(:class:`tests._python_core.PythonCoreWorker`).  Each example draws a
random world (the strategy of
:mod:`tests.property.test_prop_scheduler_equiv`: mixed priority
classes and affinity groups, boosts, sleeps, mid-run ``cpu_time()``
reads, ``exit_thread`` calls, re-entrant submits and paging) on one,
two or four cores, and runs it on both passes.  Every
accounting float, every core's busy time, the shared-L2 statistics, the
scheduler's decision and submit counters, the tracer records, the
scheduler metrics and the trace-hash snapshot must be identical
(``==``).  The fig1 and fig5 trace-hash pins must hold on
the oracle too.  Fixed scenarios hold the crossings themselves to the
oracle: a completion callback that raises, re-entrant
``submit``/``exit_thread`` calls from a completion callback, every
``SchedulerError`` message, and the engine heap's ``(when, seq)`` keys
after many crossings (the tick's cancel and re-arm consume the same seq
numbers).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import TRACE_HASH, compare_snapshots
from repro.audit.tracehash import _event_name
from repro.errors import SchedulerError
from repro.hardware.cpu import MIX_KERNEL, MIX_SEVENZIP
from repro.hardware.machine import Machine
from repro.hardware.specs import core2duo_e6600
from repro.osmodel.scheduler import BoostPolicy, Scheduler
from repro.osmodel.threads import ThreadState
from repro.simcore.events import CORE
from repro.simcore.engine import Engine
from repro.simcore.rng import RngStreams
from tests._python_core import PythonCoreWorker
from tests.property.test_prop_scheduler_equiv import (
    _live_drain,
    _run_world,
    _thread,
    _world,
    worlds,
)
from tests.test_trace_hash_pins import DATA, _pin


def _quiet():
    from repro.obs.metrics import METRICS

    for recorder in (TRACE_HASH, METRICS):
        recorder.disable()
        recorder.reset()


def on_this_core(case, *args):
    """``case(*args)`` between quiet recorders: the oracle worker's entry
    point, so each scenario below runs the same way on either core."""
    _quiet()
    try:
        return globals()[case](*args)
    finally:
        _quiet()


@pytest.fixture(scope="module")
def oracle():
    worker = PythonCoreWorker("tests.property.test_prop_scheduler_passes",
                              "on_this_core")
    yield worker
    worker.close()


def _both(oracle, case, *args):
    """``case(*args)`` on the oracle, then on the compiled core here."""
    expected = oracle.call(case, *args)
    return expected, on_this_core(case, *args)


def _live_world(world):
    """``_run_world`` on this core's scheduler, plus its counters (the
    archived reference :func:`_run_world` also serves has none)."""
    seen = []

    def live(*args, **kwargs):
        seen.append(Scheduler(*args, **kwargs))
        return seen[-1]

    result = _run_world(world, live, _live_drain)
    result["decisions"] = seen[0].decisions
    result["submits"] = seen[0].submits
    return result


@pytest.fixture(autouse=True)
def _quiet_global_state():
    _quiet()
    yield
    _quiet()


def _record_fields(name):
    """The field names of the event core's record type ``name``: the
    compiled type's members, or the oracle stand-in's attributes."""
    record = getattr(CORE, name)
    return sorted(field for field in vars(record)
                  if not field.startswith("__"))


@pytest.mark.parametrize("name", ["ThreadRecord", "CoreRecord", "L2Record"])
def test_oracle_records_have_the_compiled_fields(oracle, name):
    # the oracle's stand-ins must name every field of the compiled
    # records, or a pass reading one on the other core fails there only
    fields = _record_fields(name)
    assert fields and oracle.call("_record_fields", name) == fields


@settings(max_examples=120, deadline=None)
@given(worlds, st.sampled_from([1, 2, 2, 4]))
def test_compiled_pass_matches_python_pass(oracle, world, cores):
    expected, actual = _both(oracle, "_live_world", dict(world, cores=cores))
    assert expected["trace_hash"]["streams"]
    assert actual == expected


def test_four_cores_contend_and_preempt(oracle):
    """Six threads over four cores: the L2 factor sums three siblings'
    pressure, and the pass preempts, boosts and prefers groups."""
    plan = [_thread(p, g, 3e7, mix=m, count=4)
            for p, g, m in [(8, "vm-a", 0), (8, None, 1), (13, "vm-a", 5),
                            (8, "vm-b", 2), (8, None, 3), (4, None, 4)]]
    world = _world(plan, cores=4, quantum=0.003, boost=True,
                   scan_interval=0.005, starvation_threshold=0.005,
                   boost_cpu=0.001, horizon=0.2,
                   overcommit=(0.02, 512, 0.05))
    expected, actual = _both(oracle, "_live_world", world)
    counters = actual["metrics"]["counters"]
    assert counters["sched.preemptions"] > 0
    assert counters["sched.starvation_boosts"] > 0
    assert {fields["core"] for _, category, fields in actual["records"]
            if category == "sched.place"} == {0, 1, 2, 3}
    assert actual["l2"][0] > 0.0
    assert actual == expected


def test_exits_and_resubmits_inside_the_pass(oracle):
    """Back-to-back segments re-enter submit from inside the pass while
    the controller exits a running thread."""
    world = _world([_thread(8, None, 1e6, count=6),
                    _thread(8, "vm-a", 2e6, mix=3, count=4),
                    _thread(13, "vm-a", 5e5, mix=5, count=5, sleep=1e-4)],
                   exits=[(0.002, 1)], reads=[(0.001, 0), (0.003, 2)])
    expected, actual = _both(oracle, "_live_world", world)
    assert actual["threads"][1][4].value == "done"
    assert actual == expected


def _refuses_a_foreign_thread():
    engine = Engine()
    machine = Machine(engine, core2duo_e6600("slots"), RngStreams(0))
    mine = Scheduler(engine, machine, boost=BoostPolicy(enabled=False))
    other = Scheduler(engine, machine, boost=BoostPolicy(enabled=False))
    mine.spawn("a", 8)
    foreign = other.spawn("b", 8)
    for call in (lambda: mine.submit(foreign, 1e6, MIX_SEVENZIP),
                 lambda: mine.exit_thread(foreign)):
        with pytest.raises(SchedulerError, match="another scheduler"):
            call()
    return foreign.state


@pytest.mark.parametrize("where", ["_compiled", "_python"])
def test_a_thread_of_another_scheduler_is_refused(oracle, where):
    """The compiled pass indexes C memory with a thread's slot, so both
    passes refuse a thread they did not spawn (before touching state)."""
    run = oracle.call if where == "_python" else on_this_core
    assert run("_refuses_a_foreign_thread") is ThreadState.BLOCKED


@pytest.mark.parametrize("fig_id", ["fig1", "fig5"])
def test_fast_pins_hold_on_the_python_pass(oracle, fig_id):
    """The fast-fidelity pins on the oracle core, whose schedulers run
    the oracle's pass (``tests/test_trace_hash_pins.py`` holds the
    compiled core to them, and the oracle to the fig4/fig7 pins)."""
    pinned = json.loads((DATA / f"trace_hash_{fig_id}_fast.json").read_text())
    current = oracle.call("_pin", fig_id, "fast")
    assert compare_snapshots(pinned["trace_hash"],
                             current["trace_hash"]) == []
    assert current == pinned


# -- the crossings -----------------------------------------------------


def _machine(engine, cores=2):
    spec = core2duo_e6600("crossings")
    if cores != spec.cpu.n_cores:
        spec = dataclasses.replace(
            spec, cpu=dataclasses.replace(spec.cpu, n_cores=cores))
    return Machine(engine, spec, RngStreams(0))


def _state(engine, scheduler):
    """Everything a crossing may change, for ``==`` across passes."""
    return {
        "now": engine.now,
        "events": engine.events_processed,
        "seq": engine._seq,
        "pending": engine._non_daemon_pending,
        "heap": sorted((when, seq, handle.cancelled, _event_name(handle.fn))
                       for when, seq, handle in engine._heap),
        "ctx": (scheduler._last_update, scheduler._rr_counter,
                scheduler.decisions, scheduler._in_decide, scheduler._dirty,
                scheduler.submits),
        "threads": [(t.name, t.state, t.remaining_cycles, t.cycles_retired,
                     t.instructions_retired, t.cpu_seconds, t.rr_seq,
                     t.segments_completed, t.quantum_used)
                    for t in scheduler.threads],
        "cores": [(core._thread, core.speed, core.busy_seconds)
                  for core in scheduler.cores],
        "l2": scheduler.machine.l2.stats.astuple(),
    }


class _Boom(Exception):
    pass


def _raising_completion():
    engine = Engine()
    scheduler = Scheduler(engine, _machine(engine),
                          boost=BoostPolicy(enabled=False))
    first = scheduler.spawn("first", 8)
    second = scheduler.spawn("second", 8)

    def boom(event):
        raise _Boom("callback failed")

    scheduler.submit(first, 2e6, MIX_SEVENZIP).add_callback(boom)
    scheduler.submit(second, 4e6, MIX_KERNEL)
    with pytest.raises(_Boom, match="callback failed"):
        engine.run()
    raised = _state(engine, scheduler)
    # the pass was left: the next submit places and completes normally
    done = scheduler.submit(first, 1e6, MIX_SEVENZIP)
    engine.run_until_event(done)
    engine.run()
    return raised, _state(engine, scheduler)


def test_a_raising_completion_callback_leaves_the_pass(oracle):
    expected, actual = _both(oracle, "_raising_completion")
    assert actual[0]["ctx"][3] == 0     # in_decide cleared
    assert actual[1]["threads"][0][7] == 2
    assert actual == expected


def _reentrant_crossings():
    engine = Engine()
    scheduler = Scheduler(engine, _machine(engine),
                          boost=BoostPolicy(enabled=False))
    worker = scheduler.spawn("worker", 8)
    victim = scheduler.spawn("victim", 8)
    other = scheduler.spawn("other", 6)
    seen = []

    def chain(event):
        # inside the pass: a re-entrant submit and an exit
        seen.append(scheduler._in_decide)
        if worker.segments_completed < 4:
            scheduler.submit(worker, 1.5e6, MIX_KERNEL).add_callback(chain)
        if victim.state is not ThreadState.DONE:
            scheduler.exit_thread(victim)

    scheduler.submit(worker, 1e6, MIX_SEVENZIP).add_callback(chain)
    scheduler.submit(victim, 5e7, MIX_SEVENZIP)
    scheduler.submit(other, 3e6, MIX_KERNEL)
    engine.run()
    return seen, _state(engine, scheduler)


def test_reentrant_submit_and_exit_from_a_completion_callback(oracle):
    expected, actual = _both(oracle, "_reentrant_crossings")
    seen, state = actual
    assert seen and all(seen)
    assert state["threads"][0][7] == 4
    assert state["threads"][1][1] is ThreadState.DONE
    assert actual == expected


def _error_messages():
    engine = Engine()
    scheduler = Scheduler(engine, _machine(engine),
                          boost=BoostPolicy(enabled=False))
    stranger = Scheduler(engine, _machine(engine),
                         boost=BoostPolicy(enabled=False)).spawn("stranger", 8)
    busy = scheduler.spawn("busy", 8)
    gone = scheduler.spawn("gone", 8)
    lost = scheduler.spawn("lost", 8)
    idle = scheduler.spawn("idle", 8)
    scheduler.submit(busy, 1e7, MIX_SEVENZIP)
    scheduler.exit_thread(gone)
    lost._state = 2   # RUNNING, yet on no core
    calls = [lambda: scheduler.submit(gone, 1e6, MIX_SEVENZIP),
             lambda: scheduler.submit(busy, 1e6, MIX_SEVENZIP),
             lambda: scheduler.submit(idle, -5, MIX_SEVENZIP),
             lambda: scheduler.exit_thread(lost),
             lambda: scheduler.submit(stranger, 1e6, MIX_SEVENZIP),
             lambda: scheduler.exit_thread(stranger)]
    messages = []
    for call in calls:
        with pytest.raises(SchedulerError) as error:
            call()
        messages.append(str(error.value))
    lost._state = 0
    engine.run()
    return messages, _state(engine, scheduler)


def test_every_scheduler_error_says_the_same(oracle):
    expected, actual = _both(oracle, "_error_messages")
    assert actual[0] == [
        "thread 'gone' has exited",
        "thread 'busy' already has an outstanding segment",
        "negative cycle demand: -5",
        "thread 'lost' not on any core",
        "thread 'stranger' belongs to another scheduler",
        "thread 'stranger' belongs to another scheduler",
    ]
    assert actual == expected


def _heap_after_crossings(crossings):
    engine = Engine()
    scheduler = Scheduler(engine, _machine(engine, cores=4), quantum=0.003,
                          boost=BoostPolicy(scan_interval=0.005,
                                            starvation_threshold=0.005,
                                            boost_cpu=0.001))
    threads = [scheduler.spawn(f"t{index}", priority, group=group)
               for index, (priority, group) in enumerate(
                   [(8, "vm-a"), (8, None), (13, "vm-a"), (8, "vm-b"),
                    (8, None), (4, None)])]

    def body(thread, cycles, mix, sleep):
        for _ in range(crossings):
            # a submit after a sleep crosses between ticks: it cancels
            # the armed tick and arms another
            yield engine.timeout(sleep)
            yield scheduler.submit(thread, cycles, mix)

    for index, thread in enumerate(threads):
        engine.process(body(thread, 2e6 + 7e5 * index,
                            (MIX_SEVENZIP, MIX_KERNEL)[index % 2],
                            1e-4 * (index + 1)))
    states = []
    step = 0
    while engine._non_daemon_pending and step < 1000:
        step += 1
        engine.run(until=0.0005 * step)
        states.append(_state(engine, scheduler))
    return states


@pytest.mark.parametrize("crossings", [1, 5, 40])
def test_heap_keys_match_after_many_crossings(oracle, crossings):
    expected, actual = _both(oracle, "_heap_after_crossings", crossings)
    assert any(cancelled for state in actual
               for _, _, cancelled, _ in state["heap"])
    assert actual[-1]["ctx"][5] == 6 * crossings   # submits
    assert actual == expected
