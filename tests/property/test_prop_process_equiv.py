"""Property test: the lean process core is a pure re-encoding of the old one.

Each example draws one random process graph — a few shared one-shot
events (some fired before the run, some fired or failed by the processes
themselves), and processes whose steps sleep, wait on a shared event
(often with several waiters, often after it has already fired), wait on
an ``AllOf``/``AnyOf`` of shared events, join another process, interrupt
another process (or themselves) mid-wait, or raise.  Some processes are
interrupted before their first resume.  The graph runs twice on fresh
live engines: once through the archived core
(:mod:`tests._reference_simcore`) and once through the live
``repro.simcore.events``/``repro.simcore.process``.  The resume log
(time, process, step, yielded value or exception), every process's and
event's final state, the engine clock and event count, any error the
drain raised and the trace-hash snapshot must be identical (``==``).

The live core is the compiled event core; the last test re-runs the
suite in a fresh interpreter on its Python oracle
(``tests/_oracle_core.py``).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import tests._reference_simcore as ref
from repro.audit import TRACE_HASH
from repro.simcore import events as live_events
from repro.simcore import process as live_process
from repro.simcore.engine import Engine
from tests._python_core import pytest_on_python_core

REFERENCE = SimpleNamespace(
    SimEvent=ref.SimEvent, Timeout=ref.Timeout, AllOf=ref.AllOf,
    AnyOf=ref.AnyOf, SimProcess=ref.SimProcess, Interrupted=ref.Interrupted)
LIVE = SimpleNamespace(
    SimEvent=live_events.SimEvent, Timeout=live_events.Timeout,
    AllOf=live_events.AllOf, AnyOf=live_events.AnyOf,
    SimProcess=live_process.SimProcess,
    Interrupted=live_process.Interrupted)

N_EVENTS = 4
MAX_PROCS = 5

event_index = st.integers(0, N_EVENTS - 1)
steps = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.001, 0.0025])),
    st.tuples(st.just("wait"), event_index),
    st.tuples(st.just("fire"), event_index, st.booleans()),
    st.tuples(st.just("all"), st.lists(event_index, max_size=3)),
    st.tuples(st.just("any"), st.lists(event_index, min_size=1, max_size=3)),
    st.tuples(st.just("join"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("raise")),
)

graphs = st.fixed_dictionaries({
    "procs": st.lists(st.fixed_dictionaries({
        "steps": st.lists(steps, max_size=8),
        "catch": st.booleans(),     # survive interrupts and failed waits
    }), min_size=1, max_size=MAX_PROCS),
    "prefired": st.lists(st.tuples(event_index, st.booleans()), max_size=2),
    "early": st.lists(st.integers(0, MAX_PROCS - 1), max_size=2),
})


def _describe(value):
    """A comparable rendering: exceptions by type name and arguments."""
    if isinstance(value, BaseException):
        return (type(value).__name__, _describe(value.args))
    if isinstance(value, (list, tuple)):
        return type(value)(_describe(item) for item in value)
    return value


def _body(core, engine, events, procs, log, me, plan):
    for number, step in enumerate(plan["steps"]):
        kind = step[0]
        if kind == "raise":
            raise KeyError(me, number)
        if kind == "fire":
            event = events[step[1]]
            if not event.triggered:
                if step[2]:
                    event.succeed(("v", me, number))
                else:
                    event.fail(ValueError(me, number))
            log.append((engine.now, me, number, "fired", step[1]))
            continue
        if kind == "interrupt":
            procs[step[1] % len(procs)].interrupt(("cause", me, number))
            log.append((engine.now, me, number, "interrupting", step[1]))
            continue
        if kind == "join" and procs[step[1] % len(procs)] is procs[me]:
            continue
        try:
            if kind == "sleep":
                got = yield core.Timeout(engine, step[1], ("slept", number))
            elif kind == "wait":
                got = yield events[step[1]]
            elif kind == "all":
                got = yield core.AllOf(engine, [events[k] for k in step[1]])
            elif kind == "any":
                got = yield core.AnyOf(engine, [events[k] for k in step[1]])
            else:
                got = yield procs[step[1] % len(procs)]
            log.append((engine.now, me, number, "got", _describe(got)))
        except core.Interrupted as exc:
            log.append((engine.now, me, number, "interrupted",
                        _describe(exc.cause)))
            if not plan["catch"]:
                raise
        except Exception as exc:  # a failed event or a failed join
            log.append((engine.now, me, number, "raised", _describe(exc)))
            if not plan["catch"]:
                raise
    return ("done", me)


def _run_graph(graph, core):
    """Run ``graph`` on ``core``; everything the two runs compare."""
    TRACE_HASH.enable()
    try:
        engine = Engine()
        events = [core.SimEvent(engine) for _ in range(N_EVENTS)]
        for index, ok in graph["prefired"]:
            if not events[index].triggered:
                if ok:
                    events[index].succeed(("pre", index))
                else:
                    events[index].fail(ValueError("pre", index))
        log = []
        procs = []
        for me, plan in enumerate(graph["procs"]):
            procs.append(core.SimProcess(
                engine, _body(core, engine, events, procs, log, me, plan),
                f"p{me}"))
        for index in graph["early"]:
            procs[index % len(procs)].interrupt(("early", index))
        try:
            engine.run()
            drain_error = None
        except Exception as exc:  # both cores must fail alike
            drain_error = _describe(exc)
        return {
            "log": log,
            "procs": [(p.triggered, p._ok, _describe(p._value),
                       p._started) for p in procs],
            "events": [(e.triggered, e._ok, _describe(e._value))
                       for e in events],
            "now": engine.now,
            "dispatched": engine.events_processed,
            "drain_error": drain_error,
            "trace_hash": TRACE_HASH.snapshot(),
        }
    finally:
        TRACE_HASH.disable()
        TRACE_HASH.reset()


@pytest.fixture(autouse=True)
def _quiet_recorder():
    TRACE_HASH.disable()
    TRACE_HASH.reset()
    yield
    TRACE_HASH.disable()
    TRACE_HASH.reset()


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_live_process_core_matches_archived_oracle(graph):
    expected = _run_graph(graph, REFERENCE)
    actual = _run_graph(graph, LIVE)
    assert actual == expected


def _plan(*steps, catch=True):
    return {"steps": list(steps), "catch": catch}


def test_fixed_graph_reaches_every_waiting_shape():
    """Several waiters on one event, yields on fired events, AllOf/AnyOf,
    a failing event, an interrupt before the first resume and one
    mid-wait, and a join — on both cores alike."""
    graph = {
        "procs": [
            _plan(("wait", 0), ("wait", 0), ("all", [0, 1]), ("any", [2, 3])),
            _plan(("wait", 0), ("wait", 1), catch=True),
            _plan(("sleep", 0.001), ("fire", 0, True), ("sleep", 0.001),
                  ("fire", 1, False), ("fire", 2, True), ("interrupt", 3)),
            _plan(("wait", 3), ("sleep", 0.0025), ("join", 0)),
            _plan(("wait", 2)),
        ],
        "prefired": [(3, True)],
        "early": [4],
    }
    expected = _run_graph(graph, REFERENCE)
    actual = _run_graph(graph, LIVE)
    kinds = {entry[3] for entry in actual["log"]}
    assert {"got", "fired", "interrupting", "raised"} <= kinds
    # process 4 was interrupted before it ever ran
    assert actual["procs"][4][:3] == (True, False,
                                      ("Interrupted", (("early", 4),)))
    assert actual["procs"][4][3] is False
    assert actual == expected


def test_interrupt_mid_wait_and_caught():
    graph = {
        "procs": [
            _plan(("wait", 0), ("sleep", 0.001), catch=True),
            _plan(("sleep", 0.0), ("interrupt", 0), ("sleep", 0.001),
                  ("fire", 0, True)),
        ],
        "prefired": [],
        "early": [],
    }
    expected = _run_graph(graph, REFERENCE)
    actual = _run_graph(graph, LIVE)
    assert any(entry[3] == "interrupted" for entry in actual["log"])
    assert actual == expected


def test_suite_passes_on_the_python_core():
    """Every test above, on the Python oracle of the compiled core."""
    pytest_on_python_core(__file__)
