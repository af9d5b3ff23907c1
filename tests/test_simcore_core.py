"""Edge semantics of the event core, held on both cores.

The engine's hot path is compiled (``simcore/_ccore.c``) and has a
Python oracle (``tests/_oracle_core.py``).  These tests pin the
behaviour the compiled core must share with it beyond the event order:
numbers keep their Python type (an int or numpy time reaches the trace
hash as the oracle's does), the error types and messages, field
defaults and argument forms.  The last test re-runs the file on the
oracle.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simcore.engine import Engine
from repro.simcore.events import EventHandle, SimEvent
from tests._python_core import pytest_on_python_core


class TestNumbersKeepTheirType:
    def test_int_time_reaches_the_clock_as_int(self):
        engine = Engine()
        seen = []
        engine.schedule_at(2, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2] and type(seen[0]) is int
        handle = engine.schedule(1, lambda: None)
        assert handle.time == 3 and type(handle.time) is int

    def test_numpy_delay_keeps_its_type(self):
        engine = Engine()
        handle = engine.schedule(np.float64(0.5), lambda: None)
        assert type(handle.time) is np.float64
        assert engine.schedule(0.25, lambda: None).time == 0.25

    def test_schedule_at_clamps_to_now_within_the_slack(self):
        engine = Engine(start_time=1.0)
        handle = engine.schedule_at(1.0 - 1e-13, lambda: None)
        assert handle.time == 1.0
        with pytest.raises(SimulationError,
                           match=r"cannot schedule event in the past: "
                                 r"t=0\.5 < now=1\.0"):
            engine.schedule_at(0.5, lambda: None)

    def test_same_instant_events_fire_in_scheduling_order(self):
        engine = Engine()
        order = []
        for index in range(5):
            engine.schedule(0.0, order.append, index)
        engine.schedule_at(0, order.append, "int-zero")
        engine.run()
        assert order == [0, 1, 2, 3, 4, "int-zero"]


class TestErrors:
    def test_negative_delay(self):
        with pytest.raises(SimulationError, match="negative delay: -0.5"):
            Engine().schedule(-0.5, lambda: None)

    def test_unknown_keyword(self):
        with pytest.raises(TypeError):
            Engine().schedule(1.0, lambda: None, daemonic=True)

    def test_fail_needs_an_exception(self):
        with pytest.raises(TypeError,
                           match=r"fail\(\) needs an exception, got 3"):
            Engine().event().fail(3)

    def test_double_trigger(self):
        event = Engine().event().succeed(1)
        with pytest.raises(SimulationError, match="event already triggered"):
            event.succeed()

    def test_untriggered_state(self):
        event = Engine().event()
        assert event._ok is None and event._value is None
        assert not event.triggered
        for name in ("ok", "value"):
            with pytest.raises(SimulationError,
                               match="event not yet triggered"):
                getattr(event, name)

    def test_yielding_a_non_event_fails_the_process(self):
        engine = Engine()

        def body():
            yield 42

        process = engine.process(body(), name="bad")
        with pytest.raises(SimulationError,
                           match=r"process 'bad' yielded 42; "
                                 r"expected a SimEvent"):
            engine.run_until_event(process)

    def test_time_limit(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.schedule(6.0, lambda: None)
        with pytest.raises(SimulationError,
                           match=r"time limit 5\.0s reached before event"):
            engine.run_until_event(engine.event(), limit=5.0)

    def test_drained_queue(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None, daemon=True)
        with pytest.raises(SimulationError, match="only daemon housekeeping"):
            engine.run_until_event(engine.event())

    def test_callback_error_propagates_from_the_drain(self):
        engine = Engine()

        def boom():
            raise KeyError("boom")

        engine.schedule(1.0, boom)
        with pytest.raises(KeyError):
            engine.run_until_event(engine.timeout(2.0))
        assert engine.now == 1.0


class TestRunDrain:
    """``Engine.run`` drains through the core's ``_drain``."""

    def test_horizon_advances_the_clock_and_keeps_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, 1)
        engine.schedule(5.0, fired.append, 5)
        engine.schedule(2.0, fired.append, "daemon", daemon=True)
        assert engine.run(until=3.0) == 3.0
        assert fired == [1, "daemon"] and engine.now == 3.0
        assert engine.run(until=3.0) == 3.0   # nothing due: the clock stays
        assert engine.run() == 5.0 and fired[-1] == 5

    def test_int_horizon_reaches_the_clock_as_int(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run(until=4)
        assert engine.now == 4 and type(engine.now) is int

    def test_horizon_before_now_is_refused(self):
        engine = Engine(start_time=2.0)
        with pytest.raises(SimulationError,
                           match=r"run\(until=1\.0\) is before now=2\.0"):
            engine.run(until=1.0)
        assert engine.run() == 2.0   # not left running

    def test_same_instant_batches_are_tallied(self):
        engine = Engine()
        order = []
        for index in range(3):
            engine.schedule(1.0, order.append, index)
        engine.schedule(1.0, order.append, "cancelled").cancel()
        engine.schedule(2.0, order.append, "late")
        engine.schedule(1.0, order.append, "daemon", daemon=True)
        assert engine._drain(None) == (2, 5, 4)
        assert order == [0, 1, 2, "daemon", "late"]
        assert engine._drain(5.0) == (0, 0, 0) and engine.now == 5.0

    def test_only_daemons_left_stops_the_drain(self):
        engine = Engine()
        ticks = []

        def tick():
            ticks.append(engine.now)
            engine.schedule(1.0, tick, daemon=True)

        engine.schedule(1.0, tick, daemon=True)
        engine.schedule(2.5, lambda: None)
        assert engine.run() == 2.5 and ticks == [1.0, 2.0]

    def test_reentrant_run_is_refused(self):
        engine = Engine()
        caught = []

        def nested():
            try:
                engine.run()
            except SimulationError as error:
                caught.append(str(error))

        engine.schedule(1.0, nested)
        engine.run()
        assert caught == ["engine is already running (re-entrant run())"]


class TestArguments:
    def test_succeed_by_keyword_returns_the_event(self):
        event = Engine().event()
        assert event.succeed(value=7) is event
        assert event.ok and event.value == 7

    def test_add_callback_after_fire_calls_at_once(self):
        event = Engine().event().fail(ValueError("x"))
        seen = []
        event.add_callback(seen.append)
        assert seen == [event] and not event.ok

    def test_schedule_passes_positional_arguments(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda *args: seen.append(args), 1, "two", None)
        engine.run()
        assert seen == [(1, "two", None)]

    def test_handle_fields_and_cancel(self):
        engine = Engine()
        handle = engine.schedule(1.0, print, "x", daemon=True)
        assert isinstance(handle, EventHandle)
        assert (handle.time, handle.seq, handle.args, handle.daemon) == \
            (1.0, 0, ("x",), True)
        assert handle.active and not handle.cancelled
        handle.cancel()
        handle.cancel()
        assert handle.cancelled and handle.args == ()
        assert handle.fn() is None

    def test_subclass_with_slots(self):
        class Tagged(SimEvent):
            __slots__ = ("tag",)

            def __init__(self, engine, tag):
                super().__init__(engine)
                self.tag = tag

        event = Tagged(Engine(), "t")
        event.succeed("v")
        assert (event.tag, event.value) == ("t", "v")
        assert repr(event) == "<Tagged triggered>"

    def test_process_returns_and_raises(self):
        engine = Engine()

        def ok():
            yield engine.timeout(1.0)
            return "done"

        def bad():
            yield engine.timeout(1.0)
            raise ValueError("bad")

        assert engine.run_until_event(engine.process(ok())) == "done"
        with pytest.raises(ValueError, match="bad"):
            engine.run_until_event(engine.process(bad()))


def test_suite_passes_on_the_python_core():
    """Every test above, on the Python oracle of the compiled core."""
    pytest_on_python_core(__file__)
