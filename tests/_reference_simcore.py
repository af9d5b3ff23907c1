"""The generator process core before its lean rewrite, archived as an oracle.

A copy of ``SimEvent``/``Timeout``/``AllOf``/``AnyOf`` from
``repro.simcore.events`` and ``SimProcess``/``Interrupted`` from
``repro.simcore.process`` as they stood before the process core read
private fields on the hot path, appended its resume callback directly
and resumed already-fired yields in a loop.
:mod:`tests.property.test_prop_process_equiv` drives random process
graphs through this module and through the live core on the same live
:class:`~repro.simcore.engine.Engine` and asserts identical resume
order, yielded values, exceptions and trace-hash snapshots.
``EventHandle`` is not archived: both cores schedule through the live
engine.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.engine import Engine


class SimEvent:
    """A one-shot condition: untriggered until ``succeed()`` or ``fail()``.

    Waiters register callbacks with :meth:`add_callback`; process objects
    use this under the hood when a generator yields the event.  Triggering
    is immediate (same simulation instant): callbacks run synchronously in
    registration order, which keeps causality obvious in traces.
    """

    __slots__ = ("engine", "_triggered", "_ok", "_value", "_callbacks")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._triggered = False
        self._ok: Optional[bool] = None
        self._value: Any = None
        self._callbacks: List[Callable[["SimEvent"], None]] = []

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True when triggered via ``succeed``.  Raises if untriggered."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """Payload passed to ``succeed``, or the exception given to ``fail``."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger successfully with an optional payload."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Trigger as failed; waiters receive ``exc`` (processes re-raise it)."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    # -- waiting ---------------------------------------------------------

    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Register ``fn(event)``; fires immediately if already triggered."""
        if self._triggered:
            fn(self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state}>"


class Timeout(SimEvent):
    """A ``SimEvent`` that auto-succeeds ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(engine)
        self.delay = delay
        engine.schedule(delay, self.succeed, value)


class AllOf(SimEvent):
    """Barrier: succeeds when *all* child events have succeeded.

    Fails as soon as any child fails (remaining children are ignored).
    Value is the list of child values in construction order.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, engine: "Engine", events: Iterable[SimEvent]):
        super().__init__(engine)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: SimEvent) -> None:
        if self._triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(SimEvent):
    """Race: succeeds when the *first* child triggers.

    Value is ``(index, child_value)`` of the winning child.  A failing
    first child fails the race.
    """

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[SimEvent]):
        super().__init__(engine)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(self._make_cb(index))

    def _make_cb(self, index: int) -> Callable[[SimEvent], None]:
        def cb(child: SimEvent) -> None:
            if self._triggered:
                return
            if child.ok:
                self.succeed((index, child.value))
            else:
                self.fail(child.value)

        return cb


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`SimProcess.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class SimProcess(SimEvent):
    """Drives a generator, suspending on yielded waitables.

    The first resume is scheduled at the current instant (not run inline),
    so creating a process never re-enters user code synchronously.
    """

    __slots__ = ("gen", "name", "_waiting_on", "_started", "_resume_scheduled")

    def __init__(self, engine, gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(f"process body must be a generator, got {gen!r}")
        super().__init__(engine)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[SimEvent] = None
        self._started = False
        self._resume_scheduled = engine.schedule(0.0, self._first_resume)

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self.triggered

    def _first_resume(self) -> None:
        self._resume_scheduled = None
        self._started = True
        self._advance(None, None)

    def _on_wait_complete(self, event: SimEvent) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        if event.ok:
            self._advance(event.value, None)
        else:
            self._advance(None, event.value)

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        """Resume the generator with a value or throw, then re-suspend."""
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupted as interrupt:
            # An uncaught interrupt terminates the process "successfully
            # cancelled": treat as failure so waiters notice.
            self.fail(interrupt)
            return
        except Exception as error:
            self.fail(error)
            return

        if not isinstance(target, SimEvent):
            self.gen.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; expected a SimEvent"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_wait_complete)

    # -- interruption --------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its wait point.

        No-op on finished processes.  A process that has not yet had its
        first resume is simply cancelled.
        """
        if self.triggered:
            return
        if not self._started:
            if self._resume_scheduled is not None:
                self._resume_scheduled.cancel()
                self._resume_scheduled = None
            self.gen.close()
            self.fail(Interrupted(cause))
            return
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is not None:
            # Detach: the stale wait callback checks self.triggered, and we
            # may re-wait on the same event later, so just let it dangle.
            pass
        # Deliver the interrupt at the current instant via the engine so we
        # never re-enter the generator from inside its own call stack.
        self.engine.schedule(0.0, self._deliver_interrupt, cause)

    def _deliver_interrupt(self, cause: Any) -> None:
        if self.triggered:
            return
        self._advance(None, Interrupted(cause))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else ("waiting" if self._waiting_on else "ready")
        return f"<SimProcess {self.name!r} {state}>"
