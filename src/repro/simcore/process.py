"""Generator-based simulation processes.

A process is a Python generator that yields *waitables*:

* ``engine.timeout(dt)`` — sleep for simulated time,
* any :class:`SimEvent` (including another :class:`SimProcess`) — wait for
  it; the ``yield`` expression evaluates to the event's value, and a failed
  event re-raises its exception inside the generator,
* ``AllOf`` / ``AnyOf`` compositions.

A :class:`SimProcess` is itself a :class:`SimEvent` that triggers when the
generator returns (value = ``StopIteration`` value) or raises.  Processes
support cooperative interruption via :meth:`interrupt`, which throws
:class:`Interrupted` into the generator at its current yield point.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.simcore.events import SimEvent


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`SimProcess.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class SimProcess(SimEvent):
    """Drives a generator, suspending on yielded waitables.

    The first resume is scheduled at the current instant (not run inline),
    so creating a process never re-enters user code synchronously.

    Hot path: a yield on a pending event appends the resume callback to
    the event's waiters directly, and a yield on an event that has already
    fired resumes the generator at once in the same frame — the
    synchronous resume ``add_callback`` would make, without a nested call
    per step.  The bound callback is built per wait, not cached on the
    process: a cached one would put every process in a reference cycle
    that only the cyclic collector frees.
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
        return not self._triggered

    def _first_resume(self) -> None:
        self._resume_scheduled = None
        self._started = True
        self._advance(None, None)

    def _on_wait_complete(self, event: SimEvent) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        if event._ok:
            self._advance(event._value, None)
        else:
            self._advance(None, event._value)

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        """Resume the generator with a value or throw, then re-suspend."""
        gen = self.gen
        while True:
            try:
                if exc is not None:
                    target = gen.throw(exc)
                else:
                    target = gen.send(value)
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
                gen.close()
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}; expected a SimEvent"
                    )
                )
                return
            if not target._triggered:
                self._waiting_on = target
                target._callbacks.append(self._on_wait_complete)
                return
            # Already fired: resume at once, as add_callback would.
            if self._triggered:
                return
            self._waiting_on = None
            if target._ok:
                value, exc = target._value, None
            else:
                value, exc = None, target._value

    # -- interruption --------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its wait point.

        No-op on finished processes.  A process that has not yet had its
        first resume is simply cancelled.  The wait callback of an
        interrupted wait stays registered on its event.
        """
        if self._triggered:
            return
        if not self._started:
            if self._resume_scheduled is not None:
                self._resume_scheduled.cancel()
                self._resume_scheduled = None
            self.gen.close()
            self.fail(Interrupted(cause))
            return
        self._waiting_on = None
        # Deliver the interrupt at the current instant via the engine so we
        # never re-enter the generator from inside its own call stack.
        self.engine.schedule(0.0, self._deliver_interrupt, cause)

    def _deliver_interrupt(self, cause: Any) -> None:
        if self._triggered:
            return
        self._advance(None, Interrupted(cause))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._triggered else ("waiting" if self._waiting_on else "ready")
        return f"<SimProcess {self.name!r} {state}>"
