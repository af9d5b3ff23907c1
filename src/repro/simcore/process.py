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

from typing import Any, Generator

from repro.errors import SimulationError
from repro.simcore.events import CORE


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`SimProcess.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class SimProcess(CORE.SimProcess):
    """Drives a generator, suspending on yielded waitables.

    The first resume is scheduled at the current instant (not run inline),
    so creating a process never re-enters user code synchronously.  The
    resume itself (``_first_resume``, ``_on_wait_complete``, ``_advance``)
    is the compiled event core's; this class adds the lifecycle and
    interruption API.
    """

    __slots__ = ()

    def __init__(self, engine, gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(f"process body must be a generator, got {gen!r}")
        super().__init__(engine)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on = None
        self._started = False
        self._resume_scheduled = engine.schedule(0.0, self._first_resume)

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._triggered

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
