"""Event primitives for the discrete-event kernel.

Two kinds of "event" exist and the distinction matters:

* :class:`EventHandle` — a *scheduled callback* sitting in the engine's
  time-ordered heap.  It fires exactly once at its timestamp unless
  cancelled.  This is the low-level mechanism everything else builds on.

* :class:`SimEvent` — a *one-shot condition variable* with no intrinsic
  time.  Processes wait on it; some other party triggers it (``succeed`` /
  ``fail``).  Composition helpers :class:`AllOf` and :class:`AnyOf` build
  barrier/race conditions from several ``SimEvent`` instances.

Both come from the event core (:data:`CORE`): the compiled extension
``repro.simcore._ccore`` that :func:`repro.ckernel.event_core` builds and
loads (it raises when it cannot).  The classes defined here are Python
subclasses of the core's ``SimEvent``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, TYPE_CHECKING

from repro import ckernel
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.engine import Engine

#: The event core: the compiled extension (see :mod:`repro.ckernel`).
CORE = ckernel.event_core()

EventHandle = CORE.EventHandle
SimEvent = CORE.SimEvent


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
