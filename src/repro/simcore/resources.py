"""Shared-resource primitives: counted semaphores, mutexes and stores.

These are deliberately simpy-flavoured because that shape composes well
with generator processes:

* :class:`Resource` — ``capacity`` concurrent holders; ``request()``
  returns a :class:`SimEvent` to yield on; ``release()`` hands the slot to
  the longest-waiting (optionally highest-priority) requester.
* :class:`Store` — an unbounded (or bounded) FIFO of items with blocking
  ``get``; used for message queues (BOINC RPC, NIC queues).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simcore.engine import Engine
from repro.simcore.events import SimEvent


class Request(SimEvent):
    """A pending resource acquisition; triggers when the slot is granted."""

    __slots__ = ("resource", "priority", "seq", "cancelled")

    def __init__(self, resource: "Resource", priority: float, seq: int):
        super().__init__(resource.engine)
        self.resource = resource
        self.priority = priority
        self.seq = seq
        self.cancelled = False

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op once granted)."""
        if not self.triggered:
            self.cancelled = True

    def __lt__(self, other: "Request") -> bool:
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq


class Resource:
    """Counted resource with priority-FIFO granting.

    Lower ``priority`` values are served first; equal priorities are FIFO.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: List[Request] = []
        self._seq = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return sum(1 for r in self._queue if not r.cancelled)

    def request(self, priority: float = 0.0) -> Request:
        """Ask for a slot; yield the returned event to wait for the grant."""
        req = Request(self, priority, self._seq)
        self._seq += 1
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            req.succeed(self)
        else:
            heapq.heappush(self._queue, req)
        return req

    def release(self) -> None:
        """Return a slot and grant it to the best waiting request."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        while self._queue:
            req = heapq.heappop(self._queue)
            if req.cancelled:
                continue
            self._in_use += 1
            req.succeed(self)
            break

    def acquire(self, priority: float = 0.0):
        """Generator helper: ``yield from resource.acquire()``."""
        yield self.request(priority)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
            f" queued={self.queue_length}>"
        )


class Mutex(Resource):
    """Capacity-1 resource, for readability at call sites."""

    def __init__(self, engine: Engine, name: str = "mutex"):
        super().__init__(engine, capacity=1, name=name)


class Store:
    """FIFO item store with blocking ``get`` and optional capacity bound."""

    def __init__(self, engine: Engine, capacity: Optional[int] = None, name: str = "store"):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[Tuple[SimEvent, Any]] = deque()

    @property
    def level(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> SimEvent:
        """Insert an item; the returned event triggers once stored."""
        done = SimEvent(self.engine)
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((done, item))
            return done
        self._deliver(item)
        done.succeed(None)
        return done

    def _deliver(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter._triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> SimEvent:
        """Remove and return the oldest item; blocks (event) when empty."""
        ev = SimEvent(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                self._drain_putters()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            if self._putters:
                self._drain_putters()
            return True, item
        return False, None

    def _drain_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            done, item = self._putters.popleft()
            self._deliver(item)
            done.succeed(None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Store {self.name!r} level={self.level}>"
