"""The discrete-event engine: a deterministic time-ordered callback loop.

Design notes
------------
* The heap holds plain ``(time, seq, EventHandle)`` tuples.  ``seq`` is a
  monotone insertion counter, so same-instant events fire in scheduling
  order — this makes every run bit-for-bit deterministic for a given
  seed, which the experiment harness relies on (repetitions differ only
  through their RNG streams).  Tuple keys keep heap sift comparisons in
  C (``seq`` is unique, so the handle itself is never compared), which is
  the single hottest operation in the simulator.
* Cancellation is O(1): handles are flagged and skipped when popped
  (lazy deletion), the standard technique for binary-heap timer wheels.
* :meth:`run` drains through the event core's ``_drain`` (one C call),
  which delivers same-instant batches without
  re-touching the clock; :meth:`run_until_event` drains through its
  ``_drain_until``.  :meth:`step` remains the one-event-at-a-time API
  for tests and debuggers.
* The clock, ``schedule``/``schedule_at`` and both drains live in the
  event core's ``EngineCore`` base, in the compiled extension
  ``repro.simcore._ccore``.  It pushes onto a heap list of
  ``(when, seq, handle)`` tuples, so this class's Python loops pop what
  it pushes.
* The engine knows nothing about processes, CPUs or OSes; those layers
  build on :meth:`schedule`/:meth:`schedule_at` plus ``SimEvent``.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.audit.tracehash import TRACE_HASH
from repro.errors import SimulationError
from repro.obs.metrics import METRICS
from repro.simcore.events import CORE, AllOf, AnyOf, SimEvent, Timeout
from repro.simcore.process import SimProcess
from repro.simcore.trace import Tracer


class Engine(CORE.EngineCore):
    """Owns simulated time and the pending-event heap.

    The clock (``now``), ``schedule``/``schedule_at`` and the drains of
    ``run`` and ``run_until_event`` are the event core's ``EngineCore``
    (compiled, see :mod:`repro.ckernel`); ``run``,
    ``run_until_event`` and ``step`` stay here.
    """

    def __init__(self, *, trace: Optional[Tracer] = None, start_time: float = 0.0):
        super().__init__(start_time)
        self._running = False
        self.trace = trace if trace is not None else Tracer(enabled=False)
        # Audit trace-hash stream: None unless the process-global
        # recorder is enabled, so the disabled cost is this one lookup
        # plus an `is None` branch per dispatched event.
        self._thash = TRACE_HASH.open_stream()

    # -- counters ----------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far (cancelled pops excluded)."""
        return self._processed

    @property
    def pending_count(self) -> int:
        """Heap size including lazily-deleted (cancelled) entries."""
        return len(self._heap)

    # -- event constructors ------------------------------------------------

    def event(self) -> SimEvent:
        """A fresh untriggered one-shot condition."""
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def process(self, gen: Generator, name: str = "") -> SimProcess:
        """Start a generator-based process (see :mod:`repro.simcore.process`)."""
        return SimProcess(self, gen, name)

    # -- main loop ----------------------------------------------------------

    def step(self) -> bool:
        """Fire the next non-cancelled event.  Returns False when empty."""
        heap = self._heap
        while heap:
            when, seq, handle = heapq.heappop(heap)
            if handle._cancelled:
                continue
            if when < self._now - 1e-12:
                raise SimulationError("heap yielded an event from the past")
            if not handle.daemon:
                self._non_daemon_pending -= 1
                handle._on_cancel = None  # fired: a late cancel() is a no-op
            self._now = when
            self._processed += 1
            if self._thash is not None:
                self._thash.update(when, seq, handle.fn)
            handle.fn(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or simulated time reaches ``until``.

        When ``until`` is given and the heap still has later events, the
        clock is advanced exactly to ``until`` (pending events remain
        schedulable for a subsequent ``run``).  Returns the final time.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        # Metrics follow the Tracer guard contract: one flag read here,
        # and the drain's same-instant tally folded in once at the end.
        metrics_on = METRICS.enabled
        if metrics_on:
            from time import perf_counter

            wall_started = perf_counter()  # repro: allow-wall-clock (metrics)
            start_processed = self._processed
            METRICS.gauge_max("engine.heap_size", len(self._heap))
        try:
            if until is not None and until < self._now:
                raise SimulationError(
                    f"run(until={until}) is before now={self._now}"
                )
            batches, batch_events, batch_max = self._drain(until)
        finally:
            self._running = False
        if metrics_on:
            dispatched = self._processed - start_processed
            wall = perf_counter() - wall_started  # repro: allow-wall-clock
            METRICS.inc("engine.runs")
            METRICS.inc("engine.events_dispatched", dispatched)
            METRICS.observe("engine.run_wall_s", wall)
            METRICS.gauge_max("engine.heap_size", len(self._heap))
            if wall > 0.0:
                METRICS.gauge_max("engine.events_per_sec", dispatched / wall)
            if batches:
                # mean same-instant batch size = events / batches
                METRICS.inc("engine.same_instant_batches", batches)
                METRICS.inc("engine.same_instant_events", batch_events)
                METRICS.gauge_max("engine.batch_events_max", batch_max)
        return self._now

    def run_until_event(self, event: SimEvent, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; raise on failure or time limit.

        Convenience for tests and experiment drivers: returns the event's
        value, re-raises its exception on failure, and raises
        :class:`SimulationError` if the heap drains or ``limit`` passes
        without the event triggering.
        """
        # Delta-based accounting (see run()): zero per-event cost when
        # metrics are disabled, one counter fold per call when enabled.
        metrics_on = METRICS.enabled
        if metrics_on:
            from time import perf_counter

            wall_started = perf_counter()  # repro: allow-wall-clock (metrics)
            start_processed = self._processed
            METRICS.gauge_max("engine.heap_size", len(self._heap))
        self._drain_until(event, limit)
        if metrics_on:
            dispatched = self._processed - start_processed
            wall = perf_counter() - wall_started  # repro: allow-wall-clock
            METRICS.inc("engine.runs")
            METRICS.inc("engine.events_dispatched", dispatched)
            METRICS.observe("engine.run_wall_s", wall)
            METRICS.gauge_max("engine.heap_size", len(self._heap))
            if wall > 0.0:
                METRICS.gauge_max("engine.events_per_sec", dispatched / wall)
        if not event._ok:
            raise event._value
        return event._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self._now:.6f} pending={len(self._heap)}>"
