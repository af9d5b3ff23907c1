"""The pre-rewrite OS scheduler, archived as an equivalence oracle.

A copy of ``repro.osmodel.scheduler`` as it stood before the lean
decision pass (property calls, ``id()`` sets, a ``factors()`` call and a
committed-bytes sum per decision, the ``step()``-per-event drain around
it).  :mod:`tests.property.test_prop_scheduler_equiv` replays random
worlds through this module and through the live scheduler and asserts
every accounting float, the L2 statistics, the tracer records and the
trace-hash snapshot are identical.

Only one deliberate divergence: :meth:`Scheduler.spawn` builds a
:class:`ReferenceThread`, a ``SimThread`` subclass that restores the
write-only ``core`` slot and the ``runnable``/``sort_key`` helpers the
live thread class no longer carries.  :func:`run_until_event` archives
the engine's old drain loop (one ``step()`` per event) beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SchedulerError, SimulationError
from repro.hardware.cpu import InstructionMix
from repro.hardware.machine import Machine
from repro.obs.metrics import METRICS
from repro.osmodel.threads import OsProcess, SimThread, ThreadState
from repro.simcore.engine import Engine
from repro.simcore.events import EventHandle, SimEvent

_CYCLE_EPSILON = 0.5       # segments within half a cycle count as finished
_TIME_EPSILON = 1e-9


class ReferenceThread(SimThread):
    """``SimThread`` plus the attributes the archived scheduler uses."""

    __slots__ = ("core",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.core: Optional[int] = None

    @property
    def runnable(self) -> bool:
        return self.state in (ThreadState.READY, ThreadState.RUNNING)

    def sort_key(self):
        return (-self.effective_priority, self.rr_seq)


@dataclass(frozen=True)
class BoostPolicy:
    """Anti-starvation (balance-set manager) parameters."""

    enabled: bool = True
    scan_interval: float = 1.0         # how often the manager looks
    starvation_threshold: float = 3.0  # ready-but-unrun time that triggers
    boost_cpu: float = 0.04            # seconds of CPU granted at prio 15


@dataclass
class CoreState:
    """Per-core occupancy bookkeeping."""

    index: int
    thread: Optional[SimThread] = None
    speed: float = 0.0        # cycles/second for the current occupant
    busy_seconds: float = 0.0


class Scheduler:
    """The scheduler instance owning a machine's cores."""

    def __init__(self, engine: Engine, machine: Machine,
                 quantum: float = 0.020,
                 boost: Optional[BoostPolicy] = None):
        if quantum <= 0:
            raise SchedulerError(f"quantum must be positive, got {quantum}")
        self.engine = engine
        self.machine = machine
        self.quantum = quantum
        self.boost = boost if boost is not None else BoostPolicy()
        self.cores = [CoreState(i) for i in range(machine.n_cores)]
        self.threads: List[SimThread] = []
        self._rr_counter = 0
        self._last_update = engine.now
        self._tick_handle: Optional[EventHandle] = None
        self._in_decide = False
        self._dirty = False
        if self.boost.enabled:
            self.engine.schedule(self.boost.scan_interval, self._boost_scan,
                                 daemon=True)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def spawn(self, name: str, base_priority: int,
              process: Optional[OsProcess] = None,
              group: Optional[str] = None) -> SimThread:
        """Create a thread in the BLOCKED state (no demand yet)."""
        thread = ReferenceThread(name, base_priority, process, group)
        thread.last_ran_at = self.engine.now
        self.threads.append(thread)
        if process is not None:
            process.add_thread(thread)
        return thread

    def submit(self, thread: SimThread, cycles: float,
               mix: InstructionMix) -> SimEvent:
        """Give ``thread`` a compute segment; returns its completion event.

        The thread must be BLOCKED (one outstanding segment at a time —
        callers sequence their demand through the completion event).
        """
        if thread.state is ThreadState.DONE:
            raise SchedulerError(f"thread {thread.name!r} has exited")
        if thread.state is not ThreadState.BLOCKED:
            raise SchedulerError(
                f"thread {thread.name!r} already has an outstanding segment"
            )
        if cycles < 0:
            raise SchedulerError(f"negative cycle demand: {cycles}")
        self._charge_elapsed()
        completion = self.engine.event()
        if cycles <= _CYCLE_EPSILON:
            completion.succeed(None)
            return completion
        thread.mix = mix
        thread.remaining_cycles = float(cycles)
        thread.completion = completion
        thread.state = ThreadState.READY
        thread.ready_since = self.engine.now
        thread.rr_seq = self._next_rr()
        thread.quantum_used = 0.0
        self._decide()
        return completion

    def exit_thread(self, thread: SimThread) -> None:
        """Terminate a thread permanently."""
        if thread.state is ThreadState.DONE:
            return
        self._charge_elapsed()
        if thread.state is ThreadState.RUNNING:
            self._evict(thread)
        thread.state = ThreadState.DONE
        thread.remaining_cycles = 0.0
        self._decide()

    # -- metrics -----------------------------------------------------------

    def cpu_time(self, thread: SimThread) -> float:
        """CPU seconds consumed, accurate as of *now*."""
        self._charge_elapsed()
        return thread.cpu_seconds

    def instructions(self, thread: SimThread) -> float:
        self._charge_elapsed()
        return thread.instructions_retired

    def core_utilization(self, elapsed: float) -> List[float]:
        self._charge_elapsed()
        if elapsed <= 0:
            return [0.0 for _ in self.cores]
        return [min(1.0, c.busy_seconds / elapsed) for c in self.cores]

    def running_threads(self) -> List[Optional[SimThread]]:
        return [c.thread for c in self.cores]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _next_rr(self) -> int:
        self._rr_counter += 1
        return self._rr_counter

    def _charge_elapsed(self) -> None:
        """Account CPU progress since the last decision point."""
        now = self.engine.now
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        self._last_update = now
        for core in self.cores:
            thread = core.thread
            if thread is None:
                continue
            cycles = min(core.speed * dt, thread.remaining_cycles)
            thread.remaining_cycles -= cycles
            thread.cycles_retired += cycles
            thread.instructions_retired += cycles / thread.mix.cpi
            thread.cpu_seconds += dt
            thread.quantum_used += dt
            thread.last_ran_at = now
            core.busy_seconds += dt
            if thread.boost_cpu_remaining > 0.0:
                thread.boost_cpu_remaining = max(
                    0.0, thread.boost_cpu_remaining - dt
                )
            factor = core.speed / self.machine.frequency_hz if core.speed else 1.0
            self.machine.l2.observe(factor, dt)

    def _evict(self, thread: SimThread) -> None:
        for core in self.cores:
            if core.thread is thread:
                core.thread = None
                core.speed = 0.0
                return
        raise SchedulerError(f"thread {thread.name!r} not on any core")

    def _decide(self) -> None:
        """(Re)compute placement and speeds; schedule the next tick."""
        if self._in_decide:
            self._dirty = True
            return
        self._in_decide = True
        try:
            while True:
                self._dirty = False
                self._decide_once()
                if not self._dirty:
                    break
        finally:
            self._in_decide = False

    def _decide_once(self) -> None:
        self._finish_completed_segments()
        if self._dirty:
            # completions released waiters that submitted new work; the
            # outer loop will re-run with fresh state.
            return
        self._place_threads()
        self._compute_speeds()
        self._schedule_tick()

    def _finish_completed_segments(self) -> None:
        for thread in self.threads:
            if thread.runnable and thread.remaining_cycles <= _CYCLE_EPSILON:
                if thread.state is ThreadState.RUNNING:
                    self._evict(thread)
                thread.state = ThreadState.BLOCKED
                thread.remaining_cycles = 0.0
                thread.segments_completed += 1
                if self.engine.trace.enabled:
                    self.engine.trace.record(
                        "sched.segment_done", time=self.engine.now,
                        thread=thread.name,
                        segments=thread.segments_completed,
                    )
                completion, thread.completion = thread.completion, None
                if completion is not None and not completion.triggered:
                    # may synchronously resume a process that submits again;
                    # re-entrancy is absorbed by the _dirty flag.
                    completion.succeed(None)

    def _place_threads(self) -> None:
        runnable = [t for t in self.threads if t.runnable]
        # Rotate out threads that burnt their quantum so same-priority
        # peers get the core (round robin).
        for thread in runnable:
            if thread.state is ThreadState.RUNNING and thread.quantum_used >= self.quantum - _TIME_EPSILON:
                thread.rr_seq = self._next_rr()
                thread.quantum_used = 0.0
        runnable.sort(key=ReferenceThread.sort_key)
        chosen = runnable[: len(self.cores)]
        self._apply_group_preference(chosen, runnable[len(self.cores):])
        chosen_set = set(id(t) for t in chosen)

        # Demote currently-running threads that lost their slot.
        for core in self.cores:
            if core.thread is not None and id(core.thread) not in chosen_set:
                core.thread.state = ThreadState.READY
                core.thread.ready_since = self.engine.now
                core.thread = None
                core.speed = 0.0
                if METRICS.enabled:
                    METRICS.inc("sched.preemptions")

        # Keep already-placed winners on their cores; fill the rest.
        placed = set(id(c.thread) for c in self.cores if c.thread is not None)
        pending = [t for t in chosen if id(t) not in placed]
        for core in self.cores:
            if core.thread is None and pending:
                thread = pending.pop(0)
                core.thread = thread
                thread.state = ThreadState.RUNNING
                thread.core = core.index
                if METRICS.enabled:
                    # Simulated-time runqueue wait: READY -> placed.
                    METRICS.inc("sched.context_switches")
                    METRICS.observe("sched.runqueue_wait_s",
                                    self.engine.now - thread.ready_since)
                if self.engine.trace.enabled:
                    self.engine.trace.record(
                        "sched.place", time=self.engine.now,
                        core=core.index, thread=thread.name,
                        priority=thread.effective_priority,
                    )
        for t in self.threads:
            if t.state is ThreadState.READY:
                t.core = None

    @staticmethod
    def _apply_group_preference(chosen: List[SimThread],
                                rejected: List[SimThread]) -> None:
        """Prefer displacing a thread that shares an affinity group with a
        higher-priority chosen thread (VMM service work interrupts its own
        VM's vCPU, not foreign processes).

        Swaps equal-priority candidates only, so strict priority order is
        never violated.
        """
        if not rejected:
            return
        groups = [t.group for t in chosen if t.group is not None]
        for index, loser_candidate in enumerate(chosen):
            group = loser_candidate.group
            if group is None:
                continue
            # does a *different* chosen thread with higher priority share
            # this group?  (i.e. this VM already holds a core for service)
            dominated = any(
                other is not loser_candidate and other.group == group
                and other.effective_priority > loser_candidate.effective_priority
                for other in chosen
            )
            if not dominated:
                continue
            for substitute in rejected:
                if (substitute.effective_priority
                        == loser_candidate.effective_priority
                        and substitute.group != group):
                    chosen[index] = substitute
                    rejected.remove(substitute)
                    break
        del groups

    def _compute_speeds(self) -> None:
        per_core_mix = [
            core.thread.mix if core.thread is not None else None
            for core in self.cores
        ]
        factors = self.machine.l2.factors(per_core_mix)
        paging = self.machine.memory.paging_penalty_factor()
        freq = self.machine.frequency_hz
        for core in self.cores:
            if core.thread is None:
                core.speed = 0.0
            else:
                core.speed = freq * factors[core.index] * paging

    def _schedule_tick(self) -> None:
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        next_dt: Optional[float] = None
        for core in self.cores:
            thread = core.thread
            if thread is None or core.speed <= 0:
                continue
            completion_dt = thread.remaining_cycles / core.speed
            quantum_dt = max(self.quantum - thread.quantum_used, _TIME_EPSILON)
            dt = min(completion_dt, quantum_dt)
            if thread.boost_cpu_remaining > 0.0:
                dt = min(dt, max(thread.boost_cpu_remaining, _TIME_EPSILON))
            if next_dt is None or dt < next_dt:
                next_dt = dt
        if next_dt is not None:
            next_dt = max(next_dt, _TIME_EPSILON)
            self._tick_handle = self.engine.schedule(next_dt, self._on_tick)

    def _on_tick(self) -> None:
        self._tick_handle = None
        self._charge_elapsed()
        self._decide()

    def _boost_scan(self) -> None:
        """Balance-set manager: boost long-starved ready threads."""
        self._charge_elapsed()
        now = self.engine.now
        boosted = False
        for thread in self.threads:
            if thread.state is not ThreadState.READY:
                continue
            starved_for = now - max(thread.last_ran_at, thread.ready_since)
            if starved_for >= self.boost.starvation_threshold and thread.boost_cpu_remaining <= 0.0:
                thread.boost_cpu_remaining = self.boost.boost_cpu
                thread.rr_seq = self._next_rr()
                boosted = True
                if METRICS.enabled:
                    METRICS.inc("sched.starvation_boosts")
                if self.engine.trace.enabled:
                    self.engine.trace.record(
                        "sched.boost", time=now, thread=thread.name,
                        starved_for=round(starved_for, 3),
                    )
        if boosted:
            self._decide()
        self.engine.schedule(self.boost.scan_interval, self._boost_scan,
                             daemon=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        running = [c.thread.name if c.thread else "-" for c in self.cores]
        return f"<Scheduler cores={running} threads={len(self.threads)}>"


def run_until_event(engine: Engine, event: SimEvent,
                    limit: Optional[float] = None):
    """``Engine.run_until_event`` as it stood, minus its metrics fold."""
    while not event.triggered:
        if limit is not None and engine.now >= limit:
            raise SimulationError(f"time limit {limit}s reached before event")
        if engine._non_daemon_pending <= 0:
            raise SimulationError(
                "event queue drained (only daemon housekeeping left) "
                "before event triggered"
            )
        if not engine.step():
            raise SimulationError("event queue drained before event triggered")
    if not event.ok:
        raise event.value
    return event.value
