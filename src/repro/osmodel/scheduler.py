"""Preemptive multi-core priority scheduler (Windows-XP-flavoured).

Mechanisms modelled — each one is load-bearing for a paper figure:

* **Strict priority with round-robin time slicing** within a level
  (quantum default 20 ms).  An idle-class VM thread therefore starves
  while two normal-class 7z threads own both cores (Figure 7).
* **Balance-set anti-starvation boost**: a ready thread that has not run
  for ``starvation_threshold`` seconds is boosted to priority 15 for a
  small CPU allowance.  This is why an idle-priority VM still creeps
  forward under full host load, as XP's balance-set manager does.
* **Shared-L2 contention**: co-runners on sibling cores slow each other
  down according to :class:`~repro.hardware.cache.SharedL2Model` — the
  source of the "two threads only reach 180%" effect (§4.2.3) and of the
  NBench MEM-index overhead (Figure 5).

Execution model: threads alternate *compute segments* (``submit`` cycles
with an instruction mix; returns a completion event) and blocked phases
(I/O, sync).  Between scheduling decisions every running thread retires
cycles at a constant rate, so charging elapsed time at each decision point
is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SchedulerError
from repro.hardware.cpu import InstructionMix
from repro.hardware.machine import Machine
from repro.obs.metrics import METRICS
from repro.osmodel.threads import (PRIORITY_REALTIME, OsProcess, SimThread,
                                   ThreadState)
from repro.simcore.engine import Engine
from repro.simcore.events import EventHandle, SimEvent

_CYCLE_EPSILON = 0.5       # segments within half a cycle count as finished
_TIME_EPSILON = 1e-9

# Thread states tested by identity on the hot path (no property calls).
BLOCKED = ThreadState.BLOCKED
READY = ThreadState.READY
RUNNING = ThreadState.RUNNING
DONE = ThreadState.DONE


def _priority_order(thread: SimThread):
    """Scheduler ordering: higher effective priority first (a boosted
    thread sits at the realtime ceiling), then FIFO within a level
    (``rr_seq`` is the round-robin counter)."""
    if thread.boost_cpu_remaining > 0.0:
        return (-PRIORITY_REALTIME, thread.rr_seq)
    return (-thread.base_priority, thread.rr_seq)


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
    """The scheduler instance owning a machine's cores.

    Every public call and timer tick ends in one *decision pass*: retire
    segments that finished, pick the ``n_cores`` most urgent runnable
    threads, price each core's speed, and arm the next tick.  The pass
    runs hundreds of thousands of times per paper figure while seeing two
    or three threads, so it is written for constant per-decision cost:
    states are compared to module constants, the machine frequency is
    read once, and ``freq * l2_factor`` per placement comes from a table
    memoised on the tuple of on-core instruction mixes (the paging factor
    still multiplies in on every decision).  Every float expression keeps
    the operand order of the plain formulas — ``(freq * factor) * paging``
    — so results are bit-identical to them.
    """

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
        self._frequency = machine.frequency_hz
        self._memory = machine.memory
        #: Decision passes made (one per placement).
        self.decisions = 0
        # (mix on core 0, mix on core 1, ...) -> per-core freq * factor
        self._speed_table: Dict[tuple, tuple] = {}
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
        thread = SimThread(name, base_priority, process, group)
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
        state = thread.state
        if state is DONE:
            raise SchedulerError(f"thread {thread.name!r} has exited")
        if state is not BLOCKED:
            raise SchedulerError(
                f"thread {thread.name!r} already has an outstanding segment"
            )
        if cycles < 0:
            raise SchedulerError(f"negative cycle demand: {cycles}")
        self._charge_elapsed()
        engine = self.engine
        completion = SimEvent(engine)
        if cycles <= _CYCLE_EPSILON:
            completion.succeed(None)
            return completion
        thread.mix = mix
        thread.remaining_cycles = float(cycles)
        thread.completion = completion
        thread.state = READY
        thread.ready_since = engine._now
        self._rr_counter += 1
        thread.rr_seq = self._rr_counter
        thread.quantum_used = 0.0
        self._decide()
        return completion

    def exit_thread(self, thread: SimThread) -> None:
        """Terminate a thread permanently."""
        if thread.state is DONE:
            return
        self._charge_elapsed()
        if thread.state is RUNNING:
            self._evict(thread)
        thread.state = DONE
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

    def _charge_elapsed(self) -> None:
        """Account CPU progress since the last decision point."""
        now = self.engine._now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        frequency = self._frequency
        l2 = self.machine.l2
        for core in self.cores:
            thread = core.thread
            if thread is None:
                continue
            speed = core.speed
            # min()/max() spelled as the comparisons they perform, so
            # ties and signed zeros resolve exactly as the builtins do.
            cycles = speed * dt
            remaining = thread.remaining_cycles
            if remaining < cycles:
                cycles = remaining
            thread.remaining_cycles = remaining - cycles
            thread.cycles_retired += cycles
            thread.instructions_retired += cycles / thread.mix.cpi
            thread.cpu_seconds += dt
            thread.quantum_used += dt
            thread.last_ran_at = now
            core.busy_seconds += dt
            boost_left = thread.boost_cpu_remaining
            if boost_left > 0.0:
                boost_left = boost_left - dt
                thread.boost_cpu_remaining = (
                    boost_left if boost_left > 0.0 else 0.0)
            l2.observe(speed / frequency if speed else 1.0, dt)

    def _evict(self, thread: SimThread) -> None:
        for core in self.cores:
            if core.thread is thread:
                core.thread = None
                core.speed = 0.0
                return
        raise SchedulerError(f"thread {thread.name!r} not on any core")

    def _decide(self) -> None:
        """(Re)compute placement and speeds; schedule the next tick.

        One pass in one frame (only evictions and group-preference swaps
        call out): *finish* (retire segments that are done, in spawn
        order), *place* (the ``n_cores`` most urgent runnable threads),
        *price* (each core's speed) and *tick* (arm the next decision).
        A completion may resume a process that submits again; that
        re-entry only sets ``_dirty`` and the pass restarts from *finish*
        with fresh state.
        """
        if self._in_decide:
            self._dirty = True
            return
        self._in_decide = True
        engine = self.engine
        threads = self.threads
        cores = self.cores
        n_cores = len(cores)
        try:
            while True:
                self._dirty = False
                # -- finish, collecting the runnable threads in the same
                # spawn-order scan.  The list may grow while a completion
                # resumes a process that spawns (new threads are BLOCKED).
                runnable = []
                for thread in threads:
                    state = thread.state
                    if state is not READY and state is not RUNNING:
                        continue
                    if not thread.remaining_cycles <= _CYCLE_EPSILON:
                        runnable.append(thread)
                        continue
                    if state is RUNNING:
                        self._evict(thread)
                    thread.state = BLOCKED
                    thread.remaining_cycles = 0.0
                    thread.segments_completed += 1
                    trace = engine.trace
                    if trace.enabled:
                        trace.record(
                            "sched.segment_done", time=engine._now,
                            thread=thread.name,
                            segments=thread.segments_completed,
                        )
                    completion, thread.completion = thread.completion, None
                    if completion is not None and not completion._triggered:
                        # may synchronously resume a process that submits
                        # again; re-entrancy is absorbed by _dirty.
                        completion.succeed(None)
                if self._dirty:
                    # Only submit/exit_thread change a thread's state, and
                    # both mark the pass dirty: a clean pass's runnable
                    # list is current.
                    continue
                self.decisions += 1
                # -- place.  Running threads that burnt their quantum
                # rotate behind same-priority peers (round robin); after
                # every completion, so re-entrant submits number first.
                quantum_spent = self.quantum - _TIME_EPSILON
                for thread in runnable:
                    if (thread.state is RUNNING
                            and thread.quantum_used >= quantum_spent):
                        self._rr_counter += 1
                        thread.rr_seq = self._rr_counter
                        thread.quantum_used = 0.0
                n_runnable = len(runnable)
                if n_runnable > 1:
                    runnable.sort(key=_priority_order)
                now = engine._now
                if n_runnable > n_cores:
                    chosen = runnable[:n_cores]
                    self._apply_group_preference(chosen, runnable[n_cores:])
                    runnable = chosen
                    # Demote running threads that lost their slot (``in``
                    # is an identity test: threads define no equality).
                    # With no more runnable threads than cores every one
                    # keeps its core, so the scan is skipped.
                    for core in cores:
                        thread = core.thread
                        if thread is not None and thread not in chosen:
                            thread.state = READY
                            thread.ready_since = now
                            core.thread = None
                            core.speed = 0.0
                            if METRICS.enabled:
                                METRICS.inc("sched.preemptions")
                # Keep already-placed winners on their cores; fill the
                # rest in priority order.  A thread is RUNNING exactly
                # while it holds a core.
                pending = []
                for thread in runnable:
                    if thread.state is not RUNNING:
                        pending.append(thread)
                if pending:
                    trace = engine.trace
                    for core in cores:
                        if core.thread is None and pending:
                            thread = pending.pop(0)
                            core.thread = thread
                            thread.state = RUNNING
                            if METRICS.enabled:
                                # Simulated-time runqueue wait.
                                METRICS.inc("sched.context_switches")
                                METRICS.observe("sched.runqueue_wait_s",
                                                now - thread.ready_since)
                            if trace.enabled:
                                trace.record(
                                    "sched.place", time=now,
                                    core=core.index, thread=thread.name,
                                    priority=thread.effective_priority,
                                )
                # -- price: freq * L2 factor per placement from the table,
                # times the paging factor, as (freq * factor) * paging.
                mixes = []
                for core in cores:
                    thread = core.thread
                    mixes.append(None if thread is None else thread.mix)
                mixes = tuple(mixes)
                base = self._speed_table.get(mixes)
                if base is None:
                    factors = self.machine.l2.factors(mixes)
                    frequency = self._frequency
                    base = tuple([frequency * factors[index]
                                  if mix is not None else 0.0
                                  for index, mix in enumerate(mixes)])
                    self._speed_table[mixes] = base
                memory = self._memory
                paging = memory._paging
                if paging is None:
                    paging = memory.paging_penalty_factor()
                # -- tick: min over busy cores of (completion, quantum
                # left >= eps, boost left >= eps), spelled as the
                # comparisons min()/max() perform.
                quantum = self.quantum
                next_dt = None
                for core, speed in zip(cores, base):
                    thread = core.thread
                    if thread is None:
                        core.speed = 0.0
                        continue
                    speed = speed * paging
                    core.speed = speed
                    if speed <= 0:
                        continue
                    dt = thread.remaining_cycles / speed
                    quantum_dt = quantum - thread.quantum_used
                    if _TIME_EPSILON > quantum_dt:
                        quantum_dt = _TIME_EPSILON
                    if quantum_dt < dt:
                        dt = quantum_dt
                    boost_dt = thread.boost_cpu_remaining
                    if boost_dt > 0.0:
                        if _TIME_EPSILON > boost_dt:
                            boost_dt = _TIME_EPSILON
                        if boost_dt < dt:
                            dt = boost_dt
                    if next_dt is None or dt < next_dt:
                        next_dt = dt
                handle = self._tick_handle
                if handle is not None:
                    handle.cancel()
                    self._tick_handle = None
                if next_dt is not None:
                    if _TIME_EPSILON > next_dt:
                        next_dt = _TIME_EPSILON
                    self._tick_handle = engine.schedule(next_dt,
                                                        self._on_tick)
                if not self._dirty:
                    break
        finally:
            self._in_decide = False

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
        for index, loser_candidate in enumerate(chosen):
            group = loser_candidate.group
            if group is None:
                continue
            # does a *different* chosen thread with higher priority share
            # this group?  (i.e. this VM already holds a core for service)
            priority = loser_candidate.effective_priority
            for other in chosen:
                if (other is not loser_candidate and other.group == group
                        and other.effective_priority > priority):
                    break
            else:
                continue
            for substitute in rejected:
                if (substitute.effective_priority
                        == loser_candidate.effective_priority
                        and substitute.group != group):
                    chosen[index] = substitute
                    rejected.remove(substitute)
                    break

    def _on_tick(self) -> None:
        self._tick_handle = None
        self._charge_elapsed()
        self._decide()

    def _boost_scan(self) -> None:
        """Balance-set manager: boost long-starved ready threads."""
        self._charge_elapsed()
        now = self.engine._now
        boosted = False
        for thread in self.threads:
            if thread.state is not READY:
                continue
            starved_for = now - max(thread.last_ran_at, thread.ready_since)
            if starved_for >= self.boost.starvation_threshold and thread.boost_cpu_remaining <= 0.0:
                thread.boost_cpu_remaining = self.boost.boost_cpu
                self._rr_counter += 1
                thread.rr_seq = self._rr_counter
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
