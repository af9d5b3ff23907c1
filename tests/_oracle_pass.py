"""The scheduler's records, crossings and decision pass in Python: the
test oracle of ``osmodel/_sched.c``.

:class:`Scheduler` here stands for the compiled base type ``Scheduler``
of the event core extension, and :class:`ThreadRecord`,
:class:`CoreRecord` and :class:`L2Record` for its record types: the
oracle core (:mod:`tests._oracle_core`) exports them, so they are the
bases of :class:`repro.osmodel.scheduler.Scheduler`,
:class:`~repro.osmodel.threads.SimThread`,
:class:`~repro.osmodel.scheduler.CoreState` and
:class:`~repro.hardware.cache.CacheStats` in an interpreter running on
that core (see :mod:`tests._python_core`).  The records are plain
attributes with the compiled records' names and starting values; the
scheduler's counters are attributes of the scheduler, named as the
compiled type's members.  The pass must produce the same bits as the
compiled one.  The pass
is written for constant per-decision cost: states are compared as record codes, the machine frequency is read
once, and ``freq * l2_factor`` per placement comes from a table memoised
on the tuple of on-core instruction mixes (the paging factor still
multiplies in on every decision).  Every float expression keeps the
operand order of the plain formulas — ``(freq * factor) * paging`` — and
``min`` / ``max`` are spelled as the comparisons the builtins make.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import SchedulerError
from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cpu import InstructionMix
    from repro.osmodel import scheduler
    from repro.osmodel.threads import SimThread
    from repro.simcore.events import SimEvent

# Shared, as literals, with _sched.c (this module is imported before the
# event core is chosen, so it cannot import repro.osmodel.threads).
_CYCLE_EPSILON = 0.5       # segments within half a cycle count as finished
_TIME_EPSILON = 1e-9
PRIORITY_REALTIME = 15

# Record state codes (TS_* in _sched.c, threads.STATE_CODES), compared
# on the hot path (no property calls).
_BLOCKED = 0
_READY = 1
_RUNNING = 2
_DONE = 3


class ThreadRecord:
    """Stand-in for the compiled ``ThreadRecord``: a thread's record
    fields, zero (BLOCKED, no cycles) but for the ids, -1."""

    remaining_cycles = cycles_retired = instructions_retired = 0.0
    cpu_seconds = quantum_used = boost_cpu_remaining = 0.0
    last_ran_at = ready_since = 0.0
    rr_seq = segments_completed = base_priority = _state = 0
    _group = _mix = _slot = -1


class CoreRecord:
    """Stand-in for the compiled ``CoreRecord``: an idle core."""

    _thread = -1
    speed = busy_seconds = 0.0


class L2Record:
    """Stand-in for the compiled ``L2Record``: zeroed statistics."""

    contended_seconds = solo_seconds = worst_factor = 0.0


def _priority_order(thread: SimThread):
    """Scheduler ordering: higher effective priority first (a boosted
    thread sits at the realtime ceiling), then FIFO within a level
    (``rr_seq`` is the round-robin counter)."""
    if thread.boost_cpu_remaining > 0.0:
        return (-PRIORITY_REALTIME, thread.rr_seq)
    return (-thread.base_priority, thread.rr_seq)


class Scheduler:
    """The crossings on the Python pass (``submit``, ``exit_thread``,
    the tick, the charge and the balance-set pass), bound by the same
    ``__init__`` arguments as the compiled type; the pass reads the
    scheduler's own attributes, so it keeps only the tick handle and its
    speed table: (mix on core 0, mix on core 1, ...) -> per-core
    ``freq * factor``."""

    def __init__(self, engine, threads, cores, l2, memory, metrics,
                 frequency, coeff, quantum) -> None:
        self._tick_handle = None
        self._speed_table = {}
        self.decisions = 0
        self.submits = 0
        self._rr_counter = 0
        self._in_decide = 0
        self._dirty = 0
        self._last_update = engine.now

    def _adopt(self, thread: SimThread) -> None:
        """Give a fresh thread the next slot of the thread list."""
        if thread._slot != -1:
            raise SchedulerError(
                f"thread {thread.name!r} belongs to a scheduler already")
        thread._slot = len(self.threads)
        self.threads.append(thread)

    def submit(self: "scheduler.Scheduler", thread: SimThread,
               cycles: float, mix: InstructionMix) -> SimEvent:
        """Give ``thread`` a compute segment; returns its completion event.

        The thread must be BLOCKED (one outstanding segment at a time:
        callers sequence their demand through the completion event).
        """
        _check_slot(self, thread)
        self.submits += 1
        state = thread._state
        if state == _DONE:
            raise SchedulerError(f"thread {thread.name!r} has exited")
        if state != _BLOCKED:
            raise SchedulerError(
                f"thread {thread.name!r} already has an outstanding segment"
            )
        if cycles < 0:
            raise SchedulerError(f"negative cycle demand: {cycles}")
        charge(self)
        engine = self.engine
        completion = engine.event()
        if cycles <= _CYCLE_EPSILON:
            completion.succeed(None)
            return completion
        thread.mix = mix
        thread.remaining_cycles = float(cycles)
        thread.completion = completion
        thread._state = _READY
        thread.ready_since = engine._now
        self._rr_counter += 1
        thread.rr_seq = self._rr_counter
        thread.quantum_used = 0.0
        decide(self)
        return completion

    def exit_thread(self: "scheduler.Scheduler", thread: SimThread) -> None:
        """Terminate a thread permanently."""
        if thread._state == _DONE:
            return
        _check_slot(self, thread)
        charge(self)
        if thread._state == _RUNNING:
            _evict(self, thread)
        thread._state = _DONE
        thread.remaining_cycles = 0.0
        decide(self)

    def _charge_elapsed(self: "scheduler.Scheduler") -> None:
        """Account CPU progress since the last decision point."""
        charge(self)

    def _decide(self: "scheduler.Scheduler") -> None:
        """(Re)compute placement and speeds; schedule the next tick."""
        decide(self)

    def _on_tick(self: "scheduler.Scheduler") -> None:
        """The timer tick: charge, then a decision pass."""
        self._tick_handle = None
        charge(self)
        decide(self)


def _check_slot(sched: "scheduler.Scheduler", thread: SimThread) -> None:
    """Refuse a thread of another scheduler, as the compiled crossings
    must (they index C memory with its slot)."""
    slot = thread._slot
    if slot < 0 or slot >= len(sched.threads) \
            or sched.threads[slot] is not thread:
        raise SchedulerError(
            f"thread {thread.name!r} belongs to another scheduler")


def charge(sched: "scheduler.Scheduler") -> None:
    """Account CPU progress since the last decision point."""
    now = sched.engine._now
    dt = now - sched._last_update
    sched._last_update = now
    if dt <= 0:
        return
    frequency = sched._frequency
    l2 = sched.machine.l2
    threads = sched.threads
    for core in sched.cores:
        slot = core._thread
        if slot < 0:
            continue
        thread = threads[slot]
        speed = core.speed
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


def decide(sched: "scheduler.Scheduler") -> None:
    """One pass in one frame (only evictions and group-preference swaps
    call out): *finish* (retire segments that are done, in spawn order),
    *place* (the ``n_cores`` most urgent runnable threads), *price* (each
    core's speed) and *tick* (arm the next decision).  A completion may
    resume a process that submits again; that re-entry only marks the
    context dirty and the pass restarts from *finish* with fresh state.
    """
    if sched._in_decide:
        sched._dirty = 1
        return
    sched._in_decide = 1
    engine = sched.engine
    threads = sched.threads
    cores = sched.cores
    n_cores = len(cores)
    try:
        while True:
            sched._dirty = 0
            # -- finish, collecting the runnable threads in the same
            # spawn-order scan.  The list may grow while a completion
            # resumes a process that spawns (new threads are BLOCKED).
            runnable = []
            for thread in threads:
                state = thread._state
                if state != _READY and state != _RUNNING:
                    continue
                if not thread.remaining_cycles <= _CYCLE_EPSILON:
                    runnable.append(thread)
                    continue
                if state == _RUNNING:
                    _evict(sched, thread)
                thread._state = _BLOCKED
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
                    # again; re-entrancy is absorbed by the dirty flag.
                    completion.succeed(None)
            if sched._dirty:
                # Only submit/exit_thread change a thread's state, and
                # both mark the pass dirty: a clean pass's runnable list
                # is current.
                continue
            sched.decisions += 1
            # -- place.  Running threads that burnt their quantum rotate
            # behind same-priority peers (round robin); after every
            # completion, so re-entrant submits number first.
            quantum_spent = sched.quantum - _TIME_EPSILON
            for thread in runnable:
                if (thread._state == _RUNNING
                        and thread.quantum_used >= quantum_spent):
                    sched._rr_counter += 1
                    thread.rr_seq = sched._rr_counter
                    thread.quantum_used = 0.0
            n_runnable = len(runnable)
            if n_runnable > 1:
                runnable.sort(key=_priority_order)
            now = engine._now
            if n_runnable > n_cores:
                chosen = runnable[:n_cores]
                _apply_group_preference(chosen, runnable[n_cores:])
                runnable = chosen
                # Demote running threads that lost their slot (``in`` is
                # an identity test: threads define no equality).  With
                # no more runnable threads than cores every one keeps its
                # core, so the scan is skipped.
                for core in cores:
                    slot = core._thread
                    if slot < 0:
                        continue
                    thread = threads[slot]
                    if thread not in chosen:
                        thread._state = _READY
                        thread.ready_since = now
                        core._thread = -1
                        core.speed = 0.0
                        if METRICS.enabled:
                            METRICS.inc("sched.preemptions")
            # Keep already-placed winners on their cores; fill the rest
            # in priority order.  A thread is RUNNING exactly while it
            # holds a core.
            pending = []
            for thread in runnable:
                if thread._state != _RUNNING:
                    pending.append(thread)
            if pending:
                trace = engine.trace
                for core in cores:
                    if core._thread < 0 and pending:
                        thread = pending.pop(0)
                        core._thread = thread._slot
                        thread._state = _RUNNING
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
            placed = []
            mixes = []
            for core in cores:
                slot = core._thread
                thread = None if slot < 0 else threads[slot]
                placed.append(thread)
                mixes.append(None if thread is None else thread.mix)
            mixes = tuple(mixes)
            base = sched._speed_table.get(mixes)
            if base is None:
                factors = sched.machine.l2.factors(mixes)
                frequency = sched._frequency
                base = tuple([frequency * factors[index]
                              if mix is not None else 0.0
                              for index, mix in enumerate(mixes)])
                sched._speed_table[mixes] = base
            memory = sched._memory
            paging = memory._paging
            if paging is None:
                paging = memory.paging_penalty_factor()
            # -- tick: min over busy cores of (completion, quantum left
            # >= eps, boost left >= eps), spelled as the comparisons
            # min()/max() perform.
            quantum = sched.quantum
            next_dt = None
            for core, thread, speed in zip(cores, placed, base):
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
            handle = sched._tick_handle
            if handle is not None:
                handle.cancel()
                sched._tick_handle = None
            if next_dt is not None:
                if _TIME_EPSILON > next_dt:
                    next_dt = _TIME_EPSILON
                sched._tick_handle = engine.schedule(next_dt,
                                                     sched._on_tick)
            if not sched._dirty:
                break
    finally:
        sched._in_decide = 0


def _evict(sched: "scheduler.Scheduler", thread: SimThread) -> None:
    slot = thread._slot
    for core in sched.cores:
        if core._thread == slot:
            core._thread = -1
            core.speed = 0.0
            return
    raise SchedulerError(f"thread {thread.name!r} not on any core")


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
