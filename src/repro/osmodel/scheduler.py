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

Threads, cores and the L2 statistics are Python objects whose C body is
the record the pass works on (:class:`~repro.osmodel.threads.SimThread`,
:class:`CoreState` and :class:`~repro.hardware.cache.CacheStats`
subclass the event core's ``ThreadRecord``, ``CoreRecord`` and
``L2Record``; see ``osmodel/_sched.c``).  The base class of
:class:`Scheduler` is the event core's ``Scheduler`` type (the compiled
module ``repro.simcore._ccore``, built by :mod:`repro.ckernel`): it owns
the pass's counters, thread table, mix table and observation log; the
*crossings* (``submit``, ``exit_thread``, the tick, the charge and the
balance-set pass) and the decision pass they enter are C, and a finished
segment's completion fires, the pass resumes and the tick is re-armed
without leaving C.  Python keeps ``spawn``, the balance-set scan, the
metric readers and :meth:`Scheduler._replay`, which the crossings call
only while metrics or tracing are on.  The pass prices a placement with
the :class:`~repro.hardware.cache.SharedL2Model` formula (a machine's
L2 model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.hardware.cache import observe_metrics
from repro.hardware.machine import Machine
from repro.obs.metrics import METRICS
from repro.osmodel.threads import STATE_CODES, OsProcess, SimThread, ThreadState
from repro.simcore.engine import Engine
from repro.simcore.events import CORE

_READY = STATE_CODES[ThreadState.READY]

# Kinds of the compiled pass's observation log (LOG_* in _sched.c).
_LOG_L2 = 0
_LOG_SEGMENT = 1
_LOG_PREEMPT = 2


@dataclass(frozen=True)
class BoostPolicy:
    """Anti-starvation (balance-set manager) parameters."""

    enabled: bool = True
    scan_interval: float = 1.0         # how often the manager looks
    starvation_threshold: float = 3.0  # ready-but-unrun time that triggers
    boost_cpu: float = 0.04            # seconds of CPU granted at prio 15


class CoreState(CORE.CoreRecord):
    """Per-core occupancy bookkeeping: a ``CoreRecord`` (``SchedCore`` in
    ``osmodel/_sched.c``).

    The occupant is kept as its thread-table slot (``-1`` when idle);
    :attr:`thread` reads it as the thread.
    """

    def __init__(self, index: int, threads: List[SimThread]):
        self.index = index
        self._threads = threads

    @property
    def thread(self) -> Optional[SimThread]:
        slot = self._thread
        return None if slot < 0 else self._threads[slot]


_Crossings = CORE.Scheduler


class Scheduler(_Crossings):
    """The scheduler instance owning a machine's cores.

    Every public call and timer tick ends in one *decision pass*: retire
    segments that finished, pick the ``n_cores`` most urgent runnable
    threads, price each core's speed, and arm the next tick.  The pass
    runs hundreds of thousands of times per paper figure while seeing two
    or three threads, so it and its crossings are compiled (see the
    module docstring).
    """

    # The crossings of the base class, bound here too: callers (and a
    # tracer wrapping ``submit``) reach them through this class.
    submit = _Crossings.submit
    exit_thread = _Crossings.exit_thread

    def __init__(self, engine: Engine, machine: Machine,
                 quantum: float = 0.020,
                 boost: Optional[BoostPolicy] = None):
        if quantum <= 0:
            raise SchedulerError(f"quantum must be positive, got {quantum}")
        self.engine = engine
        self.machine = machine
        self.quantum = quantum
        self.boost = boost if boost is not None else BoostPolicy()
        self.threads: List[SimThread] = []
        self.cores: List[CoreState] = [
            CoreState(index, self.threads) for index in range(machine.n_cores)]
        self._frequency = machine.frequency_hz
        self._memory = machine.memory
        self._groups: Dict[str, int] = {}
        super().__init__(engine, self.threads, self.cores, machine.l2.stats,
                         self._memory, METRICS, machine.frequency_hz,
                         machine.l2.coeff, quantum)
        if self.boost.enabled:
            self.engine.schedule(self.boost.scan_interval, self._boost_scan,
                                 daemon=True)

    # ------------------------------------------------------------------
    # public API (submit and exit_thread are the crossings')
    # ------------------------------------------------------------------

    def spawn(self, name: str, base_priority: int,
              process: Optional[OsProcess] = None,
              group: Optional[str] = None) -> SimThread:
        """Create a thread in the BLOCKED state (no demand yet)."""
        thread = SimThread(name, base_priority, process, group)
        thread.last_ran_at = self.engine.now
        if group is not None:
            thread._group = self._groups.setdefault(group, len(self._groups))
        self._adopt(thread)
        if process is not None:
            process.add_thread(thread)
        return thread

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

    def _boost_scan(self) -> None:
        """Balance-set manager: boost long-starved ready threads."""
        self._charge_elapsed()
        now = self.engine._now
        boosted = False
        for thread in self.threads:
            if thread._state != _READY:
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

    # ------------------------------------------------------------------
    # internals: called by the compiled crossings
    # ------------------------------------------------------------------

    def _replay(self, log: Tuple[tuple, ...]) -> None:
        """Make the instrument calls the compiled pass logged, in order:
        ``log`` holds them as ``(kind, a, b, c, x, y)`` entries."""
        trace = self.engine.trace
        threads = self.threads
        for kind, a, b, c, x, y in log:
            if kind == _LOG_L2:
                if METRICS.enabled:
                    observe_metrics(x, y)
            elif kind == _LOG_SEGMENT:
                if trace.enabled:
                    trace.record("sched.segment_done", time=x,
                                 thread=threads[a].name, segments=b)
            elif kind == _LOG_PREEMPT:
                if METRICS.enabled:
                    METRICS.inc("sched.preemptions")
            else:
                if METRICS.enabled:
                    METRICS.inc("sched.context_switches")
                    METRICS.observe("sched.runqueue_wait_s", x - y)
                if trace.enabled:
                    trace.record("sched.place", time=x, core=a,
                                 thread=threads[b].name, priority=c)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        running = [c.thread.name if c.thread else "-" for c in self.cores]
        return f"<Scheduler cores={running} threads={len(self.threads)}>"
