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

Threads, cores, the scheduler's counters and the L2 statistics are C
records (ctypes structures; see ``osmodel/_sched.c``).  The base class
of :class:`Scheduler` is the ``Scheduler`` type of the event core
extension (``repro.simcore._ccore``, built by :mod:`repro.ckernel`): the
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

import ctypes
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SchedulerError
from repro.hardware.cache import observe_metrics
from repro.hardware.cpu import InstructionMix
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

#: Mix table columns: the fields the pass reads of an InstructionMix.
_MIX_FIELDS = ("cpi", "l2_pressure", "l2_sensitivity")

_D = ctypes.c_double
_I = ctypes.c_int64
_P = ctypes.c_void_p


@dataclass(frozen=True)
class BoostPolicy:
    """Anti-starvation (balance-set manager) parameters."""

    enabled: bool = True
    scan_interval: float = 1.0         # how often the manager looks
    starvation_threshold: float = 3.0  # ready-but-unrun time that triggers
    boost_cpu: float = 0.04            # seconds of CPU granted at prio 15


class CoreState(ctypes.Structure):
    """Per-core occupancy bookkeeping: one C record (``SchedCore``).

    The occupant is kept as its thread-table slot (``-1`` when idle);
    :attr:`thread` reads it as the thread.
    """

    _fields_ = [("_thread", _I), ("speed", _D), ("busy_seconds", _D)]

    @property
    def thread(self) -> Optional[SimThread]:
        slot = self._thread
        return None if slot < 0 else self._threads[slot]


class _SchedCtx(ctypes.Structure):
    """Mirror of the C ``SchedCtx`` (every field 8 bytes, no padding)."""

    _fields_ = [
        ("now", _D), ("paging", _D), ("observe", _I),
        ("cycles", _D), ("mix", _I), ("next_dt", _D),
        ("frequency", _D), ("coeff", _D), ("quantum", _D),
        ("n_cores", _I), ("cores", _P), ("l2", _P),
        ("n_threads", _I), ("threads", _P), ("runnable", _P),
        ("mixes", _P), ("log", _P), ("log_len", _I),
        ("last_update", _D), ("rr_counter", _I), ("decisions", _I),
        ("in_decide", _I), ("dirty", _I), ("cursor", _I),
        ("n_runnable", _I), ("fault", _I), ("submits", _I),
    ]


class _SchedLog(ctypes.Structure):
    """Mirror of the C ``SchedLog``: one instrument call of the pass."""

    _fields_ = [("kind", _I), ("a", _I), ("b", _I), ("c", _I),
                ("x", _D), ("y", _D)]


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
        n_cores = machine.n_cores
        self._core_block = (CoreState * n_cores)()
        self.cores: List[CoreState] = list(self._core_block)
        for index, core in enumerate(self.cores):
            core.index = index
            core._threads = self.threads
            core._thread = -1
        self._frequency = machine.frequency_hz
        self._memory = machine.memory
        ctx = self._ctx = _SchedCtx()
        ctx.quantum = quantum
        ctx.last_update = engine.now
        ctx.n_cores = n_cores
        ctx.cores = ctypes.addressof(self._core_block)
        self._groups: Dict[str, int] = {}
        ctx.frequency = machine.frequency_hz
        ctx.coeff = machine.l2.coeff
        # held here too: the pass writes through this address
        self._l2_stats = machine.l2.stats
        ctx.l2 = ctypes.addressof(self._l2_stats)
        # at most three entries per core and one per crossing
        self._log = (_SchedLog * (3 * n_cores + 2))()
        ctx.log = ctypes.addressof(self._log)
        self._mix_table = (_D * 0)()
        self._thread_table = (_P * 0)()
        self._runnable = (_I * 0)()
        super().__init__(engine, self.threads, self._memory, METRICS, ctx,
                         ctypes.addressof(ctx))
        if self.boost.enabled:
            self.engine.schedule(self.boost.scan_interval, self._boost_scan,
                                 daemon=True)

    @property
    def decisions(self) -> int:
        """Decision passes made (one per placement)."""
        return self._ctx.decisions

    @property
    def submits(self) -> int:
        """``submit`` calls that reached the pass (a thread of another
        scheduler is refused before)."""
        return self._ctx.submits

    @property
    def _in_decide(self) -> bool:
        return bool(self._ctx.in_decide)

    # ------------------------------------------------------------------
    # public API (submit and exit_thread are the crossings')
    # ------------------------------------------------------------------

    def spawn(self, name: str, base_priority: int,
              process: Optional[OsProcess] = None,
              group: Optional[str] = None) -> SimThread:
        """Create a thread in the BLOCKED state (no demand yet)."""
        thread = SimThread(name, base_priority, process, group)
        thread.last_ran_at = self.engine.now
        slot = len(self.threads)
        thread._slot = slot
        if group is not None:
            thread._group = self._groups.setdefault(group, len(self._groups))
        if slot == len(self._thread_table):
            self._grow_tables(2 * slot + 4)
        self._thread_table[slot] = ctypes.addressof(thread)
        self.threads.append(thread)
        self._ctx.n_threads = slot + 1
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
        ctx = self._ctx
        boosted = False
        for thread in self.threads:
            if thread._state != _READY:
                continue
            starved_for = now - max(thread.last_ran_at, thread.ready_since)
            if starved_for >= self.boost.starvation_threshold and thread.boost_cpu_remaining <= 0.0:
                thread.boost_cpu_remaining = self.boost.boost_cpu
                ctx.rr_counter += 1
                thread.rr_seq = ctx.rr_counter
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

    def _grow_tables(self, cap: int) -> None:
        """Reallocate the thread table and the pass's runnable scratch
        (a pass suspended at a completion keeps what it collected)."""
        table = (_P * cap)()
        runnable = (_I * cap)()
        ctypes.memmove(table, self._thread_table,
                       ctypes.sizeof(self._thread_table))
        ctypes.memmove(runnable, self._runnable, ctypes.sizeof(self._runnable))
        self._thread_table, self._runnable = table, runnable
        self._ctx.threads = ctypes.addressof(table)
        self._ctx.runnable = ctypes.addressof(runnable)

    # ------------------------------------------------------------------
    # internals: called by the compiled crossings
    # ------------------------------------------------------------------

    def _add_mix(self, mix: InstructionMix) -> int:
        """Row of ``mix`` in the mix table (value-equal mixes share one):
        the crossings call this for a mix they have not met."""
        row = len(self._mix_rows)
        width = len(_MIX_FIELDS)
        if (row + 1) * width > len(self._mix_table):
            table = (_D * (2 * row * width + 4 * width))()
            ctypes.memmove(table, self._mix_table,
                           ctypes.sizeof(self._mix_table))
            self._mix_table = table
            self._ctx.mixes = ctypes.addressof(table)
        for column, name in enumerate(_MIX_FIELDS):
            self._mix_table[row * width + column] = getattr(mix, name)
        self._mix_rows[mix] = row
        return row

    def _replay(self) -> None:
        """Make the instrument calls the compiled pass logged, in order."""
        count = self._ctx.log_len
        if not count:
            return
        trace = self.engine.trace
        threads = self.threads
        for entry in self._log[:count]:
            kind = entry.kind
            if kind == _LOG_L2:
                if METRICS.enabled:
                    observe_metrics(entry.x, entry.y)
            elif kind == _LOG_SEGMENT:
                if trace.enabled:
                    trace.record("sched.segment_done", time=entry.x,
                                 thread=threads[entry.a].name,
                                 segments=entry.b)
            elif kind == _LOG_PREEMPT:
                if METRICS.enabled:
                    METRICS.inc("sched.preemptions")
            else:
                now = entry.x
                if METRICS.enabled:
                    METRICS.inc("sched.context_switches")
                    METRICS.observe("sched.runqueue_wait_s", now - entry.y)
                if trace.enabled:
                    trace.record("sched.place", time=now, core=entry.a,
                                 thread=threads[entry.b].name,
                                 priority=entry.c)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        running = [c.thread.name if c.thread else "-" for c in self.cores]
        return f"<Scheduler cores={running} threads={len(self.threads)}>"
