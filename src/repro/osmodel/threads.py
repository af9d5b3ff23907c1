"""Thread and process objects managed by the OS scheduler model.

Priority values follow Windows XP base-priority conventions because the
paper's host OS is XP and Figure 5–8 behaviour depends on its priority
classes (the VM is run at *normal* and at *idle* class):

====================  =====
class                 base
====================  =====
REALTIME/kernel work   15
HIGH                   13
ABOVE_NORMAL           10
NORMAL                  8
BELOW_NORMAL            6
IDLE                    4
====================  =====
"""

from __future__ import annotations

import enum
from typing import Optional, TYPE_CHECKING

from repro.hardware.cpu import MIX_IDLE, InstructionMix
from repro.simcore.events import CORE

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.events import SimEvent

PRIORITY_REALTIME = 15
PRIORITY_HIGH = 13
PRIORITY_ABOVE_NORMAL = 10
PRIORITY_NORMAL = 8
PRIORITY_BELOW_NORMAL = 6
PRIORITY_IDLE = 4


class ThreadState(enum.Enum):
    BLOCKED = "blocked"  # no CPU demand outstanding
    READY = "ready"      # runnable, waiting for a core
    RUNNING = "running"  # on a core
    DONE = "done"        # exited


#: ``ThreadState`` by the record's state code (the C ``TS_*`` values).
STATES = (ThreadState.BLOCKED, ThreadState.READY, ThreadState.RUNNING,
          ThreadState.DONE)
#: The record's state code of each ``ThreadState``.
STATE_CODES = {state: code for code, state in enumerate(STATES)}


class SimThread(CORE.ThreadRecord):
    """A schedulable thread.  All mutation goes through the scheduler.

    The thread *is* its scheduler record: its base type is the event
    core's ``ThreadRecord``, whose C body (``SchedThread`` in
    ``osmodel/_sched.c``) the compiled decision pass reads and writes in
    place, and whose members are that record's fields, so the tests and
    the pass see one copy.  ``state`` is the record's ``_state`` code as
    a :class:`ThreadState`; ``_group`` and ``_mix`` are the owning
    scheduler's ids of :attr:`group` and :attr:`mix`, and ``_slot`` the
    thread's index in its thread table (all -1 until set).  Name,
    process, mix and group stay Python attributes.  The pending
    completion is held by the scheduler's crossings: the compiled ones
    keep it per slot in C, the Python oracle pass in :attr:`completion`.
    """

    def __init__(self, name: str, base_priority: int = PRIORITY_NORMAL,
                 process: Optional["OsProcess"] = None,
                 group: Optional[str] = None):
        if not 1 <= base_priority <= 15:
            raise ValueError(f"priority must be in [1, 15], got {base_priority}")
        # the record's other fields start at zero (BLOCKED, no cycles,
        # rr_seq 0), its ids at -1
        self.base_priority = base_priority
        self.name = name
        # Affinity group: threads of one VM share a group so elevated
        # VMM service work displaces its *own* vCPU before foreign
        # threads (device/timer emulation interrupts guest execution).
        self.group = group
        self.mix: InstructionMix = MIX_IDLE
        self.completion: Optional["SimEvent"] = None
        self.process = process

    @property
    def state(self) -> ThreadState:
        return STATES[self._state]

    @state.setter
    def state(self, state: ThreadState) -> None:
        self._state = STATE_CODES[state]

    @property
    def effective_priority(self) -> int:
        """Base priority, or the anti-starvation boost ceiling while boosted."""
        if self.boost_cpu_remaining > 0.0:
            return PRIORITY_REALTIME
        return self.base_priority

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SimThread {self.name!r} {self.state.value} prio={self.base_priority}"
            f" rem={self.remaining_cycles:.0f}cyc>"
        )


class OsProcess:
    """A process: a named group of threads plus a memory commitment."""

    def __init__(self, name: str, memory_bytes: int = 0):
        self.name = name
        self.memory_bytes = memory_bytes
        self.threads: list[SimThread] = []

    def add_thread(self, thread: SimThread) -> None:
        thread.process = self
        self.threads.append(thread)

    @property
    def cpu_seconds(self) -> float:
        return sum(t.cpu_seconds for t in self.threads)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OsProcess {self.name!r} threads={len(self.threads)}>"
