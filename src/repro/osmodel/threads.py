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


class SimThread:
    """A schedulable thread.  All mutation goes through the scheduler."""

    __slots__ = (
        "name", "base_priority", "state",
        "mix", "remaining_cycles", "completion",
        "quantum_used", "rr_seq", "last_ran_at", "ready_since",
        "boost_cpu_remaining", "group",
        "cpu_seconds", "cycles_retired", "instructions_retired",
        "segments_completed", "process",
    )

    def __init__(self, name: str, base_priority: int = PRIORITY_NORMAL,
                 process: Optional["OsProcess"] = None,
                 group: Optional[str] = None):
        if not 1 <= base_priority <= 15:
            raise ValueError(f"priority must be in [1, 15], got {base_priority}")
        self.name = name
        self.base_priority = base_priority
        # Affinity group: threads of one VM share a group so elevated
        # VMM service work displaces its *own* vCPU before foreign
        # threads (device/timer emulation interrupts guest execution).
        self.group = group
        self.state = ThreadState.BLOCKED
        self.mix: InstructionMix = MIX_IDLE
        self.remaining_cycles = 0.0
        self.completion: Optional["SimEvent"] = None
        self.quantum_used = 0.0
        self.rr_seq = 0
        self.last_ran_at = 0.0
        self.ready_since = 0.0
        self.boost_cpu_remaining = 0.0
        self.cpu_seconds = 0.0
        self.cycles_retired = 0.0
        self.instructions_retired = 0.0
        self.segments_completed = 0
        self.process = process

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
