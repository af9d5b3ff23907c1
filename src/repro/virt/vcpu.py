"""Virtual CPU: translates guest cycle demand into host cycle demand.

Full virtualisation on 2006-era x86 (no VT-x in use by these products)
runs guest user-mode code through binary translation at a small per-class
penalty and guest kernel-mode code through heavyweight rewriting.  The
:class:`VCpu` applies the profile's multipliers per
:class:`~repro.osmodel.kernel.CostKind` and submits the resulting *host*
cycles on the VM's vCPU host thread.

It also keeps guest-side retirement accounting (guest instructions and
cycles), which is what guest benchmarks report (a guest MIPS is a guest
instruction, however many host cycles it cost to emulate).

The guest's own charges and the VMM's (device emulation, e.g. one vNIC
frame) share the vCPU thread, which holds one segment at a time.  A
charge made while the thread still runs an earlier one queues behind it,
first in first out, and its event fires when its own segment completes.
A charge on a free thread submits at once and adds no event.
"""

from __future__ import annotations

from collections import deque
from functools import partial

from repro.errors import ReproError, VirtualizationError
from repro.hardware.cpu import InstructionMix
from repro.obs.metrics import METRICS
from repro.osmodel.kernel import CostKind
from repro.osmodel.threads import STATE_CODES, SimThread, ThreadState
from repro.simcore.events import SimEvent
from repro.virt.profiles import HypervisorProfile, user_multiplier


def translate_cycles(profile: "HypervisorProfile", cycles: float,
                     mix: InstructionMix, kind: CostKind) -> float:
    """Host cycles needed to emulate ``cycles`` of guest work."""
    if cycles < 0:
        raise VirtualizationError(f"negative guest cycles: {cycles}")
    if kind is CostKind.USER:
        user = user_multiplier(profile, mix)
        kf = mix.kernel_frac
        return cycles * ((1.0 - kf) * user + kf * profile.m_kernel)
    if kind is CostKind.KERNEL_CONTROL:
        return cycles * profile.m_kernel
    if kind is CostKind.KERNEL_COPY:
        return cycles * profile.m_copy
    raise VirtualizationError(f"unknown cost kind: {kind!r}")


_DONE = STATE_CODES[ThreadState.DONE]


def _relay(event: SimEvent, done: SimEvent) -> None:
    """Trigger a queued charge's ``event`` as its segment ``done`` ended."""
    if done._ok:
        event.succeed(done._value)
    else:
        event.fail(done._value)


class VCpu:
    """One virtual CPU bound to a host thread.

    Implements the :data:`~repro.osmodel.kernel.ChargeFn` signature so a
    guest :class:`~repro.osmodel.kernel.ExecutionContext`, guest
    filesystem and guest netstack can charge through it transparently.
    """

    def __init__(self, vm, thread: SimThread):
        self.vm = vm
        self.thread = thread
        self.guest_cycles = 0.0
        self.guest_instructions = 0.0
        self.host_cycles_charged = 0.0
        #: completion of the last segment this vCPU submitted
        self._busy = None
        #: charges waiting for the thread: (cycles, mix, event), FIFO
        self._queue = deque()

    def charge(self, thread: SimThread, cycles: float, mix: InstructionMix,
               kind: CostKind) -> SimEvent:
        """Guest charge: scale by translation cost, run on the vCPU thread.

        ``thread`` is ignored — the guest is single-vCPU, so *all* guest
        execution funnels onto this vCPU's host thread regardless of
        which context object issued the charge.
        """
        del thread
        host_cycles = translate_cycles(self.vm.profile, cycles, mix, kind)
        self.guest_cycles += cycles
        self.guest_instructions += cycles / mix.cpi
        self.host_cycles_charged += host_cycles
        if METRICS.enabled:
            METRICS.inc("virt.vcpu.guest_cycles", cycles)
            METRICS.inc("virt.vcpu.host_cycles", host_cycles)
            # Translation overhead = host cycles beyond the guest demand —
            # the "stolen" capacity a guest benchmark never sees.
            METRICS.inc("virt.vcpu.steal_cycles", host_cycles - cycles)
        return self._submit(host_cycles, mix)

    def charge_host_native(self, cycles: float, mix: InstructionMix) -> SimEvent:
        """VMM's own (host-native) work on the vCPU thread — device
        emulation, image-file syscalls.  No translation multiplier."""
        self.host_cycles_charged += cycles
        if METRICS.enabled:
            METRICS.inc("virt.vcpu.host_native_cycles", cycles)
        return self._submit(cycles, mix)

    def _submit(self, cycles: float, mix: InstructionMix) -> SimEvent:
        """Submit ``cycles`` on the vCPU thread, or queue them behind the
        segment it is running (see the module docstring)."""
        busy = self._busy
        if (busy is None or busy._triggered and not self._queue
                or self.thread._state == _DONE):
            done = self.vm.host_kernel.scheduler.submit(self.thread, cycles,
                                                        mix)
            self._busy = done
            return done
        event = SimEvent(self.vm.engine)
        self._queue.append((cycles, mix, event))
        if len(self._queue) == 1:
            busy.add_callback(self._dequeue)
        return event

    def _dequeue(self, _finished: SimEvent) -> None:
        """The thread's segment ended: submit the queued charges in order
        until one is running."""
        queue = self._queue
        scheduler = self.vm.host_kernel.scheduler
        while queue:
            cycles, mix, event = queue.popleft()
            try:
                done = scheduler.submit(self.thread, cycles, mix)
            except ReproError as error:
                event.fail(error)
                continue
            self._busy = done
            done.add_callback(partial(_relay, event))
            if not done._triggered:
                if queue:
                    done.add_callback(self._dequeue)
                return
