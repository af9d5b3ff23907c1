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
"""

from __future__ import annotations

from repro.errors import VirtualizationError
from repro.hardware.cpu import InstructionMix
from repro.obs.metrics import METRICS
from repro.osmodel.kernel import CostKind
from repro.osmodel.threads import SimThread
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
        return self.vm.host_kernel.scheduler.submit(self.thread, host_cycles, mix)

    def charge_host_native(self, cycles: float, mix: InstructionMix) -> SimEvent:
        """VMM's own (host-native) work on the vCPU thread — device
        emulation, image-file syscalls.  No translation multiplier."""
        self.host_cycles_charged += cycles
        if METRICS.enabled:
            METRICS.inc("virt.vcpu.host_native_cycles", cycles)
        return self.vm.host_kernel.scheduler.submit(self.thread, cycles, mix)
